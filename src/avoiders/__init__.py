"""Exact enumeration of {1243, 2134}-avoiding permutations.

The package has four layers: entry-level permutation predicates (``perms``),
exhaustive class enumeration with prefix pruning, plus level-by-level counters
for the {1243, 2134} class by key mid-123 count and for the {123} class
(``enumeration``), the length-reducing bijection onto lists of start-small
123-avoiders (``bijection``), and exact integer power-series arithmetic for
the generating functions involved (``series``).  ``verify`` cross-checks all
of them against each other, and ``cli`` exposes everything as a command line.
"""

from .bijection import (
    DecompositionStep,
    InverseParams,
    decompose,
    format_perm_list,
    inverse_params,
    parse_perm_list,
    phi,
    phi_inverse,
    recompose,
)
from .enumeration import (
    ClassDescriptor,
    count_class,
    count_pair_avoiders_by_keys,
    enumerate_avoiders,
    enumerate_class,
    naive_avoiders,
)
from .perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    PATTERN_1243,
    PATTERN_2134,
    avoids,
    avoids_pair,
    contains,
    format_perm,
    is_permutation,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
    parse_perm,
    right_to_left_maxima,
    standardize,
)
from .series import (
    PowerSeries,
    catalan_series,
    gf_elements,
    gf_full,
    gf_start_small,
    invert_transform,
    kotesovec_series,
    poly,
    sqrt_one_minus_4x,
)

__all__ = [
    "AVOIDED_PAIR",
    "PATTERN_123",
    "PATTERN_1243",
    "PATTERN_2134",
    "ClassDescriptor",
    "DecompositionStep",
    "InverseParams",
    "PowerSeries",
    "avoids",
    "avoids_pair",
    "catalan_series",
    "contains",
    "count_class",
    "count_pair_avoiders_by_keys",
    "decompose",
    "enumerate_avoiders",
    "enumerate_class",
    "format_perm",
    "format_perm_list",
    "gf_elements",
    "gf_full",
    "gf_start_small",
    "inverse_params",
    "invert_transform",
    "is_permutation",
    "is_start_small",
    "key_mid123_entries",
    "kotesovec_series",
    "mid123_entries",
    "naive_avoiders",
    "parse_perm",
    "parse_perm_list",
    "phi",
    "phi_inverse",
    "poly",
    "recompose",
    "right_to_left_maxima",
    "sqrt_one_minus_4x",
    "standardize",
]

__version__ = "0.1.0"
