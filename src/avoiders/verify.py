"""Cross-verification harness: every structural claim the package relies on,
checked against independent computation.

Each check returns a ``CheckResult`` carrying a pass/fail flag and, on
failure, the first counterexample or an expected-vs-actual diff.  The
bijection checks sweep complete avoidance classes; the series checks compare
the two independent generating-function routes and the enumeration oracle.
``run_checks`` bundles everything for the ``verify`` CLI command; the test
suite calls the individual functions with the bounds it wants.

This module is the one place each theorem is checked: in particular the
postconditions of ``bijection.decompose`` are written only in
``check_decomposition_typing``, and the library does not re-check them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bijection import Perm, decompose, inverse_params, phi, phi_inverse, recompose
from .enumeration import (
    ClassDescriptor,
    count_avoiders,
    count_pair_avoiders,
    count_start_small_123_avoiders,
    enumerate_avoiders,
    enumerate_class,
)
from .perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    avoids,
    contains_123,
    format_perm,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
    parse_perm,
)
from .series import (
    catalan_series,
    gf_full,
    gf_start_small,
    integer_coefficients,
    invert_transform,
    kotesovec_series,
    poly,
    sqrt_one_minus_4x,
)

#: First terms of A164651 (index n holds the count for length n), vendored in
#: the package data; regenerated by scripts in demos/ if ever needed.
REFERENCE_SEQUENCE_FILE = "a164651.txt"

# The two fixed worked decompositions used as golden examples, one row each:
# the case name that failure details start with, the input, its image pair,
# whether it is the key case, the step's witnesses, and the parameters
# ``inverse_params`` must read off the pair (pinned for the drop case only).
GOLDEN_EXAMPLES = (
    (
        "key-case",
        parse_perm("11 2 12 9 7 8 4 5 6 1 10 3"),
        (parse_perm("8 1 9 6 4 5 2 3 7"), parse_perm("2 1 4 3")),
        True,
        {"b_value": 6, "a_value": 2, "c_value": 10, "j": 9, "r": 0},
        {},
    ),
    (
        "drop-case",
        parse_perm("13 16 12 3 15 8 9 10 11 7 6 5 2 1 14 4"),
        (parse_perm("9 12 8 4 11 5 6 7 10 3 2 1"), parse_perm("3 2 1 5 4")),
        False,
        {"b_value": 5, "a_value": 3, "c_value": 14, "j": 12, "r": 3},
        {"n": 16, "j": 12, "r": 3, "p": 9, "q": 4,
         "i_pos": 4, "k_pos": 15, "a_value": 3, "c_value": 14, "s": 4},
    ),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    detail: str = ""


def _result(name: str, scope: str, failure: str | None) -> CheckResult:
    return CheckResult(name=name, scope=scope, passed=failure is None,
                       detail=failure or "")


def _start_small(n: int, patterns: tuple[Perm, ...]) -> Iterator[Perm]:
    return enumerate_class(ClassDescriptor(n, patterns, start_small_only=True))


def _first_mismatch(
    left: Iterable[int], right: Iterable[int], message: str, start: int = 0
) -> str | None:
    # ``message`` filled in with the first index n where the equal-length
    # sides differ and their values a, b there; None if they never differ.
    for n, (a, b) in enumerate(zip(left, right, strict=True), start):
        if a != b:
            return message.format(n=n, a=a, b=b)
    return None


def load_reference_sequence() -> list[int]:
    """The vendored A164651 terms, index n = count for permutations of [n]."""
    from importlib.resources import files

    text = (files("avoiders") / "data" / REFERENCE_SEQUENCE_FILE).read_text()
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n_str, value_str = line.split()
        terms[int(n_str)] = int(value_str)
    return [terms[n] for n in range(len(terms))]


def check_reference_counts(order: int = 100) -> CheckResult:
    """gf_full reproduces the vendored A164651 terms."""
    reference = load_reference_sequence()
    top = min(order, len(reference) - 1)
    coeffs = integer_coefficients(gf_full(top))
    failure = _first_mismatch(
        coeffs, reference[: top + 1], "n={n}: series gives {a}, reference says {b}"
    )
    return _result("reference_counts", f"n<={top}", failure)


def check_enumeration_matches_series(max_n: int) -> CheckResult:
    """Brute-force avoider counts equal the gf_full coefficients for n >= 1
    (the n = 0 term is compared with A164651 by ``check_reference_counts``)."""
    coeffs = integer_coefficients(gf_full(max_n))
    counts = (count_avoiders(n, AVOIDED_PAIR) for n in range(1, max_n + 1))
    failure = _first_mismatch(
        counts, coeffs[1:], "n={n}: enumeration counts {a}, series gives {b}", start=1
    )
    return _result("enumeration_matches_series", f"n<={max_n}", failure)


def check_memo_matches_series(max_n: int) -> CheckResult:
    """The memoized pair counter equals the gf_full coefficients for n <= max_n.
    ``check_enumeration_matches_series`` holds brute force to the same series,
    so the two together tie the counter to the enumerator."""
    coeffs = integer_coefficients(gf_full(max_n))
    counts = (count_pair_avoiders(n) for n in range(max_n + 1))
    failure = _first_mismatch(
        counts, coeffs, "n={n}: memo counter gives {a}, series gives {b}"
    )
    return _result("memo_matches_series", f"n<={max_n}", failure)


def check_no_key_implies_123_avoiding(max_n: int) -> CheckResult:
    """Any permutation without key mid-123 entries has no mid-123 entries at all."""
    failure = None
    for n in range(1, max_n + 1):
        for perm in itertools.permutations(range(1, n + 1)):
            if not key_mid123_entries(perm) and mid123_entries(perm):
                failure = f"counterexample {format_perm(perm)}"
                break
        if failure:
            break
    return _result("no_key_implies_123_avoiding", f"all permutations, n<={max_n}", failure)


def check_unique_entry_above_last_mid123(max_n: int) -> CheckResult:
    """In a {1243, 2134}-avoider, exactly one entry after the last mid-123
    entry exceeds it."""
    failure = None
    for n in range(1, max_n + 1):
        for perm in enumerate_avoiders(n, AVOIDED_PAIR):
            mids = mid123_entries(perm)
            if not mids:
                continue
            j = mids[-1]
            above = [x for x in perm[j:] if x > perm[j - 1]]
            if len(above) != 1:
                failure = (
                    f"{format_perm(perm)}: {len(above)} entries above the last "
                    f"mid-123 entry {perm[j - 1]}"
                )
                break
        if failure:
            break
    return _result("unique_entry_above_last_mid123", f"avoiders, n<={max_n}", failure)


def check_phi_roundtrip(max_n: int) -> CheckResult:
    """phi_inverse(phi(p)) = p over all start-small avoiders."""
    failure = None
    for n in range(1, max_n + 1):
        for perm in _start_small(n, AVOIDED_PAIR):
            if phi_inverse(phi(perm)) != perm:
                failure = f"round trip moved {format_perm(perm)}"
                break
        if failure:
            break
    return _result("phi_roundtrip", f"start-small avoiders, n<={max_n}", failure)


def _valid_pairs(max_total_len: int) -> Iterator[tuple[Perm, Perm]]:
    # sigma1 ranges over start-small {1243, 2134}-avoiders, sigma2 over
    # start-small 123-avoiders, both of length >= 2.
    lefts = {m: list(_start_small(m, AVOIDED_PAIR)) for m in range(2, max_total_len - 1)}
    rights = {m: list(_start_small(m, (PATTERN_123,))) for m in range(2, max_total_len - 1)}
    for len1 in range(2, max_total_len - 1):
        for len2 in range(2, max_total_len - len1 + 1):
            for sigma1 in lefts[len1]:
                for sigma2 in rights[len2]:
                    yield sigma1, sigma2


def check_pair_roundtrip(max_total_len: int) -> CheckResult:
    """decompose(recompose(sigma1, sigma2)) = (sigma1, sigma2) over all valid
    pairs with len(sigma1) + len(sigma2) <= max_total_len."""
    failure = None
    for sigma1, sigma2 in _valid_pairs(max_total_len):
        rebuilt = recompose(sigma1, sigma2)
        step = decompose(rebuilt)
        if step.pair != (sigma1, sigma2):
            failure = (
                f"({format_perm(sigma1)}, {format_perm(sigma2)}) -> "
                f"{format_perm(rebuilt)} -> ({format_perm(step.sigma1)}, "
                f"{format_perm(step.sigma2)})"
            )
            break
    return _result(
        "pair_roundtrip", f"valid pairs, combined length<={max_total_len}", failure
    )


def check_decomposition_typing(max_n: int) -> CheckResult:
    """Each decomposition lands where it should: sigma1 start-small avoider of
    length j with one fewer key mid-123 entry, sigma2 start-small 123-avoider
    of length n + 1 - j.  These are the postconditions of ``decompose``,
    stated nowhere else; a guard tripped inside it is reported as well."""
    failure = None
    for n in range(1, max_n + 1):
        for perm in _start_small(n, AVOIDED_PAIR):
            k = len(key_mid123_entries(perm))
            if not k:
                continue
            try:
                step = decompose(perm)
            except RuntimeError as exc:
                failure = str(exc)
                break
            sigma1, sigma2 = step.pair
            postconditions = (
                ("sigma1 length != j", len(sigma1) == step.j),
                ("sigma2 length != n + 1 - j", len(sigma2) == n + 1 - step.j),
                ("sigma1 not start-small", is_start_small(sigma1)),
                ("sigma2 not start-small", is_start_small(sigma2)),
                ("sigma1 not an avoider", avoids(sigma1, AVOIDED_PAIR)),
                ("sigma2 contains 123", not contains_123(sigma2)),
                ("sigma1 key count != k - 1", len(key_mid123_entries(sigma1)) == k - 1),
            )
            problems = [text for text, holds in postconditions if not holds]
            if problems:
                failure = (
                    f"decompose({format_perm(perm)}) broke its contract: "
                    + "; ".join(problems)
                )
                break
        if failure:
            break
    return _result("decomposition_typing", f"start-small avoiders, n<={max_n}", failure)


def _class_sizes(n: int) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    by_k: dict[int, int] = {}
    by_kj: dict[tuple[int, int], int] = {}
    for perm in _start_small(n, AVOIDED_PAIR):
        k = len(key_mid123_entries(perm))
        by_k[k] = by_k.get(k, 0) + 1
        if k >= 1:
            j = mid123_entries(perm)[-1]
            by_kj[(k, j)] = by_kj.get((k, j), 0) + 1
    return by_k, by_kj


def check_class_product_identity(max_n: int) -> CheckResult:
    """|{start-small avoiders of [n], k keys, last mid-123 at j}| equals
    |{same of [j], k-1 keys}| * |{start-small 123-avoiders of [n+1-j]}|."""
    sizes = {n: _class_sizes(n) for n in range(1, max_n + 1)}
    # The right factor's length n + 1 - j runs over 2 .. max_n - 1.
    right_factors = {m: count_start_small_123_avoiders(m) for m in range(2, max_n)}
    failure = None
    for n in range(1, max_n + 1):
        by_kj = sizes[n][1]
        for k in range(1, n - 1):
            for j in range(k + 1, n):
                lhs = by_kj.get((k, j), 0)
                left_factor = sizes[j][0].get(k - 1, 0)
                right_factor = right_factors[n + 1 - j]
                if lhs != left_factor * right_factor:
                    failure = (
                        f"n={n}, k={k}, j={j}: class size {lhs} != "
                        f"{left_factor} * {right_factor}"
                    )
                    break
            if failure:
                break
        if failure:
            break
    return _result("class_product_identity", f"n<={max_n}", failure)


def _golden_failures() -> Iterator[str]:
    # Every discrepancy with the golden table, in checking order; the check
    # takes the first, so nothing after it is computed.
    for case, perm, pair, key_case, witnesses, params in GOLDEN_EXAMPLES:
        step = decompose(perm)
        if step.pair != pair or step.key_case != key_case:
            yield f"{case} split gave {step.pair}"
        for field, expected in witnesses.items():
            actual = getattr(step, field)
            if actual != expected:
                yield f"{case} {field}: expected {expected}, got {actual}"
        derived = inverse_params(*pair)
        for field, expected in params.items():
            actual = getattr(derived, field)
            if actual != expected:
                yield f"{case} inverse {field}: expected {expected}, got {actual}"
        if recompose(*pair) != perm:
            yield f"{case} recompose missed the input"


def check_golden_examples() -> CheckResult:
    """The two fixed worked decompositions reproduce exactly, both ways,
    including every intermediate witness."""
    failure = next(_golden_failures(), None)
    return _result("golden_examples", "2 fixed decompositions", failure)


def check_series_identities(order: int, list_oracle_max_n: int = 8) -> CheckResult:
    """The defining series identities, exact to the given order, plus the
    combinatorial meaning of C^3 and of the list transform checked against
    the enumeration oracle."""
    failure = None
    one = poly(order, 1)
    x = poly(order, 0, 1)
    c = catalan_series(order)
    if c * c * x + one != c:
        failure = "C != 1 + x*C^2"
    s = sqrt_one_minus_4x(order)
    if not failure and s * s != poly(order, 1, -4):
        failure = "sqrt(1-4x)^2 != 1-4x"
    a = x * c * c * c
    b = invert_transform(a)
    if not failure and (one + b) * (one - a) != one:
        failure = "(1+B)(1-A) != 1"
    if not failure and gf_start_small(order) != gf_full(order) * poly(order, 1, -1):
        failure = "(1-x)F != G"
    if not failure:
        # [x^n] C^3 counts start-small 123-avoiders of [n+2].
        c3 = integer_coefficients(c * c * c)
        for n in range(1, min(list_oracle_max_n, order) + 1):
            counted = count_start_small_123_avoiders(n + 2)
            if c3[n] != counted:
                failure = f"[x^{n}]C^3 = {c3[n]} but [n+2] has {counted} start-small 123-avoiders"
                break
    return _result("series_identities", f"order {order}", failure)


def check_closed_form_match(order: int) -> CheckResult:
    """The composition-transform route and the closed form agree coefficient
    by coefficient."""
    failure = _first_mismatch(
        gf_full(order).coeffs,
        kotesovec_series(order).coeffs,
        "n={n}: transform route {a}, closed form {b}",
    )
    return _result("closed_form_match", f"order {order}", failure)


def run_checks(max_n: int = 8, order: int = 100, deep: bool = False) -> list[CheckResult]:
    """
    The full battery.  ``max_n`` bounds the exhaustive sweeps; ``deep`` raises
    it to 10 and pushes the enumeration-vs-series comparison to n = 11
    (minutes instead of seconds).  The memo counter is compared with the
    series to n = 12, or n = 20 with ``deep``, whatever ``max_n`` is.
    """
    if deep:
        max_n = max(max_n, 10)
    oracle_n = 11 if deep else max_n
    return [
        check_reference_counts(order),
        check_enumeration_matches_series(oracle_n),
        check_memo_matches_series(20 if deep else 12),
        check_no_key_implies_123_avoiding(max_n),
        check_unique_entry_above_last_mid123(max_n),
        check_phi_roundtrip(max_n),
        check_pair_roundtrip(max_n + 1),
        check_decomposition_typing(max_n),
        check_class_product_identity(max_n),
        check_golden_examples(),
        check_series_identities(order),
        check_closed_form_match(order),
    ]


def render_report(results: list[CheckResult]) -> str:
    """Fixed-width table, one line per check, plus an overall verdict."""
    name_w = max(len(r.name) for r in results)
    scope_w = max(len(r.scope) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.name:<{name_w}}  {r.scope:<{scope_w}}  {status}"
        if r.detail:
            line += f"  {r.detail}"
        lines.append(line)
    overall = "pass" if all(r.passed for r in results) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
