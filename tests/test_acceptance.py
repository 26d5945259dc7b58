"""Acceptance suite: the eight exit criteria, each at its stated bound.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion; without ``-s`` the lines still appear in captured output when a
criterion fails.  Criteria 1 and 2 carry hard sub-second runtime budgets;
criterion 3 is the slow one (seconds to a couple of minutes).
"""

import time
from contextlib import contextmanager

from avoiders.enumeration import enumerate_avoiders
from avoiders.perms import AVOIDED_PAIR
from avoiders.series import gf_full, kotesovec_series
from avoiders.verify import (
    check_class_product_identity,
    check_decomposition_typing,
    check_enumeration_matches_series,
    check_golden_examples,
    check_no_key_implies_123_avoiding,
    check_pair_roundtrip,
    check_phi_roundtrip,
    check_series_identities,
    check_unique_entry_above_last_mid123,
)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS  [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_sequence_reproduction():
    with criterion(1, "first counts by brute force, < 1 s"):
        start = time.perf_counter()
        counts = [sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR)) for n in range(1, 7)]
        elapsed = time.perf_counter() - start
        assert counts == [1, 2, 6, 22, 87, 354]
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


def test_criterion_2_closed_form_at_order_100():
    with criterion(2, "transform route = closed form to order 100, < 1 s"):
        start = time.perf_counter()
        via_transform = gf_full(100)
        via_closed_form = kotesovec_series(100)
        elapsed = time.perf_counter() - start
        assert via_transform.order == via_closed_form.order == 100
        assert via_transform == via_closed_form
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"


def test_criterion_3_series_matches_enumeration_to_10():
    with criterion(3, "series coefficients = brute-force counts, n <= 10"):
        result = check_enumeration_matches_series(10)
        assert result.passed, result.detail


def test_criterion_4_roundtrips():
    with criterion(4, "both round trips, zero failures"):
        phi_result = check_phi_roundtrip(9)
        assert phi_result.passed, phi_result.detail
        pair_result = check_pair_roundtrip(10)
        assert pair_result.passed, pair_result.detail


def test_criterion_5_typing_and_product_counting():
    with criterion(5, "decomposition typing and class-size products, n <= 9"):
        typing_result = check_decomposition_typing(9)
        assert typing_result.passed, typing_result.detail
        product_result = check_class_product_identity(9)
        assert product_result.passed, product_result.detail


def test_criterion_6_structural_sweeps():
    with criterion(6, "no-key and unique-top sweeps"):
        no_key = check_no_key_implies_123_avoiding(8)
        assert no_key.passed, no_key.detail
        unique_top = check_unique_entry_above_last_mid123(9)
        assert unique_top.passed, unique_top.detail


def test_criterion_7_golden_examples():
    with criterion(7, "worked decompositions, both directions, all witnesses"):
        result = check_golden_examples()
        assert result.passed, result.detail


def test_criterion_8_series_identities():
    with criterion(8, "series identities exact to order 100"):
        result = check_series_identities(100)
        assert result.passed, result.detail
