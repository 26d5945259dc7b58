"""Exact series arithmetic and the generating-function identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import avoiders.series
from avoiders.cli import SERIES_BUILDERS
from avoiders.enumeration import (
    ClassDescriptor,
    count_class,
    enumerate_avoiders,
    enumerate_class,
)
from avoiders.perms import AVOIDED_PAIR, PATTERN_123
from avoiders.series import (
    PowerSeries,
    _times_x_one_minus_x,
    catalan_series,
    gf_elements,
    gf_full,
    gf_start_small,
    invert_transform,
    kotesovec_series,
    poly,
    sqrt_one_minus_4x,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

unit_series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=0, max_size=12
).map(lambda tail: poly(len(tail), 1, *tail))


# ---------------------------------------------------------------------------
# ring operations


def test_mul_polynomials():
    assert poly(4, 1, 1) * poly(4, 1, -1) == poly(4, 1, 0, -1)


def test_add_identity():
    s = poly(5, 3, 1, 4, 1, 5)
    assert s + poly(5) == s
    assert s - s == poly(5)


def test_mul_truncates_to_min_order():
    a = poly(8, 1, 1)
    b = poly(3, 1, 2, 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_catalan_square_shifts_catalan():
    # [x^n] C^2 = C_{n+1}, the convolution half of C = 1 + x*C^2
    c = catalan_series(9)
    assert list((c * c).coeffs) == CATALAN[1:]


def test_reciprocal_geometric():
    assert list(poly(6, 1, -1).reciprocal().coeffs) == [1] * 7
    assert list(poly(6, 1, -2).reciprocal().coeffs) == [2**n for n in range(7)]


def test_reciprocal_requires_nonzero_constant():
    with pytest.raises(ValueError, match="constant term"):
        poly(4, 0, 1).reciprocal()


def test_reciprocal_of_nonunit_constant():
    # Only +1 and -1 have integer reciprocals.
    with pytest.raises(ValueError, match="no integer reciprocal"):
        poly(5, 2).reciprocal()
    minus = poly(5, -1, 1).reciprocal()
    assert minus == poly(5, -1, -1, -1, -1, -1, -1)
    assert poly(5, -1, 1) * minus == poly(5, 1)


@given(unit_series)
def test_reciprocal_is_involutive(series):
    assert series.reciprocal().reciprocal() == series


@given(unit_series, unit_series)
def test_mul_commutes(a, b):
    assert a * b == b * a


# Series with trailing zeros, zero or negative constant terms and any order.
any_series = st.tuples(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=5),
).map(lambda t: PowerSeries(tuple(t[0]) + (0,) * t[1]))

unit_divisor = st.tuples(
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=10),
    st.integers(min_value=0, max_value=5),
).map(lambda t: PowerSeries((t[0], *t[1]) + (0,) * t[2]))


def convolution(a, b):
    n = min(a.order, b.order)
    return PowerSeries(
        tuple(
            sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)) for k in range(n + 1)
        )
    )


def truncated(series, order):
    return PowerSeries(series.coeffs[: order + 1])


@given(any_series, any_series)
def test_mul_equals_convolution(a, b):
    assert a * b == convolution(a, b)


@given(any_series, st.integers(min_value=0, max_value=15))
def test_mul_by_zero_series(a, order):
    zero = poly(order)
    expected = poly(min(a.order, order))
    assert a * zero == expected
    assert zero * a == expected


@given(any_series, unit_divisor)
def test_div_undoes_mul(a, d):
    n = min(a.order, d.order)
    q = a / d
    assert q.order == n
    assert q * d == truncated(a, n)
    assert (a * d) / d == truncated(a, n)


@given(any_series, unit_divisor)
def test_div_equals_mul_by_reciprocal(a, d):
    assert a / d == a * d.reciprocal()


@pytest.mark.parametrize("constant", [0, 2])
def test_div_by_nonunit_constant(constant):
    with pytest.raises(ValueError, match="no integer reciprocal"):
        poly(4, 1, 1) / poly(4, constant, 1)


# ---------------------------------------------------------------------------
# the specific series


def test_sqrt_defining_identity():
    s = sqrt_one_minus_4x(30)
    assert s * s == poly(30, 1, -4)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == -2


def test_sqrt_encodes_catalan():
    # (1 - sqrt(1-4x)) / (2x) is the Catalan series
    s = sqrt_one_minus_4x(12)
    numer = poly(12, 1) - s
    assert numer.coeffs[0] == 0
    assert all(c % 2 == 0 for c in numer.coeffs)
    shifted = [c // 2 for c in numer.coeffs[1:]]
    assert shifted == list(catalan_series(11).coeffs)


def test_catalan_matches_binomial_formula():
    c = catalan_series(500).coeffs
    assert len(c) == 501
    for k, ck in enumerate(c):
        assert ck == math.comb(2 * k, k) // (k + 1)


def test_catalan_examples():
    assert list(catalan_series(6).coeffs) == [1, 1, 2, 5, 14, 42, 132]
    c = catalan_series(25)
    assert poly(25, 1) + poly(25, 0, 1) * c * c == c


def test_catalan_cube_counts_start_small_123_avoiders():
    c = catalan_series(9)
    cube = list((c * c * c).coeffs)
    assert cube[:5] == [1, 3, 9, 28, 90]
    for n in range(1, 9):
        descriptor = ClassDescriptor(n + 2, (PATTERN_123,), start_small_only=True)
        assert cube[n] == sum(1 for _ in enumerate_class(descriptor))


def test_gf_elements_are_catalan_differences():
    a = gf_elements(500).coeffs
    assert len(a) == 501
    catalan = [math.comb(2 * k, k) // (k + 1) for k in range(502)]
    assert list(a) == [catalan[w + 1] - catalan[w] for w in range(501)]


def test_gf_elements_equals_x_catalan_cube():
    order = 300
    c = catalan_series(order)
    assert gf_elements(order) == poly(order, 0, 1) * c * c * c
    a = gf_elements(8).coeffs
    for w in range(9):
        descriptor = ClassDescriptor(w + 1, (PATTERN_123,), start_small_only=True)
        assert a[w] == sum(1 for _ in enumerate_class(descriptor))


def test_gf_start_small_equals_product_route():
    # Oracle: the same transform with the list elements as the dense x*C^3.
    order = 300
    c = catalan_series(order)
    x = poly(order, 0, 1)
    product_route = poly(order, 1) + x * invert_transform(x * c * c * c)
    assert gf_start_small(order) == product_route


def test_invert_transform_geometric():
    assert list(invert_transform(poly(6, 0, 1)).coeffs) == [0] + [1] * 6


def test_invert_transform_two_part_sizes():
    # parts of size 1 and 2 compose like Fibonacci
    b = invert_transform(poly(6, 0, 1, 1))
    assert list(b.coeffs) == [0, 1, 2, 3, 5, 8, 13]


def test_invert_transform_requires_zero_constant():
    with pytest.raises(ValueError, match="zero constant"):
        invert_transform(poly(4, 1, 1))


def test_invert_transform_counts_avoider_lists():
    # The transform of x*C^3 counts lists of start-small 123-avoiders by
    # total size (length - 1 per element); oracle is a composition-style
    # recursion over brute-force element counts.
    order = 8
    c = catalan_series(order)
    b = list(invert_transform(poly(order, 0, 1) * c * c * c).coeffs)
    parts = {
        s: sum(1 for _ in enumerate_class(
            ClassDescriptor(s + 1, (PATTERN_123,), start_small_only=True)
        ))
        for s in range(1, order + 1)
    }
    lists_of_size = [1] + [0] * order
    for t in range(1, order + 1):
        lists_of_size[t] = sum(parts[s] * lists_of_size[t - s] for s in range(1, t + 1))
    assert b[0] == 0
    for n in range(1, order + 1):
        assert b[n] == lists_of_size[n]


def test_gf_start_small_first_terms():
    assert list(gf_start_small(3).coeffs) == [1, 0, 1, 4]


@pytest.mark.parametrize("n", range(2, 9))
def test_gf_start_small_matches_enumeration(n):
    counted = count_class(ClassDescriptor(n, AVOIDED_PAIR, start_small_only=True))
    assert gf_start_small(n).coeffs[n] == counted


def test_gf_full_first_terms():
    assert list(gf_full(6).coeffs) == [1, 1, 2, 6, 22, 87, 354]


def test_gf_full_is_partial_sums():
    order = 40
    g = gf_start_small(order)
    f = gf_full(order)
    assert f * poly(order, 1, -1) == g
    u = list(f.coeffs)
    v = list(g.coeffs)
    for n in range(1, order + 1):
        assert v[n] == u[n] - u[n - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_gf_full_matches_enumeration(n):
    assert gf_full(n).coeffs[n] == sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR))


def test_closed_form_first_terms():
    assert list(kotesovec_series(6).coeffs) == [1, 1, 2, 6, 22, 87, 354]


def test_closed_form_equals_transform_route_order_300():
    assert kotesovec_series(300) == gf_full(300)


def test_closed_form_equals_transform_route_order_1000():
    assert kotesovec_series(1000) == gf_full(1000)


def test_closed_form_satisfies_order_4_recurrence_to_order_2000():
    # The P-recurrence guessed from the counted terms (ROADMAP item 3):
    # (n-1)(n-4) f(n) = (9n^2-51n+62) f(n-1) - (23n^2-145n+222) f(n-2)
    #                 + (11n^2-73n+122) f(n-3) + (4n^2-26n+42) f(n-4),
    # for n >= 5 from f(0..4) = 1, 1, 2, 6, 22, every division exact.
    order = 2000
    f = [1, 1, 2, 6, 22]
    for n in range(5, order + 1):
        rhs = (
            (9 * n * n - 51 * n + 62) * f[n - 1]
            - (23 * n * n - 145 * n + 222) * f[n - 2]
            + (11 * n * n - 73 * n + 122) * f[n - 3]
            + (4 * n * n - 26 * n + 42) * f[n - 4]
        )
        term, remainder = divmod(rhs, (n - 1) * (n - 4))
        assert remainder == 0, n
        f.append(term)
    assert list(kotesovec_series(order).coeffs) == f


def test_closed_form_rejects_odd_numerator(monkeypatch):
    # The closed form halves its numerator exactly; an odd coefficient there
    # is an internal error, never a silent rounding.
    exact = avoiders.series.sqrt_one_minus_4x

    def corrupted(order):
        coeffs = list(exact(order).coeffs)
        coeffs[5] += 1
        return PowerSeries(tuple(coeffs))

    monkeypatch.setattr(avoiders.series, "sqrt_one_minus_4x", corrupted)
    with pytest.raises(RuntimeError, match="x\\^6 is odd"):
        kotesovec_series(10)


def test_closed_form_coefficients_are_integers():
    assert all(type(c) is int for c in kotesovec_series(60).coeffs)


# The builders write their sparse factors out; each written-out form is held
# here to the product or quotient it replaces.
ORACLE_ORDERS = [0, 1, 2, 3, 50, 302]


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_closed_form_recurrence_is_division_by_the_cubic(order):
    # The closed form's quotient, times the cubic (x - 1)(x^2 + 4x - 1) as a
    # product, gives back the halved numerator, itself formed by products.
    one, x = poly(order, 1), poly(order, 0, 1)
    numerator = poly(order, 2, -9, 3) + x * (one - x) * sqrt_one_minus_4x(order)
    halved = PowerSeries(tuple(c // 2 for c in numerator.coeffs))
    cubic = (x - one) * poly(order, -1, 4, 1)
    assert kotesovec_series(order) * cubic == halved


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_shifted_difference_is_x_one_minus_x_product(order):
    x = poly(order, 0, 1)
    s = sqrt_one_minus_4x(order)
    assert _times_x_one_minus_x(s) == x * (poly(order, 1) - x) * s


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_gf_full_is_division_by_one_minus_x(order):
    assert gf_full(order) == gf_start_small(order) / poly(order, 1, -1)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_gf_start_small_is_one_plus_x_times_transform(order):
    x = poly(order, 0, 1)
    b = invert_transform(gf_elements(order))
    assert gf_start_small(order) == poly(order, 1) + x * b


def test_low_orders():
    assert gf_full(0).coeffs == (1,)
    assert gf_start_small(0).coeffs == (1,)
    for order in range(4):
        assert kotesovec_series(order).coeffs == (1, 1, 2, 6)[: order + 1]
        assert kotesovec_series(order) == gf_full(order)


def test_poly_validation():
    with pytest.raises(ValueError, match="order"):
        poly(-1, 1)
    with pytest.raises(ValueError, match="not an integer"):
        poly(2, Fraction(1, 2))
    # bool is an int subclass, but coefficients are plain ints.
    with pytest.raises(ValueError, match="not an integer"):
        poly(2, True, False)
    # Terms above the truncation order are dropped, as binary operations do.
    assert poly(1, 1, 2, 3).coeffs == (1, 2)
    with pytest.raises(ValueError, match="constant term"):
        PowerSeries(())


@pytest.mark.parametrize(
    "builder",
    [*SERIES_BUILDERS.values(), sqrt_one_minus_4x, gf_elements],
    ids=lambda f: f.__name__,
)
def test_negative_order_rejected(builder):
    with pytest.raises(ValueError, match=r"^order must be >= 0$"):
        builder(-1)
