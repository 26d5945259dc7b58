"""Truncated formal power series with integer coefficients, and the
generating functions this package is about.

Every series is a fixed-order truncation with plain ``int`` coefficients,
and every division in this module is exact or raises.  So ``a / d`` and
``reciprocal`` require a divisor whose constant term is +1 or -1, and raise
``ValueError`` otherwise.

A product or a quotient of order n costs O(n^2), whatever the factors:
``*`` is the plain truncated convolution and ``/`` plain long division, so
multiplying or dividing by a short polynomial such as 1 - x costs as much
as by a dense series.  The builders below therefore write their sparse
factors out: a factor x is a shift, 1/(1 - x) is a running sum, x(1 - x) a
shifted difference and the closed form's cubic denominator a three-term
recurrence, so none of them calls ``*``.  The one quadratic step left is
the transform route's dense division 1/(1 - A) in ``invert_transform``.

The specific series of interest:

- ``catalan_series``: C with C = 1 + x*C^2, counting 123-avoiders;
- ``gf_elements``: A = x*C^3 = C^2 - C, whose [x^w] = C_{w+1} - C_w
  counts the start-small 123-avoiders of length w + 1, read off the
  Catalan numbers in O(order) with no product;
- ``invert_transform``: B with 1 + B = 1/(1 - A), counting lists
  (compositions) of A-structures;
- ``gf_start_small``: G = 1 + x*B with B the transform of ``gf_elements``,
  so G = 1 + x/(1 - A) - x, counting start-small {1243, 2134}-avoiders by
  length with one dense division and no product: x*B is B shifted;
- ``gf_full``: F = G/(1 - x), counting all {1243, 2134}-avoiders (A164651),
  as the running sums of G's coefficients;
- ``kotesovec_series``: the closed form
  (3x^2 - 9x + 2 + x(1-x)*sqrt(1-4x)) / (2(x-1)(x^2+4x-1))
  attached to A164651, expanded exactly with no product: x(1-x)*sqrt(1-4x)
  is a shifted difference, and the division by the cubic a recurrence.

``gf_full`` and ``kotesovec_series`` share no arithmetic: the only code both
run is ``poly``, its order check and the ``PowerSeries`` container, as the
test suite's call ledger asserts.  So their coefficient-by-coefficient
agreement is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub


@dataclass(frozen=True)
class PowerSeries:
    """A series truncated at x^order; ``coeffs[k]`` is the coefficient of x^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # Binary operations truncate to the smaller order.

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        b_reversed = other.coeffs[n::-1]
        # [x^k] = sum a[i] * b[k - i] for i <= k, with a = self and b = other;
        # b[k - i] is b_reversed[n - k + i], and map stops after i = k.
        return PowerSeries(
            tuple(sum(map(mul, self.coeffs, b_reversed[n - k :])) for k in range(n + 1))
        )

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        """The series Q with Q * other = self up to the smaller order; the
        divisor's constant term must be +1 or -1 for Q to have integer
        coefficients."""
        n = min(self.order, other.order)
        d0, *tail = other.coeffs[: n + 1]
        if d0 not in (1, -1):
            raise ValueError(f"series with constant term {d0} has no integer reciprocal")
        q: list[int] = []
        for a_k in self.coeffs[: n + 1]:
            # 1/d0 == d0 for a unit
            q.append(d0 * (a_k - sum(map(mul, tail, reversed(q)))))
        return PowerSeries(tuple(q))

    def reciprocal(self) -> "PowerSeries":
        """The series R with self * R = 1 up to the truncation order; the
        constant term must be +1 or -1 for R to have integer coefficients."""
        return poly(self.order, 1) / self


def _require_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")


def poly(order: int, *coeffs: int) -> PowerSeries:
    """
    The polynomial with the given low-order integer coefficients, as a series
    of the given truncation order; terms above x^order are dropped, as the
    binary operations drop them.

    >>> poly(3, 1, -1).coeffs
    (1, -1, 0, 0)
    """
    _require_order(order)
    for c in coeffs:
        # bool is an int subclass, but a coefficient must be a plain int
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"coefficient {c!r} is not an integer")
    coeffs = coeffs[: order + 1]
    return PowerSeries(coeffs + (0,) * (order + 1 - len(coeffs)))


def sqrt_one_minus_4x(order: int) -> PowerSeries:
    """
    The series S with S^2 = 1 - 4x and constant term +1.

    Coefficients follow the generalized binomial recurrence
    c_0 = 1, c_k = c_{k-1} * (4k - 6) / k, each division exact.  The defining
    identity is checked by ``verify.check_series_identities`` and the test
    suite, not per call.
    """
    _require_order(order)
    coeffs = [1]
    for k in range(1, order + 1):
        c, remainder = divmod(coeffs[-1] * (4 * k - 6), k)
        if remainder:
            raise RuntimeError(f"sqrt(1-4x): coefficient of x^{k} is not an integer")
        coeffs.append(c)
    return PowerSeries(tuple(coeffs))


def catalan_series(order: int) -> PowerSeries:
    """
    The Catalan generating function, from C_0 = 1 and
    C_k = C_{k-1} * 2(2k - 1) / (k + 1), each division exact.  The
    functional equation C = 1 + x*C^2 is checked by
    ``verify.check_series_identities``, not used to build C.

    >>> catalan_series(6).coeffs
    (1, 1, 2, 5, 14, 42, 132)
    """
    _require_order(order)
    cat = [1]
    for k in range(1, order + 1):
        cat.append(cat[-1] * 2 * (2 * k - 1) // (k + 1))
    return PowerSeries(tuple(cat))


def gf_elements(order: int) -> PowerSeries:
    """
    The series A = x*C^3 counting start-small 123-avoiders by weight, length
    minus one: of the C_{w+1} 123-avoiders of length w + 1, the C_w that
    start with w + 1 are not start-small, so [x^w]A = C_{w+1} - C_w.  This is
    C^2 - C, since [x^w]C^2 = C_{w+1}; ``verify.check_series_identities``
    holds it to the dense cube.

    >>> gf_elements(5).coeffs
    (0, 1, 3, 9, 28, 90)
    """
    _require_order(order)
    c = catalan_series(order + 1).coeffs
    return PowerSeries(tuple(c[w + 1] - c[w] for w in range(order + 1)))


def invert_transform(a: PowerSeries) -> PowerSeries:
    """
    The transform B of A defined by 1 + B = 1/(1 - A); requires A to have
    zero constant term.  The coefficient of x^n in B counts lists of
    A-structures with total size n.
    """
    if a.coeffs[0] != 0:
        raise ValueError("the transform needs a series with zero constant term")
    one = poly(a.order, 1)
    return (one - a).reciprocal() - one


def gf_start_small(order: int) -> PowerSeries:
    """
    Generating function for start-small {1243, 2134}-avoiders by length:
    G = 1 + x*B with B = ``invert_transform``(A) and A = ``gf_elements``,
    that is G = 1 + x/(1 - A) - x.  Since B has zero constant term, G is
    the constant 1 followed by B shifted up one place; the dense division
    inside ``invert_transform`` is the only quadratic step.

    >>> list(gf_start_small(4).coeffs)
    [1, 0, 1, 4, 16]
    """
    b = invert_transform(gf_elements(order))
    return PowerSeries((1, *b.coeffs[:order]))


def gf_full(order: int) -> PowerSeries:
    """
    Generating function for all {1243, 2134}-avoiders by length (A164651):
    F = G/(1 - x), so the coefficients are the partial sums of G's, and
    that is how they are formed.

    >>> list(gf_full(6).coeffs)
    [1, 1, 2, 6, 22, 87, 354]
    """
    return PowerSeries(tuple(accumulate(gf_start_small(order).coeffs)))


def _times_x_one_minus_x(s: PowerSeries) -> PowerSeries:
    """x(1-x)*s with no product: its [x^k] is s_{k-1} - s_{k-2}."""
    padded = (0, 0, *s.coeffs)
    return PowerSeries(tuple(map(sub, padded[1:-1], padded)))


def kotesovec_series(order: int) -> PowerSeries:
    """
    Exact expansion of the closed form attached to A164651:
    (3x^2 - 9x + 2 + x(1-x)*sqrt(1-4x)) / (2(x-1)(x^2+4x-1)).

    With S = sqrt(1-4x), the term x(1-x)*S has coefficients
    S_{k-1} - S_{k-2}, a shifted difference.  The numerator is halved
    coefficient by coefficient, each h_k exact, and divided by the cubic
    (x-1)(x^2+4x-1) = 1 - 5x + 3x^2 + x^3 through its own recurrence,
    q_k = h_k + 5q_{k-1} - 3q_{k-2} - q_{k-3} from three zeros, which is
    exact since the cubic's constant term is +1.  Every step costs
    O(order), and none is a product or a ``PowerSeries`` division.
    """
    numerator = poly(order, 2, -9, 3) + _times_x_one_minus_x(sqrt_one_minus_4x(order))
    odd = [k for k, c in enumerate(numerator.coeffs) if c % 2]
    if odd:
        raise RuntimeError(f"closed form: numerator coefficient of x^{odd[0]} is odd")
    q = [0, 0, 0]
    for c in numerator.coeffs:
        q.append(c // 2 + 5 * q[-1] - 3 * q[-2] - q[-3])
    return PowerSeries(tuple(q[3:]))
