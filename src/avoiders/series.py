"""Truncated formal power series over the rationals, and the generating
functions this package is about.

Every series is a fixed-order truncation with exact ``fractions.Fraction``
coefficients; there is no floating point anywhere in this module.  The
specific series of interest:

- ``catalan_series``: C with C = 1 + x*C^2, counting 123-avoiders;
- ``invert_transform``: B with 1 + B = 1/(1 - A), counting lists
  (compositions) of A-structures;
- ``gf_start_small``: G = 1 + x/(1 - x*C^3) - x, counting start-small
  {1243, 2134}-avoiders by length;
- ``gf_full``: F = G/(1 - x), counting all {1243, 2134}-avoiders (A164651);
- ``kotesovec_series``: the closed form
  (3x^2 - 9x + 2 + x(1-x)*sqrt(1-4x)) / (2(x-1)(x^2+4x-1))
  attached to A164651, expanded exactly.

``gf_full`` and ``kotesovec_series`` are computed along entirely different
routes, so their coefficient-by-coefficient agreement is a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rational = int | Fraction


@dataclass(frozen=True)
class PowerSeries:
    """A series truncated at x^order; ``coeffs[k]`` is the coefficient of x^k."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    def _common(self, other: "PowerSeries") -> int:
        # Binary operations truncate to the smaller order.
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = self._common(other)
        return PowerSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = self._common(other)
        return PowerSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = self._common(other)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for k in range(i, n + 1):
                out[k] += a * other.coeffs[k - i]
        return PowerSeries(tuple(out))

    def reciprocal(self) -> "PowerSeries":
        """The series R with self * R = 1 up to the truncation order."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        inv0 = Fraction(1) / a0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out.append(-inv0 * acc)
        return PowerSeries(tuple(out))


def poly(order: int, *coeffs: Rational) -> PowerSeries:
    """
    The polynomial with the given low-order coefficients, as a series of the
    given truncation order.

    >>> poly(3, 1, -1).coeffs
    (Fraction(1, 1), Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1))
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(coeffs) > order + 1:
        raise ValueError("more coefficients than the truncation order allows")
    padded = tuple(Fraction(c) for c in coeffs) + (Fraction(0),) * (
        order + 1 - len(coeffs)
    )
    return PowerSeries(padded)


def sqrt_one_minus_4x(order: int) -> PowerSeries:
    """
    The series S with S^2 = 1 - 4x and constant term +1.

    Coefficients follow the generalized binomial recurrence
    c_0 = 1, c_k = c_{k-1} * (4k - 6) / k.  The defining identity is checked
    by ``verify.check_series_identities`` and the test suite, not per call.
    """
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * Fraction(4 * k - 6, k))
    return PowerSeries(tuple(coeffs))


def catalan_series(order: int) -> PowerSeries:
    """
    The Catalan generating function, built from the convolution recurrence
    implied by C = 1 + x*C^2.

    >>> [int(c) for c in catalan_series(6).coeffs]
    [1, 1, 2, 5, 14, 42, 132]
    """
    cat = [1]
    for k in range(1, order + 1):
        cat.append(sum(cat[i] * cat[k - 1 - i] for i in range(k)))
    return PowerSeries(tuple(Fraction(c) for c in cat))


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
    G = 1 + x/(1 - x*C^3) - x.

    >>> [int(c) for c in gf_start_small(4).coeffs]
    [1, 0, 1, 4, 16]
    """
    c = catalan_series(order)
    x = poly(order, 0, 1)
    one = poly(order, 1)
    lists = (one - x * c * c * c).reciprocal()
    return one + x * lists - x


def gf_full(order: int) -> PowerSeries:
    """
    Generating function for all {1243, 2134}-avoiders by length (A164651):
    F = G/(1 - x), so the coefficients are the partial sums of G's.

    >>> [int(c) for c in gf_full(6).coeffs]
    [1, 1, 2, 6, 22, 87, 354]
    """
    return gf_start_small(order) * poly(order, 1, -1).reciprocal()


def kotesovec_series(order: int) -> PowerSeries:
    """
    Exact expansion of the closed form attached to A164651:
    (3x^2 - 9x + 2 + x(1-x)*sqrt(1-4x)) / (2(x-1)(x^2+4x-1)).
    """
    s = sqrt_one_minus_4x(order)
    x = poly(order, 0, 1)
    one = poly(order, 1)
    numerator = poly(order, 2, -9, 3) + x * (one - x) * s
    denominator = poly(order, 2) * (x - one) * poly(order, -1, 4, 1)
    return numerator * denominator.reciprocal()


def integer_coefficients(series: PowerSeries) -> list[int]:
    """
    The coefficients as plain ints; raises if any coefficient fails to reduce
    to an integer (counting sequences must).
    """
    out = []
    for k, c in enumerate(series.coeffs):
        if c.denominator != 1:
            raise ValueError(f"coefficient of x^{k} is not an integer: {c}")
        out.append(c.numerator)
    return out


@dataclass(frozen=True)
class SequencePair:
    """The two counting sequences: u (all avoiders), v (start-small ones)."""

    u: tuple[int, ...]
    v: tuple[int, ...]


def counting_sequences(order: int) -> SequencePair:
    """
    The first ``order + 1`` terms of both avoider-counting sequences, with
    the defining relations u_0 = v_0 = 1 and v_n = u_n - u_{n-1} checked.
    """
    u = integer_coefficients(gf_full(order))
    v = integer_coefficients(gf_start_small(order))
    if u[0] != 1 or v[0] != 1:
        raise RuntimeError("counting sequences must start at 1")
    for n in range(1, order + 1):
        if v[n] != u[n] - u[n - 1]:
            raise RuntimeError(f"difference relation fails at n={n}")
    return SequencePair(u=tuple(u), v=tuple(v))
