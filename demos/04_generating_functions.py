#!/usr/bin/env python3
# Exact generating functions, two independent routes to the same sequence.
#
# Route one composes combinatorial pieces: the Catalan series C, the series
# A of start-small 123-avoiders by weight (length - 1), read off C as
# C_{w+1} - C_w and equal to x*C^3, the list transform 1/(1 - A), and a
# final tidy-up to G and F = G/(1-x).  Route two expands a closed form with
# an exact square root.  They must agree coefficient by coefficient.

import sys

from avoiders import (
    catalan_series,
    count_avoiders,
    gf_elements,
    gf_full,
    gf_start_small,
    invert_transform,
    kotesovec_series,
    poly,
    sqrt_one_minus_4x,
)
from avoiders.perms import AVOIDED_PAIR

ORDER = 20
failed = []


def claim(label, holds, *notes):
    # One line per identity; one that fails makes the demo exit non-zero.
    print(label, "->", holds, *notes)
    if not holds:
        failed.append(label)


c = catalan_series(ORDER)
print("Catalan:", list(c.coeffs)[:9])

a = gf_elements(ORDER)
print("A:      ", list(a.coeffs)[:9], " (C_{w+1} - C_w start-small 123-avoiders of weight w)")
claim("A == x*C^3", a == poly(ORDER, 0, 1) * c * c * c, " (the identity A satisfies)")

lists = invert_transform(a)
print("lists:  ", list(lists.coeffs)[:9], " (lists of them, by total size)")

g = gf_start_small(ORDER)
f = gf_full(ORDER)
print("G:      ", list(g.coeffs)[:9], " (start-small avoiders of the pair)")
print("F:      ", list(f.coeffs)[:9], " (all avoiders of the pair, A164651)")
claim("G / (1-x) == F", g / poly(ORDER, 1, -1) == f, " (exact series division)")

closed = kotesovec_series(ORDER)
print("closed: ", list(closed.coeffs)[:9])
claim(f"routes agree to order {ORDER}", f == closed)

# The square root driving the closed form really squares back.
s = sqrt_one_minus_4x(ORDER)
claim("sqrt(1-4x)^2 == 1-4x", s * s == poly(ORDER, 1, -4))

# And the low coefficients match brute force.
brute = [1] + [count_avoiders(n, AVOIDED_PAIR) for n in range(1, 8)]
claim(f"brute force n<=7: {brute}", brute == list(f.coeffs)[:8])

if failed:
    sys.exit("identities fail: " + "; ".join(failed))
