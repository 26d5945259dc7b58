#!/usr/bin/env python3
# Counting avoidance classes by exhaustive generation.
#
# The generator builds permutations position by position and abandons any
# prefix that already contains a forbidden pattern, so whole subtrees of the
# search space disappear at once.  Every count here is exact.  Past the
# reach of enumeration, the pair counter walks the same prefix rules
# without listing anything and meets the generating function F; with one
# more coordinate it also sorts what it counts by number of key entries.

import sys

from avoiders import (
    AVOIDED_PAIR,
    PATTERN_123,
    ClassDescriptor,
    count_class,
    count_pair_avoiders_by_keys,
    enumerate_avoiders,
    enumerate_class,
    gf_full,
    key_mid123_entries,
)

print("permutations of [4] avoiding 1243 and 2134:")
for perm in enumerate_avoiders(4, AVOIDED_PAIR):
    print(" ", perm)

print("\ncounts for n = 1..8:")
for n in range(1, 9):
    print(f"  n={n}: {sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR))}")

# Where two routes to one number part, the demo says so and exits non-zero.
differ = []

print("\nmemoized counter next to the series F, n = 0..20:")
series = gf_full(20).coeffs
for n in range(21):
    if n:
        memo = count_class(ClassDescriptor(n, AVOIDED_PAIR))
    else:  # the empty permutation is no class; the keyed walk counts it
        memo = sum(count_pair_avoiders_by_keys(0))
    if memo != series[n]:
        differ.append(f"memo counter and F at n={n}")
    print(f"  n={n}: {memo}  F: {series[n]}  {'ok' if memo == series[n] else 'DIFFER'}")

print("\nthe same, restricted to start-small permutations:")
for n in range(1, 9):
    descriptor = ClassDescriptor(n, AVOIDED_PAIR, start_small_only=True)
    print(f"  n={n}: {count_class(descriptor)}")

# The number k of key mid-123 entries is what the bijection phi reduces
# one at a time.  Listing the start-small avoiders of [8] and sorting them
# by k gives the same table as the pair walk, which lists nothing.
print("\nstart-small avoiders of [8] by k, enumerated and walked:")
enumerated = {}
for perm in enumerate_class(ClassDescriptor(8, AVOIDED_PAIR, start_small_only=True)):
    k = len(key_mid123_entries(perm))
    enumerated[k] = enumerated.get(k, 0) + 1
walked = count_pair_avoiders_by_keys(8, start_small_only=True)
for k in range(8):
    if enumerated.get(k, 0) != walked[k]:
        differ.append(f"enumeration and walk at k={k}")
    print(f"  k={k}: {enumerated.get(k, 0)}  walk: {walked[k]}")

# Slicing finer: fix the number of key mid-123 entries (k) and the position
# of the last mid-123 entry (j).  These cells are what the decomposition
# maps product-style.
print("\nstart-small avoiders of [6] by (k, j):")
for k in range(1, 5):
    for j in range(k + 1, 6):
        size = count_class(
            ClassDescriptor(6, AVOIDED_PAIR, start_small_only=True, k=k, j=j)
        )
        if size:
            print(f"  k={k}, j={j}: {size}")

# 123-avoiders are Catalan-counted; the start-small ones drop a Catalan step.
print("\nstart-small 123-avoiders:")
for n in range(1, 9):
    descriptor = ClassDescriptor(n, (PATTERN_123,), start_small_only=True)
    print(f"  n={n}: {sum(1 for _ in enumerate_class(descriptor))}")

if differ:
    sys.exit("routes differ: " + "; ".join(differ))
