"""Exhaustive generation and counting of pattern-avoidance classes.

The generators build permutations position by position and abandon a prefix
as soon as it contains a forbidden pattern, which is sound because classical
containment is monotone under extension: a clean permutation cannot have a
dirty prefix.  Emission is in lexicographic one-line order, and everything is
streamed, never materialized.

Dedicated prefix tests make the two hot pattern sets cheap: for {123} and for
the {1243, 2134} pair, appending a value can only complete an occurrence
whose final letter is the new value, and for these patterns that condition
reduces to O(1) threshold checks against scan statistics of the prefix.  Any
other pattern set goes through ``perms._ends_at``, the backtracking matcher
that ``contains`` is built on, pinned to the new final position.  The naive
filter over all n! permutations with ``contains`` is kept as an independent
debug oracle.

``count_pair_avoiders_by_keys`` counts the {1243, 2134} class by number of
key mid-123 entries without listing it: a memoized walk over the pair
enumerator's prefix statistics, each kept only as the gap it falls in
between consecutive unused values, plus the gap of the previous entry.
``count_pair_avoiders`` sums it, and a smaller walk counts the {123} class.
``count_class`` uses them for every descriptor without ``j`` whose
normalized pattern set is ``AVOIDED_PAIR`` (any start-small or ``k``
filter) or {123} (any start-small filter, no ``k``).  Every other count,
``count_avoiders`` and ``count_start_small_123_avoiders`` included, streams
the enumerator, so the brute-force route stays an independent check on the
walks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    _ends_at,
    avoids,
    is_permutation,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
)


def _normalize_patterns(
    patterns: Iterable[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    normalized = sorted({tuple(q) for q in patterns})
    for q in normalized:
        if not is_permutation(q):
            raise ValueError(f"pattern {q!r} is not a permutation of 1..{len(q)}")
    return tuple(normalized)


def enumerate_avoiders(
    n: int, patterns: Iterable[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """
    Yield every permutation of [n] avoiding all given patterns exactly once,
    in lexicographic order of one-line notation.

    >>> list(enumerate_avoiders(3, [(1, 2, 3)]))
    [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    if n < 1:
        raise ValueError("length n must be >= 1")
    pats = _normalize_patterns(patterns)
    if pats == AVOIDED_PAIR:
        yield from _avoiders_1243_2134(n)
    elif pats == (PATTERN_123,):
        yield from _avoiders_123(n)
    else:
        yield from _avoiders_generic(n, pats)


def naive_avoiders(
    n: int, patterns: Iterable[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """Debug path: filter all n! permutations with the generic containment test."""
    if n < 1:
        raise ValueError("length n must be >= 1")
    pats = _normalize_patterns(patterns)
    for perm in itertools.permutations(range(1, n + 1)):
        if avoids(perm, pats):
            yield perm


def count_avoiders(n: int, patterns: Iterable[Sequence[int]] = ()) -> int:
    """Number of permutations of [n] avoiding all given patterns."""
    return sum(1 for _ in enumerate_avoiders(n, patterns))


def count_pair_avoiders(n: int) -> int:
    """
    Number of {1243, 2134}-avoiders of [n], counted without listing them;
    n = 0 counts the empty permutation.

    >>> [count_pair_avoiders(n) for n in range(8)]
    [1, 1, 2, 6, 22, 87, 354, 1459]
    """
    return sum(count_pair_avoiders_by_keys(n))


def count_pair_avoiders_by_keys(
    n: int, start_small_only: bool = False
) -> tuple[int, ...]:
    """
    Numbers of {1243, 2134}-avoiders of [n] by key mid-123 count, counted
    without listing them: index k holds those with exactly k key mid-123
    entries, for k = 0..n.  With ``start_small_only`` only the start-small
    ones count (the empty permutation is one, as in the series G).  The memo
    lives for one call only.

    >>> count_pair_avoiders_by_keys(5)
    (42, 34, 10, 1, 0, 0)
    >>> count_pair_avoiders_by_keys(5, start_small_only=True)
    (28, 27, 9, 1, 0, 0)
    """
    if n < 0:
        raise ValueError("length n must be >= 0")
    # The statistics of ``_avoiders_1243_2134``, each recorded as a gap: with
    # k unused values u_1 < ... < u_k, gap g holds the placed values between
    # u_g and u_{g+1} (u_0 = 0, u_{k+1} = infinity), and infinity is gap k.
    # A prefix whose unused values include a forbidden one can never be
    # completed, so a child is pruned the moment one appears; both ways are
    # monotone.  Appending v = u_i forbids
    #   for 1243, every unused u_j with s12 < u_j < v (s12_at[v] = s12),
    #             which exists iff i >= gap(s12) + 2;
    #   for 2134, every unused value above v once v becomes bad4 (m21 < v),
    #             which exists iff i < k.
    # In a live state every unused value may come next and none lies above
    # bad4, so bad4 and s12_at carry no information and drop out.  What
    # remains is k, the gaps of prefix_min, s12 and m21, and ``nonempty``:
    # bit g is set iff gap g holds a placed value, for the gaps below m21's,
    # since the new m21 is the first nonempty gap at or above v's.  Removing
    # u_i merges gaps i - 1 and i, so gap g >= i becomes g - 1 and v itself
    # lands in gap i - 1.
    #
    # Key mid-123 entries take one more coordinate, ``last``, the gap of the
    # previously placed value.  v is a mid-123 entry iff low < i < k (a
    # smaller value placed, a larger one unused), and a key one iff also
    # last < i, or last == k: a predecessor in gap k exceeds every value
    # after it, so it is a right-to-left maximum.  Both cases hold for every
    # mid-123 entry when last <= low, so such a last, and last == k, are
    # stored as low; what remains is always the gap of s12.  A state's count
    # is a polynomial in a marker for key entries, packed into one int with
    # ``width`` bits per coefficient (no coefficient exceeds n!), so that a
    # key entry shifts its child's count by ``width``.
    width = math.factorial(n).bit_length()
    memo: dict[tuple[int, int, int, int, int, int], int] = {}

    def count(k: int, low: int, s12: int, m21: int, nonempty: int, last: int) -> int:
        if k <= 1:
            return 1
        key = (k, low, s12, m21, nonempty, last)
        total = memo.get(key)
        if total is not None:
            return total
        total = 0
        for i in range(1, min(k, s12 + 1) + 1):
            if m21 < i:
                if i < k:
                    continue
                child_m21, child_nonempty = m21, nonempty
            else:
                g = i
                while g < m21 and not nonempty >> g & 1:
                    g += 1
                child_m21 = g - 1
                merged = nonempty & ((1 << (i - 1)) - 1) | 1 << (i - 1)
                child_nonempty = merged & ((1 << child_m21) - 1)
            if low >= i:  # v is the new prefix minimum; s12 stays
                total += count(k - 1, i - 1, s12 - 1, child_m21, child_nonempty, i - 1)
            elif i < k:  # a mid-123 entry, and the new s12
                child = count(k - 1, low, i - 1, child_m21, child_nonempty, i - 1)
                total += child << width if last < i else child
            else:  # v is the largest unused value: a right-to-left maximum
                total += count(k - 1, low, i - 1, child_m21, child_nonempty, low)
        memo[key] = total
        return total

    total = count(n, n, n, n, 0, n)
    if start_small_only and n >= 1:
        # Those starting with n: the first step's branch i = k, whose child
        # is the root of this walk for n - 1.
        total -= count(n - 1, n - 1, n - 1, n - 1, 0, n - 1)
    mask = (1 << width) - 1
    return tuple(total >> (width * k) & mask for k in range(n + 1))


def _count_123_avoiders(n: int, start_small_only: bool) -> int:
    # The walk of ``_avoiders_123`` over gaps as in
    # ``count_pair_avoiders_by_keys``.  In a live prefix no unused value lies
    # above s12, so appending v = u_i is allowed iff v becomes the new prefix
    # minimum (i <= low) or is the largest unused value (i = k): any other v
    # tops a rise with a larger unused value still to come.  The state is
    # just k and the gap of prefix_min.
    memo: dict[tuple[int, int], int] = {}

    def count(k: int, low: int) -> int:
        if k <= 1:
            return 1
        key = (k, low)
        total = memo.get(key)
        if total is not None:
            return total
        total = sum(count(k - 1, i - 1) for i in range(1, low + 1))
        if low < k:
            total += count(k - 1, low)
        memo[key] = total
        return total

    total = count(n, n)
    if start_small_only:
        total -= count(n - 1, n - 1)  # those starting with n, as above
    return total


def _avoiders_1243_2134(n: int) -> Iterator[tuple[int, ...]]:
    # Appending v to a clean prefix w creates 1243 iff some w[l] > v has a
    # rise (both entries < v) strictly before it, and creates 2134 iff some
    # w[l] < v has a descent with top below w[l] strictly before it.  The
    # scan statistics carried through the recursion:
    #   s12   = smallest top of a rise in the prefix so far,
    #   s12_at[x] = value of s12 just before value x was placed,
    #   m21   = smallest top of a descent in the prefix so far,
    #   bad4  = smallest w[l] whose earlier descent tops out below it; any
    #           v > bad4 is forbidden, so the ascending loop can stop there.
    inf = n + 1
    used = [False] * (n + 2)
    s12_at = [inf] * (n + 1)
    prefix: list[int] = []

    def rec(
        depth: int, prefix_min: int, s12: int, m21: int, bad4: int
    ) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(prefix)
            return
        # min_above[x] = min of s12_at over placed values >= x; the 1243 test
        # for candidate v is then min_above[v + 1] < v.
        min_above = [inf] * (n + 2)
        running = inf
        for x in range(n, 0, -1):
            if used[x] and s12_at[x] < running:
                running = s12_at[x]
            min_above[x] = running
        for v in range(1, n + 1):
            if used[v]:
                continue
            if v > bad4:
                break
            if min_above[v + 1] < v:
                continue
            new_s12 = v if (prefix_min < v < s12) else s12
            new_m21 = m21
            for x in range(v + 1, n + 1):  # smallest placed value above v
                if used[x]:
                    if x < new_m21:
                        new_m21 = x
                    break
            new_bad4 = v if (m21 < v < bad4) else bad4
            used[v] = True
            s12_at[v] = s12
            prefix.append(v)
            yield from rec(depth + 1, min(prefix_min, v), new_s12, new_m21, new_bad4)
            prefix.pop()
            used[v] = False

    yield from rec(0, inf, inf, inf, inf)


def _avoiders_123(n: int) -> Iterator[tuple[int, ...]]:
    # Appending v completes a 123 iff the prefix has a rise topping out below
    # v, so with s12 as above every candidate v > s12 is forbidden at once.
    inf = n + 1
    used = [False] * (n + 1)
    prefix: list[int] = []

    def rec(depth: int, prefix_min: int, s12: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            if v > s12:
                break
            new_s12 = v if (prefix_min < v < s12) else s12
            used[v] = True
            prefix.append(v)
            yield from rec(depth + 1, min(prefix_min, v), new_s12)
            prefix.pop()
            used[v] = False

    yield from rec(0, inf, inf)


def _avoiders_generic(
    n: int, patterns: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    used = [False] * (n + 1)
    prefix: list[int] = []

    def rec(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            # Any new occurrence must end at the new final position.
            prefix.append(v)
            if not any(_ends_at(prefix, depth, q) for q in patterns):
                used[v] = True
                yield from rec(depth + 1)
                used[v] = False
            prefix.pop()

    yield from rec(0)


@dataclass(frozen=True)
class ClassDescriptor:
    """
    A finite avoidance class: permutations of [n] avoiding ``patterns``,
    optionally restricted to start-small ones, to those with exactly ``k``
    key mid-123 entries, and to those whose last mid-123 entry sits at
    position ``j``.
    """

    n: int
    patterns: tuple[tuple[int, ...], ...] = ()
    start_small_only: bool = False
    k: int | None = None
    j: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("class length n must be >= 1")
        if self.j is not None:
            if self.k is None:
                raise ValueError("descriptor gives j without k")
            if not 1 <= self.k < self.j <= self.n - 1:
                raise ValueError(
                    f"need 1 <= k < j <= n-1, got k={self.k}, j={self.j}, n={self.n}"
                )
        elif self.k is not None and self.k < 0:
            raise ValueError(f"key mid-123 count k must be >= 0, got {self.k}")


def enumerate_class(descriptor: ClassDescriptor) -> Iterator[tuple[int, ...]]:
    """Stream the members of the described class in lexicographic order."""
    for perm in enumerate_avoiders(descriptor.n, descriptor.patterns):
        if descriptor.start_small_only and not is_start_small(perm):
            break  # in lexicographic order, every later one starts with n too
        if descriptor.k is not None and len(key_mid123_entries(perm)) != descriptor.k:
            continue
        if descriptor.j is not None:
            mids = mid123_entries(perm)
            if not mids or mids[-1] != descriptor.j:
                continue
        yield perm


def count_class(descriptor: ClassDescriptor) -> int:
    """
    Exact cardinality of the described class.

    Without a ``j`` filter, two pattern sets are counted by memoized walks
    instead of listing their members: the {1243, 2134} pair (normalized
    patterns exactly ``AVOIDED_PAIR``), with or without start-small and
    ``k``, by ``count_pair_avoiders_by_keys``, and {123}, with or without
    start-small but with no ``k``.  Every other class is counted by
    streaming ``enumerate_class``.
    """
    n, k = descriptor.n, descriptor.k
    patterns = _normalize_patterns(descriptor.patterns)
    if descriptor.j is None and patterns == AVOIDED_PAIR:
        by_keys = count_pair_avoiders_by_keys(n, descriptor.start_small_only)
        if k is None:
            return sum(by_keys)
        return by_keys[k] if k < len(by_keys) else 0
    if descriptor.j is None and k is None and patterns == (PATTERN_123,):
        return _count_123_avoiders(n, descriptor.start_small_only)
    return sum(1 for _ in enumerate_class(descriptor))


def count_start_small_123_avoiders(n: int) -> int:
    """
    Number of start-small 123-avoiding permutations of [n], by brute force.

    >>> [count_start_small_123_avoiders(n) for n in range(1, 6)]
    [0, 1, 3, 9, 28]
    """
    descriptor = ClassDescriptor(n, (PATTERN_123,), start_small_only=True)
    return sum(1 for _ in enumerate_class(descriptor))
