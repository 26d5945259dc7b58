"""Permutations in one-line notation, pattern containment, and entry classes.

A permutation of [n] = {1, ..., n} is a tuple of ints holding each value
exactly once, e.g. ``(3, 1, 2)``.  All public interfaces use 1-based
positions, so ``right_to_left_maxima((3, 1, 2))`` reports the entry 3 at
position 1.  Functions that only care about relative order (``standardize``,
``contains``) also accept words: sequences of distinct ints that need not
fill an interval, such as ``(16, 19, 15, 6)``.

Containment has one backtracking matcher, ``_ends_at``: does an occurrence
of a pattern end with the one or two entries up to a given index?  The
generic enumerator pins two, the appended value and the newest entry, as
the prefix's parent passed the same test; ``contains`` pins one.

The pattern pair {1243, 2134} also has a one-pass scan, ``avoids_pair``,
that refuses non-permutations too: three prefix statistics and one int
bitset of the unused values tell, in O(1) big-int operations per entry,
whether a prefix leaves an unused value that would complete either pattern,
and the scan refuses at the first prefix that does.  Its docstring states
the two forbidding rules, the child rule they give, and the descent-top
lemma that reads the new smallest descent top off two statistics; the pair
enumerator and the pair walk in ``enumeration`` cite it.  The
bijection's entry points validate with it; ``contains`` stays the
independent oracle it is tested against.

Loops that run once per entry or once per walk state (this scan, the
prefix minima of ``bijection._splits``, the pair walk in ``enumeration``)
take the smaller of two values by comparison, ``a if a < b else b``, not by
builtin ``min`` or ``max``: on CPython 3.11.7 the call costs about 0.13 µs
and the comparison about 0.015 µs, and trading those calls for comparisons
made a ``phi_inverse``-then-``phi`` round trip about 1.2 times as fast.

``mid123_entries`` and ``key_mid123_entries`` share one suffix-maximum scan,
then a left-to-right pass each; ``right_to_left_maxima`` keeps its own loop
(the tests define key entries by it).

The bijection's helpers are private, so that a tracer of the public
functions bills them to their caller: ``_rank`` is ``standardize`` without
its duplicate check, and ``_start_small_123_avoider`` checks a list element
in one scan.

Terminology used throughout the package:

- a *pattern* q is contained in p when some subsequence of p is
  order-isomorphic to q (classical containment);
- a *mid-123 entry* is an entry with a smaller entry somewhere before it and
  a larger entry somewhere after it, i.e. it can play the middle of an
  ascending subsequence of length three;
- a *key* mid-123 entry is one whose immediate predecessor is either smaller
  than it or a right-to-left maximum;
- a permutation is *start-small* when it does not begin with its largest
  entry.
"""

from __future__ import annotations

import math
from bisect import bisect
from itertools import repeat
from typing import Iterable, Sequence

PATTERN_123 = (1, 2, 3)
PATTERN_1243 = (1, 2, 4, 3)
PATTERN_2134 = (2, 1, 3, 4)

#: The pattern pair whose avoiders this package enumerates (OEIS A164651).
AVOIDED_PAIR = (PATTERN_1243, PATTERN_2134)


def is_permutation(entries: Sequence[int]) -> bool:
    """
    Check that ``entries`` is a permutation of {1, ..., n} in one-line notation.

    >>> [is_permutation(w) for w in [(1,), (2, 1), (2, 3), (1, 1, 2), ()]]
    [True, True, False, False, False]
    """
    n = len(entries)
    return n >= 1 and sorted(entries) == list(range(1, n + 1))


def parse_perm(text: str) -> tuple[int, ...]:
    """
    Parse the space-separated one-line notation, e.g. ``"3 1 2"`` -> (3, 1, 2).

    Rejects anything that is not a permutation of [n]: non-integer tokens,
    duplicates, and values outside 1..n.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty permutation")
    try:
        entries = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"non-integer entry in permutation {text!r}") from None
    if len(set(entries)) != len(entries):
        raise ValueError(f"duplicate entries in permutation {text!r}")
    if not is_permutation(entries):
        raise ValueError(
            f"entries of {text!r} are not exactly 1..{len(entries)}"
        )
    return entries


def format_perm(perm: Sequence[int]) -> str:
    """Render a permutation in the space-separated text format."""
    return " ".join(map(str, perm))


def standardize(word: Sequence[int]) -> tuple[int, ...]:
    """
    Replace the smallest entry by 1, the next smallest by 2, and so on.

    The output is the unique permutation order-isomorphic to ``word``.

    >>> standardize((2, 1, 10, 3))
    (2, 1, 4, 3)
    >>> standardize((16, 19, 15, 6, 18, 11, 12, 13, 17, 3, 2, 1))
    (9, 12, 8, 4, 11, 5, 6, 7, 10, 3, 2, 1)
    """
    if len(set(word)) != len(word):
        raise ValueError(f"cannot standardize a word with duplicates: {word!r}")
    return _rank(word)


def _rank(word: Sequence[int]) -> tuple[int, ...]:
    # ``standardize`` for words known to be distinct: an entry's rank is the
    # number of entries up to it.
    return tuple(map(bisect, repeat(sorted(word)), word))


def _ends_at(
    word: Sequence[int], end: int, pattern: Sequence[int], pinned: int = 1
) -> bool:
    """
    Does ``word[:end + 1]`` hold an occurrence of ``pattern`` (non-empty)
    whose last ``pinned`` letters, one or two, are the entries up to index
    ``end`` (0-based)?  ``contains`` pins one; the generic enumerator pins
    the appended value and the newest entry, as the prefix's parent passed
    the same test.  Two pinned entries ordered unlike the pattern's last two
    letters refuse at once.  Otherwise the other slots are filled left to
    right, each candidate strictly between the placed entries, pinned ones
    included, that the pattern orders below and above it.  This is the
    package's one pattern backtracker.

    >>> _ends_at((1, 2, 4, 3), 3, (1, 2, 4, 3))
    True
    >>> _ends_at((1, 2, 4, 3, 5), 4, (1, 2, 4, 3))
    False
    >>> _ends_at((1, 4, 2, 5, 3), 4, (1, 2, 4, 3), pinned=2)  # 1 2 5 3
    True
    """
    m, first = len(pattern), end + 1 - pinned  # first pinned index
    if m < pinned or (word[first] < word[end]) != (pattern[m - pinned] < pattern[-1]):
        return False
    # The pattern with its pinned letters first, and the entries in its slots.
    order = (*pattern[m - pinned:], *pattern[: m - pinned])
    placed = [*word[first : end + 1], *[0] * (m - pinned)]

    def extend(slot: int, start: int) -> bool:
        lo, hi = -math.inf, math.inf
        for s in range(slot):
            if order[s] < order[slot]:
                lo = placed[s] if placed[s] > lo else lo
            else:
                hi = placed[s] if placed[s] < hi else hi
        for pos in range(start, first - (m - 1 - slot)):
            v = word[pos]
            if lo < v < hi:
                placed[slot] = v
                if slot == m - 1 or extend(slot + 1, pos + 1):
                    return True
        return False

    return m == pinned or extend(pinned, 0)


def contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    Classical pattern containment: does some subsequence of ``word`` have the
    same relative order as ``pattern``?  Tries every position as the end of an
    occurrence with ``_ends_at``; none before ``len(pattern) - 1`` can be one.

    >>> contains((1, 2, 4, 3), (1, 2, 4, 3))
    True
    >>> contains((3, 4, 1, 2), (1, 2, 3))
    False
    """
    m = len(pattern)
    return m == 0 or any(_ends_at(word, end, pattern) for end in range(m - 1, len(word)))


def _start_small_123_avoider(perm: Sequence[int]) -> bool:
    # Is perm a start-small 123-avoiding permutation of [n]?  One scan keeps
    # the prefix minimum and the smallest top of a rise, which a later larger
    # entry would make a 123.  Each value is range-tested before its shift,
    # and a repeated one leaves a bit of ``placed`` unset for the final test.
    n = len(perm)
    lowest = best_mid = n + 1
    placed = 0
    for v in perm:
        if not 0 < v < best_mid:  # best_mid <= n + 1 is n + 1 or a placed value
            return False
        if v > lowest:
            best_mid = v
        else:
            lowest = v
        placed |= 1 << v
    return n > 0 and placed == (2 << n) - 2 and perm[0] != n


def avoids(word: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True iff ``word`` contains none of the given patterns."""
    return not any(contains(word, q) for q in patterns)


def avoids_pair(perm: Sequence[int]) -> bool:
    """
    True iff ``perm`` is a permutation of [n] that avoids both 1243 and
    2134, in one left-to-right scan that refuses at the first dead prefix.

    Values are bit indices, so each is range-tested before any shift.  The
    scan carries the prefix minimum ``lowest``, the smallest tops of a rise
    ``s12`` and of a descent ``m21`` (n + 1 for none yet), and the bitset
    ``unused`` of the values of 1..n not yet placed, each entry toggling
    its bit: n entries clear all n bits only if no value repeats.  Any
    other sequence of ints, the empty one included, gives False.
    Appending v forbids

    - for 1243, every unused u with ``s12`` < u < v: a rise, v as the 4,
      u as the 3;
    - for 2134, once ``m21`` < v, every unused u > v: a descent, v as the
      3, u as the 4.

    A forbidden value completes its pattern wherever it goes later, and
    every occurrence ends at a value forbidden before it arrives, so the
    child rule is exact: a prefix is live iff it leaves no forbidden value
    unused.  The scan, like the pair enumerator and the pair walk in
    ``enumeration``, passes only live prefixes.

    Placing v makes the smallest placed value above v the top of a descent,
    and on a live prefix the descent-top lemma finds it: the new ``m21`` is
    min(``m21``, ``lowest`` if v < ``lowest`` else ``s12`` if v < ``s12``
    else ``m21``).  Proof: placed values below ``m21`` top no descent, so
    they rise left to right; the second of them is ``s12``; and the 1243
    rule leaves no unused value between ``s12`` and any later one.
    ``contains`` stays the independent oracle.

    >>> avoids_pair((11, 2, 12, 9, 7, 8, 4, 5, 6, 1, 10, 3))
    True
    >>> [avoids_pair(p) for p in [(1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3)]]
    [False, False, True]
    >>> [avoids_pair(w) for w in [(), (2, 3), (1, 1), (-1, 1)]]
    [False, False, False, False]
    """
    n = len(perm)
    lowest = s12 = m21 = n + 1
    unused = (2 << n) - 2
    for v in perm:
        if not 0 < v <= n:
            return False
        bit = 1 << v
        unused ^= bit
        if v > m21 and unused > bit:  # 2134
            return False
        # The lemma's three cases: m21 stays, or drops to s12 or to lowest.
        if v > s12:
            if unused & (bit - (2 << s12)):  # 1243
                return False
        elif v > lowest:
            m21, s12 = (m21 if m21 < s12 else s12), v
        else:
            m21, lowest = (m21 if m21 < lowest else lowest), v
    return n > 0 and not unused


def right_to_left_maxima(perm: Sequence[int]) -> set[int]:
    """
    Positions (1-based) of entries larger than everything to their right.

    The last position always qualifies.

    >>> sorted(right_to_left_maxima((3, 2, 1)))
    [1, 2, 3]
    >>> sorted(right_to_left_maxima((1, 3, 4, 5, 2, 6)))
    [6]
    """
    maxima: set[int] = set()
    best = -math.inf
    for pos in range(len(perm), 0, -1):
        if perm[pos - 1] > best:
            maxima.add(pos)
            best = perm[pos - 1]
    return maxima


def _suffix_max(perm: Sequence[int]) -> list[int]:
    # suffix_max[t] is the largest of perm[t:] (0-based), 0 past the end: at
    # a 1-based position t, the largest entry after position t.
    suffix_max = [0]
    best = 0
    for v in reversed(perm):
        if v > best:
            best = v
        suffix_max.append(best)
    suffix_max.reverse()
    return suffix_max


def mid123_entries(perm: Sequence[int]) -> list[int]:
    """
    Positions (1-based, increasing) of the mid-123 entries of ``perm``.

    Position t qualifies iff some earlier entry is smaller and some later
    entry is larger: one left-to-right scan compares each entry with the
    running prefix minimum and the suffix maximum after it.

    >>> mid123_entries((1, 3, 4, 5, 2, 6))
    [2, 3, 4, 5]
    >>> mid123_entries((3, 2, 1))
    []
    """
    suffix_max = _suffix_max(perm)
    positions = []
    low = math.inf
    for t, v in enumerate(perm, 1):
        if low < v < suffix_max[t]:
            positions.append(t)
        elif v < low:
            low = v
    return positions


def key_mid123_entries(perm: Sequence[int]) -> list[int]:
    """
    Positions of the key mid-123 entries: mid-123 entries whose immediate
    predecessor is smaller or is a right-to-left maximum.

    A mid-123 entry never sits at position 1, so the predecessor exists.  In
    ``mid123_entries``'s scan, the entry v at position t is key iff its
    predecessor is below v or above every entry from position t on.

    >>> key_mid123_entries((1, 3, 4, 5, 2, 6))  # 2 follows 5, and 6 > 5 later
    [2, 3, 4]
    >>> key_mid123_entries((1, 4, 2, 3))  # 2 follows 4, a right-to-left maximum
    [3]
    """
    suffix_max = _suffix_max(perm)
    positions = []
    low = prev = math.inf
    for t, v in enumerate(perm, 1):
        if low < v < suffix_max[t]:
            if prev < v or prev > suffix_max[t - 1]:
                positions.append(t)
        elif v < low:
            low = v
        prev = v
    return positions


def is_start_small(perm: Sequence[int]) -> bool:
    """
    True iff the permutation does not start with its largest entry.  The
    empty permutation has no entries to start with, so it is start-small, as
    it counts in the series G and in ``count_pair_avoiders_by_keys(0, True)``.

    >>> is_start_small((3, 4, 1, 2))
    True
    >>> [is_start_small(p) for p in [(2, 1), (1,), ()]]
    [False, False, True]
    """
    return not perm or perm[0] != len(perm)
