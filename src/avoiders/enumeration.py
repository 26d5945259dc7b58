"""Exhaustive generation and counting of pattern-avoidance classes.

One backtracking loop over an explicit stack builds permutations position
by position and enters only live prefixes: those to which no unused value
can be appended without completing a forbidden pattern.  A value that would
complete one completes it wherever it goes later, so any other prefix has
no completion, and a live prefix with one unused value has exactly one.
Emission is in lexicographic one-line order, streamed, never materialized.

Each class gives the generator a child rule, which names the unused values
that keep a prefix live by a threshold test on a few prefix statistics.  A
set runs every rule whose patterns it holds (the pair rule for 1243 and 2134,
a rule on the patience-sorting pile tops for each 12...m or m...1, m >= 2)
and keeps a child iff all keep it.  The set's other patterns are tested with
``perms._ends_at``, the matcher behind ``contains``; a node is left at the
first unused value that completes one.  Of a run of consecutive unused
values only the first is tried: no placed value lies between them, so the
matcher gives all one answer.  The node's parent passed the same test for a
superset of those values, so below the root such an occurrence also uses
the newest entry: the matcher pins the pattern's last two letters to the
two, and a value is tried only against the patterns whose last two letters
are ordered as it is against the newest entry.  The naive filter over all
n! permutations with ``contains`` is kept as an independent debug oracle.

A live prefix's completions depend only on its gap state: the number k of
unused values, and the gap each statistic of the rule's state falls in
among the sorted unused values.  A child rule reads values only by
comparing them, and takes minima or maxima of statistics, so it acts alike
on any two prefixes with one gap state and on their canonical
order-isomorphic instance: unused values 2, 4, ..., 2k, and a statistic in
gap g as 2g + 1 (a falling rule's 0 for none is in gap 0).  So each rule
answers once per call per gap state of its own, on that instance, and the
generator carries gap states: a node takes its children's from the answer,
and only the root's is worked out from values.  Composed rules keep the
children every rule keeps, by index, and a composed gap state holds one
per rule, so {1243, 2134, 4321} at n = 8 asks the pair rule 253 times and
the 4321 rule 92 times, though the two meet in 509 gap states.  For a
class with no patterns left to test (as the pair, {123} or
{1243, 2134, 4321}) a prefix with 2 to ``_BLOCK_K`` = 4 unused values
opens no node: its completions are its gap state's *block*, built once per
call as getters of positions in the sorted unused values.  The generator
yields chunks, a prefix and its block's tails, each tails tuple made once
per unused values and gap state.  A pair block holds at most f(4) = 22
completions.  Building costs the same at any n, so larger blocks pay off
only at larger n: for the pair, 4 is the fastest bound at n = 8 and 6 at
n = 10.  The blocks run the value-level rule itself, not the pair walk's
translation of it into gaps, so the enumerator stays an independent check
on that walk.  Counting runs forward over the same answers: the number of
live prefixes in each gap state, level by level from the root, summed at
the last level, the counting side of Zeilberger's enumeration schemes
("Enumeration schemes and, more importantly, their automatic generation",
1998); with it ``count_class`` counts {4321} at n = 20, 1.6e14 members, in
about 0.02 s.

``count_pair_avoiders_by_keys`` counts the {1243, 2134} class by number of
key mid-123 entries without listing it: a walk over the pair rule's prefix
statistics, each kept only as the gap it falls in between consecutive
unused values, plus the gap of the previous entry.  It runs forward like
the count by gap state, one level of live prefix states per number of
unused values, so it holds two levels and needs no recursion.  A state's
children form two runs, new prefix minima and mid-123 entries, and at most
two single children, and each run depends on the state only through the
gaps (low, s12) or (low, min(s12, m21)); so each level sums its states'
counts per run and writes each run's children once per sum, and the walk
is O(n^4), in step with its number of states, not k times that.  It is a
separate transcription of the pair rule, so that the enumerator stays an
independent check on it; a step function shared by both also slows the
walk.  The plain pair counts of ``count_class`` run the same walk with no
key marker, which stores every previous entry's gap as the prefix
minimum's, so fewer states differ (253 against 273 at n = 8).  A loop of
prefix sums over the states of a smaller walk counts the {123} class in
O(n^2) time.  Both walks beat the count by gap state, which asks the
value-level rules.  ``count_class`` documents which count it runs.  The
rules' answers, blocks, tails and counts, and the walks' levels, live for
one call.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    _ends_at,
    avoids,
    contains,
    is_permutation,
    key_mid123_entries,
    mid123_entries,
)


#: Largest n that the pair walk accepts, a bound on its cost, not on any
#: stack: its states and its time grow about as n^4 (see
#: ``count_pair_avoiders_by_keys``), and n = 100 takes about 8 s plain, or
#: 26 s keyed and start-small (2-vCPU host, Python 3.11.7).
PAIR_WALK_MAX_N = 100

#: Most unused values a prefix may have to take its completions from a block
#: (see the module docstring).
_BLOCK_K = 4


def enumerate_avoiders(
    n: int, patterns: Iterable[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """
    Yield every permutation of [n] avoiding all given patterns exactly once,
    in lexicographic order of one-line notation.

    >>> list(enumerate_avoiders(3, [(1, 2, 3)]))
    [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    yield from enumerate_class(ClassDescriptor(n, patterns))


def naive_avoiders(
    n: int, patterns: Iterable[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """Debug path: filter all n! permutations with the generic containment test."""
    given = [tuple(q) for q in patterns]
    ClassDescriptor(n, given)  # checks n and the patterns; every one is tested
    for perm in itertools.permutations(range(1, n + 1)):
        if avoids(perm, given):
            yield perm


def count_pair_avoiders_by_keys(
    n: int, start_small_only: bool = False
) -> tuple[int, ...]:
    """
    Numbers of {1243, 2134}-avoiders of [n] by key mid-123 count, counted
    without listing them: index k holds those with exactly k key mid-123
    entries, for k = 0..n.  With ``start_small_only`` only the start-small
    ones count (the empty permutation is one, as in the series G).

    The walk goes level by level and holds two levels at a time.  Its
    cost grows as its states: n = 40 passes 202,652 states with k >= 2, at
    most 19,685 of them in one level, and their number and the walk's time
    grow about as n^4, so n is limited to ``PAIR_WALK_MAX_N`` (100); a
    larger n raises ``ValueError``.

    >>> count_pair_avoiders_by_keys(5)
    (42, 34, 10, 1, 0, 0)
    >>> count_pair_avoiders_by_keys(5, start_small_only=True)
    (28, 27, 9, 1, 0, 0)
    """
    return _pair_walk(n, start_small_only, keyed=True)


def _pair_walk(n: int, start_small_only: bool, keyed: bool) -> int | tuple[int, ...]:
    # The {1243, 2134}-avoiders of [n], start-small ones only if asked: with
    # ``keyed`` their numbers by key mid-123 count, without it their number.
    if n < 0:
        raise ValueError("length n must be >= 0")
    if n > PAIR_WALK_MAX_N:
        raise ValueError(
            f"length n must be <= {PAIR_WALK_MAX_N} for the pair walk, got {n}"
        )
    # The statistics of ``_pair_children``, each recorded as a gap: with
    # k unused values u_1 < ... < u_k, gap g holds the placed values between
    # u_g and u_{g+1} (u_0 = 0, u_{k+1} = infinity), and infinity is gap k.
    # The pair's child rule and descent-top lemma, as stated in the
    # ``perms.avoids_pair`` docstring, in gaps: appending v = u_i forbids an
    # unused value for 1243 iff i >= gap(s12) + 2, and for 2134 iff
    # m21 < i < k.
    # The state is k and the gaps of prefix_min, s12 and m21.
    # Removing u_i merges gaps i - 1 and i, so gap g >= i becomes g - 1 and
    # v itself lands in gap i - 1.  A descent top exceeds the value after
    # it, so m21 >= low, and the lemma's new m21 is low's when v is the new
    # prefix minimum, else the smaller of m21 and s12 if s12 is above v.
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
    # key entry shifts the count it passes to its child by ``width``, and
    # unpacked at the end.  With no marker the width is 0 and every last is
    # stored as low, so fewer states differ.
    #
    # Level k maps the state (low, s12, m21, last) of each live prefix with
    # k unused values to the count of those prefixes, starting at the root;
    # every member ends in the one state at k = 0.
    #
    # A state's live children are i = 1 .. min(k, s12 + 1), as low <= s12
    # and low <= k, and they fall into two runs and at most two single
    # children.  For i <= low, v is the new prefix minimum and s12 stays:
    # the child (i - 1, s12 - 1, low - 1, i - 1) reads the state only
    # through (low, s12).  For low < i <= min(x, k - 1), x = min(s12, m21),
    # v is a mid-123 entry and the new s12: the child
    # (low, i - 1, x - 1, i - 1 or low) reads it only through (low, x) and
    # whether v is a key entry, which holds iff last == low, as s12 >= i.
    # The singles are i = k for low < k <= s12 + 1, a right-to-left
    # maximum, and i = s12 + 1 for low <= s12 < m21 and s12 + 1 < k, a key
    # mid-123 entry as last <= s12.  So one pass sums each state's count,
    # shifted if a key, into its two runs and writes its singles, and each
    # run is written once per sum: a level costs its states plus k times
    # its O(k^2) sums, so the walk is O(n^4), in step with its states.
    width = math.factorial(n).bit_length() if keyed else 0
    level = {(n, n, n, n): 1}
    for k in range(n, 0, -1):
        below: dict[tuple[int, int, int, int], int] = {}
        minima: dict[tuple[int, int], int] = {}  # by (low, s12)
        mids: dict[tuple[int, int], int] = {}  # by (low, x)
        get, min_get, mid_get = below.get, minima.get, mids.get
        for (low, s12, m21, last), count in level.items():
            if low:
                run = (low, s12)
                minima[run] = min_get(run, 0) + count
            x = s12 if s12 < m21 else m21
            if low < x and low < k - 1:
                run = (low, x)
                mids[run] = mid_get(run, 0) + (count << width if last == low else count)
            if low < k <= s12 + 1:
                child = (low, k - 1, m21 if m21 < k else k - 1, low)
                below[child] = get(child, 0) + count
            if low <= s12 < m21 and s12 < k - 1:
                child = (low, s12, m21 - 1, s12 if width else low)
                below[child] = get(child, 0) + (count << width)
        for (low, s12), count in minima.items():
            for g in range(low):  # g = i - 1, the gap v lands in
                child = (g, s12 - 1, low - 1, g)
                below[child] = get(child, 0) + count
        for (low, x), count in mids.items():
            for g in range(low, x if x < k else k - 1):
                child = (low, g, x - 1, g if width else low)
                below[child] = get(child, 0) + count
        if start_small_only and k == n:
            del below[(n - 1,) * 4]  # the root's child that places n; no other has it
        level = below
    total = sum(level.values())
    if not keyed:
        return total
    mask = (1 << width) - 1
    return tuple(total >> (width * keys) & mask for keys in range(n + 1))


def _count_123_avoiders(n: int, start_small_only: bool) -> int:
    # The walk of the rising ``_monotone_children`` for 123 over gaps as in
    # ``count_pair_avoiders_by_keys``: placing v = u_i keeps the prefix live
    # iff v becomes the new prefix minimum (i <= low) or is the largest
    # unused value (i = k), so with c(k, low) the completions of a state
    #   c(k, low) = sum of c(k - 1, i) over i < low, plus c(k - 1, low) if low < k,
    # and c(0, 0) = 1.  With S(j) the sum of the first j entries of row
    # k - 1, row k is S(1), ..., S(k), S(k): each row is one pass of prefix
    # sums over the one before, and c(k, k), its last entry, is C_k.
    row = [1]
    for _ in range(n):
        last = row[-1]  # c(k - 1, k - 1), those of [k] starting with k
        row = list(itertools.accumulate(row))
        row.append(row[-1])
    return row[-1] - last if start_small_only else row[-1]


def _value_rules(n: int, patterns: tuple) -> tuple[list[tuple], list[tuple]]:
    # A normalized set's child rules, each with the gaps of its root's
    # statistics, and the patterns left for the matcher.  At the root each
    # statistic is none yet: gap n, or 0 for a falling rule's.
    rules, others = [], list(patterns)  # (child rule, root gaps)
    if set(AVOIDED_PAIR) <= set(patterns):
        rules.append((_pair_children, (n,) * 3))
        others = [q for q in others if q not in AVOIDED_PAIR]
    for q in patterns:
        m, rising = len(q), q[0] < q[-1]
        if m >= 2 and q == tuple(range(1, m + 1) if rising else range(m, 0, -1)):
            rules.append((functools.partial(_monotone_children, rising),
                          (n if rising else 0,) * (m - 2)))
            others.remove(q)
    return rules or [(_all_children, ())], others


def _class_rule(n: int, patterns: tuple) -> tuple[Callable, tuple, list[tuple]]:
    # A normalized set's children on gap states, its root gap state and the
    # patterns left for the matcher.  ``children(key)`` maps the index of
    # each live child of gap state ``key``, by increasing value, to the
    # child's gap state.  Each rule answers once per gap state of its own
    # for the caller's call; rules compose two at a time, on pairs of gap
    # states, keeping the indices both keep.
    rules, others = _value_rules(n, patterns)
    parts = [
        (functools.cache(functools.partial(_child_keys, rule)), (n, *root))
        for rule, root in rules
    ]
    children, key = parts[0]
    for answer, root in parts[1:]:
        children, key = functools.partial(_composed_keys, children, answer), (key, root)
    return children, key, others


def _live_avoiders(n: int, patterns: tuple) -> Iterator[tuple[tuple, tuple]]:
    # The one loop behind ``enumerate_class``, over a normalized set: the
    # members in order, as chunks (head, tails), each standing for head +
    # tail for every tail.  ``children`` is the class's rule on gap states,
    # from ``_class_rule``.  ``stack`` holds each open prefix's unused values
    # and an iterator over its children; the prefix at depth d is
    # ``prefix[:d]`` and ``key`` the gap state of the newest one.  A live
    # prefix with one unused value u is the chunk of one tail (u,): the rule
    # keeps u from completing its own patterns, and the check against
    # ``patterns`` the rest.  The run heads, the pinned letters, the blocks
    # and their tails are as in the module docstring; ``blocks`` and
    # ``made`` hold them for this call only.
    children, key, patterns = _class_rule(n, patterns)
    sides = {
        rises: [q for q in patterns if len(q) >= 2 and (q[-2] < q[-1]) == rises]
        for rises in (False, True)
    }
    blocks: dict[tuple, list[Callable]] = {}  # by gap state
    made: dict[tuple, tuple] = {}  # tails by (unused values, gap state)
    unused = list(range(1, n + 1))
    prefix, stack = [], []
    while True:
        live, below = True, -1
        if patterns:
            end, pinned = len(prefix), 2 if prefix else 1  # see the module docstring
            for v in unused:
                asked = sides[v > prefix[-1]] if prefix else patterns
                if asked and v != below + 1:  # the first of its run
                    prefix.append(v)
                    live = not any(_ends_at(prefix, end, q, pinned) for q in asked)
                    prefix.pop()
                    if not live:
                        break
                below = v
        if live and len(unused) == 1:
            yield tuple(prefix), ((unused[0],),)
        elif live and not patterns and len(unused) <= _BLOCK_K:
            here = (tuple(unused), key)
            tails = made.get(here)
            if tails is None:
                block = _block(children, key, len(unused), blocks)
                tails = made[here] = tuple(tail(unused) for tail in block)
            if tails:
                yield tuple(prefix), tails
        elif live:
            stack.append((unused, iter(children(key).items())))
        while stack:
            parent, kids = stack[-1]
            child = next(kids, None)
            if child is not None:
                i, key = child
                unused = parent.copy()
                prefix[len(stack) - 1 :] = [unused.pop(i)]
                break
            stack.pop()
        else:
            return


def _child_keys(children: Callable, key: tuple[int, ...]) -> dict[int, tuple]:
    # The live children of gap state ``key`` under the value-level rule
    # ``children``, by increasing value: each one's index to its gap state,
    # from the canonical instance.  After placing v = 2i + 2, a child
    # statistic x has gap (x - 1) // 2 - (x > v).  A range stands in for the
    # unused list.
    k, state = key[0], tuple([2 * g + 1 for g in key[1:]])
    return {
        i: (k - 1, *[(x - 1) // 2 - (x > 2 * i + 2) for x in child])
        for i, child in children(state, range(2, 2 * k + 1, 2))
    }


def _composed_keys(first: Callable, second: Callable, key: tuple) -> dict[int, tuple]:
    # The children both rules keep, each with the pair of their gap states.
    top, part = key
    kept = second(part)
    return {i: (child, kept[i]) for i, child in first(top).items() if i in kept}


def _block(children: Callable, key: tuple, k: int, blocks: dict) -> list[Callable]:
    # The completions of gap state ``key`` with k >= 2 unused values under
    # the class's ``children``, as getters of positions in the sorted unused
    # values, by increasing value; ``blocks`` caches them by gap state.  A
    # child's completions are its own block's, read through the positions left.
    getters = blocks.get(key)
    if getters is None:
        getters = blocks[key] = []
        for i, child in children(key).items():
            rest = [*range(i), *range(i + 1, k)]
            if k == 2:
                tails = [rest]
            else:
                tails = [t(rest) for t in _block(children, child, k - 1, blocks)]
            getters += [operator.itemgetter(i, *tail) for tail in tails]
    return getters


def _count_by_gap_state(
    n: int, children: Callable, root: tuple, start_small_only: bool
) -> int:
    # The size of a class whose rules cover all its patterns: the number of
    # live prefixes in each gap state, level by level down from the root to
    # the members, which have no unused value.  No recursion bounds n.
    # Start-small skips the root's child that places n.
    level = {root: 1}
    for depth in range(n):
        below: dict[tuple, int] = {}
        for key, count in level.items():
            for i, child in children(key).items():
                if depth or i < n - 1 or not start_small_only:
                    below[child] = below.get(child, 0) + count
        level = below
    return sum(level.values())


def _pair_children(
    state: tuple[int, int, int], unused: list[int]
) -> list[tuple[int, tuple[int, int, int]]]:
    # The pair's child rule, as the ``perms.avoids_pair`` docstring states
    # it, on three of that scan's statistics, with n + 1 for "none yet":
    # prefix_min (its ``lowest``), s12 and m21.  The prefix is live, so a
    # child is live iff placing v forbids nothing: v > s12 only as the
    # smallest unused value above s12, and v > m21 only as the largest
    # unused value.  The new m21 is the same docstring's descent-top lemma:
    # the smallest of m21 and the least statistic above v.
    prefix_min, s12, m21 = state
    top = unused[-1]
    live = []
    for i, v in enumerate(unused):
        if v < m21 or v == top:
            if v < prefix_min:
                live.append((i, (v, s12, prefix_min if prefix_min < m21 else m21)))
            elif v < s12:
                live.append((i, (prefix_min, v, s12 if s12 < m21 else m21)))
            else:
                live.append((i, state))
        if v > s12:  # the smallest unused value above s12 was the last one
            break
    return live


def _monotone_children(rising: bool, state: tuple, unused: list[int]) -> list[tuple]:
    # The rule of 12...m (``rising``) or m...1, m >= 2, on the prefix's first
    # m - 2 patience-pile tops: the smallest (rising) or largest last value of
    # a monotone run of each length, n + 1 or 0 for none.  v tops the first
    # pile whose top it undercuts.  The prefix is live, so no unused value
    # lands past pile m - 1, and v keeps it so iff v lands on one of the first
    # m - 2 piles or is the largest (rising) or smallest unused value.
    if rising:
        live, hi = [], 0
        for j, top in enumerate(state):
            lo, hi = hi, bisect.bisect_left(unused, top, hi)
            head, tail = state[:j], state[j + 1 :]
            live += [(i, head + (unused[i],) + tail) for i in range(lo, hi)]
        if hi < len(unused):  # the largest lands on pile m - 1
            live.append((len(unused) - 1, state))
        return live
    k = len(unused)
    hi = bisect.bisect_left(unused, state[-1]) if state else k
    live = [(0, state)] if hi else []  # the smallest lands on pile m - 1
    for j in reversed(range(len(state))):  # the values between tops j and j - 1
        lo, hi = hi, bisect.bisect_left(unused, state[j - 1], hi) if j else k
        head, tail = state[:j], state[j + 1 :]
        live += [(i, head + (unused[i],) + tail) for i in range(lo, hi)]
    return live


def _all_children(state: tuple[()], unused: list[int]) -> list[tuple[int, tuple[()]]]:
    # No rule: every unused value is entered.
    return [(i, ()) for i in range(len(unused))]


@dataclass(frozen=True)
class ClassDescriptor:
    """
    A finite avoidance class: permutations of [n] avoiding ``patterns``,
    optionally restricted to start-small ones, to those with exactly ``k``
    key mid-123 entries, and to those whose last mid-123 entry sits at
    position ``j``.  This is the one place a class is checked: ``patterns``,
    any iterable of sequences, is stored as a sorted tuple of distinct tuples,
    less every pattern that contains another one of them.
    """

    n: int
    patterns: tuple[tuple[int, ...], ...] = ()
    start_small_only: bool = False
    k: int | None = None
    j: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("class length n must be >= 1")
        patterns = tuple(sorted({tuple(q) for q in self.patterns}))
        for q in patterns:
            if not is_permutation(q):
                raise ValueError(f"pattern {q!r} is not a permutation of 1..{len(q)}")
        # A pattern that contains a shorter one of the set adds no constraint.
        redundant = {q for q in patterns for p in patterns
                     if len(p) < len(q) and contains(q, p)}
        object.__setattr__(self, "patterns", tuple(q for q in patterns if q not in redundant))
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
    for head, tails in _class_chunks(descriptor):
        for tail in tails:
            yield head + tail


def _class_chunks(descriptor: ClassDescriptor) -> Iterator[tuple[tuple, tuple]]:
    # The members of the class as ``_live_avoiders`` chunks, each cut to the
    # tails the filters keep; no chunk is empty.
    n, k, j = descriptor.n, descriptor.k, descriptor.j
    if k and not avoids(PATTERN_123, descriptor.patterns):
        return  # a pattern lies inside 123, so no member has a mid-123 entry
    for head, tails in _live_avoiders(n, descriptor.patterns):
        if descriptor.start_small_only:
            if head[:1] == (n,):
                break  # in lexicographic order, every later one starts with n too
            if not head:  # the root's own block or leaf
                tails = tuple(t for t in tails if t[0] != n)
        if k is not None:
            tails = tuple(
                t for t in tails
                if len(key_mid123_entries(head + t)) == k
                and (j is None or mid123_entries(head + t)[-1] == j)
            )
        if tails:
            yield head, tails


def count_class(descriptor: ClassDescriptor) -> int:
    """
    Exact cardinality of the described class.

    Two pattern sets are counted by their own walks: the {1243, 2134} pair
    (patterns exactly ``AVOIDED_PAIR``) without ``j``, with or without
    start-small, by the pair walk (with ``k`` through
    ``count_pair_avoiders_by_keys``, without it with no key marker), and
    {123} with any filter but ``k`` >= 1, by the 123 walk.  Every other set
    that the enumerator's rules cover whole is counted by gap state when
    there is no ``k``, each rule answering once per gap state of its own.
    The rest is counted by streaming ``enumerate_class``, which ends a keyed
    class with a pattern inside 123 at once.
    """
    n, k, patterns = descriptor.n, descriptor.k, descriptor.patterns
    if descriptor.j is None and patterns == AVOIDED_PAIR:
        if k is None:
            return _pair_walk(n, descriptor.start_small_only, keyed=False)
        by_keys = count_pair_avoiders_by_keys(n, descriptor.start_small_only)
        return by_keys[k] if k < len(by_keys) else 0
    if patterns == (PATTERN_123,) and not k:  # a descriptor with j has k >= 1
        return _count_123_avoiders(n, descriptor.start_small_only)
    children, root, others = _class_rule(n, patterns)
    if k is None and not others:  # a descriptor with j has k
        return _count_by_gap_state(n, children, root, descriptor.start_small_only)
    return sum(1 for _ in enumerate_class(descriptor))

