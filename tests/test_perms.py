"""Entry-level predicates: standardization, containment, entry classes."""

import functools
import itertools
import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoiders.bijection import _splits, phi_inverse
from avoiders.enumeration import enumerate_avoiders
from avoiders.perms import (
    AVOIDED_PAIR,
    _ends_at,
    _start_small_123_avoider,
    PATTERN_123,
    PATTERN_1243,
    avoids,
    avoids_pair,
    contains,
    format_perm,
    is_permutation,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
    parse_perm,
    right_to_left_maxima,
    standardize,
)
from test_bijection import _random_element

distinct_words = st.lists(
    st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40, unique=True
)


def naive_contains(word, pattern):
    """Independent containment oracle: try every subsequence."""
    return any(
        standardize(sub) == tuple(pattern)
        for sub in itertools.combinations(word, len(pattern))
    )


# ---------------------------------------------------------------------------
# standardize


def test_standardize_examples():
    assert standardize((2, 1, 10, 3)) == (2, 1, 4, 3)
    assert standardize((1, 2, 3)) == (1, 2, 3)
    assert standardize((16, 19, 15, 6, 18, 11, 12, 13, 17, 3, 2, 1)) == (
        9, 12, 8, 4, 11, 5, 6, 7, 10, 3, 2, 1,
    )


def test_standardize_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicates"):
        standardize((1, 2, 2))


@given(distinct_words)
def test_standardize_idempotent_and_order_isomorphic(word):
    out = standardize(word)
    assert is_permutation(out)
    assert standardize(out) == out
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            assert (word[i] < word[j]) == (out[i] < out[j])


# ---------------------------------------------------------------------------
# containment


def test_contains_examples():
    assert contains((1, 2, 4, 3), (1, 2, 4, 3))
    assert not contains((3, 4, 1, 2), PATTERN_123)
    worked = parse_perm("11 2 12 9 7 8 4 5 6 1 10 3")
    assert not contains(worked, (1, 2, 4, 3))
    assert not contains(worked, (2, 1, 3, 4))
    # words that are not permutations of an interval
    assert contains((6, 11, 40, 2), PATTERN_123)
    assert not contains((40, 6, 11, 2), PATTERN_123)


def test_contains_degenerate_patterns():
    assert contains((1,), (1,))
    assert not contains((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", range(1, 6))
def test_contains_matches_naive_oracle(n):
    patterns = [q for m in (2, 3, 4) for q in itertools.permutations(range(1, m + 1))]
    for perm in itertools.permutations(range(1, n + 1)):
        for q in patterns:
            assert contains(perm, q) == naive_contains(perm, q), (perm, q)


def _shape(seq):
    """The permutation a sequence of distinct ints is order-isomorphic to."""
    ranked = sorted(seq)
    return tuple(ranked.index(v) + 1 for v in seq)


@pytest.mark.parametrize("n", range(1, 7))
def test_ends_at_matches_brute_force(n):
    # Brute force without package code: an occurrence ending at word[end] is
    # m - 1 entries of word[:end] followed by word[end].  Every word of length
    # n is order-isomorphic to a permutation of 1..n; the shifted list form
    # checks that the matcher relies on relative order only.
    lengths = range(1, 5)
    patterns = [q for m in lengths for q in itertools.permutations(range(1, m + 1))]
    for perm in itertools.permutations(range(1, n + 1)):
        for end in range(n):
            shapes = {
                _shape(sub + (perm[end],))
                for m in lengths
                for sub in itertools.combinations(perm[:end], m - 1)
            }
            for word in (perm, [3 * v - 40 for v in perm]):
                for q in patterns:
                    assert _ends_at(word, end, q) == (q in shapes), (word, end, q)


@pytest.mark.parametrize("n", range(2, 7))
def test_ends_at_with_two_pinned_letters_matches_brute_force(n):
    # An occurrence whose last two letters are word[end - 1] and word[end]
    # is m - 2 entries of word[:end - 1] followed by those two.
    lengths = range(2, 6)
    patterns = [q for m in lengths for q in itertools.permutations(range(1, m + 1))]
    for perm in itertools.permutations(range(1, n + 1)):
        for end in range(1, n):
            shapes = {
                _shape(sub + (perm[end - 1], perm[end]))
                for m in lengths
                for sub in itertools.combinations(perm[: end - 1], m - 2)
            }
            for word in (perm, [3 * v - 40 for v in perm]):
                for q in patterns:
                    assert _ends_at(word, end, q, pinned=2) == (q in shapes), (
                        word, end, q,
                    )


def test_contains_monotone_under_prefix_extension():
    # Once a prefix contains a pattern, every longer prefix does too,
    # exhaustively for n <= 7 and all patterns of length <= 4.
    patterns = [
        q for m in (1, 2, 3, 4) for q in itertools.permutations(range(1, m + 1))
    ]
    for n in range(1, 8):
        for perm in itertools.permutations(range(1, n + 1)):
            for q in patterns:
                flags = [contains(perm[:k], q) for k in range(len(q), n + 1)]
                assert flags == sorted(flags), (perm, q)


@pytest.mark.parametrize("n", range(1, 9))
def test_avoids_pair_matches_generic(n):
    for perm in itertools.permutations(range(1, n + 1)):
        assert avoids_pair(perm) == avoids(perm, AVOIDED_PAIR), perm


def _random_avoiders():
    # Start-small avoiders of length up to about 50, folded by phi_inverse
    # from seeded random lists.
    rng = random.Random(20131243)
    for _ in range(30):
        yield phi_inverse(tuple(_random_element(rng) for _ in range(rng.randint(1, 12))))


def test_avoids_pair_matches_generic_on_hard_cases():
    # Random avoiders and every permutation one transposition away from
    # each: mostly near-misses, so both verdicts are well represented.
    verdicts = {True: 0, False: 0}
    for perm in _random_avoiders():
        cases = [perm]
        for i, j in itertools.combinations(range(len(perm)), 2):
            swapped = list(perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            cases.append(tuple(swapped))
        for case in cases:
            verdict = avoids_pair(case)
            assert verdict == avoids(case, AVOIDED_PAIR), case
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 500, verdicts


class _CountingReads(Sequence):
    """A permutation that counts how many of its entries have been read."""

    def __init__(self, entries):
        self.entries, self.reads = entries, 0

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index):
        entry = self.entries[index]
        self.reads += 1
        return entry


@pytest.mark.parametrize("n", range(1, 8))
def test_avoids_pair_refuses_at_the_first_dead_prefix(n):
    # The scan reads exactly up to the shortest prefix after which some
    # unused value completes 1243 or 2134, or all n entries of an avoider.
    values = set(range(1, n + 1))

    @functools.cache
    def dead(prefix):
        unused = values - set(prefix)
        return any(contains(prefix + (u,), q) for u in unused for q in AVOIDED_PAIR)

    for perm in itertools.permutations(range(1, n + 1)):
        first_dead = next((k for k in range(n) if dead(perm[:k])), n)
        recorded = _CountingReads(perm)
        assert avoids_pair(recorded) == (first_dead == n), perm
        assert recorded.reads == first_dead, perm


def _words(n):
    # Every word of length n over -1..n+1: permutations of [n] and the
    # near-misses out of range or with a repeat.
    return itertools.product(range(-1, n + 2), repeat=n)


@pytest.mark.parametrize("n", range(0, 8))
def test_fused_validators_match_the_predicates(n):
    # The bijection's one-scan validators accept exactly what the separate
    # predicates do: on every permutation up to n = 7, and on every word
    # over -1..n+1 up to n = 5.
    words = _words(n) if n <= 5 else itertools.permutations(range(1, n + 1))
    for word in words:
        valid = is_permutation(word) and is_start_small(word)
        assert (avoids_pair(word) and is_start_small(word)) == (
            valid and avoids(word, AVOIDED_PAIR)
        ), word
        assert _start_small_123_avoider(word) == (
            valid and not contains(word, PATTERN_123)
        ), word


def _descent_top_cases(n):
    # (prefix, v, live, new m21, the lemma's new m21) for every unused v after
    # every prefix of [n], from naive statistics with n + 1 for "none".  A
    # prefix is live when no unused value completes a 1243 after it.
    for size in range(n):
        for prefix in itertools.permutations(range(1, n + 1), size):
            unused = sorted(set(range(1, n + 1)) - set(prefix))
            live = not any(contains(prefix + (u,), PATTERN_1243) for u in unused)
            pairs = list(itertools.combinations(prefix, 2))
            lowest = min(prefix, default=n + 1)
            s12 = min((y for x, y in pairs if x < y), default=n + 1)
            m21 = min((x for x, y in pairs if x > y), default=n + 1)
            for v in unused:
                above = min((x for x in prefix if x > v), default=n + 1)
                lemma = lowest if v < lowest else s12 if v < s12 else m21
                yield prefix, v, live, min(above, m21), min(lemma, m21)


@pytest.mark.parametrize(
    "n, cases", [(1, 1), (2, 4), (3, 15), (4, 63), (5, 300), (6, 1575), (7, 8876)]
)
def test_descent_top_lemma_on_every_live_prefix(n, cases):
    # The lemma of the avoids_pair docstring, which the pair walk and the
    # pair enumerator also apply, on every (live prefix, unused v) case.
    live = [case for case in _descent_top_cases(n) if case[2]]
    for prefix, v, _, new_m21, lemma in live:
        assert new_m21 == lemma, (prefix, v)
    assert len(live) == cases


def test_descent_top_lemma_needs_a_live_prefix():
    # (1, 2, 4) forbids 3: 4 is the smallest placed value above 3, but the
    # lemma, whose proof needs 3 placed, reads "none".
    cases = {case[:2]: case[2:] for case in _descent_top_cases(4)}
    assert cases[(1, 2, 4), 3] == (False, 4, 5)


# ---------------------------------------------------------------------------
# entry classes


def test_right_to_left_maxima_examples():
    assert right_to_left_maxima((3, 2, 1)) == {1, 2, 3}
    assert right_to_left_maxima((1, 3, 4, 5, 2, 6)) == {6}
    worked = parse_perm("13 16 12 3 15 8 9 10 11 7 6 5 2 1 14 4")
    assert right_to_left_maxima(worked) == {2, 5, 15, 16}


def test_mid123_entries_examples():
    assert mid123_entries((1, 3, 4, 5, 2, 6)) == [2, 3, 4, 5]  # entries 3, 4, 5, 2
    assert mid123_entries((3, 2, 1)) == []
    assert mid123_entries((1, 2, 3)) == [2]


def test_key_mid123_entries_examples():
    # of the mid-123 entries 3, 4, 5, 2 only the first three are key: each
    # follows a smaller entry, while 2 follows 5, which 6 exceeds later on
    assert key_mid123_entries((1, 3, 4, 5, 2, 6)) == [2, 3, 4]
    # 2 follows the larger 4, but is key because 4 is a right-to-left maximum
    assert key_mid123_entries((1, 4, 2, 3)) == [3]
    key_example = parse_perm("11 2 12 9 7 8 4 5 6 1 10 3")
    assert mid123_entries(key_example)[-1] in key_mid123_entries(key_example)
    drop_example = parse_perm("13 16 12 3 15 8 9 10 11 7 6 5 2 1 14 4")
    assert mid123_entries(drop_example)[-1] not in key_mid123_entries(drop_example)


def _entry_classes_by_definition(perm):
    # The literal quantifiers, in quadratic time: mid-123 entries have a
    # smaller entry before and a larger one after; key ones also have a
    # smaller predecessor or one at a right-to-left maximum's position.
    mids = [
        t for t in range(1, len(perm) + 1)
        if any(x < perm[t - 1] for x in perm[: t - 1])
        and any(x > perm[t - 1] for x in perm[t:])
    ]
    maxima = right_to_left_maxima(perm)
    keys = [t for t in mids if perm[t - 2] < perm[t - 1] or t - 1 in maxima]
    return mids, keys


def _entry_class_cases():
    for n in range(1, 8):
        yield from itertools.permutations(range(1, n + 1))
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(30, 60)
        yield tuple(rng.sample(range(1, n + 1), n))


def test_entry_classes_match_definitions():
    for perm in _entry_class_cases():
        mids, keys = _entry_classes_by_definition(perm)
        assert mid123_entries(perm) == mids, perm
        assert key_mid123_entries(perm) == keys, perm


def _split_by_definition(perm):
    # (j, a, c, second) as the bijection's first split should find them: c
    # and second are the two largest entries after j, 0 standing in for a
    # missing second.
    j = (mid123_entries(perm) or [0])[-1]
    if not j:
        return 0, 0, 0, 0
    c, second = sorted(perm[j:] + (0,), reverse=True)[:2]
    return j, min(perm[: j - 1]), c, second


def _first_split(perm):
    # (j, a, c) of the bijection's first split of perm, 0s for none.
    for _, j, a, c, _ in _splits(perm):
        return j, a, c
    return 0, 0, 0


def test_last_mid123_is_the_last_mid123_entry():
    # The bijection's split core takes its first step at the last of the
    # public list, with the split data by definition, or refuses when two
    # entries after it are larger; the cases include the empty permutation
    # and two shapes with no mid-123 entry that make it scan everything.
    n = 2000
    no_mids = [(*range(n - 1, 0, -1), n), (1, *range(n, 1, -1))]
    for perm in itertools.chain([()], _entry_class_cases(), no_mids):
        j, a, c, second = _split_by_definition(perm)
        if j and second > perm[j - 1]:
            with pytest.raises(RuntimeError, match="exactly one entry above"):
                _first_split(perm)
        else:
            assert _first_split(perm) == (j, a, c), perm


def test_split_of_an_avoider_has_one_entry_above_b():
    # On avoiders, the first split's c is the only later entry above b, which
    # is what lets the core test the second-largest entry against b.
    cases = itertools.chain(
        *(enumerate_avoiders(n, AVOIDED_PAIR) for n in range(1, 9)), _random_avoiders()
    )
    for perm in cases:
        j, a, c, second = _split_by_definition(perm)
        assert _first_split(perm) == (j, a, c), perm
        if j:
            b = perm[j - 1]
            assert [x for x in perm[j:] if x > b] == [c], perm
            assert second < b, perm


@pytest.mark.parametrize("n", range(1, 8))
def test_key_entries_are_mid_entries(n):
    for perm in itertools.permutations(range(1, n + 1)):
        mids = mid123_entries(perm)
        keys = key_mid123_entries(perm)
        assert set(keys) <= set(mids)
        assert keys == sorted(keys)


@pytest.mark.parametrize("n", range(1, 9))
def test_mid123_nonempty_iff_contains_123(n):
    for perm in itertools.permutations(range(1, n + 1)):
        assert bool(mid123_entries(perm)) == contains(perm, PATTERN_123)


@pytest.mark.parametrize("n", range(1, 9))
def test_no_key_entries_implies_no_mid_entries(n):
    for perm in itertools.permutations(range(1, n + 1)):
        if not key_mid123_entries(perm):
            assert not mid123_entries(perm)


def test_is_start_small():
    assert is_start_small((3, 4, 1, 2))
    assert is_start_small(())
    assert not is_start_small((1,))
    assert not is_start_small((2, 1))
    assert is_start_small((1, 2))


# ---------------------------------------------------------------------------
# text format


def test_parse_and_format_roundtrip():
    text = "11 2 12 9 7 8 4 5 6 1 10 3"
    assert format_perm(parse_perm(text)) == text


@pytest.mark.parametrize(
    "bad",
    ["", "1 2 2", "0 1 2", "1 3", "1 two 3", "5 4 3 2"],
)
def test_parse_rejects_invalid(bad):
    with pytest.raises(ValueError):
        parse_perm(bad)


def test_avoided_pair_constants():
    assert AVOIDED_PAIR == ((1, 2, 4, 3), (2, 1, 3, 4))
    for q in AVOIDED_PAIR:
        assert is_permutation(q)
