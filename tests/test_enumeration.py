"""Generation and counting of avoidance classes, against independent oracles."""

import itertools
import math
import random

import pytest

from avoiders.enumeration import (
    PAIR_WALK_MAX_N,
    ClassDescriptor,
    count_avoiders,
    count_class,
    count_pair_avoiders,
    count_pair_avoiders_by_keys,
    count_start_small_123_avoiders,
    enumerate_avoiders,
    enumerate_class,
    naive_avoiders,
)
from avoiders.perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    contains,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
)
from avoiders.series import catalan_series, gf_full

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_first_counts():
    assert [count_avoiders(n, AVOIDED_PAIR) for n in range(1, 7)] == [
        1, 2, 6, 22, 87, 354,
    ]


def test_small_avoider_classes_explicitly():
    # patterns longer than the permutations: everything qualifies
    assert list(enumerate_avoiders(3, AVOIDED_PAIR)) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    ]
    # at n = 4 exactly the two forbidden patterns themselves drop out
    survivors = set(enumerate_avoiders(4, AVOIDED_PAIR))
    assert len(survivors) == 22
    assert (1, 2, 4, 3) not in survivors
    assert (2, 1, 3, 4) not in survivors


def test_catalan_counts():
    assert count_avoiders(5, [PATTERN_123]) == 42
    for n in range(1, 11):
        assert count_avoiders(n, [PATTERN_123]) == CATALAN[n]
    # and the series module agrees
    assert list(catalan_series(10).coeffs) == CATALAN


def test_lexicographic_streaming_order():
    for patterns in ((), AVOIDED_PAIR, (PATTERN_123,)):
        for n in range(1, 7):
            out = list(enumerate_avoiders(n, patterns))
            assert out == sorted(out)
            assert len(set(out)) == len(out)


@pytest.mark.parametrize("n", range(1, 8))
def test_no_patterns_gives_all_permutations(n):
    assert list(enumerate_avoiders(n, ())) == sorted(
        itertools.permutations(range(1, n + 1))
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_fast_paths_match_naive_filter(n):
    assert list(enumerate_avoiders(n, AVOIDED_PAIR)) == list(
        naive_avoiders(n, AVOIDED_PAIR)
    )
    assert list(enumerate_avoiders(n, [PATTERN_123])) == list(
        naive_avoiders(n, [PATTERN_123])
    )


@pytest.mark.parametrize(
    "patterns",
    [((1, 3, 2),), ((2, 1, 4, 3), (1, 3, 2, 4)), ((1, 2, 3, 4), (4, 3, 2, 1)), ((1,),)],
)
def test_generic_path_matches_naive_filter(patterns):
    for n in range(1, 7):
        assert list(enumerate_avoiders(n, patterns)) == list(
            naive_avoiders(n, patterns)
        )


def _patterns_up_to(length):
    return [
        q for m in range(1, length + 1) for q in itertools.permutations(range(1, m + 1))
    ]


def _random_pattern_sets(count, seed):
    rng = random.Random(seed)
    patterns = _patterns_up_to(4)
    return [tuple(rng.sample(patterns, rng.randint(1, 3))) for _ in range(count)]


def _sets_with_length_5_pattern(count, seed):
    # A length-5 pattern, so that the matcher fills three slots in front of
    # its two pinned letters, with a shorter pattern beside it or the pair
    # rule in front of it.
    rng = random.Random(seed)
    fives = list(itertools.permutations(range(1, 6)))
    shorter = _patterns_up_to(4)
    return [
        (rng.choice(fives), *rng.choice([(), (rng.choice(shorter),), AVOIDED_PAIR]))
        for _ in range(count)
    ]


ORACLE_PATTERN_SETS = [
    # At n = 1 and 2, (1,) kills the root and (1, 2) and (2, 1) a one-value
    # leaf, alone (the generic rule) and beside the pair (the pair rule).
    (),
    ((1,),),
    ((1, 2),),
    ((2, 1),),
    (PATTERN_123,),
    AVOIDED_PAIR,
    *(AVOIDED_PAIR + (q,) for q in _patterns_up_to(4)),
    *_random_pattern_sets(40, seed=20131),
    *_sets_with_length_5_pattern(10, seed=5),
]


@pytest.mark.parametrize("patterns", ORACLE_PATTERN_SETS, ids=str)
def test_generators_match_naive_filter_in_order(patterns):
    # Every generator, and the pair generator with extra patterns, against
    # the filter over all n! permutations, order included.
    for n in range(1, 8):
        assert list(enumerate_avoiders(n, patterns)) == list(
            naive_avoiders(n, patterns)
        ), n


def test_pair_generator_tests_only_the_other_patterns(monkeypatch):
    import avoiders.enumeration as enumeration_module

    asked = set()
    real_ends_at = enumeration_module._ends_at

    def ends_at_spy(word, end, pattern, *pinned):
        asked.add(tuple(pattern))
        return real_ends_at(word, end, pattern, *pinned)

    monkeypatch.setattr(enumeration_module, "_ends_at", ends_at_spy)
    patterns = [(4, 3, 2, 1), AVOIDED_PAIR[1], AVOIDED_PAIR[0]]
    assert sum(1 for _ in enumerate_avoiders(7, patterns)) == 333
    assert asked == {(4, 3, 2, 1)}


def _run_heads(n, prefix):
    # The first value of each run of consecutive unused values, ascending.
    unused = [v for v in range(1, n + 1) if v not in prefix]
    return [v for i, v in enumerate(unused) if i == 0 or unused[i - 1] != v - 1]


@pytest.mark.parametrize(
    "patterns",
    [AVOIDED_PAIR + ((4, 3, 2, 1),), ((1, 3, 4, 2), (3, 1, 2, 4)), ((1, 3, 2),),
     ((2, 1, 4, 3), (1, 3, 2, 4))],
    ids=str,
)
def test_liveness_check_asks_once_per_run_of_unused_values(monkeypatch, patterns):
    # Unused values with no placed value between them are ordered alike
    # against every prefix entry, so a node asks the matcher about the first
    # of each run only: never about two consecutive integers, and about
    # every run's first value, in order, unless one of them kills the node.
    import avoiders.enumeration as enumeration_module

    tried = {}
    real_ends_at = enumeration_module._ends_at

    def ends_at_spy(word, end, pattern, *pinned):
        values = tried.setdefault(tuple(word[:end]), [])
        if word[end] not in values:
            values.append(word[end])
        return real_ends_at(word, end, pattern, *pinned)

    monkeypatch.setattr(enumeration_module, "_ends_at", ends_at_spy)
    n = 7
    members = list(enumerate_avoiders(n, patterns))
    assert members == list(naive_avoiders(n, patterns))
    completed = {perm[:length] for perm in members for length in range(n)}
    assert completed <= tried.keys()
    for prefix, values in tried.items():
        assert not any(v + 1 in values for v in values), prefix
        heads = _run_heads(n, prefix)
        assert values == heads[: len(values)], prefix
        if prefix in completed:
            assert values == heads, prefix


def _live_prefix_count(n, patterns):
    # Prefixes of length at most n - 2 to which every unused value can be
    # appended without completing a pattern, by brute force with ``contains``.
    values = range(1, n + 1)
    return sum(
        1
        for length in range(n - 1)
        for prefix in itertools.permutations(values, length)
        if not any(
            contains(prefix + (u,), q)
            for u in values
            if u not in prefix
            for q in patterns
        )
    )


@pytest.mark.parametrize(
    "rule, patterns, live",
    [
        ("_pair_children", AVOIDED_PAIR, 1671),
        ("_children_123", (PATTERN_123,), 572),
        ("_pair_children", AVOIDED_PAIR + ((4, 3, 2, 1),), 878),
        ("_all_children", ((1, 3, 4, 2), (3, 1, 2, 4)), 1628),
    ],
    ids=["pair", "123", "pair+4321", "generic"],
)
def test_generator_enters_exactly_the_live_prefixes(monkeypatch, rule, patterns, live):
    # The rule is asked once per entered prefix that no other pattern has
    # killed and that has at least two unused values, so a rule that entered
    # dead prefixes would be asked more often, even though the same
    # permutations would come out.  A live prefix of length n - 1 has exactly
    # one completion and is emitted without asking the rule, so each count
    # is the number of live prefixes shorter than n (3,130, 1,001, 1,211 and
    # 3,087) less the size of the class at n = 7 (1,459, 429, 333 and 1,459).
    import avoiders.enumeration as enumeration_module

    real_rule = getattr(enumeration_module, rule)
    calls = 0

    def rule_spy(state, unused):
        nonlocal calls
        calls += 1
        return real_rule(state, unused)

    monkeypatch.setattr(enumeration_module, rule, rule_spy)
    assert list(enumerate_avoiders(7, patterns)) == list(naive_avoiders(7, patterns))
    assert calls == _live_prefix_count(7, patterns) == live


def test_pattern_normalization():
    # duplicates and order do not matter
    a = list(enumerate_avoiders(5, [(1, 2, 4, 3), (2, 1, 3, 4), (1, 2, 4, 3)]))
    b = list(enumerate_avoiders(5, [(2, 1, 3, 4), (1, 2, 4, 3)]))
    assert a == b


def test_invalid_inputs():
    with pytest.raises(ValueError):
        list(enumerate_avoiders(0, AVOIDED_PAIR))
    with pytest.raises(ValueError, match="length n must be >= 1"):
        list(naive_avoiders(0, AVOIDED_PAIR))
    with pytest.raises(ValueError, match="pattern"):
        list(enumerate_avoiders(3, [(1, 3)]))


# ---------------------------------------------------------------------------
# memoized pair counter


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_counter_matches_enumeration(n):
    assert count_pair_avoiders(n) == count_avoiders(n, AVOIDED_PAIR)


def test_pair_counter_matches_series():
    coeffs = list(gf_full(24).coeffs)
    assert [count_pair_avoiders(n) for n in range(17)] == coeffs[:17]
    assert count_pair_avoiders(24) == coeffs[24]


def test_pair_counter_rejects_negative_length():
    with pytest.raises(ValueError, match="length n must be >= 0"):
        count_pair_avoiders(-1)


def test_count_class_walks_exactly_the_pair_and_123_classes(monkeypatch):
    import avoiders.enumeration as enumeration_module

    walks = []
    listed = []
    real_pair_walk = enumeration_module.count_pair_avoiders_by_keys
    real_123_walk = enumeration_module._count_123_avoiders
    real_enumerate = enumeration_module.enumerate_class

    def pair_walk(n, start_small_only=False):
        walks.append(("pair", n, start_small_only))
        return real_pair_walk(n, start_small_only)

    def walk_123(n, start_small_only):
        walks.append(("123", n, start_small_only))
        return real_123_walk(n, start_small_only)

    def enumerate_spy(descriptor):
        listed.append(descriptor)
        return real_enumerate(descriptor)

    monkeypatch.setattr(enumeration_module, "count_pair_avoiders_by_keys", pair_walk)
    monkeypatch.setattr(enumeration_module, "_count_123_avoiders", walk_123)
    monkeypatch.setattr(enumeration_module, "enumerate_class", enumerate_spy)
    # pattern order and repeats do not matter: the normalized set decides
    pairs = (AVOIDED_PAIR, AVOIDED_PAIR[::-1], AVOIDED_PAIR[::-1] * 2)
    walked = [
        *((ClassDescriptor(6, p), 354, ("pair", 6, False)) for p in pairs),
        *((ClassDescriptor(6, p, start_small_only=True), 267, ("pair", 6, True))
          for p in pairs),
        (ClassDescriptor(6, AVOIDED_PAIR, k=0), 132, ("pair", 6, False)),
        (ClassDescriptor(6, AVOIDED_PAIR[::-1], start_small_only=True, k=1), 110,
         ("pair", 6, True)),
        (ClassDescriptor(6, AVOIDED_PAIR, start_small_only=True, k=9), 0,
         ("pair", 6, True)),
        (ClassDescriptor(7, (PATTERN_123,)), 429, ("123", 7, False)),
        (ClassDescriptor(7, (PATTERN_123,) * 2, start_small_only=True), 297,
         ("123", 7, True)),
    ]
    for descriptor, size, walk in walked:
        assert count_class(descriptor) == size
        assert (walks, listed) == ([walk], []), descriptor
        assert size == sum(1 for _ in real_enumerate(descriptor))
        walks.clear()
    listed_only = [
        (ClassDescriptor(6, AVOIDED_PAIR, k=1, j=3), 36),
        (ClassDescriptor(6, AVOIDED_PAIR + ((1, 2),)), 1),
        (ClassDescriptor(6, (AVOIDED_PAIR[0],)), 513),
        (ClassDescriptor(6, (PATTERN_123,), k=0), 132),
    ]
    for descriptor, size in listed_only:
        assert count_class(descriptor) == size
        assert (walks, listed) == ([], [descriptor]), descriptor
        listed.clear()
    with pytest.raises(ValueError, match=r"pattern \(1, 3\) is not a permutation"):
        count_class(ClassDescriptor(3, AVOIDED_PAIR + ((1, 3),)))


def _pair_avoiders_by_keys(n):
    # Brute force: every avoider of [n] and the start-small ones, bucketed by
    # their number of key mid-123 entries.
    whole, start_small = {}, {}
    for perm in enumerate_avoiders(n, AVOIDED_PAIR):
        keys = len(key_mid123_entries(perm))
        whole[keys] = whole.get(keys, 0) + 1
        if is_start_small(perm):
            start_small[keys] = start_small.get(keys, 0) + 1
    return {False: whole, True: start_small}


@pytest.mark.parametrize("n", range(1, 10))
def test_key_walk_matches_brute_force(n):
    for start_small_only, by_keys in _pair_avoiders_by_keys(n).items():
        walked = count_pair_avoiders_by_keys(n, start_small_only)
        assert walked == tuple(by_keys.get(k, 0) for k in range(n + 1))
        # every k through one past the largest present, which is empty
        for k in range(max(by_keys, default=0) + 2):
            descriptor = ClassDescriptor(
                n, AVOIDED_PAIR, start_small_only=start_small_only, k=k
            )
            assert count_class(descriptor) == by_keys.get(k, 0), (descriptor, by_keys)


def test_key_walk_matches_lagrange_form():
    # phi sends a start-small avoider of [n] with k keys to a list of k + 1
    # start-small 123-avoiders, counted by [x^(n-1)] (x C^3)^(k+1); Lagrange
    # inversion gives (3k+3)/(2n+k-1) * binom(2n+k-1, n-k-2).
    for n in range(2, 19):
        walked = count_pair_avoiders_by_keys(n, start_small_only=True)
        lagrange = tuple(
            (3 * k + 3) * math.comb(2 * n + k - 1, n - k - 2) // (2 * n + k - 1)
            for k in range(n - 1)
        ) + (0, 0)  # k + 1 elements of length >= 2 need n + k >= 2k + 2
        assert walked == lagrange, n
        assert sum(walked) == count_pair_avoiders(n) - count_pair_avoiders(n - 1)


def test_key_walk_small_lengths():
    assert count_pair_avoiders_by_keys(0) == (1,)
    assert count_pair_avoiders_by_keys(0, start_small_only=True) == (1,)
    assert count_pair_avoiders_by_keys(1, start_small_only=True) == (0, 0)
    with pytest.raises(ValueError, match="length n must be >= 0"):
        count_pair_avoiders_by_keys(-1, start_small_only=True)
    with pytest.raises(ValueError, match="length n must be <= 100"):
        count_pair_avoiders_by_keys(PAIR_WALK_MAX_N + 1)
    with pytest.raises(ValueError, match="length n must be <= 100"):
        count_pair_avoiders(PAIR_WALK_MAX_N + 1)


@pytest.mark.parametrize("n", range(1, 12))
def test_123_walk_matches_brute_force(n):
    assert count_class(ClassDescriptor(n, (PATTERN_123,))) == count_avoiders(
        n, [PATTERN_123]
    )
    assert count_class(
        ClassDescriptor(n, (PATTERN_123,), start_small_only=True)
    ) == count_start_small_123_avoiders(n)


def test_123_walk_reaches_length_1000():
    # Past Python's recursion limit, against the Catalan closed form.
    catalan = [math.comb(2 * n, n) // (n + 1) for n in (999, 1000)]
    assert count_class(ClassDescriptor(1000, (PATTERN_123,))) == catalan[1]
    assert count_class(
        ClassDescriptor(1000, (PATTERN_123,), start_small_only=True)
    ) == catalan[1] - catalan[0]


# ---------------------------------------------------------------------------
# class descriptors


def test_count_class_examples():
    pair = AVOIDED_PAIR
    assert count_class(ClassDescriptor(4, pair, start_small_only=True)) == 16
    assert count_class(ClassDescriptor(3, pair, start_small_only=True)) == 4
    assert count_class(ClassDescriptor(4, pair, start_small_only=True, k=0)) == 9


def test_count_class_start_small_is_difference():
    for n in range(2, 8):
        full = count_avoiders(n, AVOIDED_PAIR)
        smaller = count_avoiders(n - 1, AVOIDED_PAIR)
        start_small = count_class(
            ClassDescriptor(n, AVOIDED_PAIR, start_small_only=True)
        )
        assert start_small == full - smaller


def test_descriptor_validation():
    with pytest.raises(ValueError, match="j without k"):
        ClassDescriptor(5, AVOIDED_PAIR, j=3)
    with pytest.raises(ValueError, match="k < j"):
        ClassDescriptor(5, AVOIDED_PAIR, k=3, j=3)
    with pytest.raises(ValueError, match="k < j"):
        ClassDescriptor(5, AVOIDED_PAIR, k=1, j=5)
    with pytest.raises(ValueError, match=">= 0"):
        ClassDescriptor(5, AVOIDED_PAIR, k=-1)
    with pytest.raises(ValueError):
        ClassDescriptor(0, AVOIDED_PAIR)


def test_enumerate_class_filters_consistently():
    descriptor = ClassDescriptor(6, AVOIDED_PAIR, start_small_only=True, k=2, j=4)
    members = list(enumerate_class(descriptor))
    assert members == sorted(members)
    for perm in members:
        assert is_start_small(perm)
        assert len(key_mid123_entries(perm)) == 2
        assert mid123_entries(perm)[-1] == 4
    assert count_class(descriptor) == len(members)


@pytest.mark.parametrize("n", range(1, 9))
def test_classes_partition(n):
    # summing over k recovers the start-small class; summing over j recovers
    # each (n, k) class with k >= 1
    start_small = list(
        enumerate_class(ClassDescriptor(n, AVOIDED_PAIR, start_small_only=True))
    )
    by_k = {}
    by_kj = {}
    for perm in start_small:
        k = len(key_mid123_entries(perm))
        by_k[k] = by_k.get(k, 0) + 1
        if k >= 1:
            by_kj[(k, mid123_entries(perm)[-1])] = (
                by_kj.get((k, mid123_entries(perm)[-1]), 0) + 1
            )
    assert sum(by_k.values()) == len(start_small)
    for k in by_k:
        if k >= 1:
            assert sum(c for (kk, _), c in by_kj.items() if kk == k) == by_k[k]
    # every nonzero (k, j) cell sits in the allowed window
    for k, j in by_kj:
        assert 1 <= k < j <= n - 1


def test_count_start_small_123_avoiders():
    assert count_start_small_123_avoiders(1) == 0
    assert count_start_small_123_avoiders(3) == 3
    assert count_start_small_123_avoiders(4) == 9
    # Catalan difference: those starting with n are counted by C(n-1)
    for n in range(2, 9):
        assert count_start_small_123_avoiders(n) == CATALAN[n] - CATALAN[n - 1]


@pytest.mark.parametrize("n", range(1, 10))
def test_unique_entry_above_last_mid123(n):
    # with at least one ascent-middle present, exactly one later entry tops it
    for perm in enumerate_avoiders(n, AVOIDED_PAIR):
        mids = mid123_entries(perm)
        if not mids:
            continue
        j = mids[-1]
        assert sum(1 for x in perm[j:] if x > perm[j - 1]) == 1, perm


@pytest.mark.parametrize("n", range(1, 10))
def test_no_keys_class_is_start_small_123_avoiders(n):
    zero_key = set(
        enumerate_class(ClassDescriptor(n, AVOIDED_PAIR, start_small_only=True, k=0))
    )
    reference = {
        p
        for p in enumerate_avoiders(n, [PATTERN_123])
        if is_start_small(p)
    }
    assert zero_key == reference
