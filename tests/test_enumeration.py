"""Generation and counting of avoidance classes, against independent oracles."""

import bisect
import functools
import inspect
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from avoiders.enumeration import (
    PAIR_WALK_MAX_N,
    ClassDescriptor,
    _block,
    _block_k,
    _class_rule,
    _count_by_gap_state,
    _gap_rules,
    _pair_walk,
    count_class,
    count_pair_avoiders_by_keys,
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
from avoiders.series import catalan_series, gf_full, kotesovec_series

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_first_counts():
    counts = [sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR)) for n in range(1, 7)]
    assert counts == [1, 2, 6, 22, 87, 354]


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
    assert sum(1 for _ in enumerate_avoiders(5, [PATTERN_123])) == 42
    for n in range(1, 11):
        assert sum(1 for _ in enumerate_avoiders(n, [PATTERN_123])) == CATALAN[n]
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


#: 12...m and m...1 for m = 2..5, the patterns with a monotone rule.
MONOTONE = [
    q for m in range(2, 6) for q in (tuple(range(1, m + 1)), tuple(range(m, 0, -1)))
]


def _covered(patterns):
    # The patterns a set's rules cover: the pair if it holds both, and every
    # monotone one.
    pair = set(AVOIDED_PAIR) if set(AVOIDED_PAIR) <= set(patterns) else set()
    return pair | {q for q in patterns if q in MONOTONE}


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
    *((PATTERN_123, q) for q in _patterns_up_to(4) if q != PATTERN_123),
    *_random_pattern_sets(40, seed=20131),
    *_sets_with_length_5_pattern(10, seed=5),
]
#: The pair, 4321 and 123456 rules composed, the one row with three rules.
THREE_RULES = AVOIDED_PAIR + ((4, 3, 2, 1), (1, 2, 3, 4, 5, 6))
# 12...m and m...1 alone, beside the pair and beside 123, {123, 321} (empty
# from n = 5), {1234, 4321} and the three rules; rows already above are not
# repeated.
ORACLE_PATTERN_SETS += [
    s for s in (
        *((q,) for q in MONOTONE),
        *(AVOIDED_PAIR + (q,) for q in MONOTONE),
        *((PATTERN_123, q) for q in MONOTONE if q != PATTERN_123),
        (PATTERN_123, (3, 2, 1)),
        ((1, 2, 3, 4), (4, 3, 2, 1)),
        THREE_RULES,
    )
    if s not in ORACLE_PATTERN_SETS
]


@pytest.mark.parametrize("patterns", ORACLE_PATTERN_SETS, ids=str)
def test_generators_match_naive_filter_in_order(patterns):
    # Every generator, and the pair generator with extra patterns, against
    # the filter over all n! permutations, order included.
    for n in range(1, 8):
        assert list(enumerate_avoiders(n, patterns)) == list(
            naive_avoiders(n, patterns)
        ), n


RULES = ("_pair_children", "_monotone_children", "_composed_keys", "_all_children")


@pytest.mark.parametrize(
    "patterns, rules",
    [
        ([(1, 4, 3, 2), AVOIDED_PAIR[1], AVOIDED_PAIR[0]], {"_pair_children"}),
        ([PATTERN_123, (3, 4, 1, 2)], {"_monotone_children"}),
        ([PATTERN_123, (4, 3, 2, 1), (2, 1, 4, 3)],
         {"_monotone_children", "_composed_keys"}),
        ([(4, 3, 2, 1), AVOIDED_PAIR[1], AVOIDED_PAIR[0]],
         {"_pair_children", "_monotone_children", "_composed_keys"}),
        ([(1, 3, 4, 2), (3, 1, 2, 4)], {"_all_children"}),
    ],
    ids=["pair+1432", "123+3412", "123+4321+2143", "pair+4321", "generic"],
)
def test_rule_generator_tests_only_the_other_patterns(monkeypatch, patterns, rules):
    # A set runs every rule whose patterns it holds, the pair's and one per
    # monotone pattern, composed if there are several, and the matcher is
    # asked only about the set's other patterns: pair + 4321 asks nothing.
    import avoiders.enumeration as enumeration_module

    asked, called = set(), set()
    real_ends_at = enumeration_module._ends_at

    def ends_at_spy(word, end, pattern, *pinned):
        asked.add(tuple(pattern))
        return real_ends_at(word, end, pattern, *pinned)

    def spy(name):
        real_rule = getattr(enumeration_module, name)

        def rule_spy(*args):
            called.add(name)
            return real_rule(*args)

        return rule_spy

    monkeypatch.setattr(enumeration_module, "_ends_at", ends_at_spy)
    for name in RULES:
        monkeypatch.setattr(enumeration_module, name, spy(name))
    assert list(enumerate_avoiders(7, patterns)) == list(naive_avoiders(7, patterns))
    assert called == rules
    assert asked == set(patterns) - _covered(patterns)


def _run_heads(n, prefix):
    # The first value of each run of consecutive unused values, ascending.
    unused = [v for v in range(1, n + 1) if v not in prefix]
    return [v for i, v in enumerate(unused) if i == 0 or unused[i - 1] != v - 1]


def _screened_asks(n, prefix, checked):
    # The (value, pattern) asks a live node makes: the first value of each
    # run, then each pattern in order, below the root only those whose last
    # two letters are ordered as the value is against the newest entry,
    # until an ask that ``contains`` shows completes its pattern.
    asks = []
    for u in _run_heads(n, prefix):
        for q in checked:
            if prefix and (prefix[-1] < u) != (q[-2] < q[-1]):
                continue
            asks.append((u, q))
            if contains(prefix + (u,), q):
                return asks
    return asks


@pytest.mark.parametrize(
    "patterns",
    [AVOIDED_PAIR + ((1, 4, 3, 2),), ((1, 3, 4, 2), (3, 1, 2, 4)), ((1, 3, 2),),
     ((2, 1, 4, 3), (1, 3, 2, 4)), AVOIDED_PAIR + ((4, 3, 2, 1),)],
    ids=str,
)
def test_liveness_check_asks_once_per_run_of_unused_values(monkeypatch, patterns):
    # Unused values with no placed value between them are ordered alike
    # against every prefix entry, so a node asks the matcher about the first
    # of each run only.  Below the root an occurrence ends with the newest
    # entry and the value, so a pattern whose last two letters are ordered
    # the other way is not asked.  Every node that asks anything makes
    # exactly the screened asks, and a node that leads to a member makes
    # all of them.  Patterns a rule covers are not asked about: pair + 4321
    # asks nothing.
    import avoiders.enumeration as enumeration_module

    asked = {}
    real_ends_at = enumeration_module._ends_at

    def ends_at_spy(word, end, pattern, *pinned):
        asked.setdefault(tuple(word[:end]), []).append((word[end], tuple(pattern)))
        return real_ends_at(word, end, pattern, *pinned)

    monkeypatch.setattr(enumeration_module, "_ends_at", ends_at_spy)
    n = 7
    members = list(enumerate_avoiders(n, patterns))
    assert members == list(naive_avoiders(n, patterns))
    checked = sorted(set(patterns) - _covered(patterns))
    completed = {perm[:length] for perm in members for length in range(n)}
    for prefix in completed | asked.keys():
        assert asked.get(prefix, []) == _screened_asks(n, prefix, checked), prefix


def _live_prefixes(n, patterns, longest):
    # Prefixes of length at most ``longest``, shorter first and each length
    # in lexicographic order, to which every unused value can be appended without completing
    # a pattern, by brute force with ``contains``.  Every extension of a dead
    # prefix is dead, so only live ones are extended.
    values = range(1, n + 1)
    frontier = [()]
    for _ in range(longest + 1):
        live = [
            prefix for prefix in frontier
            if not any(
                contains(prefix + (u,), q)
                for u in values
                if u not in prefix
                for q in patterns
            )
        ]
        yield from live
        frontier = [prefix + (u,) for prefix in live for u in values if u not in prefix]


def _gap_state(state, unused):
    # The number of unused values and the gap of each statistic among them.
    return (len(unused), *[bisect.bisect_left(unused, s) for s in state])


def _pair_statistics(prefix, n):
    # The pair rule's state by its definition: the prefix minimum and the
    # smallest tops of a rise and of a descent, n + 1 for none.
    pairs = list(itertools.combinations(prefix, 2))
    return (
        min(prefix, default=n + 1),
        min((b for a, b in pairs if a < b), default=n + 1),
        min((a for a, b in pairs if a > b), default=n + 1),
    )


def _pile_tops(pattern):
    # The monotone rule's state by its definition: for 12...m, the smallest
    # last value of an increasing run of each length 1..m - 2, n + 1 for
    # none; for m...1, the largest last value of a decreasing run, 0 for none.
    rising = pattern[0] < pattern[-1]

    def statistics(prefix, n):
        def top(length):
            lasts = [run[-1] for run in itertools.combinations(prefix, length)
                     if list(run) == sorted(run, reverse=not rising)]
            return min(lasts, default=n + 1) if rising else max(lasts, default=0)

        return tuple(top(length) for length in range(1, len(pattern) - 1))

    return statistics


def _pair_and_4321_statistics(prefix, n):
    return _pair_statistics(prefix, n) + _pile_tops((4, 3, 2, 1))(prefix, n)


def _rule_asks(n, patterns, statistics):
    # Brute force: every live prefix with more than ``_block_k(n)`` unused
    # values, and one per gap state of the live prefixes with 2 to
    # ``_block_k(n)``; without ``statistics`` (no blocks) every live prefix
    # with at least two unused values.
    live = list(_live_prefixes(n, patterns, n - 2))
    if statistics is None:
        return len(live)
    states = set()
    for prefix in live:
        unused = [v for v in range(1, n + 1) if v not in prefix]
        if len(unused) <= _block_k(n):
            states.add(_gap_state(statistics(prefix, n), unused))
    return sum(1 for prefix in live if n - len(prefix) > _block_k(n)) + len(states)


@pytest.mark.parametrize(
    "patterns, statistics, asks",
    [
        (AVOIDED_PAIR, _pair_statistics, 149),
        ((PATTERN_123,), _pile_tops(PATTERN_123), 47),
        (AVOIDED_PAIR + ((4, 3, 2, 1),), _pair_and_4321_statistics, 264),
        (((4, 3, 2, 1),), _pile_tops((4, 3, 2, 1)), 81),
        (((1, 3, 4, 2), (3, 1, 2, 4)), None, 1628),
    ],
    ids=["pair", "123", "pair+4321", "4321", "generic"],
)
def test_generator_enters_exactly_the_live_prefixes(monkeypatch, patterns, statistics, asks):
    # The class's children are asked once per opened node, one that is live
    # and has at least two unused values, so a generator that entered dead
    # prefixes would ask more often, even though the same permutations would
    # come out.  A live prefix of length n - 1 has exactly one completion and
    # is emitted without asking.  With matcher patterns that makes the count
    # the number of live prefixes shorter than n (3,087) less the size of
    # the class at n = 7 (1,459).  With none, a live prefix with 2 to
    # ``_block_k(n)`` unused values opens no node, and the children are asked
    # once per gap state among them, to build its block; a composed class's
    # gap state is that of all its rules' statistics.  At n = 7 that bound
    # is 4.
    import avoiders.enumeration as enumeration_module

    real_class_rule = enumeration_module._class_rule
    calls = 0

    def class_rule_spy(n, patterns):
        children, head, root, others, answers = real_class_rule(n, patterns)

        def children_spy(key):
            nonlocal calls
            calls += 1
            return children(key)

        return children_spy, head, root, others, answers

    monkeypatch.setattr(enumeration_module, "_class_rule", class_rule_spy)
    assert list(enumerate_avoiders(7, patterns)) == list(naive_avoiders(7, patterns))
    assert calls == _rule_asks(7, patterns, statistics) == asks


def _rule_states(rules, state):
    # A composed class's statistics cut into each rule's part, as long as
    # its root state.
    parts, start = [], 0
    for _, root in rules:
        parts.append(state[start : start + len(root)])
        start += len(root)
    return parts


def _class_key(keys):
    # The class's gap state from its rules' gap states: one rule's own, or
    # for composed rules nested pairs, the first rule's innermost.
    key, *rest = keys
    for part in rest:
        key = (key, part)
    return key


BLOCK_RULES = [  # (patterns covered by rules alone, their statistics, class size at 8)
    (AVOIDED_PAIR, _pair_statistics, 6056),
    ((PATTERN_123,), _pile_tops(PATTERN_123), 1430),
    (((1, 2, 3, 4),), _pile_tops((1, 2, 3, 4)), 15767),
    (((3, 2, 1),), _pile_tops((3, 2, 1)), 1430),
    (((4, 3, 2, 1),), _pile_tops((4, 3, 2, 1)), 15767),
    (AVOIDED_PAIR + ((4, 3, 2, 1),), _pair_and_4321_statistics, 538),
]
BLOCK_RULE_IDS = ["pair", "123", "1234", "321", "4321", "pair+4321"]


@pytest.mark.parametrize(
    "patterns, statistics", [row[:2] for row in BLOCK_RULES], ids=BLOCK_RULE_IDS
)
def test_blocks_list_the_brute_force_completions(patterns, statistics):
    # For every live prefix with 2 to ``_block_k(n)`` unused values, its gap
    # state's block, taken from one cache shared by all lengths, lists its
    # completions in order; and each gap rule, on that prefix's gap state of
    # its own, keeps exactly the indices whose value leaves the prefix live
    # for the rule's patterns by ``contains``, each with the gap state of
    # the child prefix's real statistics.
    children, _, _, others, _ = _class_rule(2, patterns)
    rules = _gap_rules(2, patterns)[0]
    covered = [AVOIDED_PAIR] if set(AVOIDED_PAIR) <= set(patterns) else []
    covered += [(q,) for q in patterns if q in MONOTONE]  # in ``_gap_rules`` order
    assert others == [] and len(covered) == len(rules)
    blocks = {}
    for n in range(2, 9):
        most = _block_k(n)
        live = list(_live_prefixes(n, patterns, n - 1))
        completions = {}
        for prefix in (p for p in live if len(p) == n - 1):
            (last,) = set(range(1, n + 1)) - set(prefix)
            for length in range(max(0, n - most), n - 1):
                completions.setdefault(prefix[:length], []).append(prefix + (last,))
        for prefix in live:
            unused = [v for v in range(1, n + 1) if v not in prefix]
            if not 2 <= len(unused) <= most:
                continue
            states = _rule_states(rules, statistics(prefix, n))
            key = _class_key([_gap_state(state, unused) for state in states])
            block = _block(children, key, len(unused), blocks)
            assert [prefix + tail(unused) for tail in block] == completions.get(
                prefix, []
            ), prefix
            for part, ((rule, _), state, qs) in enumerate(zip(rules, states, covered)):
                kept = {}
                for i, u in enumerate(unused):
                    child, rest = prefix + (u,), unused[:i] + unused[i + 1 :]
                    if not any(contains(child + (w,), q) for w in rest for q in qs):
                        child_state = _rule_states(rules, statistics(child, n))[part]
                        kept[i] = _gap_state(child_state, rest)
                assert list(rule(_gap_state(state, unused)).items()) == (
                    list(kept.items())
                ), prefix


def _value_pair_children(state, unused):
    # The pair's child rule on values: prefix_min, s12 and m21, n + 1 for
    # none yet; a child is live iff it is below m21 or the largest unused
    # value, and the scan stops past the smallest unused value above s12.
    # The new m21 is the smaller of m21 and the least statistic above v.
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
        if v > s12:
            break
    return live


def _value_monotone_children(rising, state, unused):
    # The patience-pile rule on values: the first m - 2 pile tops, n + 1
    # (rising) or 0 for none; v tops the first pile whose top it undercuts.
    if rising:
        live, hi = [], 0
        for j, top in enumerate(state):
            lo, hi = hi, bisect.bisect_left(unused, top, hi)
            head, tail = state[:j], state[j + 1 :]
            live += [(i, head + (unused[i],) + tail) for i in range(lo, hi)]
        if hi < len(unused):
            live.append((len(unused) - 1, state))
        return live
    k = len(unused)
    hi = bisect.bisect_left(unused, state[-1]) if state else k
    live = [(0, state)] if hi else []
    for j in reversed(range(len(state))):
        lo, hi = hi, bisect.bisect_left(unused, state[j - 1], hi) if j else k
        head, tail = state[:j], state[j + 1 :]
        live += [(i, head + (unused[i],) + tail) for i in range(lo, hi)]
    return live


def _oracle_children(value_rule, key):
    # A value-level rule's answer on gap state ``key``, through its
    # canonical order-isomorphic instance: unused values 2, 4, ..., 2k and a
    # statistic in gap g as 2g + 1.  After placing v = 2i + 2 a statistic x
    # lies in gap (x - 1) // 2 - (x > v).
    k, state = key[0], tuple(2 * g + 1 for g in key[1:])
    return {
        i: (k - 1, *[(x - 1) // 2 - (x > 2 * i + 2) for x in child])
        for i, child in value_rule(state, range(2, 2 * k + 1, 2))
    }


@pytest.mark.parametrize(
    "patterns, value_rule",
    [
        (AVOIDED_PAIR, _value_pair_children),
        *(
            ((q,), functools.partial(_value_monotone_children, q[0] < q[-1]))
            for q in ((1, 2, 3), (1, 2, 3, 4), (3, 2, 1), (4, 3, 2, 1),
                      (1, 2, 3, 4, 5), (5, 4, 3, 2, 1))
        ),
    ],
    ids=["pair", "123", "1234", "321", "4321", "12345", "54321"],
)
def test_gap_rules_match_the_value_rules(patterns, value_rule):
    # Every gap state with an unused value reachable from the root for
    # n <= 10, walked by the value-level rule's own answers: the gap rule
    # gives the same children with the same gap states, in the same order.
    for n in range(1, 11):
        ((rule, root),) = _gap_rules(n, patterns)[0]
        seen, level = set(), {(n, *root)}
        while level:
            seen |= level
            below = set()
            for key in level:
                expected = _oracle_children(value_rule, key)
                assert list(rule(key).items()) == list(expected.items()), key
                below |= set(expected.values())
            level = {key for key in below - seen if key[0]}  # none asks at k = 0
        assert len(seen) >= n  # every level from k = n down to 1 was reached


@pytest.mark.parametrize(
    "patterns, size", [row[::2] for row in BLOCK_RULES], ids=BLOCK_RULE_IDS
)
def test_blocks_do_not_outlive_a_call(monkeypatch, patterns, size):
    # Each call builds its blocks again, so it asks the rules as often.
    import avoiders.enumeration as enumeration_module

    calls = 0

    def spy(real_rule):
        def rule_spy(*args):
            nonlocal calls
            calls += 1
            return real_rule(*args)

        return rule_spy

    for name in ("_pair_children", "_monotone_children"):
        monkeypatch.setattr(enumeration_module, name, spy(getattr(enumeration_module, name)))
    asked = []
    for _ in range(2):
        calls = 0
        assert sum(1 for _ in enumerate_avoiders(8, patterns)) == size
        asked.append(calls)
    assert asked[0] == asked[1] > 0


@pytest.mark.parametrize(
    "patterns",
    [(PATTERN_123,), (PATTERN_123, (4, 3, 2, 1)), ((1, 2),), ((1, 2), AVOIDED_PAIR[0])],
    ids=str,
)
def test_keyed_class_with_a_pattern_inside_123_is_empty_at_once(monkeypatch, patterns):
    # A pattern that lies inside 123 leaves no member a mid-123 entry, so a
    # class with k >= 1 (and any j) is listed without enumerating anything.
    import avoiders.enumeration as enumeration_module

    called = []
    real_enumerate = enumeration_module._live_avoiders  # the one listing loop

    def enumerate_spy(n, patterns):
        called.append(n)
        return real_enumerate(n, patterns)

    monkeypatch.setattr(enumeration_module, "_live_avoiders", enumerate_spy)
    assert inspect.isgeneratorfunction(enumerate_class)
    for n in range(1, 8):
        keyed = [ClassDescriptor(n, patterns, start_small_only=s, k=k)
                 for s in (False, True) for k in (1, 2, 3)]
        keyed += [ClassDescriptor(n, patterns, k=1, j=j) for j in range(2, n)]
        for descriptor in keyed:
            assert list(enumerate_class(descriptor)) == [
                perm for perm in naive_avoiders(n, patterns)
                if len(key_mid123_entries(perm)) == descriptor.k
            ] == []
    assert called == []
    # k = 0 is the whole class, which is listed
    whole = ClassDescriptor(6, patterns, k=0)
    assert list(enumerate_class(whole)) == list(naive_avoiders(6, patterns))
    assert called == [6]


def test_pattern_normalization():
    # duplicates and order do not matter
    a = list(enumerate_avoiders(5, [(1, 2, 4, 3), (2, 1, 3, 4), (1, 2, 4, 3)]))
    b = list(enumerate_avoiders(5, [(2, 1, 3, 4), (1, 2, 4, 3)]))
    assert a == b


@pytest.mark.parametrize(
    "patterns", [(PATTERN_123, (1, 3, 2, 4)), (PATTERN_123, *AVOIDED_PAIR)], ids=str
)
def test_a_pattern_containing_another_is_dropped(monkeypatch, patterns):
    # Each set is exactly the {123} class, so it is listed by the 123 rule
    # alone, with its blocks and no matcher, and counted as that class;
    # both against a filter with ``contains`` over every given pattern.
    import avoiders.enumeration as enumeration_module

    asked = []
    monkeypatch.setattr(enumeration_module, "_ends_at", lambda *args: asked.append(args))
    assert ClassDescriptor(5, patterns).patterns == (PATTERN_123,)
    for n in range(1, 8):
        members = [
            perm for perm in itertools.permutations(range(1, n + 1))
            if not any(contains(perm, q) for q in patterns)
        ]
        assert list(enumerate_avoiders(n, patterns)) == members, n
        assert count_class(ClassDescriptor(n, patterns)) == len(members), n
    assert asked == []


def test_naive_filter_tests_every_given_pattern(monkeypatch):
    # The oracle filters with the patterns as given, not as the descriptor
    # keeps them, so the oracle rows that hold a redundant pattern check the
    # drop.
    import avoiders.enumeration as enumeration_module

    seen, avoids = [], enumeration_module.avoids
    monkeypatch.setattr(
        enumeration_module, "avoids", lambda perm, pats: seen.append(pats) or avoids(perm, pats)
    )
    assert len(list(naive_avoiders(4, [PATTERN_123, (1, 3, 2, 4)]))) == 14
    assert len(seen) == 24
    assert all(pats == [PATTERN_123, (1, 3, 2, 4)] for pats in seen)


def test_invalid_inputs():
    with pytest.raises(ValueError, match="class length n must be >= 1"):
        list(enumerate_avoiders(0, AVOIDED_PAIR))
    with pytest.raises(ValueError, match="class length n must be >= 1"):
        list(naive_avoiders(0, AVOIDED_PAIR))
    with pytest.raises(ValueError, match="pattern"):
        list(enumerate_avoiders(3, [(1, 3)]))


# ---------------------------------------------------------------------------
# pair counter


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_counter_matches_enumeration(n):
    counted = count_class(ClassDescriptor(n, AVOIDED_PAIR))
    assert counted == sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR))


def test_pair_counter_matches_series():
    coeffs = list(gf_full(24).coeffs)
    assert [_pair_walk(n, False, False) for n in range(17)] == coeffs[:17]
    assert count_class(ClassDescriptor(24, AVOIDED_PAIR)) == coeffs[24]


def test_pair_counter_rejects_negative_length():
    with pytest.raises(ValueError, match="length n must be >= 0"):
        _pair_walk(-1, False, False)


def test_count_class_walks_exactly_the_pair_and_123_classes(monkeypatch):
    import avoiders.enumeration as enumeration_module

    walks = []
    listed = []
    counted = []
    real_pair_walk = enumeration_module._pair_walk
    real_123_walk = enumeration_module._count_123_avoiders
    real_enumerate = enumeration_module.enumerate_class

    def pair_walk(n, start_small_only, keyed):
        walks.append(("pair", n, start_small_only, keyed))
        return real_pair_walk(n, start_small_only, keyed)

    def walk_123(n, start_small_only):
        walks.append(("123", n, start_small_only))
        return real_123_walk(n, start_small_only)

    def enumerate_spy(descriptor):
        listed.append(descriptor)
        return real_enumerate(descriptor)

    real_counter = enumeration_module._count_by_gap_state

    def counter(n, head, root, answers, start_small_only):
        counted.append((n, start_small_only))
        return real_counter(n, head, root, answers, start_small_only)

    monkeypatch.setattr(enumeration_module, "_pair_walk", pair_walk)
    monkeypatch.setattr(enumeration_module, "_count_by_gap_state", counter)
    monkeypatch.setattr(enumeration_module, "_count_123_avoiders", walk_123)
    monkeypatch.setattr(enumeration_module, "enumerate_class", enumerate_spy)
    # pattern order and repeats do not matter: the normalized set decides;
    # without k the pair walk runs with no key marker
    pairs = (AVOIDED_PAIR, AVOIDED_PAIR[::-1], AVOIDED_PAIR[::-1] * 2)
    walked = [
        *((ClassDescriptor(6, p), 354, ("pair", 6, False, False)) for p in pairs),
        *((ClassDescriptor(6, p, start_small_only=True), 267, ("pair", 6, True, False))
          for p in pairs),
        (ClassDescriptor(6, AVOIDED_PAIR, k=0), 132, ("pair", 6, False, True)),
        (ClassDescriptor(6, AVOIDED_PAIR[::-1], start_small_only=True, k=1), 110,
         ("pair", 6, True, True)),
        (ClassDescriptor(6, AVOIDED_PAIR, start_small_only=True, k=9), 0,
         ("pair", 6, True, True)),
        # k = n + 1, the first k past the walk's last slice
        (ClassDescriptor(6, AVOIDED_PAIR, k=7), 0, ("pair", 6, False, True)),
        (ClassDescriptor(7, (PATTERN_123,)), 429, ("123", 7, False)),
        (ClassDescriptor(7, (PATTERN_123,) * 2, start_small_only=True), 297,
         ("123", 7, True)),
        # no 123-avoider has a mid-123 entry, so k = 0 is the whole class
        (ClassDescriptor(6, (PATTERN_123,), k=0), 132, ("123", 6, False)),
        # a pattern that contains 123 adds nothing, so these are {123}
        (ClassDescriptor(7, (PATTERN_123, (1, 3, 2, 4))), 429, ("123", 7, False)),
        (ClassDescriptor(7, (PATTERN_123, *AVOIDED_PAIR), start_small_only=True), 297,
         ("123", 7, True)),
    ]
    for descriptor, size, walk in walked:
        assert count_class(descriptor) == size
        assert (walks, listed, counted) == ([walk], [], []), descriptor
        assert size == sum(1 for _ in real_enumerate(descriptor))
        walks.clear()
    # a set the rules cover whole, with no k, is counted by gap state; the
    # pair beside 12 is {12}, since both pair patterns contain 12
    by_gap_state = [
        (ClassDescriptor(6, AVOIDED_PAIR + ((1, 2),)), 1, (6, False)),
        (ClassDescriptor(7, AVOIDED_PAIR + ((4, 3, 2, 1),)), 333, (7, False)),
        (ClassDescriptor(7, ((4, 3, 2, 1),), start_small_only=True), 2629, (7, True)),
        (ClassDescriptor(6, ()), 720, (6, False)),
    ]
    for descriptor, size, call in by_gap_state:
        assert count_class(descriptor) == size
        assert (walks, listed, counted) == ([], [], [call]), descriptor
        assert size == sum(1 for _ in real_enumerate(descriptor))
        counted.clear()
    listed_only = [
        (ClassDescriptor(6, AVOIDED_PAIR, k=1, j=3), 36),
        (ClassDescriptor(6, (AVOIDED_PAIR[0],)), 513),
        # the rules cover this set, but k is a filter the counter lacks
        (ClassDescriptor(6, AVOIDED_PAIR + ((4, 3, 2, 1),), k=1), 74),
        # a keyed {123} class (j needs k >= 1) is empty: ``enumerate_class``
        # returns at once for it, listing nothing
        (ClassDescriptor(6, (PATTERN_123,), k=1), 0),
        (ClassDescriptor(6, (PATTERN_123,), start_small_only=True, k=1, j=3), 0),
    ]
    for descriptor, size in listed_only:
        assert count_class(descriptor) == size
        assert (walks, listed, counted) == ([], [descriptor], []), descriptor
        listed.clear()


# ---------------------------------------------------------------------------
# the counter by gap state


def _counted_by_gap_state(n, patterns, start_small_only=False):
    _, head, root, others, answers = _class_rule(n, ClassDescriptor(n, patterns).patterns)
    assert others == []
    return _count_by_gap_state(n, head, root, answers, start_small_only)


#: The rows of ``ORACLE_PATTERN_SETS`` that the rules cover whole.
RULE_COVERED_SETS = [
    s for s in ORACLE_PATTERN_SETS if not _class_rule(1, ClassDescriptor(1, s).patterns)[3]
]


@pytest.mark.parametrize("patterns", RULE_COVERED_SETS, ids=str)
def test_counter_matches_naive_filter(patterns):
    # Plain and start-small, against the filter over all n! permutations.
    for n in range(1, 8):
        members = list(naive_avoiders(n, patterns))
        assert _counted_by_gap_state(n, patterns) == len(members), n
        start_small = sum(1 for perm in members if perm[0] != n)
        assert _counted_by_gap_state(n, patterns, True) == start_small, n


def test_three_rule_count_matches_its_listing():
    # The nested side of the composition, ((pair, 123456), 4321), counted by
    # gap state against the enumerator's listing past the naive filter's
    # reach, plain and start-small.
    assert len(_gap_rules(1, ClassDescriptor(1, THREE_RULES).patterns)[0]) == 3
    counted = {}
    for n in range(1, 13):
        members = list(enumerate_avoiders(n, THREE_RULES))
        start_small = sum(1 for perm in members if perm[0] != n)
        counted[n] = tuple(_counted_by_gap_state(n, THREE_RULES, s) for s in (False, True))
        assert counted[n] == (len(members), start_small), n
    assert (counted[10], counted[12]) == ((566, 556), (305, 305))


def test_counting_builds_no_composed_dict(monkeypatch):
    # The counter intersects the two rules' answers in its own loop, while
    # listing the same class composes them through ``_composed_keys``.
    import avoiders.enumeration as enumeration_module

    calls = 0
    real_composed_keys = enumeration_module._composed_keys

    def composed_keys_spy(*args):
        nonlocal calls
        calls += 1
        return real_composed_keys(*args)

    monkeypatch.setattr(enumeration_module, "_composed_keys", composed_keys_spy)
    descriptor = ClassDescriptor(8, AVOIDED_PAIR + ((4, 3, 2, 1),))
    assert count_class(descriptor) == 538
    assert calls == 0
    assert sum(1 for _ in enumerate_class(descriptor)) == 538
    assert calls == 584


def _gessel_1234(n):
    # Gessel's closed form for the 1234-avoiders of [n], OEIS A005802
    # (Gessel, "Symmetric functions and P-recursiveness", 1990), summed in
    # exact rationals: its terms need not be integers.
    return 2 * sum(
        Fraction(
            math.comb(2 * k, k) * math.comb(n, k) ** 2
            * (3 * k * k + 2 * k + 1 - n - 2 * k * n),
            (k + 1) ** 2 * (k + 2) * (n - k + 1),
        )
        for k in range(n + 1)
    )


def test_count_class_meets_gessels_formula():
    # {1234} and {4321} are counted by gap state, through the monotone rule,
    # far past what listing reaches.
    for n in range(1, 21):
        closed_form = _gessel_1234(n)
        for pattern in ((1, 2, 3, 4), (4, 3, 2, 1)):
            assert count_class(ClassDescriptor(n, (pattern,))) == closed_form, n
    assert closed_form == 162958355218089


def test_counter_runs_the_pair_and_123_rules_to_their_series():
    # ``count_class`` walks these two classes; run on their rules directly,
    # the counter checks the enumerator's own rules past listing's reach.
    # Those starting with n are n before a member of the class of n - 1.
    pair = kotesovec_series(14).coeffs
    for n in range(1, 15):
        assert _counted_by_gap_state(n, AVOIDED_PAIR) == pair[n], n
        assert _counted_by_gap_state(n, AVOIDED_PAIR, True) == pair[n] - pair[n - 1], n
    catalan = catalan_series(30).coeffs
    for n in range(1, 31):
        assert _counted_by_gap_state(n, (PATTERN_123,)) == catalan[n], n
        assert _counted_by_gap_state(n, (PATTERN_123,), True) == (
            catalan[n] - catalan[n - 1]
        ), n


def _gap_states(n, patterns, statistics, fewest):
    # The distinct gap states of ``statistics`` over the live prefixes with
    # at least ``fewest`` unused values, by brute force.
    return {
        _gap_state(statistics(prefix, n), [v for v in range(1, n + 1) if v not in prefix])
        for prefix in _live_prefixes(n, patterns, n - fewest)
    }


def _spy_rules(monkeypatch):
    # Counts of calls to the pair rule and the monotone rule, by name.
    import avoiders.enumeration as enumeration_module

    calls = dict.fromkeys(("_pair_children", "_monotone_children"), 0)

    def spy(name, real_rule):
        def rule_spy(*args):
            calls[name] += 1
            return real_rule(*args)

        return rule_spy

    for name in calls:
        monkeypatch.setattr(enumeration_module, name, spy(name, getattr(enumeration_module, name)))
    return calls


@pytest.mark.parametrize("n, size, asks", [(7, 333, (148, 63)), (8, 538, (253, 92))])
def test_counter_asks_each_rule_once_per_gap_state_of_its_own(monkeypatch, n, size, asks):
    # Counting pair + 4321 asks the pair rule once per distinct gap state of
    # the pair's statistics and the 4321 rule once per distinct gap state of
    # its pile tops, over the live prefixes with an unused value, not once
    # per gap state of the two together (275 at n = 7, 509 at n = 8).
    calls = _spy_rules(monkeypatch)
    patterns = AVOIDED_PAIR + ((4, 3, 2, 1),)
    assert count_class(ClassDescriptor(n, patterns)) == size
    pair = _gap_states(n, patterns, _pair_statistics, 1)
    piles = _gap_states(n, patterns, _pile_tops((4, 3, 2, 1)), 1)
    assert (calls["_pair_children"], calls["_monotone_children"]) == (
        len(pair), len(piles)
    ) == asks


def test_counter_memory_does_not_grow_with_every_level():
    # No rule answer serves two levels, so the counter clears each level's:
    # its traced peak is set by the widest level, not by all of them.
    # Counting pair + 4321 at n = 16 peaks at about 1.5 MiB that way, and at
    # 4.3 MiB when every answer is kept to the end (Python 3.11).
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert count_class(ClassDescriptor(16, AVOIDED_PAIR + ((4, 3, 2, 1),))) == 3942
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 3 * 2**20


def test_listing_memory_along_a_path_is_linear():
    # {12} has one member, n ... 1, reached through a path of n open
    # prefixes.  The enumerator keeps one list of unused values, so its
    # traced peak grows as n: about 0.55 MiB at n = 1000 and 1.6 MiB at
    # n = 3000, 2.9 times as much.  With a copy of the unused values per
    # depth it grew as n^2: 4.5 and 36.3 MiB, 8.1 times (Python 3.11).
    peaks = []
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for n in (1000, 3000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            members = list(enumerate_class(ClassDescriptor(n, ((1, 2),))))
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            assert members == [tuple(range(n, 0, -1))]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[1] < 8 * 2**20
    assert peaks[1] < 4 * peaks[0]


@pytest.mark.parametrize("n, size", [(8, 6056), (9, 25252)])
def test_matcher_lists_a_deep_class_in_order(n, size):
    # No rule covers {1342, 3124}, so it lists with no blocks: every prefix
    # is a node, and every value goes back through the one list of unused
    # values.  The sizes are A164651(8) and A164651(9), the {1243, 2134}
    # counts; that the two classes agree is observed here, not proved.
    members = list(enumerate_class(ClassDescriptor(n, ((1, 3, 4, 2), (3, 1, 2, 4)))))
    assert all(a < b for a, b in zip(members, members[1:]))
    assert all(sorted(p) == list(range(1, n + 1)) for p in members)
    assert len(members) == size


@pytest.mark.parametrize("n, size, asks", [(7, 1459, 143), (8, 6056, 248)])
def test_enumerator_asks_the_pair_rule_once_per_gap_state(monkeypatch, n, size, asks):
    # The enumerator carries gap states, so listing the pair asks its rule
    # once per distinct gap state of the live prefixes with two or more
    # unused values, the nodes it opens and the prefixes in its blocks alike.
    calls = _spy_rules(monkeypatch)
    assert sum(1 for _ in enumerate_class(ClassDescriptor(n, AVOIDED_PAIR))) == size
    states = _gap_states(n, AVOIDED_PAIR, _pair_statistics, 2)
    assert calls == {"_pair_children": len(states), "_monotone_children": 0}
    assert len(states) == asks


def test_plain_pair_walk_sums_the_keyed_one():
    # With no key marker the walk stores fewer states; its counts are the
    # sums of the keyed walk's, plain and start-small.
    for n in range(31):
        assert _pair_walk(n, False, False) == sum(count_pair_avoiders_by_keys(n)), n
        by_keys = count_pair_avoiders_by_keys(n, start_small_only=True)
        assert _pair_walk(n, True, False) == sum(by_keys), n


def _reference_pair_walk(n, start_small_only, keyed):
    # The pair walk's level step taken child by child: each state steps its
    # count to every live child i = 1 .. min(k, s12 + 1) on its own, so a
    # level costs its states times k.  The walk sums runs of those children
    # instead, and must give the same counts.
    width = math.factorial(n).bit_length() if keyed else 0
    level = {(n, n, n, n): 1}
    for k in range(n, 0, -1):
        below = {}
        for (low, s12, m21, last), count in level.items():
            for i in range(1, min(k, s12 + 1) + 1):
                if low >= i:  # v is the new prefix minimum; s12 stays
                    child = (i - 1, s12 - 1, low - 1, i - 1)
                    below[child] = below.get(child, 0) + count
                elif i == k:  # v is the largest unused value: a right-to-left maximum
                    child = (low, i - 1, min(m21, i - 1), low)
                    below[child] = below.get(child, 0) + count
                elif m21 >= i:  # a mid-123 entry, the new s12, and a key one iff last < i
                    child_m21 = (s12 if i <= s12 < m21 else m21) - 1
                    child = (low, i - 1, child_m21, i - 1 if width else low)
                    below[child] = below.get(child, 0) + (count << width if last < i else count)
        if start_small_only and k == n:
            del below[(n - 1,) * 4]
        level = below
    total = sum(level.values())
    if not keyed:
        return total
    mask = (1 << width) - 1
    return tuple(total >> (width * keys) & mask for keys in range(n + 1))


@pytest.mark.parametrize("keyed", [False, True])
@pytest.mark.parametrize("start_small_only", [False, True])
def test_pair_walk_matches_child_by_child_step(start_small_only, keyed):
    for n in range(21):
        expected = _reference_pair_walk(n, start_small_only, keyed)
        assert _pair_walk(n, start_small_only, keyed) == expected, n


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
    for n in (*range(2, 19), 30):
        walked = count_pair_avoiders_by_keys(n, start_small_only=True)
        lagrange = tuple(
            (3 * k + 3) * math.comb(2 * n + k - 1, n - k - 2) // (2 * n + k - 1)
            for k in range(n - 1)
        ) + (0, 0)  # k + 1 elements of length >= 2 need n + k >= 2k + 2
        assert walked == lagrange, n
        plain = [count_class(ClassDescriptor(m, AVOIDED_PAIR)) for m in (n, n - 1)]
        assert sum(walked) == plain[0] - plain[1]


def test_key_walk_state_space():
    # The figures the docstring and README give: the walk passes 682 states
    # with k >= 2 at n = 10 and 63,012 at n = 30, at most 225 and 8,065 of
    # them in one level.  A profile hook sees each level as the walk calls
    # ``items`` on it, once per level, k = n down to 1; the walk also calls
    # ``items`` on its run sums, so the hook keeps only the call on ``level``.
    levels = []

    def hook(frame, event, arg):
        if (event == "c_call" and frame.f_code is _pair_walk.__code__
                and getattr(arg, "__name__", None) == "items"
                and arg.__self__ is frame.f_locals["level"]):
            levels.append(len(arg.__self__))

    for n, passed, widest in ((10, 682, 225), (30, 63012, 8065)):
        levels.clear()
        sys.setprofile(hook)
        try:
            count_pair_avoiders_by_keys(n)
        finally:
            sys.setprofile(None)
        assert len(levels) == n, n
        assert (sum(levels[:-1]), max(levels)) == (passed, widest), n


def test_pair_walks_need_no_stack():
    # The walks go level by level, so 25 frames above the caller's are
    # plenty: count_class and the walk take two, and the pattern checks of
    # ClassDescriptor a few more.  A walk that recursed once per position
    # would need 30 at n = 30 and raise RecursionError.
    lagrange = tuple(
        (3 * k + 3) * math.comb(59 + k, 28 - k) // (59 + k) for k in range(29)
    ) + (0, 0)  # as in test_key_walk_matches_lagrange_form, at n = 30
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        plain = count_class(ClassDescriptor(30, AVOIDED_PAIR))
        start_small = count_class(ClassDescriptor(30, AVOIDED_PAIR, start_small_only=True))
        by_keys = count_pair_avoiders_by_keys(30, True)
    finally:
        sys.setrecursionlimit(limit)
    assert plain == 342378241152493302  # F's coefficient
    assert start_small == 261495087325800345  # G's coefficient
    assert by_keys == lagrange


def test_key_walk_small_lengths():
    assert count_pair_avoiders_by_keys(0) == (1,)
    assert count_pair_avoiders_by_keys(0, start_small_only=True) == (1,)
    assert count_pair_avoiders_by_keys(1, start_small_only=True) == (0, 0)
    with pytest.raises(ValueError, match="length n must be >= 0"):
        count_pair_avoiders_by_keys(-1, start_small_only=True)
    with pytest.raises(ValueError, match="length n must be <= 100"):
        count_pair_avoiders_by_keys(PAIR_WALK_MAX_N + 1)
    with pytest.raises(ValueError, match="length n must be <= 100"):
        count_class(ClassDescriptor(PAIR_WALK_MAX_N + 1, AVOIDED_PAIR))


@pytest.mark.parametrize("n", range(1, 12))
def test_123_walk_matches_brute_force(n):
    for descriptor in (
        ClassDescriptor(n, (PATTERN_123,)),
        ClassDescriptor(n, (PATTERN_123,), start_small_only=True),
    ):
        assert count_class(descriptor) == sum(1 for _ in enumerate_class(descriptor))


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
        full = sum(1 for _ in enumerate_avoiders(n, AVOIDED_PAIR))
        smaller = sum(1 for _ in enumerate_avoiders(n - 1, AVOIDED_PAIR))
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
    # a bad pattern is refused when the class is built, not when it is used
    with pytest.raises(ValueError, match=r"pattern \(1, 3\) is not a permutation of 1..2"):
        ClassDescriptor(4, ((1, 3),))


def test_descriptor_built_from_an_iterator_keeps_its_class():
    descriptor = ClassDescriptor(5, iter(AVOIDED_PAIR))
    assert [count_class(descriptor) for _ in range(3)] == [87, 87, 87]
    assert descriptor.patterns == AVOIDED_PAIR


@pytest.mark.parametrize(
    "patterns",
    [[list(q) for q in AVOIDED_PAIR], AVOIDED_PAIR[::-1], AVOIDED_PAIR * 2],
    ids=["lists", "reversed", "repeated"],
)
def test_descriptor_equality_ignores_how_patterns_are_given(patterns):
    descriptor = ClassDescriptor(5, patterns)
    assert descriptor == ClassDescriptor(5, AVOIDED_PAIR)
    assert hash(descriptor) == hash(ClassDescriptor(5, AVOIDED_PAIR))


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


def test_start_small_123_listing_counts():
    listed = {
        n: sum(1 for _ in enumerate_class(
            ClassDescriptor(n, (PATTERN_123,), start_small_only=True)
        ))
        for n in range(1, 9)
    }
    assert listed[1] == 0
    assert listed[3] == 3
    assert listed[4] == 9
    # Catalan difference: those starting with n are counted by C(n-1)
    for n in range(2, 9):
        assert listed[n] == CATALAN[n] - CATALAN[n - 1]


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
