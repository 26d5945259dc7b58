"""The decomposition, its inverse, and the iterated map, against the two
fixed worked examples and exhaustive round trips."""

import dataclasses
import functools
import hashlib
import itertools
import random

import pytest

import avoiders.bijection as bijection_module
from avoiders.bijection import (
    decompose,
    format_perm_list,
    inverse_params,
    parse_perm_list,
    phi,
    phi_inverse,
    recompose,
)
from avoiders.enumeration import ClassDescriptor, enumerate_avoiders, enumerate_class
from avoiders.perms import (
    AVOIDED_PAIR,
    PATTERN_123,
    avoids,
    contains,
    is_permutation,
    is_start_small,
    key_mid123_entries,
    mid123_entries,
    parse_perm,
)

KEY_INPUT = parse_perm("11 2 12 9 7 8 4 5 6 1 10 3")
KEY_SIGMA1 = parse_perm("8 1 9 6 4 5 2 3 7")
KEY_SIGMA2 = parse_perm("2 1 4 3")

DROP_INPUT = parse_perm("13 16 12 3 15 8 9 10 11 7 6 5 2 1 14 4")
DROP_SIGMA1 = parse_perm("9 12 8 4 11 5 6 7 10 3 2 1")
DROP_SIGMA2 = parse_perm("3 2 1 5 4")


def start_small_avoiders(n):
    return (p for p in enumerate_avoiders(n, AVOIDED_PAIR) if is_start_small(p))


# ---------------------------------------------------------------------------
# the two worked decompositions, with every witness pinned


def test_key_case_forward():
    step = decompose(KEY_INPUT)
    assert step.sigma1 == KEY_SIGMA1
    assert step.sigma2 == KEY_SIGMA2
    assert (step.b_value, step.a_value, step.c_value) == (6, 2, 10)
    assert step.j == 9
    assert step.key_case and step.r == 0


def test_drop_case_forward():
    step = decompose(DROP_INPUT)
    assert step.sigma1 == DROP_SIGMA1
    assert step.sigma2 == DROP_SIGMA2
    assert (step.b_value, step.a_value, step.c_value) == (5, 3, 14)
    assert step.j == 12
    assert not step.key_case and step.r == 3


def test_drop_case_inverse_parameters():
    params = inverse_params(DROP_SIGMA1, DROP_SIGMA2)
    assert (params.n, params.j, params.r, params.p, params.q) == (16, 12, 3, 9, 4)
    assert (params.i_pos, params.k_pos) == (4, 15)
    assert (params.a_value, params.c_value) == (3, 14)
    assert params.s == 4
    assert recompose(DROP_SIGMA1, DROP_SIGMA2) == DROP_INPUT


def test_key_case_inverse_parameters():
    params = inverse_params(KEY_SIGMA1, KEY_SIGMA2)
    assert (params.n, params.j, params.r, params.p, params.q) == (12, 9, 0, 9, 3)
    assert (params.i_pos, params.k_pos) == (2, 11)
    assert (params.a_value, params.c_value) == (2, 10)
    assert params.s == 3
    assert recompose(KEY_SIGMA1, KEY_SIGMA2) == KEY_INPUT


def test_smallest_cases():
    step = decompose((1, 2, 3, 4, 5))
    assert step.pair == ((1, 2, 3, 4), (1, 2))
    assert (step.b_value, step.a_value, step.c_value) == (4, 1, 5)
    assert step.key_case

    assert recompose((1, 2), (1, 2)) == (1, 2, 3)
    assert decompose((1, 2, 3)).pair == ((1, 2), (1, 2))


# ---------------------------------------------------------------------------
# domain errors


def test_decompose_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not a permutation"):
        decompose((1, 3))
    with pytest.raises(ValueError, match="forbidden pattern"):
        decompose((1, 2, 4, 3))
    with pytest.raises(ValueError, match="start-small"):
        decompose((4, 1, 2, 3))
    with pytest.raises(ValueError, match="123-avoiding"):
        decompose((3, 4, 1, 2))
    with pytest.raises(ValueError, match="input is not start-small"):
        phi((4, 1, 2, 3))
    with pytest.raises(ValueError, match="input contains the forbidden pattern 2 1 3 4"):
        phi((2, 1, 3, 4))


def test_recompose_rejects_bad_inputs():
    with pytest.raises(ValueError, match="sigma1"):
        recompose((1,), (1, 2))
    with pytest.raises(ValueError, match="sigma2"):
        recompose((1, 2), (1, 2, 3))  # contains 123
    with pytest.raises(ValueError, match="start-small"):
        recompose((2, 1), (1, 2))
    with pytest.raises(ValueError, match="forbidden pattern"):
        recompose((1, 2, 4, 3), (1, 2))
    with pytest.raises(ValueError, match="sigma2 is not start-small"):
        recompose((1, 2), (3, 1, 2))


def test_valid_inputs_never_reach_contains(monkeypatch):
    # Accepted inputs are validated by one scan each: avoids_pair for the
    # avoiders, the element scan for the 123-avoiders.  The separate
    # predicates only diagnose rejected input, so on valid input the one
    # is_permutation call per result is the guard of recompose or of
    # phi_inverse, which folds on one list and guards only its output.
    def refuse(*args):
        raise AssertionError(f"diagnosis predicate called on a valid input {args!r}")

    guarded = []

    def guard(word):
        guarded.append(word)
        return is_permutation(word)

    monkeypatch.setattr(bijection_module, "contains", refuse)
    monkeypatch.setattr(bijection_module, "is_permutation", guard)
    for perm in (KEY_INPUT, DROP_INPUT):
        step = decompose(perm)
        assert inverse_params(*step.pair).j == step.j
        assert not guarded
        assert recompose(*step.pair) == perm
        assert guarded == [perm]
        guarded.clear()
    for n in range(1, 8):
        for perm in start_small_avoiders(n):
            elements = phi(perm)
            assert not guarded
            assert phi_inverse(elements) == perm
            assert guarded == ([perm] if len(elements) > 1 else [])
            guarded.clear()


#: Words that are not permutations of [n], some of which would make a
#: bit-shift scan shift by a negative count if it shifted before testing.
MALFORMED = [(), (0,), (-1, 1), (1, 1), (2, 3), (1, 3, 2, 5), (3, 1, 2, 2)]


@pytest.mark.parametrize("word", MALFORMED)
def test_malformed_words_are_named_for_every_role(word):
    calls = [
        ("input", lambda: decompose(word)),
        ("input", lambda: phi(word)),
        ("sigma1", lambda: inverse_params(word, (1, 2))),
        ("sigma1", lambda: recompose(word, (1, 2))),
        ("sigma2", lambda: inverse_params((1, 2), word)),
        ("sigma2", lambda: recompose((1, 2), word)),
        ("element 1", lambda: phi_inverse((word, (1, 2)))),
        ("element 2", lambda: phi_inverse(((1, 2), word))),
    ]
    for role, call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == f"{role} is not a permutation of 1..n: {word!r}"


@pytest.mark.parametrize(
    "scan, calls",
    [
        ("avoids_pair", [
            ("input", lambda: decompose((1, 2))),
            ("input", lambda: phi((1, 2))),
            ("sigma1", lambda: inverse_params((1, 2), (1, 2))),
            ("sigma1", lambda: recompose((1, 2), (1, 2))),
            ("element 1", lambda: phi_inverse(((1, 2), (1, 2)))),
        ]),
        ("_start_small_123_avoider", [
            ("sigma2", lambda: inverse_params((1, 2), (1, 2))),
            ("sigma2", lambda: recompose((1, 2), (1, 2))),
            ("element 2", lambda: phi_inverse(((1, 2), (1, 2)))),
        ]),
    ],
)
def test_scan_refusing_valid_input_is_an_internal_error(monkeypatch, scan, calls):
    # A one-scan check that refuses what the independent predicates accept
    # is a bug in the package, not bad input.
    monkeypatch.setattr(bijection_module, scan, lambda perm: False)
    for role, call in calls:
        with pytest.raises(RuntimeError) as excinfo:
            call()
        assert str(excinfo.value) == (
            f"the one-scan check and contains disagree on {role}: (1, 2)"
        )


def test_decompose_core_refuses_two_entries_above_b():
    # 1 2 4 3 splits at b = 2 with 4 and 3 both above it: the split core's
    # guard compares the second-largest entry after b with b.
    with pytest.raises(RuntimeError) as excinfo:
        next(bijection_module._splits((1, 2, 4, 3)))
    assert str(excinfo.value) == (
        "expected exactly one entry above the last mid-123 entry, found [4, 3]"
    )


@pytest.mark.parametrize(
    "perm, contained, named",
    [
        ((1, 2, 4, 3), [(1, 2, 4, 3)], "1 2 4 3"),
        ((2, 1, 3, 4), [(2, 1, 3, 4)], "2 1 3 4"),
        ((2, 1, 3, 5, 4), [(1, 2, 4, 3), (2, 1, 3, 4)], "1 2 4 3"),  # 1243 first
    ],
)
def test_rejected_inputs_name_the_pattern(monkeypatch, perm, contained, named):
    assert [q for q in AVOIDED_PAIR if contains(perm, q)] == contained
    calls = []

    def spy(word, q):
        calls.append(q)
        return contains(word, q)

    monkeypatch.setattr(bijection_module, "contains", spy)
    for role, call in [
        ("input", lambda: decompose(perm)),
        ("input", lambda: phi(perm)),
        ("sigma1", lambda: inverse_params(perm, (1, 2))),
        ("sigma1", lambda: recompose(perm, (1, 2))),
        ("element 1", lambda: phi_inverse((perm, (1, 2)))),
    ]:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == f"{role} contains the forbidden pattern {named}"
    assert calls  # the reject path asked contains to name the pattern


# ---------------------------------------------------------------------------
# phi


def test_phi_examples():
    assert phi((1, 2, 3, 4, 5)) == ((1, 2), (1, 2), (1, 2), (1, 2))
    assert phi((3, 4, 1, 2)) == ((3, 4, 1, 2),)
    assert phi((1, 2, 3)) == ((1, 2), (1, 2))


def test_phi_inverse_examples():
    assert phi_inverse(((1, 2), (1, 2), (1, 2), (1, 2))) == (1, 2, 3, 4, 5)
    assert phi_inverse(((3, 4, 1, 2),)) == (3, 4, 1, 2)
    assert phi_inverse((DROP_SIGMA1, DROP_SIGMA2)) == DROP_INPUT


def test_entry_points_take_lists_and_return_tuples():
    def all_tuples(value):
        return type(value) is tuple and all(
            type(x) is int or all_tuples(x) for x in value
        )

    step = decompose(list(KEY_INPUT))
    assert step == decompose(KEY_INPUT)
    assert all_tuples(step.pair)
    lists = [list(sigma) for sigma in step.pair]
    assert inverse_params(*lists) == inverse_params(*step.pair)
    assert recompose(*lists) == KEY_INPUT and all_tuples(recompose(*lists))
    for perm in ([1, 2, 3], [3, 4, 1, 2], list(DROP_INPUT)):
        elements = phi(perm)
        assert elements == phi(tuple(perm)) and all_tuples(elements)
        back = phi_inverse([list(e) for e in elements])
        assert back == tuple(perm) and all_tuples(back)
    assert phi_inverse(([2, 1, 3],)) == (2, 1, 3)
    # a rejected list is quoted as the tuple the entry point made of it
    with pytest.raises(ValueError, match=r"input is not a permutation of 1..n: \(1, 3\)"):
        phi([1, 3])
    with pytest.raises(ValueError, match=r"sigma2 is not a permutation of 1..n: \(1, 3\)"):
        recompose([2, 1, 3], [1, 3])


def test_phi_inverse_names_offending_index():
    with pytest.raises(ValueError, match="element 2"):
        phi_inverse(((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError, match=r"element 2 is not a permutation of 1..n: \(1, 3\)"):
        phi_inverse(((1, 2), (1, 3)))
    with pytest.raises(ValueError, match="element 1"):
        phi_inverse(((2, 1), (1, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        phi_inverse(())
    with pytest.raises(ValueError, match="element 1 contains the forbidden pattern 1 2 4 3"):
        phi_inverse(((1, 2, 4, 3), (1, 2)))
    with pytest.raises(ValueError, match="element 1 is not start-small"):
        phi_inverse(((1,), (1, 2)))


def test_phi_output_shape():
    # k key mid-123 entries -> k + 1 elements with lengths summing to n + k
    for n in range(2, 9):
        for perm in start_small_avoiders(n):
            k = len(key_mid123_entries(perm))
            elements = phi(perm)
            assert len(elements) == k + 1
            assert sum(len(e) for e in elements) == n + k
            for e in elements:
                assert is_start_small(e)
                assert len(e) >= 2
                assert not mid123_entries(e)  # each element is 123-avoiding


def test_key_case_agrees_with_key_mid123_entries():
    # decompose classifies the last mid-123 entry locally; the full
    # key_mid123_entries scan is the oracle.
    for n in range(3, 9):
        for perm in start_small_avoiders(n):
            if mid123_entries(perm):
                step = decompose(perm)
                assert step.key_case == (step.j in key_mid123_entries(perm)), perm


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_roundtrip(n):
    for perm in start_small_avoiders(n):
        assert phi_inverse(phi(perm)) == perm


@pytest.mark.parametrize("total", range(4, 10))
def test_pair_roundtrip(total):
    # all valid (sigma1, sigma2) with len(sigma1) + len(sigma2) == total
    for len1 in range(2, total - 1):
        len2 = total - len1
        rights = [
            p for p in enumerate_avoiders(len2, [PATTERN_123]) if is_start_small(p)
        ]
        for sigma1 in start_small_avoiders(len1):
            for sigma2 in rights:
                rebuilt = recompose(sigma1, sigma2)
                assert is_start_small(rebuilt)
                step = decompose(rebuilt)
                assert step.pair == (sigma1, sigma2), (sigma1, sigma2, rebuilt)


def _random_element(rng):
    # A start-small 123-avoider of uniform length 2-7, by rejection sampling.
    m = rng.randint(2, 7)
    while True:
        perm = tuple(rng.sample(range(1, m + 1), m))
        if is_start_small(perm) and not contains(perm, PATTERN_123):
            return perm


def test_seeded_roundtrip_beyond_exhaustive_bounds():
    # Lists of 1-6 elements reach n = 37, far past the exhaustive sweeps
    # above, and exercise the unchecked steps inside phi and phi_inverse.
    rng = random.Random(20130315)
    for _ in range(300):
        elements = tuple(_random_element(rng) for _ in range(rng.randint(1, 6)))
        perm = phi_inverse(elements)
        assert avoids(perm, AVOIDED_PAIR) and is_start_small(perm), elements
        assert phi(perm) == elements


def _phi_by_definition(perm):
    # The public decompose iterated until no mid-123 entry is left: the last
    # sigma1 first, then the sigma2s in reverse order.
    extracted = []
    while mid123_entries(perm):
        step = decompose(perm)
        perm = step.sigma1
        extracted.append(step.sigma2)
    return (perm, *reversed(extracted))


def test_phi_equals_its_definition():
    # Every start-small avoider of n <= 9, and a few seeded phi_inverse
    # images near n = 1,000, where phi's single scan meets hundreds of
    # splits.  Last, a known answer: each split of 1 2 ... m at its last
    # mid-123 entry leaves 1 2 ... m-1 and splits off 1 2.
    for n in range(1, 10):
        for perm in start_small_avoiders(n):
            assert phi(perm) == _phi_by_definition(perm), perm
    rng = random.Random(20131000)
    for _ in range(3):
        elements = [_random_element(rng)]
        while sum(map(len, elements)) - len(elements) < 1000:
            elements.append(_random_element(rng))
        perm = phi_inverse(elements)
        assert phi(perm) == _phi_by_definition(perm) == tuple(elements)
    assert phi(tuple(range(1, 2001))) == ((1, 2),) * 1999


def test_phi_inverse_is_the_fold_of_recompose():
    # phi_inverse against the left fold of the public, guarded recompose:
    # on every phi image of n <= 9 and every partial list (the sigma1 left
    # after i steps, then the sigma2s still to fold), whose first element
    # has key mid-123 entries and so a staircase read through the offset;
    # the last partial list is the whole fold alone.  Then on seeded lists
    # near n = 1,000 and a known answer.
    for n in range(1, 10):
        for perm in start_small_avoiders(n):
            elements = phi(perm)
            for i, acc in enumerate(itertools.accumulate(elements, recompose)):
                assert phi_inverse((acc, *elements[i + 1:])) == perm, (perm, i)
    rng = random.Random(20131001)
    for _ in range(3):
        elements = [_random_element(rng)]
        while sum(map(len, elements)) - len(elements) < 1000:
            elements.append(_random_element(rng))
        assert phi_inverse(elements) == functools.reduce(recompose, elements)
    assert phi_inverse(((1, 2),) * 1999) == tuple(range(1, 2001))


def test_doctored_step_trips_the_guard_once_per_result(monkeypatch):
    # The last step of a fold writes c into a's slot too, so a value
    # repeats; the one guard on each result must refuse it, not return it.
    real = bijection_module._inverse_params
    steps = []

    def doctored(sigma1, sigma2, off=0):
        steps.append(sigma2)
        params = real(sigma1, sigma2, off)
        if sigma2 == last:
            return (*params[:7], params[8], *params[8:])
        return params

    monkeypatch.setattr(bijection_module, "_inverse_params", doctored)
    last = KEY_SIGMA2
    with pytest.raises(RuntimeError) as excinfo:
        recompose(KEY_SIGMA1, KEY_SIGMA2)
    assert str(excinfo.value).startswith(
        "recompose(8 1 9 6 4 5 2 3 7, 2 1 4 3) produced a non-permutation ("
    )
    elements = phi(DROP_INPUT) + ((2, 1, 3),)
    last = elements[-1]
    steps.clear()
    with pytest.raises(RuntimeError) as excinfo:
        phi_inverse(elements)
    assert str(excinfo.value).startswith(
        f"phi_inverse({format_perm_list(elements)}) produced a non-permutation ("
    )
    assert steps == list(elements[1:])


def test_doctored_step_anywhere_is_an_internal_error(monkeypatch):
    # A fault at any step of a fold, not only the last, is a RuntimeError
    # naming the call: an earlier one leaves a word whose next list.index
    # misses, which must not pass for the ValueError of a rejected input.
    real = bijection_module._inverse_params
    elements = phi(DROP_INPUT) + ((1, 3, 2), (2, 1, 3), (1, 2))
    assert len(elements) == 8

    def doctored(sigma1, sigma2, off=0):
        steps.append(sigma2)
        params = real(sigma1, sigma2, off)
        if len(steps) == target:
            return (*params[:7], params[8], *params[8:])
        return params

    monkeypatch.setattr(bijection_module, "_inverse_params", doctored)
    for target in range(1, len(elements)):
        steps = []
        with pytest.raises(RuntimeError) as excinfo:
            phi_inverse(elements)
        assert str(excinfo.value).startswith(
            f"phi_inverse({format_perm_list(elements)}) "
        ), target

    def failing(sigma1, sigma2, off=0):
        raise ValueError("7 is not in list")

    monkeypatch.setattr(bijection_module, "_inverse_params", failing)
    with pytest.raises(RuntimeError) as excinfo:
        recompose(KEY_SIGMA1, KEY_SIGMA2)
    assert str(excinfo.value).startswith("recompose(8 1 9 6 4 5 2 3 7, 2 1 4 3) ")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_pinned_digests():
    # Every output of phi, and every field of decompose and inverse_params,
    # over the start-small classes n = 2..8, pinned by digests recorded
    # while the cores still built a dataclass per step.
    classes = [
        p for n in range(2, 9)
        for p in enumerate_class(ClassDescriptor(n, AVOIDED_PAIR, start_small_only=True))
    ]
    splittable = [p for p in classes if mid123_entries(p)]
    assert (len(classes), len(splittable)) == (6055, 4626)
    steps = [decompose(p) for p in splittable]
    assert _sha256("".join(format_perm_list(phi(p)) + "\n" for p in classes)) == (
        "0a5206cb29d4ffec7afaeaebe1275fde28821272fc86ac6f39c891368d494f69"
    )
    assert _sha256(repr([dataclasses.astuple(step) for step in steps])) == (
        "0899910400a1f1f64f06fc69818a3527aa134ae10b868ff8e63d15a291b98703"
    )
    params = [dataclasses.astuple(inverse_params(*step.pair)) for step in steps]
    assert _sha256(repr(params)) == (
        "4f0681ee693c8991692964741467f44339d6dc723ec96cd60877f9c1a8c05bfa"
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_phi_image_counts(n):
    # phi is a bijection onto lists of start-small 123-avoiders with
    # lengths summing to n + (number of elements) - 1, checked by counting
    # the codomain with a composition-style recursion.
    element_counts = {}  # length -> number of start-small 123-avoiders

    def elements_of_length(m):
        if m not in element_counts:
            element_counts[m] = sum(
                1
                for p in enumerate_avoiders(m, [PATTERN_123])
                if is_start_small(p)
            )
        return element_counts[m]

    # lists_of_size[t] = number of lists with total (length - 1) sum == t
    lists_of_size = [1] + [0] * (n - 1)
    for t in range(1, n):
        lists_of_size[t] = sum(
            elements_of_length(s + 1) * lists_of_size[t - s] for s in range(1, t + 1)
        )
    domain_size = sum(1 for _ in start_small_avoiders(n))
    assert domain_size == lists_of_size[n - 1]


# ---------------------------------------------------------------------------
# list text format


def test_list_format_roundtrip():
    elements = ((1, 2), (1, 2), (1, 2), (1, 2))
    text = format_perm_list(elements)
    assert text == "1 2 | 1 2 | 1 2 | 1 2"
    assert parse_perm_list(text) == elements
    assert parse_perm_list("3 4 1 2") == ((3, 4, 1, 2),)
