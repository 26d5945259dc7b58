"""The decomposition, its inverse, and the iterated map, against the two
fixed worked examples and exhaustive round trips."""

import dataclasses
import hashlib
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
    contains_123,
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
    # Accepted inputs are validated by the one-pass avoids_pair scan alone;
    # generic contains is only the reject path's pattern namer.
    def spy(word, pattern):
        raise AssertionError(f"contains({word!r}, {pattern!r}) on a valid input")

    monkeypatch.setattr(bijection_module, "contains", spy)
    for perm in (KEY_INPUT, DROP_INPUT):
        step = decompose(perm)
        assert inverse_params(*step.pair).j == step.j
        assert recompose(*step.pair) == perm
    for n in range(1, 8):
        for perm in start_small_avoiders(n):
            assert phi_inverse(phi(perm)) == perm


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
        if is_start_small(perm) and not contains_123(perm):
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
