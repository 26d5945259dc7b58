"""The verification harness itself: reporting, failure surfacing, fixture."""

import dataclasses
import importlib
import inspect
from collections import Counter

import pytest

import avoiders.verify as verify_module
from avoiders.cli import main
from avoiders.enumeration import ClassDescriptor
from avoiders.series import PowerSeries, gf_full, kotesovec_series
from avoiders.verify import (
    CheckResult,
    check_closed_form_match,
    check_enumeration_matches_series,
    check_golden_examples,
    check_memo_matches_series,
    check_reference_counts,
    load_reference_sequence,
    render_report,
    run_checks,
)


def test_reference_sequence_fixture():
    reference = load_reference_sequence()
    assert reference[:7] == [1, 1, 2, 6, 22, 87, 354]
    assert len(reference) >= 12
    # the vendored continuation matches the series route
    assert list(gf_full(len(reference) - 1).coeffs) == reference


def test_individual_checks_pass():
    assert check_reference_counts().passed
    assert check_memo_matches_series(20).passed
    assert check_golden_examples().passed
    assert check_closed_form_match(50).passed


def test_run_checks_all_pass_small():
    results = run_checks(max_n=4, order=25)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_report_surfaces_failures():
    # A failing check must be named, carry its counterexample, and flip the
    # overall verdict.
    results = [
        CheckResult(name="good_check", scope="n<=4", passed=True),
        CheckResult(
            name="bad_check",
            scope="n<=4",
            passed=False,
            detail="n=3: expected 6, got 7",
        ),
    ]
    report = render_report(results)
    lines = report.splitlines()
    assert lines[-1] == "overall: FAIL"
    bad_line = next(line for line in lines if "bad_check" in line)
    assert "FAIL" in bad_line
    assert "expected 6, got 7" in bad_line
    good_line = next(line for line in lines if "good_check" in line)
    assert "pass" in good_line


def test_corrupted_coefficient_is_caught(monkeypatch):
    # Feed the comparison a doctored reference and watch it name the spot.
    doctored = load_reference_sequence()
    doctored[5] += 1
    monkeypatch.setattr(verify_module, "load_reference_sequence", lambda: doctored)
    result = verify_module.check_reference_counts()
    assert not result.passed
    assert "n=5" in result.detail
    assert "87" in result.detail and "88" in result.detail


def test_series_mismatches_name_first_index(monkeypatch):
    # The first coefficient where two routes part is named, with both values.
    def bumped(build):
        def doctored(order):
            coeffs = list(build(order).coeffs)
            coeffs[4] += 1
            return PowerSeries(tuple(coeffs))
        return doctored

    monkeypatch.setattr(verify_module, "kotesovec_series", bumped(kotesovec_series))
    assert check_closed_form_match(10).detail == "n=4: transform route 22, closed form 23"
    monkeypatch.setattr(verify_module, "gf_full", bumped(gf_full))
    assert (
        check_enumeration_matches_series(6).detail
        == "n=4: enumeration counts 22, series gives 23"
    )
    assert (
        check_memo_matches_series(6).detail
        == "n=4: memo counter gives 22, series gives 23"
    )


def test_golden_failure_names_case_and_field(monkeypatch):
    case, perm, pair, key_case, witnesses, params = verify_module.GOLDEN_EXAMPLES[1]
    doctored = (case, perm, pair, key_case, witnesses, {**params, "s": 5})
    monkeypatch.setattr(
        verify_module, "GOLDEN_EXAMPLES", (verify_module.GOLDEN_EXAMPLES[0], doctored)
    )
    assert check_golden_examples().detail == "drop-case inverse s: expected 5, got 4"


def test_broken_decomposition_fails_typing_check(monkeypatch):
    # Doctor the unchecked core behind decompose and watch the typing check
    # name the permutation whose step broke its contract.
    import avoiders.bijection as bijection_module

    real = bijection_module._decompose

    def doctored(perm, j):
        sigma1, sigma2, *witnesses = real(perm, j)
        return (sigma1, sigma2[::-1], *witnesses)

    monkeypatch.setattr(bijection_module, "_decompose", doctored)
    result = verify_module.check_decomposition_typing(5)
    assert not result.passed
    assert "decompose(1 2 3)" in result.detail
    assert "sigma2 not start-small" in result.detail


def test_typing_check_judges_each_sigma1_once(monkeypatch):
    # 4,626 decompositions at n <= 8 share 1,458 distinct sigma1; the
    # generic avoidance oracle runs once for each.
    real = verify_module.avoids
    judged = []

    def spy(word, patterns):
        judged.append(word)
        return real(word, patterns)

    monkeypatch.setattr(verify_module, "avoids", spy)
    assert verify_module.check_decomposition_typing(8).passed
    assert len(judged) == len(set(judged)) == 1458


def _bump_x3(build):
    def doctored(order):
        coeffs = list(build(order).coeffs)
        coeffs[3] += 1
        return PowerSeries(tuple(coeffs))
    return doctored


def _sigma2_is_sigma1(real):
    def doctored(perm):
        step = real(perm)
        return dataclasses.replace(step, sigma2=step.sigma1)
    return doctored


def _no_123_classes(real):
    def doctored(descriptor):
        return () if descriptor.patterns == (verify_module.PATTERN_123,) else real(descriptor)
    return doctored


def _guard_trips(real):
    def doctored(perm, j):
        raise RuntimeError("non-key case must drop at least one entry")
    return doctored


#: Doctored counting paths behind ``avoiders count`` that only the rows of
#: ``check_memo_matches_series`` see, with the detail each row gives.
MEMO_DOCTORS = [
    ("enumeration._count_123_avoiders",
     lambda real: lambda n, start_small_only: real(n, start_small_only) + (n == 7),
     "n=7: 123 walk gives 430, C gives 429"),
    ("enumeration.count_pair_avoiders_by_keys",
     lambda real: lambda n, start_small_only=False: real(n),
     "n=1: start-small walk gives 1, G gives 0"),
    ("count_class",  # routing that forgets the start-small flag
     lambda real: lambda d: real(dataclasses.replace(d, start_small_only=False)),
     "n=1: start-small walk gives 1, G gives 0"),
    ("count_class",  # routing that sends every class to the pair walk
     lambda real: lambda d: real(dataclasses.replace(d, patterns=verify_module.AVOIDED_PAIR)),
     "n=3: 123 walk gives 6, C gives 5"),
]


def _doctor(monkeypatch, binding, doctor):
    # ``binding`` names a binding in verify, or module.name elsewhere in the package.
    owner, _, name = binding.rpartition(".")
    module = importlib.import_module(f"avoiders.{owner or 'verify'}")
    monkeypatch.setattr(module, name, doctor(getattr(module, name)))


@pytest.mark.parametrize(
    "binding, doctor, check, bound, detail",
    [
        ("key_mid123_entries", lambda real: lambda perm: [],
         "check_no_key_implies_123_avoiding", 4, "counterexample 1 2 3"),
        ("mid123_entries", lambda real: lambda perm: [len(perm)],
         "check_unique_entry_above_last_mid123", 4,
         "1: 0 entries above the last mid-123 entry 1"),
        ("phi_inverse", lambda real: lambda elements: elements[0][::-1],
         "check_phi_roundtrip", 4, "round trip moved 1 2"),
        ("decompose", _sigma2_is_sigma1,
         "check_pair_roundtrip", 5, "(1 2, 1 3 2) -> 1 3 4 2 -> (1 2, 1 2)"),
        ("bijection._decompose", _guard_trips, "check_decomposition_typing", 5,
         "non-key case must drop at least one entry"),
        ("enumerate_class", _no_123_classes,
         "check_class_product_identity", 5, "n=3, k=1, j=2: class size 1 != 1 * 0"),
        ("decompose", _sigma2_is_sigma1, "check_golden_examples", None,
         "key-case split gave ((8, 1, 9, 6, 4, 5, 2, 3, 7), (8, 1, 9, 6, 4, 5, 2, 3, 7))"),
        ("decompose", lambda real: lambda perm: dataclasses.replace(real(perm), j=0),
         "check_golden_examples", None, "key-case j: expected 9, got 0"),
        ("recompose", lambda real: lambda sigma1, sigma2: real(sigma1, sigma2)[::-1],
         "check_golden_examples", None, "key-case recompose missed the input"),
        ("catalan_series", _bump_x3,
         "check_series_identities", 10, "C != 1 + x*C^2"),
        ("sqrt_one_minus_4x", _bump_x3,
         "check_series_identities", 10, "sqrt(1-4x)^2 != 1-4x"),
        ("invert_transform", _bump_x3,
         "check_series_identities", 10, "(1+B)(1-A) != 1"),
        ("gf_start_small", _bump_x3,
         "check_series_identities", 10, "(1-x)F != G"),
        ("count_start_small_123_avoiders", lambda real: lambda n: real(n) + 1,
         "check_series_identities", 10,
         "[x^1]C^3 = 3 but [n+2] has 4 start-small 123-avoiders"),
        ("gf_elements", _bump_x3,
         "check_series_identities", 10, "x*C^3 != gf_elements"),
        *((binding, doctor, "check_memo_matches_series", 12, detail)
          for binding, doctor, detail in MEMO_DOCTORS),
    ],
)
def test_doctored_binding_gives_exact_detail(monkeypatch, binding, doctor, check, bound, detail):
    # One doctored dependency per check: the check fails with exactly the
    # first counterexample its sweep meets.
    _doctor(monkeypatch, binding, doctor)
    check = getattr(verify_module, check)
    result = check() if bound is None else check(bound)
    assert not result.passed
    assert result.detail == detail


@pytest.mark.parametrize("binding, doctor, detail", MEMO_DOCTORS)
def test_doctored_count_path_fails_verify(monkeypatch, capsys, binding, doctor, detail):
    # The CLI's counting paths are part of the battery: a doctored one makes
    # ``avoiders verify`` exit 1, whatever bounds it is given.
    _doctor(monkeypatch, binding, doctor)
    assert main(["verify", "--max-n", "3", "--order", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split(None, 3) == ["memo_matches_series", "n<=12", "FAIL", detail]
    assert lines[-1] == "overall: FAIL"


def test_every_result_name_is_a_check_function():
    # ``run_checks`` result ``name`` is the suffix of the function that made
    # it; per-check timings are keyed on that mapping.
    for result in run_checks(max_n=3, order=5):
        check = getattr(verify_module, f"check_{result.name}")
        required = [
            p for p in inspect.signature(check).parameters.values()
            if p.default is p.empty
        ]
        assert check(*[3] * len(required)).name == result.name


#: The public checks, each of which ``run_checks`` should call once.
CHECKS = sorted(
    name for name, fn in vars(verify_module).items()
    if name.startswith("check_") and inspect.isfunction(fn)
)


def _record_checks(monkeypatch):
    # Replace every check with a recorder of its bounds, so that a run
    # reports what it would sweep without sweeping it.
    calls = []
    for name in CHECKS:
        def recorder(*bounds, name=name):
            calls.append((name, bounds))
            return CheckResult(name=name[len("check_"):], scope="", passed=True)
        monkeypatch.setattr(verify_module, name, recorder)
    return calls


def test_run_checks_calls_every_check_once(monkeypatch):
    # The reverse of ``test_every_result_name_is_a_check_function``: a check
    # left out of the battery fails here.
    calls = _record_checks(monkeypatch)
    run_checks()
    assert len(CHECKS) == 12
    assert sorted(name for name, _ in calls) == CHECKS


@pytest.mark.parametrize(
    "max_n, deep, oracle_n", [(8, False, 8), (8, True, 11), (12, False, 12), (12, True, 12)]
)
def test_deep_never_lowers_the_enumeration_bound(monkeypatch, max_n, deep, oracle_n):
    calls = _record_checks(monkeypatch)
    run_checks(max_n=max_n, deep=deep)
    bounds = dict(calls)
    assert bounds["check_enumeration_matches_series"] == (oracle_n,)
    assert bounds["check_phi_roundtrip"] == (max(max_n, 10) if deep else max_n,)


def test_run_checks_builds_each_class_and_series_once(monkeypatch):
    # One default run enumerates each start-small class, the class-product
    # check's 123 classes among them, and builds each transform-route series
    # once; nothing is kept once the run is over, so an earlier run cannot
    # make a later one cheaper.
    built = []
    for name in ("enumerate_class", "gf_full", "gf_start_small"):
        def spy(arg, name=name, real=getattr(verify_module, name)):
            built.append((name, arg))
            return real(arg)
        monkeypatch.setattr(verify_module, name, spy)
    assert all(r.passed for r in run_checks())
    pair, only_123 = verify_module.AVOIDED_PAIR, (verify_module.PATTERN_123,)
    classes = [ClassDescriptor(n, pair, start_small_only=True) for n in range(1, 9)]
    classes += [ClassDescriptor(m, only_123, start_small_only=True) for m in range(2, 8)]
    expected = [("enumerate_class", d) for d in classes]
    expected += [("gf_full", 8), ("gf_full", 12), ("gf_full", 100)]
    expected += [("gf_start_small", 12), ("gf_start_small", 100)]
    assert Counter(built) == Counter(expected)
    assert verify_module._store is None

    def broken(order):
        raise RuntimeError("doctored")

    monkeypatch.setattr(verify_module, "check_series_identities", broken)
    with pytest.raises(RuntimeError):
        run_checks(max_n=3, order=5)
    assert verify_module._store is None
