"""The verification harness itself: reporting, failure surfacing, fixture."""

import dataclasses
import importlib
import inspect
from collections import Counter

import pytest

import avoiders.enumeration as enumeration_module
import avoiders.verify as verify_module
from avoiders.cli import main
from avoiders.enumeration import ClassDescriptor
from avoiders.perms import AVOIDED_PAIR, PATTERN_123
from avoiders.series import PowerSeries, gf_full, kotesovec_series
from avoiders.verify import (
    CheckResult,
    check_closed_form_match,
    check_enumeration_matches_series,
    check_golden_examples,
    check_walk_matches_series,
    check_reference_counts,
    check_series_identities,
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
    assert check_walk_matches_series(20).passed
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
        check_walk_matches_series(6).detail
        == "n=4: pair walk gives 22, series gives 23"
    )


def test_golden_failure_names_case_and_field(monkeypatch):
    case, perm, pair, key_case, witnesses, params = verify_module.GOLDEN_EXAMPLES[1]
    doctored = (case, perm, pair, key_case, witnesses, {**params, "s": 5})
    monkeypatch.setattr(
        verify_module, "GOLDEN_EXAMPLES", (verify_module.GOLDEN_EXAMPLES[0], doctored)
    )
    assert check_golden_examples().detail == "drop-case inverse s: expected 5, got 4"


def test_broken_decomposition_fails_typing_check(monkeypatch):
    # Doctor the unchecked split core behind decompose and watch the typing
    # check name the permutation whose step broke its contract.
    import avoiders.bijection as bijection_module

    real = bijection_module._splits

    def doctored(perm):
        for sigma2, *witnesses in real(perm):
            yield (sigma2[::-1], *witnesses)

    monkeypatch.setattr(bijection_module, "_splits", doctored)
    result = verify_module.check_decomposition_typing(5)
    assert not result.passed
    assert "decompose(1 2 3)" in result.detail
    assert "sigma2 not start-small" in result.detail


def test_typing_check_judges_each_sigma1_once(monkeypatch):
    # 4,626 decompositions at n <= 8 share 1,458 distinct sigma1.  Each is
    # judged by the start-small table for its length, which holds its key
    # count, so on a passing run the generic matcher never runs; key entries
    # are read off each of the 6,055 inputs, once by its table, and off each
    # of the 428 members of the 123 tables of [2] .. [7].
    real = verify_module.key_mid123_entries
    matched, keyed = [], []

    def spy(perm):
        keyed.append(perm)
        return real(perm)

    monkeypatch.setattr(verify_module, "avoids", lambda *args: matched.append(args))
    monkeypatch.setattr(verify_module, "key_mid123_entries", spy)
    assert verify_module.check_decomposition_typing(8).passed
    assert matched == []
    assert len(keyed) == 6055 + 428


def test_run_checks_scans_each_table_member_once(monkeypatch):
    # One default run reads the key entries of each start-small class member
    # once, when its table is built, and the lemma sweep reads them off every
    # permutation of [1] .. [8]; no check scans a listed member again.  The
    # members of the 123 tables of [2] .. [7] are also pair-class members.
    pair = [verify_module._start_small(n, AVOIDED_PAIR) for n in range(1, 9)]
    only_123 = [verify_module._start_small(m, (PATTERN_123,)) for m in range(2, 8)]
    in_123 = set().union(*only_123)
    real = verify_module.key_mid123_entries
    scanned = Counter()

    def spy(perm):
        scanned[perm] += 1
        return real(perm)

    monkeypatch.setattr(verify_module, "key_mid123_entries", spy)
    assert all(r.passed for r in run_checks())
    assert in_123 <= set().union(*pair)
    assert all(scanned[perm] == 2 + (perm in in_123) for table in pair for perm in table)
    assert sum(scanned.values()) == 52716


@pytest.mark.parametrize(
    "member",
    [(5, 6, 4, 3, 2, 1), (1, 5, 4, 3, 2, 6)],  # no key entry; one
)
def test_repeated_listing_member_is_an_internal_error(monkeypatch, capsys, member):
    # A table would merge a repeated member silently: the repeat of an
    # unkeyed member would change no count, and that of a keyed one only a
    # class-product cell.  Building the table refuses either, and verify
    # exits 3 with one line.
    real = verify_module.enumerate_class

    def doctored(descriptor):  # the pair's start-small [6] lists member twice
        listing = real(descriptor)
        if (descriptor.n, descriptor.patterns) == (6, AVOIDED_PAIR):
            return [*listing, member]
        return listing

    monkeypatch.setattr(verify_module, "enumerate_class", doctored)
    shown = " ".join(map(str, member))
    with pytest.raises(RuntimeError, match=rf"^the start-small listing of \[6\] repeats {shown}$"):
        verify_module._start_small(6, AVOIDED_PAIR)
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: the start-small listing of [6] repeats {shown}\n"


def test_typing_check_sends_an_unlisted_sigma1_to_the_matcher(monkeypatch):
    # A start-small sigma1 of the right length that holds 1243 is not in its
    # length's listing, so the matcher judges it, and the check names it.
    real = verify_module.decompose

    def doctored(perm):
        step = real(perm)
        j = len(step.sigma1)
        holds_1243 = (1, 2, 4, 3, *range(5, j + 1))
        return step if j < 4 else dataclasses.replace(step, sigma1=holds_1243)

    monkeypatch.setattr(verify_module, "decompose", doctored)
    assert verify_module.check_decomposition_typing(6).detail == (
        "decompose(1 2 3 4 5) broke its contract: "
        "sigma1 not an avoider; sigma1 key count != k - 1"
    )


def test_typing_check_judges_each_sigma2_by_its_listing(monkeypatch):
    # Every sigma2 at n <= 8 is in the start-small 123 class listed for its
    # length, so a passing run never calls the generic matcher (428 calls
    # when each distinct sigma2 went to it).
    matched = []
    monkeypatch.setattr(verify_module, "contains", lambda *args: matched.append(args))
    assert verify_module.check_decomposition_typing(8).passed
    assert matched == []


def test_typing_check_sends_an_unlisted_sigma2_to_the_matcher(monkeypatch):
    # A start-small sigma2 of the right length that holds 123 is not in its
    # length's listing, so the matcher judges it, and the check names it.
    real = verify_module.decompose

    def doctored(perm):
        step = real(perm)
        m = len(step.sigma2)
        return step if m < 3 else dataclasses.replace(step, sigma2=tuple(range(1, m + 1)))

    monkeypatch.setattr(verify_module, "decompose", doctored)
    assert verify_module.check_decomposition_typing(6).detail == (
        "decompose(1 3 4 2) broke its contract: sigma2 contains 123"
    )


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
        return 0 if descriptor.patterns == (verify_module.PATTERN_123,) else real(descriptor)
    return doctored


def _swap_slices_0_and_1(real):
    # Every sum over k stays, so the walk rows cannot see it.
    def doctored(n, start_small_only=False):
        by_keys = real(n, start_small_only)
        return (by_keys[1], by_keys[0], *by_keys[2:])
    return doctored


def _guard_trips(real):
    def doctored(perm):
        raise RuntimeError("non-key case must drop at least one entry")
    return doctored


#: Doctored counting paths behind ``avoiders count`` that only the rows of
#: ``check_walk_matches_series`` see, with the detail each row gives.
WALK_DOCTORS = [
    ("enumeration._count_123_avoiders",
     lambda real: lambda n, start_small_only: real(n, start_small_only) + (n == 7),
     "n=7: 123 walk gives 430, C gives 429"),
    ("enumeration._pair_walk",
     lambda real: lambda n, start_small_only, keyed: real(n, False, keyed),
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
        ("bijection._splits", _guard_trips, "check_decomposition_typing", 5,
         "non-key case must drop at least one entry"),
        ("count_class", _no_123_classes,
         "check_class_product_identity", 5, "n=3, k=1, j=2: class size 1 != 1 * 0"),
        ("enumeration.count_pair_avoiders_by_keys", _swap_slices_0_and_1,
         "check_class_product_identity", 5, "n=3, k=1, j=2: class size 1 != 0 * 1"),
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
        ("enumerate_class", lambda real: lambda descriptor: [*real(descriptor), ()],
         "check_series_identities", 10,
         "[x^1]C^3 = 3 but [3] has 4 start-small 123-avoiders"),
        ("gf_elements", _bump_x3,
         "check_series_identities", 10, "x*C^3 != gf_elements"),
        *((binding, doctor, "check_walk_matches_series", 12, detail)
          for binding, doctor, detail in WALK_DOCTORS),
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


@pytest.mark.parametrize("binding, doctor, detail", WALK_DOCTORS)
def test_doctored_count_path_fails_verify(monkeypatch, capsys, binding, doctor, detail):
    # The CLI's counting paths are part of the battery: a doctored one makes
    # ``avoiders verify`` exit 1, whatever bounds it is given.
    _doctor(monkeypatch, binding, doctor)
    assert main(["verify", "--max-n", "3", "--order", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split(None, 3) == ["walk_matches_series", "n<=12", "FAIL", detail]
    assert lines[-1] == "overall: FAIL"


def test_key_slices_swapped_fail_verify(monkeypatch, capsys):
    # The walk's per-k counts, which ``avoiders count --k`` prints, are held
    # to the enumerated cells by the class-product check.
    _doctor(monkeypatch, "enumeration.count_pair_avoiders_by_keys", _swap_slices_0_and_1)
    assert main(["verify", "--max-n", "3", "--order", "5"]) == 1
    failed = [line.split(None, 3) for line in capsys.readouterr().out.splitlines()
              if " FAIL " in line]
    assert failed == [["class_product_identity", "n<=3", "FAIL",
                       "n=3, k=1, j=2: class size 1 != 0 * 1"]]


def test_brute_force_routes_list_not_walk(monkeypatch):
    # The enumeration-vs-F check and the C^3 oracle count by listing: both
    # enter the enumerator's loop, once per class, and reach no walk, no
    # count by gap state and no ``count_class``.  Counted through any of
    # those, verify would hold a walk to the series twice and check the
    # enumerator nowhere.
    entered, walked = [], []

    def live_spy(n, patterns, real=enumeration_module._live_avoiders):
        entered.append((n, patterns))
        yield from real(n, patterns)

    monkeypatch.setattr(enumeration_module, "_live_avoiders", live_spy)
    for module, name in [(enumeration_module, "_pair_walk"),
                         (enumeration_module, "_count_123_avoiders"),
                         (enumeration_module, "_count_by_gap_state"),
                         (verify_module, "count_class")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: walked.append(name))
    assert check_enumeration_matches_series(8).passed
    assert check_series_identities(10).passed
    assert walked == []
    expected = [(n, AVOIDED_PAIR) for n in range(1, 9)]
    expected += [(m, (PATTERN_123,)) for m in range(3, 11)]
    assert entered == expected


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
    # once; the C^3 oracle streams its own start-small 123 classes, [3] ..
    # [10], once more each.  Nothing is kept once the run is over, so an
    # earlier run cannot make a later one cheaper.
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
    classes += [ClassDescriptor(m, only_123, start_small_only=True) for m in range(3, 11)]
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
