"""The verification harness itself: reporting, failure surfacing, fixture."""

import dataclasses

from avoiders.series import PowerSeries, gf_full, integer_coefficients, kotesovec_series
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
    assert integer_coefficients(gf_full(len(reference) - 1)) == reference


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
    import avoiders.verify as verify_module

    doctored = load_reference_sequence()
    doctored[5] += 1
    monkeypatch.setattr(verify_module, "load_reference_sequence", lambda: doctored)
    result = verify_module.check_reference_counts()
    assert not result.passed
    assert "n=5" in result.detail
    assert "87" in result.detail and "88" in result.detail


def test_series_mismatches_name_first_index(monkeypatch):
    # The first coefficient where two routes part is named, with both values.
    import avoiders.verify as verify_module

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
    import avoiders.verify as verify_module

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
    import avoiders.verify as verify_module

    real = bijection_module._decompose

    def doctored(perm, mids):
        step = real(perm, mids)
        return dataclasses.replace(step, sigma2=step.sigma2[::-1])

    monkeypatch.setattr(bijection_module, "_decompose", doctored)
    result = verify_module.check_decomposition_typing(5)
    assert not result.passed
    assert "decompose(1 2 3)" in result.detail
    assert "sigma2 not start-small" in result.detail
