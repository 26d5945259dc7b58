"""The command line is a thin wrapper: exact output, exit codes, JSON mode."""

import functools
import hashlib
import io
import json
import sys

import pytest

from avoiders.cli import build_parser, main
from avoiders.enumeration import enumerate_class, naive_avoiders


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count


def test_count_pair(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--patterns", "1243,2134")
    assert code == 0
    assert out == "87\n"


def test_count_start_small(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "3", "--patterns", "1243,2134", "--start-small"
    )
    assert code == 0
    assert out == "4\n"


def test_count_catalan(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "6", "--patterns", "123")
    assert code == 0
    assert out == "132\n"


def test_count_with_class_filters(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "4", "--patterns", "1243,2134",
        "--start-small", "--k", "0",
    )
    assert code == 0
    assert out == "9\n"


def test_count_json(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "5", "--patterns", "1243,2134", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"count": "87"}


def test_count_invalid_descriptor_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "5", "--patterns", "1243,2134", "--j", "3"
    )
    assert code == 2
    assert "j without k" in err


@pytest.mark.parametrize("extra", [(), ("--start-small",), ("--start-small", "--k", "3")])
def test_count_pair_past_walk_limit_exits_2(capsys, extra):
    # The pair walk recurses once per position; past its limit it refuses
    # up front instead of hitting Python's recursion limit (exit 3).
    code, out, err = run_cli(
        capsys, "count", "--n", "1000", "--patterns", "1243,2134", *extra
    )
    assert (code, out) == (2, "")
    assert err == "error: length n must be <= 100 for the memoized pair walk, got 1000\n"


def test_count_invalid_pattern_exits_2(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "4", "--patterns", "1244")
    assert code == 2
    assert "pattern" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("--n", "0", "--patterns", "1243,2134"), "class length n must be >= 1"),
        (("--n", "0", "--patterns", "2134,1243", "--json"), "class length n must be >= 1"),
        (("--n", "4", "--patterns", "1244"), "pattern '1244' is not a permutation of 1..4"),
        (("--n", "4", "--patterns", "12a,2134"), "pattern '12a' is not a digit string"),
    ],
)
def test_count_error_messages(capsys, argv, message):
    assert run_cli(capsys, "count", *argv) == (2, "", f"error: {message}\n")


@functools.lru_cache(maxsize=None)
def _enumerated_count(descriptor):
    # The brute-force count: stream the class and count its members.
    return sum(1 for _ in enumerate_class(descriptor))


@pytest.mark.parametrize("n", range(1, 12))
def test_count_pair_matches_brute_force(capsys, monkeypatch, n):
    import avoiders.cli as cli_module

    real = cli_module.count_class
    for flags in ((), ("--json",)):
        monkeypatch.setattr(cli_module, "count_class", _enumerated_count)
        expected = run_cli(capsys, "count", "--n", str(n), "--patterns", "1243,2134", *flags)
        monkeypatch.setattr(cli_module, "count_class", real)
        for patterns in ("1243,2134", "2134,1243", "2134,1243,2134", "1243,,2134,"):
            argv = ("count", "--n", str(n), "--patterns", patterns, *flags)
            assert run_cli(capsys, *argv) == expected, argv


@pytest.mark.parametrize("n", range(1, 9))
def test_count_walked_classes_match_brute_force(capsys, monkeypatch, n):
    # Classes whose count walks rather than lists: the start-small pair and
    # its --k slices (every k through one past the largest, patterns in a
    # shuffled order), and 123 with and without --start-small.
    import avoiders.cli as cli_module

    real = cli_module.count_class
    argvs = [
        ("--patterns", "123"),
        ("--patterns", "123", "--start-small"),
        ("--patterns", "2134,1243,2134", "--start-small"),
        *(("--patterns", "2134,1243", "--start-small", "--k", str(k)) for k in range(n + 1)),
    ]
    for argv in argvs:
        for flags in ((), ("--json",)):
            full = ("count", "--n", str(n), *argv, *flags)
            monkeypatch.setattr(cli_module, "count_class", _enumerated_count)
            expected = run_cli(capsys, *full)
            monkeypatch.setattr(cli_module, "count_class", real)
            assert run_cli(capsys, *full) == expected, full


@functools.lru_cache(maxsize=None)
def _naive_listing(n, patterns):
    return tuple(naive_avoiders(n, patterns))


@pytest.mark.parametrize("n", range(1, 9))
def test_count_and_enumerate_match_naive_route(capsys, monkeypatch, n):
    # The streaming brute-force route: the class streams from the filter
    # over all n! permutations, and count sums that stream.
    import avoiders.cli as cli_module
    import avoiders.enumeration as enumeration_module

    def naive_route():
        monkeypatch.setattr(
            enumeration_module,
            "enumerate_avoiders",
            lambda n, patterns: iter(_naive_listing(n, tuple(patterns))),
        )
        monkeypatch.setattr(
            cli_module,
            "count_class",
            lambda descriptor: sum(1 for _ in enumerate_class(descriptor)),
        )

    for patterns in ("1243,2134,4321", "2134,1243,12", "1243,2134,3412", "123"):
        for command in ("count", "enumerate"):
            for flags in ((), ("--json",)):
                argv = (command, "--n", str(n), "--patterns", patterns, *flags)
                naive_route()
                expected = run_cli(capsys, *argv)
                monkeypatch.undo()
                assert run_cli(capsys, *argv) == expected, argv


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_streams_class(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--patterns", "123")
    assert code == 0
    assert out.splitlines() == ["1 3 2", "2 1 3", "2 3 1", "3 1 2", "3 2 1"]


def test_enumerate_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "3", "--patterns", "123", "--json"
    )
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1],
    ]


# sha256 and line count of the stdout of `enumerate ARGS`, recorded when each
# line was printed through `format_perm` or `json.dumps`.
ENUMERATE_SHA256 = {
    "--n 8 --patterns 1243,2134": (
        "25c256d53afeeaa8b7446c7630533cc477737b134b73a790d5f0ad7768bdf7d8", 6056,
    ),
    "--n 8 --patterns 1243,2134 --json": (
        "513c4d9d1cdcafc418bd94a0594826abffa6d3a6a9983cd794ace1da6eaf2a91", 6056,
    ),
    "--n 8 --patterns 1243,2134,4321": (
        "471f66debfd7e73d016268e28dafb879fae02b7d8b2d07ae769a85d354f8bf24", 538,
    ),
    "--n 7 --patterns 1342,3124 --json": (
        "79a3933d2c6754db54f124b05b03d8b15647446721f684cbfb9ef483fc6dd7bd", 1459,
    ),
}


@pytest.mark.parametrize("args", sorted(ENUMERATE_SHA256))
def test_enumerate_golden_digest(capsys, args):
    code, out, _ = run_cli(capsys, "enumerate", *args.split())
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == (
        ENUMERATE_SHA256[args]
    )


def test_enumerate_streams_into_a_broken_pipe(monkeypatch):
    # The third write fails as a closed pipe would; the command must stop
    # there with exit 0, having pulled at most one member per write, not
    # the 442,916 of the whole class.
    import avoiders.cli as cli_module

    class ClosedAfterTwoLines(io.TextIOBase):
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise BrokenPipeError
            return len(text)

    yielded = 0

    def enumerate_spy(descriptor):
        nonlocal yielded
        for perm in enumerate_class(descriptor):
            yielded += 1
            yield perm

    monkeypatch.setattr(cli_module, "enumerate_class", enumerate_spy)
    monkeypatch.setattr(sys, "stdout", ClosedAfterTwoLines())
    assert main(["enumerate", "--n", "11", "--patterns", "1243,2134"]) == 0
    assert 1 <= yielded <= 3


# ---------------------------------------------------------------------------
# phi


def test_phi_forward(capsys):
    code, out, _ = run_cli(capsys, "phi", "--forward", "1 2 3 4 5")
    assert code == 0
    assert out == "1 2 | 1 2 | 1 2 | 1 2\n"


def test_phi_inverse_singleton(capsys):
    code, out, _ = run_cli(capsys, "phi", "--inverse", "3 4 1 2")
    assert code == 0
    assert out == "3 4 1 2\n"


def test_phi_forward_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--forward", "13 16 12 3 15 8 9 10 11 7 6 5 2 1 14 4"
    )
    assert code == 0
    assert out.strip().split(" | ")[-1] == "3 2 1 5 4"


def test_phi_roundtrip_through_text(capsys):
    code, listed, _ = run_cli(capsys, "phi", "--forward", "11 2 12 9 7 8 4 5 6 1 10 3")
    assert code == 0
    code, out, _ = run_cli(capsys, "phi", "--inverse", listed.strip())
    assert code == 0
    assert out == "11 2 12 9 7 8 4 5 6 1 10 3\n"


def test_phi_json(capsys):
    code, out, _ = run_cli(capsys, "phi", "--forward", "1 2 3", "--json")
    assert code == 0
    assert json.loads(out) == {"elements": [[1, 2], [1, 2]]}


def test_phi_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "phi", "--forward", "4 1 2 3")
    assert code == 2
    assert "start-small" in err


def test_phi_internal_error_exits_3(capsys, monkeypatch):
    import avoiders.cli as cli_module

    def broken(perm):
        raise RuntimeError("decompose(1 2 3) broke its contract: sigma1 length != j")

    monkeypatch.setattr(cli_module, "phi", broken)
    code, out, err = run_cli(capsys, "phi", "--forward", "1 2 3")
    assert code == 3
    assert out == ""
    assert err == "internal error: decompose(1 2 3) broke its contract: sigma1 length != j\n"


# ---------------------------------------------------------------------------
# series


def test_series_full_sequence(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "F", "--order", "6")
    assert code == 0
    assert out.splitlines() == [
        "0: 1", "1: 1", "2: 2", "3: 6", "4: 22", "5: 87", "6: 354",
    ]


def test_series_catalan(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "catalan", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 1", "2: 2", "3: 5", "4: 14"]


def test_series_start_small(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "G", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 0", "2: 1", "3: 4"]


def test_series_closed_form_json(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--which", "kotesovec", "--order", "6", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "coefficients": ["1", "1", "2", "6", "22", "87", "354"]
    }


# sha256 of the stdout of `series --which W --order 200`, recorded from the
# Fraction-based series layer this integer one replaced.
SERIES_ORDER_200_SHA256 = {
    ("catalan", False): "7a49cc69a30e03459670102504b1d0653a350964dfed1b2300d8a8cb6f8b2e78",
    ("catalan", True): "225d8b9a2dc155ce161e7aa012a996fe8ae6ea153b41014149dfbc62decb01cd",
    ("G", False): "6ba40dad6635c6ead88bceabc300bbe0a090dd31d8ee30279a70d2a577a54332",
    ("G", True): "08cff06da8a580a4979a267a9c65606d854af3c6b5a1e5746701a8c8992a831b",
    ("F", False): "0dd67d51435ee8e37fabfbfdfc9b18dd1684635b32d5f62835a61d2aaf62aa8f",
    ("F", True): "d2eb82d657dd91446d074d5a688ebd4f35d412a274a87d1afd05e55ba99049f4",
    ("kotesovec", False): "0dd67d51435ee8e37fabfbfdfc9b18dd1684635b32d5f62835a61d2aaf62aa8f",
    ("kotesovec", True): "d2eb82d657dd91446d074d5a688ebd4f35d412a274a87d1afd05e55ba99049f4",
}


@pytest.mark.parametrize(("which", "as_json"), sorted(SERIES_ORDER_200_SHA256))
def test_series_order_200_golden_digest(capsys, which, as_json):
    argv = ["series", "--which", which, "--order", "200"] + (["--json"] if as_json else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SERIES_ORDER_200_SHA256[which, as_json]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap"
)
def test_series_prints_past_int_str_digit_cap(capsys):
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "series", "--which", "catalan", "--order", "1100")
        assert sys.get_int_max_str_digits() == 640  # restored after the command
    finally:
        sys.set_int_max_str_digits(old_cap)
    assert code == 0, err
    index, value = out.splitlines()[-1].split(": ")
    assert index == "1100"
    assert len(value) > 640


def test_series_negative_order_exits_2(capsys):
    for which in ("catalan", "G", "F", "kotesovec"):
        code, out, err = run_cli(capsys, "series", "--which", which, "--order", "-1")
        assert (code, out, err) == (2, "", "error: order must be >= 0\n"), which


# ---------------------------------------------------------------------------
# verify


def test_verify_small_battery_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5", "--order", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "overall: pass"
    assert all("pass" in line for line in lines[:-1])


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "4", "--order", "20", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "reference_counts",
        "enumeration_matches_series",
        "golden_examples",
        "closed_form_match",
    }


# sha256 of verify's stdout, recorded before the decomposition's
# postconditions moved from the bijection module into the verify battery and
# before the memo_matches_series check existed; the test takes that check's
# line (or JSON entry) out before hashing and checks it on its own.
VERIFY_SHA256 = {
    ("--max-n", "5", "--order", "30"):
        "33c01187c2a5a79b142ea1e0891da1b94c7b80f18289c6fd407eb7c91c65dad6",
    ("--max-n", "5", "--order", "30", "--json"):
        "c224b1688176f30aae8bfb06f81e17237ddf75d09ce97e44da256df1e9777c26",
    (): "df1c9df1e1dafad17e9aa086e092051bd59ad24006e4ac7e6da9c409c27d78bd",
}


MEMO_CHECK = {"name": "memo_matches_series", "scope": "n<=12", "passed": True, "detail": ""}


def _split_memo_check(out, as_json):
    # verify's output without the memo check, and what it said about it.
    if as_json:
        payload = json.loads(out)
        memo = [c for c in payload["checks"] if c["name"] == MEMO_CHECK["name"]]
        payload["checks"] = [c for c in payload["checks"] if c not in memo]
        return json.dumps(payload, indent=2) + "\n", memo
    lines = out.splitlines(keepends=True)
    memo = [line for line in lines if line.startswith(MEMO_CHECK["name"] + " ")]
    return "".join(line for line in lines if line not in memo), memo


@pytest.mark.parametrize("flags", sorted(VERIFY_SHA256))
def test_verify_golden_digest(capsys, flags):
    code, out, _ = run_cli(capsys, "verify", *flags)
    assert code == 0
    as_json = "--json" in flags
    rest, memo = _split_memo_check(out, as_json)
    assert hashlib.sha256(rest.encode()).hexdigest() == VERIFY_SHA256[flags]
    if as_json:
        assert memo == [MEMO_CHECK]
    else:
        assert [line.split() for line in memo] == [["memo_matches_series", "n<=12", "pass"]]


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("which", ["catalan", "G", "F", "kotesovec"])
def test_series_low_orders(capsys, which, order):
    code, out, err = run_cli(capsys, "series", "--which", which, "--order", str(order))
    assert (code, err) == (0, "")
    indices = [line.split(": ")[0] for line in out.splitlines()]
    assert indices == [str(n) for n in range(order + 1)]


@pytest.mark.parametrize("order", range(9))
def test_verify_low_orders(capsys, order):
    code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--order", str(order))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "overall: pass"


@pytest.mark.parametrize("flag", ["--max-n", "--order"])
def test_verify_negative_bound_exits_2(capsys, flag):
    code, out, err = run_cli(capsys, "verify", flag, "-1")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 0\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "--which", "nope", "--order", "3"])
    assert excinfo.value.code == 2


# One call of every subcommand, text then JSON, then a usage error and a
# valid call after it.
REUSED_PARSER_CALLS = [
    *(
        argv + extra
        for argv in (
            ["count", "--n", "5", "--patterns", "1243,2134", "--start-small"],
            ["enumerate", "--n", "4", "--patterns", "2134,1243"],
            ["phi", "--forward", "11 2 12 9 7 8 4 5 6 1 10 3"],
            ["phi", "--inverse", "1 2 | 2 1 3"],
            ["series", "--which", "F", "--order", "12"],
            ["verify", "--max-n", "4", "--order", "12"],
        )
        for extra in ([], ["--json"])
    ),
    ["series", "--which", "nope", "--order", "3"],
    ["count", "--n", "6", "--patterns", "1342,3124"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    return (code, *capsys.readouterr())


def test_parser_built_once_gives_what_a_fresh_parser_gives(capsys):
    reused = [_outcome(capsys, argv) for argv in REUSED_PARSER_CALLS]
    parser = build_parser()
    assert build_parser() is parser
    fresh = []
    for argv in REUSED_PARSER_CALLS:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0] * 12 + [2, 0]
