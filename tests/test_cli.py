"""The command line is a thin wrapper: exact output, exit codes, JSON mode."""

import functools
import hashlib
import io
import json
import sys
import tracemalloc

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


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap"
)
@pytest.mark.parametrize("as_json", [False, True])
def test_count_prints_past_int_str_digit_cap(capsys, monkeypatch, as_json):
    # count --n N --patterns 123 passes 4,300 digits near N = 7,150.
    import avoiders.cli as cli_module

    monkeypatch.setattr(cli_module, "count_class", lambda descriptor: 10**5000)
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argv = ["count", "--n", "5", "--patterns", "123"] + (["--json"] if as_json else [])
        code, out, err = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4300  # restored after the command
    finally:
        sys.set_int_max_str_digits(old_cap)
    assert (code, err) == (0, "")
    digits = "1" + "0" * 5000
    assert out == (json.dumps({"count": digits}) if as_json else digits) + "\n"


def test_count_invalid_descriptor_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "5", "--patterns", "1243,2134", "--j", "3"
    )
    assert code == 2
    assert "j without k" in err


@pytest.mark.parametrize("extra", [(), ("--start-small",), ("--start-small", "--k", "3")])
def test_count_pair_past_walk_limit_exits_2(capsys, extra):
    # The pair walk's cost grows about as n^4; past its limit it refuses
    # up front, as a domain error, instead of running for days.
    code, out, err = run_cli(
        capsys, "count", "--n", "1000", "--patterns", "1243,2134", *extra
    )
    assert (code, out) == (2, "")
    assert err == "error: length n must be <= 100 for the pair walk, got 1000\n"


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


#: A size past sys.maxsize: Python ints take it, but no list or range length can.
HUGE = "99999999999999999999"


def _refused_huge(capsys, flag, *argv):
    # One error line naming the flag and the limit, exit 2, no traceback.
    assert run_cli(capsys, *argv) == (2, "", f"error: {flag} must be <= {sys.maxsize}\n")


def test_count_huge_n_exits_2(capsys):
    _refused_huge(capsys, "--n", "count", "--n", HUGE)


def test_series_huge_order_exits_2(capsys):
    _refused_huge(capsys, "--order", "series", "--which", "F", "--order", HUGE)


def test_verify_huge_max_n_exits_2(capsys):
    _refused_huge(capsys, "--max-n", "verify", "--max-n", HUGE)


def test_verify_huge_order_exits_2(capsys):
    _refused_huge(capsys, "--order", "verify", "--order", HUGE)


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
    # over all n! permutations, each member a chunk of its own, and count
    # sums that stream.
    import avoiders.cli as cli_module
    import avoiders.enumeration as enumeration_module

    def naive_route():
        monkeypatch.setattr(
            enumeration_module,
            "_live_avoiders",
            lambda n, patterns: (
                (perm[:-1], (perm[-1:],)) for perm in _naive_listing(n, tuple(patterns))
            ),
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
    "--n 10 --patterns 1243,2134": (
        "82f4d9305e4fec7b666ade6be573392f9cef067ab0d7932b27c3b65f0a290c29", 105632,
    ),
    "--n 11 --patterns 123": (
        "025306f2bececa47791a816d45a6bc1d965e549a178e3d37fa8b5fc1959b6e0d", 58786,
    ),
    "--n 10 --patterns 123,3412": (
        "8d6b666f9985dd0809b5cd06f073c8223c22ffb09856aa395d80636553f2ec76", 1862,
    ),
    "--n 9 --patterns 1243,2134,4321": (
        "c96e8a73fa0478037187a349e3c3d818091354d604ae260faba03e74ca50d86f", 792,
    ),
    "--n 9 --patterns 4321": (
        "bceb9e4e472095897992ca3e65e1ed185b54f2613753bc1b007b674f93db0e28", 94359,
    ),
    # recorded before `enumerate` wrote its output by chunk
    "--n 10 --patterns 1243,2134 --json": (
        "a3d09534e992fe4bf7e500700be5d9bd6118899eaa81f57c1610e79969622f77", 105632,
    ),
    "--n 8 --patterns 1243,2134 --start-small --k 1": (
        "185c1b862c8b4f33ce09926332795c0ea9711c9dd0a7bba23c04db42f5d96623", 1638,
    ),
    "--n 8 --patterns 1243,2134 --start-small --k 1 --json": (
        "ba31303448d9d2dea12ec60396d38851ebd42f8258bccd8f5e157821fe20092e", 1638,
    ),
    # the whole class is the root's block, and the root is a leaf
    "--n 4 --patterns 1243,2134": (
        "43d8a352139b372325b8dcb153b75fd38e6140b4b66f9e2ca3a39fb95d13f61c", 22,
    ),
    "--n 1": (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865", 1,
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
    # there with exit 0, having pulled at most one chunk of members per
    # write, not the 442,916 members of the whole class.
    import avoiders.cli as cli_module
    import avoiders.enumeration as enumeration_module

    class ClosedAfterTwoWrites(io.TextIOBase):
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise BrokenPipeError
            return len(text)

    yielded = 0

    def chunks_spy(descriptor):
        nonlocal yielded
        for chunk in enumeration_module._class_chunks(descriptor):
            yielded += 1
            yield chunk

    monkeypatch.setattr(cli_module, "_class_chunks", chunks_spy)
    monkeypatch.setattr(sys, "stdout", ClosedAfterTwoWrites())
    assert main(["enumerate", "--n", "11", "--patterns", "1243,2134"]) == 0
    assert 1 <= yielded <= 3


def test_enumerate_formats_only_the_head_lengths_it_prints(capsys):
    # {12} has one member, n ... 1, printed as one chunk, so one head format
    # is made, not one for every length up to n (about 3n^2/2 characters).
    # At n = 3000 the traced peak is about 36.6 MiB that way, and 49.7 MiB
    # with a format for every length (Python 3.11).
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = main(["enumerate", "--n", "3000", "--patterns", "12"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out == " ".join(map(str, range(3000, 0, -1))) + "\n"
    assert peak < 43 * 2**20


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


@pytest.mark.parametrize(
    "scan, argv, role",
    [
        ("avoids_pair", ["--forward", "1 2"], "input"),
        ("avoids_pair", ["--inverse", "1 2 | 1 2"], "element 1"),
        ("_start_small_123_avoider", ["--inverse", "1 2 | 1 2"], "element 2"),
    ],
)
def test_phi_scan_refusing_valid_input_exits_3(capsys, monkeypatch, scan, argv, role):
    import avoiders.bijection as bijection_module

    monkeypatch.setattr(bijection_module, scan, lambda perm: False)
    code, out, err = run_cli(capsys, "phi", *argv)
    assert (code, out) == (3, "")
    assert err == (
        f"internal error: the one-scan check and contains disagree on {role}: (1, 2)\n"
    )


def test_phi_inverse_fold_fault_exits_3(capsys, monkeypatch):
    # A fault at the first of seven steps is an internal error, exit 3, not
    # the "0 is not in list" that the next step's list.index raises.
    import avoiders.bijection as bijection_module

    real = bijection_module._inverse_params
    steps = []

    def doctored(sigma1, sigma2, off=0):
        steps.append(sigma2)
        params = real(sigma1, sigma2, off)
        return (*params[:7], params[8], *params[8:]) if len(steps) == 1 else params

    monkeypatch.setattr(bijection_module, "_inverse_params", doctored)
    elements = "3 6 2 1 5 4 | 1 2 | 1 2 | 4 5 3 2 1 | 3 2 1 5 4 | 1 3 2 | 2 1 3 | 1 2"
    code, out, err = run_cli(capsys, "phi", "--inverse", elements)
    assert (code, out) == (3, "")
    assert err.endswith("\n") and "\n" not in err[:-1]
    assert err.startswith(f"internal error: phi_inverse({elements}) ")


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
# before the walk_matches_series check existed; the test takes that check's
# line (or JSON entry) out before hashing and checks it on its own.
VERIFY_SHA256 = {
    ("--max-n", "5", "--order", "30"):
        "33c01187c2a5a79b142ea1e0891da1b94c7b80f18289c6fd407eb7c91c65dad6",
    ("--max-n", "5", "--order", "30", "--json"):
        "c224b1688176f30aae8bfb06f81e17237ddf75d09ce97e44da256df1e9777c26",
    (): "df1c9df1e1dafad17e9aa086e092051bd59ad24006e4ac7e6da9c409c27d78bd",
}


WALK_CHECK = {"name": "walk_matches_series", "scope": "n<=12", "passed": True, "detail": ""}


def _split_walk_check(out, as_json):
    # verify's output without the walk check, and what it said about it.
    if as_json:
        payload = json.loads(out)
        walk = [c for c in payload["checks"] if c["name"] == WALK_CHECK["name"]]
        payload["checks"] = [c for c in payload["checks"] if c not in walk]
        return json.dumps(payload, indent=2) + "\n", walk
    lines = out.splitlines(keepends=True)
    walk = [line for line in lines if line.startswith(WALK_CHECK["name"] + " ")]
    return "".join(line for line in lines if line not in walk), walk


@pytest.mark.parametrize("flags", sorted(VERIFY_SHA256))
def test_verify_golden_digest(capsys, flags):
    code, out, _ = run_cli(capsys, "verify", *flags)
    assert code == 0
    as_json = "--json" in flags
    rest, walk = _split_walk_check(out, as_json)
    assert hashlib.sha256(rest.encode()).hexdigest() == VERIFY_SHA256[flags]
    if as_json:
        assert walk == [WALK_CHECK]
    else:
        assert [line.split() for line in walk] == [["walk_matches_series", "n<=12", "pass"]]


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
