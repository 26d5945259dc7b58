"""The four benchmark workloads: seeded inputs, requests and reference checks.

A run is a sequence of *rounds*, each in a fresh process.  A round's
requests are drawn from the seed and the round number during set-up, and no
request is repeated within a round, so nothing one request leaves cached in
the process can speed up a later copy of itself.  The mix of request kinds
and sizes is the same in every round and for every seed: seeds vary the
inputs, not how much work they are.

References live outside the code path under test: A164651 terms read from
the package's data file, Catalan numbers from ``math.comb``, golden values
recorded once in ``golden.json``, and cross-checks between independent
series routes.  The package is imported only when a workload is built,
because the import is part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PAIR = "1243,2134"
GENERIC = "1243,2134,4321"

#: ``series`` orders: one per band and round, shared by the four series so
#: that F and the closed form can be compared.  The bands are narrow because
#: the cost grows faster than the square of the order, and seeds must not
#: change it.  Four bands make sixteen request kinds, and the median falls
#: between G and kotesovec at the second band, which cost about the same,
#: rather than in the gap between two bands.
SERIES_BANDS = ((100, 104), (150, 154), (200, 204), (300, 304))
SERIES_WHICH = ("catalan", "G", "F", "kotesovec")

#: Round-trip inputs: lists of 1-6 start-small 123-avoiders of length 2-7.
ROUNDTRIP_PER_ROUND = 1000


class Failed(Exception):
    """Raised by a check that finds a wrong answer."""


@dataclass(frozen=True)
class References:
    a164651: tuple[int, ...]
    golden: dict


def load_references(root: Path) -> References:
    """A164651 terms from the package data (read only) and the golden file."""
    text = (root / "src" / "avoiders" / "data" / "a164651.txt").read_text()
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            n, value = line.split()
            terms[int(n)] = int(value)
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    return References(tuple(terms[n] for n in range(len(terms))), golden)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass
class Request:
    kind: str
    argv: list[str] | None = None
    payload: tuple = ()
    expected: object = None
    meta: dict = field(default_factory=dict)


def run_cli(main: Callable, argv: list[str]) -> tuple[int, str]:
    """Call ``avoiders.cli.main`` in-process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _expect_exit_zero(output) -> str:
    code, text = output
    if code != 0:
        raise Failed(f"exit code {code}")
    return text


class Workload:
    name = ""
    #: Nominal wall time of one round, its process start-up included, on
    #: the reference machine (2 vCPUs, Python 3.11); a run of ``--seconds``
    #: makes ``seconds / ROUND_S`` rounds.
    ROUND_S = 1.0

    def __init__(self, refs: References, seed: int, round_index: int = 0):
        self.refs = refs
        self.round_index = round_index
        self.rng = random.Random(f"{self.name}:{seed}:{round_index}")
        self.requests: list[Request] = self.make_requests()
        self.rng.shuffle(self.requests)

    def make_requests(self) -> list[Request]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def execute(self, request: Request):
        raise NotImplementedError

    def check(self, outputs: list) -> list[bool]:
        """One verdict per request; a check that raises is a wrong answer."""
        verdicts = []
        for request, output in zip(self.requests, outputs):
            try:
                self.check_one(request, output, outputs)
                verdicts.append(True)
            except Exception:  # noqa: BLE001 - every defect counts as an error
                verdicts.append(False)
        return verdicts

    def check_one(self, request, output, outputs) -> None:
        raise NotImplementedError

    def details(self) -> dict:
        return {}


class CliWorkload(Workload):
    def __init__(self, refs: References, seed: int, round_index: int = 0):
        from avoiders import cli

        self.cli = cli
        super().__init__(refs, seed, round_index)

    def execute(self, request: Request):
        # Look ``main`` up on every call so a traced run sees the wrapper.
        return run_cli(self.cli.main, request.argv)


class CountWorkload(CliWorkload):
    """Counting and enumeration through ``avoiders count``/``enumerate``."""

    name = "count"
    ROUND_S = 7.0
    KINDS = (
        ("pair", 8), ("pair", 9), ("pair", 10),
        ("k", 8), ("k", 9),
        ("123", 10), ("123", 11),
        ("generic", 7), ("generic", 8),
        ("enumerate", 7), ("enumerate", 8),
    )

    def make_requests(self):
        return [self.make(kind, n) for kind, n in self.KINDS]

    def _patterns(self, text: str) -> str:
        # The order patterns are listed in is the caller's choice; the
        # package normalizes it, so the seed may vary it freely.
        parts = text.split(",")
        self.rng.shuffle(parts)
        return ",".join(parts)

    def make(self, kind: str, n: int) -> Request:
        golden = self.refs.golden
        label = f"{kind}@{n}"
        if kind == "pair":
            argv = ["count", "--n", str(n), "--patterns", self._patterns(PAIR)]
            return Request(label, argv, expected=self.refs.a164651[n])
        if kind == "k":
            by_k = golden["start_small_k"][str(n)]
            k = self.rng.choice(sorted(by_k, key=int))
            argv = ["count", "--n", str(n), "--patterns", self._patterns(PAIR),
                    "--start-small", "--k", k]
            return Request(label, argv, expected=by_k[k])
        if kind == "123":
            argv = ["count", "--n", str(n), "--patterns", "123"]
            return Request(label, argv, expected=catalan(n))
        if kind == "generic":
            argv = ["count", "--n", str(n), "--patterns", self._patterns(GENERIC)]
            return Request(label, argv, expected=golden["generic"][GENERIC][str(n)])
        argv = ["enumerate", "--n", str(n), "--patterns", self._patterns(PAIR)]
        return Request(label, argv, expected=(self.refs.a164651[n],
                                              golden["enumerate_sha256"][str(n)]))

    def warm_up(self):
        for argv in (
            ["count", "--n", "6", "--patterns", PAIR],
            ["count", "--n", "6", "--patterns", PAIR, "--start-small", "--k", "1"],
            ["count", "--n", "7", "--patterns", "123"],
            ["count", "--n", "6", "--patterns", GENERIC],
            ["enumerate", "--n", "6", "--patterns", PAIR],
        ):
            self.execute(Request("warm-up", argv))

    def check_one(self, request, output, outputs):
        text = _expect_exit_zero(output)
        if request.argv[0] == "count":
            if text.strip() != str(request.expected):
                raise Failed(f"{request.argv}: {text.strip()} != {request.expected}")
            return
        count, digest = request.expected
        if text.count("\n") != count:
            raise Failed(f"{request.argv}: wrong number of permutations")
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            raise Failed(f"{request.argv}: output differs from the golden listing")


def _has_123(word) -> bool:
    # Deliberately naive and independent of the package: is some entry both
    # above an earlier entry and below a later one?
    return any(
        any(word[i] < word[j] for i in range(j))
        and any(word[k] > word[j] for k in range(j + 1, len(word)))
        for j in range(1, len(word) - 1)
    )


def sample_start_small_123_avoider(rng: random.Random, length: int) -> tuple[int, ...]:
    """Uniform start-small 123-avoider of the given length, by rejection."""
    while True:
        perm = list(range(1, length + 1))
        rng.shuffle(perm)
        if perm[0] != length and not _has_123(perm):
            return tuple(perm)


def roundtrip_length(elements) -> int:
    """Length of the permutation ``phi_inverse`` builds from ``elements``."""
    return sum(len(e) for e in elements) - (len(elements) - 1)


class RoundtripWorkload(Workload):
    """``phi(phi_inverse(L)) == L`` on random lists of start-small 123-avoiders."""

    name = "roundtrip"
    ROUND_S = 1.8

    def __init__(self, refs: References, seed: int, round_index: int = 0):
        from avoiders import bijection

        self.bijection = bijection
        super().__init__(refs, seed, round_index)

    def make_requests(self):
        # The shapes (how many elements, of which lengths) set the cost of a
        # round trip, so they depend on the round only and are the same for
        # every seed; the seed draws the permutations that fill them.  A
        # list drawn twice is drawn again: short lists have few values.
        shapes = random.Random(f"{self.name}-shapes:{self.round_index}")
        self.payloads: set[tuple] = set()
        while len(self.payloads) < ROUNDTRIP_PER_ROUND:
            self.payloads.add(self.draw(shapes, self.rng))
        return [Request("roundtrip", payload=p) for p in sorted(self.payloads)]

    @staticmethod
    def draw(shapes: random.Random, rng: random.Random) -> tuple:
        lengths = [shapes.randint(2, 7) for _ in range(shapes.randint(1, 6))]
        return tuple(sample_start_small_123_avoider(rng, n) for n in lengths)

    def warm_up(self):
        rng = random.Random("roundtrip-warm-up")
        warm = {self.draw(rng, rng) for _ in range(20)} - self.payloads
        for payload in warm:
            self.execute(Request("warm-up", payload=payload))

    def execute(self, request):
        perm = self.bijection.phi_inverse(request.payload)
        return perm, self.bijection.phi(perm)

    def check_one(self, request, output, outputs):
        perm, back = output
        if len(perm) != roundtrip_length(request.payload) or back != request.payload:
            raise Failed(f"round trip moved {request.payload}")

    def details(self):
        hist: dict[int, int] = {}
        for request in self.requests:
            n = roundtrip_length(request.payload)
            hist[n] = hist.get(n, 0) + 1
        return {"n_histogram": dict(sorted(hist.items()))}


def _coefficients(text: str) -> list[int]:
    coeffs = []
    for k, line in enumerate(text.splitlines()):
        index, value = line.split(": ")
        if int(index) != k:
            raise Failed(f"line {k} is labelled {index}")
        coeffs.append(int(value))
    return coeffs


class SeriesWorkload(CliWorkload):
    """``avoiders series`` for all four series at orders 100-400."""

    name = "series"
    ROUND_S = 5.5

    def make_requests(self):
        requests = []
        for lo, hi in SERIES_BANDS:
            order = self.rng.randint(lo, hi)
            for which in SERIES_WHICH:
                argv = ["series", "--which", which, "--order", str(order)]
                requests.append(Request(which, argv, meta={"order": order}))
        return requests

    def warm_up(self):
        for which in SERIES_WHICH:
            self.execute(Request(which, ["series", "--which", which, "--order", "20"]))

    def check_one(self, request, output, outputs):
        # F and kotesovec are each other's reference, G is checked against
        # F's differences, F's low terms against A164651, Catalan by comb.
        order = request.meta["order"]

        def coeffs_of(which):
            for other, out in zip(self.requests, outputs):
                if other.meta["order"] == order and other.kind == which:
                    return _coefficients(_expect_exit_zero(out))
            raise Failed(f"no {which} request at order {order}")

        mine = coeffs_of(request.kind)
        if len(mine) != order + 1:
            raise Failed("wrong number of coefficients")
        if request.kind == "catalan":
            if mine != [catalan(k) for k in range(len(mine))]:
                raise Failed("Catalan numbers differ from math.comb")
        elif request.kind == "G":
            f = coeffs_of("F")
            if mine != [1] + [f[k] - f[k - 1] for k in range(1, len(f))]:
                raise Failed("G is not the difference sequence of F")
        else:
            if coeffs_of("F") != coeffs_of("kotesovec"):
                raise Failed("F and the closed form disagree")
            known = self.refs.a164651
            if mine[: len(known)] != list(known[: len(mine)]):
                raise Failed("low-order terms differ from A164651")

    def details(self):
        return {"orders": sorted({r.meta["order"] for r in self.requests})}


class VerifyWorkload(CliWorkload):
    """The default ``avoiders verify`` battery."""

    name = "verify"
    ROUND_S = 5.2

    def make_requests(self):
        return [Request("verify", ["verify"])]

    def warm_up(self):
        self.execute(Request("verify", ["verify", "--max-n", "4", "--order", "10"]))

    def check_one(self, request, output, outputs):
        text = _expect_exit_zero(output)
        if text.splitlines()[-1] != "overall: pass":
            raise Failed("verify did not report overall: pass")


WORKLOADS = {
    w.name: w for w in (CountWorkload, RoundtripWorkload, SeriesWorkload, VerifyWorkload)
}
