"""One round of one workload in one fresh process.

Usage (through ``spawn``): ``python3 perfbench/worker.py '<json config>'``
with keys ``workload``, ``seed``, ``round``, ``trace`` and ``t0``, the
parent's ``CLOCK_MONOTONIC`` reading just before it started this process.
The worker imports the package, draws the round's requests, warms up, then
sends every request once, timing each, and prints one JSON object as its
last stdout line.

A round is a closed loop with a single client: each request is sent only
after the previous one returned.  Its requests are all drawn for this round
and none is sent twice, and the next round runs in a new process, so no
request is timed against a cache its own earlier copy filled.  Answers are
checked after the round, outside the timed span.

A shared host's speed drifts, on a 2-vCPU cloud VM by up to a factor of
two within a minute, which no length of run averages away.  So the loop
also measures the host's speed: it times a fixed reference loop, which
touches no package code, before and after the round and, from a timer
signal, every ``CALIBRATE_EVERY_S`` during it.  A request's *slowdown* is
the median of the readings taken during it and within ``WINDOW_S`` of it,
relative to ``REFERENCE_S``; dividing a time by it gives the time at
the reference speed.  Both the raw times and the slowdowns are returned.
"""

from __future__ import annotations

import bisect
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Time of one pass of ``reference_loop`` at the reference speed: about
#: the fastest passes seen on a 2-vCPU x86-64 VM with Python 3.11.7.
REFERENCE_S = 0.0018
#: Wall time between two readings of the host's speed.
CALIBRATE_EVERY_S = 0.1
#: A request's slowdown is taken from the readings up to this long before
#: and after it: the host's speed holds for about that long, and a single
#: reading is too noisy to scale a request by.
WINDOW_S = 0.5
_REFERENCE_DATA = list(range(512))
_BIG_A, _BIG_B = 3 ** 400, 7 ** 380


class WorkerError(Exception):
    """A worker process failed; its stderr is in the message."""


def spawn(workload: str, seed: int, round_index: int, trace: bool, timeout: float) -> dict:
    """Run one worker process to the end and return its result."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cfg = {"workload": workload, "seed": seed, "round": round_index, "trace": trace, "t0": t0}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{workload} round {round_index} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (b, a) if a > b else (a, b)


def reference_loop() -> int:
    """Fixed pure-Python work that calls no package code: small-integer
    arithmetic, calls, tuples and a dict, as the permutation code does, and
    big-integer products, as the series code does.  Only the host's speed
    changes its time."""
    data = _REFERENCE_DATA
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(8000):
        pair = _ordered(data[i & 511], i & 255)
        total += pair[0] * pair[1] % 7
        table[i & 63] = pair
    for i in range(300):
        total += (_BIG_A * _BIG_B + i) % 1_000_003
    return total


class HostSpeed:
    """Readings of the host's slowdown, one pass of ``reference_loop`` each.

    Inside ``with``, a timer signal takes a reading every
    ``CALIBRATE_EVERY_S``, so a long request is sampled throughout rather
    than only at its ends.  Time spent taking readings is removed from the
    request times (``paused``) and from the traced spans.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.values.append((t1 - t0) / REFERENCE_S)
        if self.tracer is not None:
            self.tracer.discount(t1 - t0)

    def __enter__(self) -> HostSpeed:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused(self, t0: float, t1: float) -> float:
        """Time spent taking readings between ``t0`` and ``t1``."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(min(e, t1) - max(s, t0)
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def around(self, t0: float, t1: float) -> float:
        """Median of the readings taken within ``WINDOW_S`` of the interval
        from ``t0`` to ``t1``, and at least the nearest one on each side."""
        lo = min(bisect.bisect_left(self.ends, t0 - WINDOW_S),
                 bisect.bisect_right(self.ends, t0) - 1)
        hi = max(bisect.bisect_right(self.starts, t1 + WINDOW_S),
                 bisect.bisect_left(self.starts, t1) + 1)
        return statistics.median(self.values[max(0, lo):hi])


def run_round(workload, tracer=None) -> dict:
    """Send each of the workload's requests once, then check the answers.

    ``wall_s`` is the wall time of the timed loop, from the first request
    sent to the last answer returned, less the pauses to read the host's
    speed; ``reference_wall_s`` is the same at the reference speed.
    """
    spans: list[tuple[float, float]] = []
    outputs = []
    clock = time.perf_counter
    host = HostSpeed(tracer)
    for _ in range(3):
        host.sample()
    with host:
        start = clock()
        for request in workload.requests:
            if tracer is not None:
                tracer.request += 1
            t0 = clock()
            try:
                output = workload.execute(request)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed request
                output = exc
            spans.append((t0, clock()))
            outputs.append(output)
        end = clock()
    for _ in range(3):
        host.sample()
    latencies = [t1 - t0 - host.paused(t0, t1) for t0, t1 in spans]
    slowdowns = [host.around(t0, t1) for t0, t1 in spans]
    wall = end - start - host.paused(start, end)
    at_reference = sum(x / s for x, s in zip(latencies, slowdowns))
    output_bytes = sum(len(out[-1].encode()) for out in outputs
                       if isinstance(out, tuple) and isinstance(out[-1], str))
    return {"latencies": latencies, "slowdowns": slowdowns,
            "kinds": [r.kind for r in workload.requests],
            "wall_s": wall, "reference_wall_s": wall * at_reference / sum(latencies),
            "first_slowdown": statistics.median(host.values[:3]),
            "attempted": len(latencies),
            "failed": workload.check(outputs).count(False), "output_bytes": output_bytes}


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, load_references

    workload = WORKLOADS[cfg["workload"]](load_references(ROOT), cfg["seed"], cfg["round"])
    workload.warm_up()
    reference_loop()  # the first passes run cold
    # Set-up objects (modules, the round's inputs) leave the collector's
    # view, so a full collection in the timed loop scans only what the
    # requests allocated rather than a heap the harness built up.
    gc.collect()
    gc.freeze()
    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - cfg["t0"]
    result = run_round(workload, tracer)
    result.update(setup_s=setup_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  details=workload.details())
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.totals()
        tracer.write(HERE / "out" / (f"trace-{cfg['workload']}-seed{cfg['seed']}"
                                     f"-round{cfg['round']}.jsonl.gz"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
