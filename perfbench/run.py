"""Benchmark entry point for the ``avoiders`` package.

    python3 perfbench/run.py --workload {count,roundtrip,series,verify} \\
        --seed N --seconds S --trace {0,1}

Run it from a source checkout: it imports the package from ``src/`` and
reads metric names and units from ``BENCHMARK.json``.  A run is a fixed
number of rounds that take about ``--seconds`` together, each round in a
fresh worker process (see ``worker.py``) with one thread and one client, so
set-up time and peak memory belong to that workload alone and no request is
ever repeated within a process.

``--trace 0`` reports the end-to-end metrics over all rounds: throughput is
requests over the summed wall time of the timed loops, the latency
percentiles are over every request, and set-up time and peak memory are
medians over the rounds' workers.  Times are at the reference speed: each
is divided by the host's slowdown measured around it (see ``worker.py``),
so that a drift in the shared host's speed does not read as a change in
the package; the raw figures are in the details.  ``--trace 1`` alternates
untraced and traced rounds on the same inputs and reports the per-layer
metrics of the traced ones together with ``trace_overhead_ratio``, the
ratio of their raw throughputs.  Per-layer counts and times are per
request and raw.  The last stdout line
is the JSON result; the line before it holds details (tail percentile,
sample counts, raw figures, inputs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WorkerError, spawn
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall-clock budget for one invocation, children included.
BUDGET_S = 175.0
#: A run starts no new round once it has taken this many times ``--seconds``,
#: which only happens on a machine much slower than the nominal one.
STOP_FACTOR = 1.5


def run_rounds(workload: str, seed: int, plan, seconds: float, deadline: float) -> list[dict]:
    """One worker per ``(round, traced)`` in each group of ``plan``, in
    order; past the stop time, no new group starts."""
    start = time.monotonic()
    results = []
    for group in plan:
        if results and time.monotonic() - start > STOP_FACTOR * seconds:
            break
        for round_index, traced in group:
            timeout = max(1.0, deadline - time.monotonic())
            results.append(spawn(workload, seed, round_index, traced, timeout))
    return results


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and which
    percentile that is; below eleven samples the maximum stands in."""
    lat, n = sorted(latencies), len(latencies)
    if n >= 11:
        return lat[n - 11], 100.0 * (n - 10) / n
    return lat[-1], 100.0


def throughput(results: list[dict], wall: str = "reference_wall_s") -> float:
    return sum(r["attempted"] for r in results) / sum(r[wall] for r in results)


def merge_details(results: list[dict]) -> dict:
    merged: dict = {}
    for r in results:
        for key, value in r["details"].items():
            if isinstance(value, dict):
                into = merged.setdefault(key, {})
                for k, v in value.items():
                    into[k] = into.get(k, 0) + v
            else:
                merged.setdefault(key, []).append(value)
    return merged


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    rounds = max(1, round(seconds / WORKLOADS[workload].ROUND_S))
    results = run_rounds(workload, seed, [[(r, False)] for r in range(rounds)], seconds, deadline)
    raw = [x for r in results for x in r["latencies"]]
    latencies = [x / s for r in results for x, s in zip(r["latencies"], r["slowdowns"])]
    tail_s, tail_pct = tail(latencies)
    setups = [r["setup_s"] / r["first_slowdown"] for r in results]
    metrics = {
        "requests_per_s": throughput(results),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(setups),
    }
    by_kind: dict[str, list[float]] = {}
    for r in results:
        for kind, latency, s in zip(r["kinds"], r["latencies"], r["slowdowns"]):
            by_kind.setdefault(kind, []).append(latency / s)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    details = {
        "rounds": len(results), "samples": len(latencies),
        "tail_percentile": round(tail_pct, 2), "error_rate": failed / attempted,
        "slowdown_median": statistics.median(s for r in results for s in r["slowdowns"]),
        "raw": {"requests_per_s": throughput(results, "wall_s"),
                "latency_p50_s": statistics.median(raw), "latency_tail_s": tail(raw)[0],
                "setup_s": statistics.median(r["setup_s"] for r in results)},
        "setup_samples_s": setups,
        "kind_p50_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "inputs": merge_details(results),
    }
    return metrics, attempted, failed, details


#: Per-layer metrics that are not a plain statistic of one span or module.
SPECIAL = (
    "trace_overhead_ratio", "error_rate", "trace.request_wall_s", "trace.self_sum_s",
    "bijection.validation_s", "bijection.inclusive_s", "bijection.validation_share",
    "series.max_coeff_digits", "cli.output_bytes",
)


def layer_source(name: str, modules) -> tuple[str, str]:
    """The span (or module) and the statistic a per-layer metric reads."""
    head, _, stat = name.rpartition(".")
    if stat == "self_s" and head in modules:
        return head, "module_self_s"
    if stat == "s" and head.startswith("verify."):
        return "verify.check_" + head.removeprefix("verify."), "incl_s"
    return head, stat


def layer_value(name: str, trace: dict, requests: int) -> float:
    """Per-request value of a per-layer metric, derived from its name."""
    head, stat = layer_source(name, trace["module_self_s"])
    if stat == "module_self_s":
        return trace["module_self_s"][head] / requests
    span = trace["spans"].get(head)
    if span is None:  # the function no longer exists: it did no work
        return 0.0
    if stat == "yielded_per_s":
        return span["yielded"] / span["self_s"] if span["self_s"] else 0.0
    return span[stat] / requests


def merge_traces(traces: list[dict]) -> dict:
    """Sum the tracer totals of several rounds (the largest coefficient is a
    maximum, not a sum)."""
    merged = {"spans": {}, "module_self_s": {}, "module_incl_s": {}, "nested_s": {},
              "max_coeff_digits": 0, "hook_s": 0.0, "span_count": 0}
    for trace in traces:
        for name, stats in trace["spans"].items():
            into = merged["spans"].setdefault(name, dict.fromkeys(stats, 0))
            for stat, value in stats.items():
                into[stat] += value
        for key in ("module_self_s", "module_incl_s", "nested_s"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0.0) + value
        merged["max_coeff_digits"] = max(merged["max_coeff_digits"], trace["max_coeff_digits"])
        merged["hook_s"] += trace["hook_s"]
        merged["span_count"] += trace["span_count"]
    return merged


def per_layer(workload: str, seed: int, seconds: float, deadline: float, names):
    # Untraced and traced rounds alternate on the same inputs, so a slow
    # spell of the machine falls on both sides of the overhead ratio.
    pairs = max(1, round(seconds / (2 * WORKLOADS[workload].ROUND_S)))
    plan = [[(r, False), (r, True)] for r in range(pairs)]
    results = run_rounds(workload, seed, plan, seconds, deadline)
    traced = [r for r in results if "trace" in r]
    plain = [r for r in results if "trace" not in r]
    trace = merge_traces([r["trace"] for r in traced])
    requests = sum(r["attempted"] for r in traced)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    request_wall = sum(sum(r["latencies"]) for r in traced)
    validation = trace["nested_s"].get("perms.contains", 0.0)
    inclusive = trace["module_incl_s"].get("bijection", 0.0)
    special = {
        "trace_overhead_ratio": throughput(traced, "wall_s") / throughput(plain, "wall_s"),
        "error_rate": failed / attempted,
        "trace.request_wall_s": request_wall / requests,
        "trace.self_sum_s": sum(trace["module_self_s"].values()) / requests,
        "bijection.validation_s": validation / requests,
        "bijection.inclusive_s": inclusive / requests,
        "bijection.validation_share": validation / inclusive if inclusive else 0.0,
        "series.max_coeff_digits": float(trace["max_coeff_digits"]),
        "cli.output_bytes": sum(r["output_bytes"] for r in traced) / requests,
    }
    metrics = {name: special[name] if name in SPECIAL else layer_value(name, trace, requests)
               for name in names}
    details = {
        "traced_requests": requests,
        "untraced_requests_per_s": throughput(plain, "wall_s"),
        "traced_requests_per_s": throughput(traced, "wall_s"),
        "scaled_trace_overhead_ratio": throughput(traced) / throughput(plain),
        "untraced_mean_latency_s": (sum(sum(r["latencies"]) for r in plain)
                                    / sum(r["attempted"] for r in plain)),
        "hook_s": trace["hook_s"] / requests,
        "spans": trace["span_count"],
    }
    return metrics, attempted, failed, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "avoiders" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        if args.trace:
            values, attempted, failed, details = per_layer(
                args.workload, args.seed, args.seconds, deadline, units)
        else:
            values, attempted, failed, details = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    details = dict(workload=args.workload, seed=args.seed, trace=args.trace, **details)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
