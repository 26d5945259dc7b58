"""Self-test of the benchmark: a short pass of every workload, plus checks
that wrong answers and crashes are counted rather than ignored.

    python3 perfbench/selftest.py

Takes a minute or two, most of it in the short passes of ``count`` and
``verify``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_round  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


class ShortPasses(unittest.TestCase):
    def check_result(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], float)

    def test_every_workload_emits_every_metric(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                _, result = bench(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                details, result = bench(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                values = {k: m["value"] for k, m in result["metrics"].items()}
                # Self times add up to the request wall time; what is left
                # over is wrapper and harness overhead.
                wall, self_sum = values["trace.request_wall_s"], values["trace.self_sum_s"]
                overhead = max(0.0, wall - details["untraced_mean_latency_s"])
                self.assertLessEqual(self_sum, wall)
                self.assertLessEqual(wall - self_sum, overhead + 0.02 * wall)
                self.assertGreater(values["trace_overhead_ratio"], 0)

    def test_per_layer_names_resolve_to_real_spans(self) -> None:
        tracer = Tracer()
        tracer.install()
        try:
            totals = tracer.totals()
        finally:
            tracer.uninstall()
        for m in SPEC["per_layer"]:
            if m["name"] in run.SPECIAL:
                continue
            head, stat = run.layer_source(m["name"], totals["module_self_s"])
            with self.subTest(metric=m["name"]):
                if stat != "module_self_s":
                    self.assertIn(head, totals["spans"])
                    self.assertTrue(stat in totals["spans"][head] or stat == "yielded_per_s")

    def test_layer_map_covers_every_per_layer_metric(self) -> None:
        layer_map = json.loads((HERE / "layer_map.json").read_text())
        mapped = [name for layer in layer_map["layers"] for name in layer["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in SPEC["per_layer"]))


class ErrorsAreCounted(unittest.TestCase):
    def setUp(self) -> None:
        self.refs = workloads.load_references(ROOT)

    def corrupted(self) -> workloads.References:
        terms = list(self.refs.a164651)
        terms[8] += 1
        return dataclasses.replace(self.refs, a164651=tuple(terms))

    def test_corrupted_reference_counts_as_error(self) -> None:
        # A164651(8) is the reference for the pair count and the enumerate
        # listing at n = 8, and for the low terms of F and kotesovec.
        series_wrong = 2 * len(workloads.SERIES_BANDS)
        for cls, wrong in ((workloads.CountWorkload, 2), (workloads.SeriesWorkload, series_wrong)):
            with self.subTest(workload=cls.name):
                result = run_round(cls(self.corrupted(), 3))
                self.assertEqual(result["failed"], wrong)
                result = run_round(cls(self.refs, 3))
                self.assertEqual(result["failed"], 0)

    def test_crash_and_bad_exit_count_as_errors(self) -> None:
        class Broken(workloads.RoundtripWorkload):
            def make_requests(self):
                good = super().make_requests()[0].payload
                bad = ((2, 1),) + good  # (2, 1) starts with its maximum
                return [workloads.Request("roundtrip", payload=good),
                        workloads.Request("roundtrip", payload=bad)]

        result = run_round(Broken(self.refs, 1))
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))

        class BadArgs(workloads.VerifyWorkload):
            def make_requests(self):
                return [workloads.Request("verify", ["verify", "--max-n", "x"])]

        result = run_round(BadArgs(self.refs, 1))
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_every_request_is_scaled_by_the_host_speed_around_it(self) -> None:
        result = run_round(workloads.SeriesWorkload(self.refs, 2))
        latencies, slowdowns = result["latencies"], result["slowdowns"]
        self.assertEqual(len(slowdowns), result["attempted"])
        self.assertTrue(all(s > 0 for s in slowdowns))
        at_reference = sum(x / s for x, s in zip(latencies, slowdowns))
        self.assertGreaterEqual(result["reference_wall_s"], at_reference)
        self.assertLess(result["reference_wall_s"], 1.01 * at_reference)

    def test_no_request_repeats_within_a_round(self) -> None:
        for cls in (workloads.CountWorkload, workloads.RoundtripWorkload,
                    workloads.SeriesWorkload):
            with self.subTest(workload=cls.name):
                requests = cls(self.refs, 5, 2).requests
                keys = [(tuple(r.argv) if r.argv else r.payload) for r in requests]
                self.assertEqual(len(set(keys)), len(keys))

    def test_same_seed_same_inputs(self) -> None:
        for cls in (workloads.CountWorkload, workloads.SeriesWorkload):
            with self.subTest(workload=cls.name):
                a, b, c = cls(self.refs, 4, 1), cls(self.refs, 4, 1), cls(self.refs, 4, 2)
                self.assertEqual([r.argv for r in a.requests], [r.argv for r in b.requests])
                self.assertNotEqual([r.argv for r in a.requests], [r.argv for r in c.requests])


if __name__ == "__main__":
    unittest.main(verbosity=2)
