"""Tests of the benchmark itself (not of etaforge).

Run from the checkout root:  python3 perfbench/selftest.py

Takes a few minutes: every workload runs in smoke mode, untraced once (in
several passes) and traced twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Context, InProcess  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


class SpecMatchesCode(unittest.TestCase):
    def test_names_and_units(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]},
                         {name: spec[:2] for name, spec in PER_LAYER.items()})

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        samples = [float(i) for i in range(100)]
        self.assertEqual(run.tail(samples), (89.0, 90.0))
        self.assertEqual(run.tail(samples[:15]), (7.0, 50.0))


class SmokeRuns(unittest.TestCase):
    def result(self, workload: str, trace: int) -> dict:
        code, lines = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", str(trace), "--smoke")
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_end_to_end_metric_appears_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)["metrics"]
                self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                                 {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
                self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_traced_counts_repeat_exactly(self):
        expected_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (self.result(workload, 1)["metrics"] for _ in range(2))
                self.assertEqual({k: v["unit"] for k, v in first.items()}, expected_units)
                counts = {k for k, unit in expected_units.items() if unit == "count"}
                self.assertEqual({k: first[k]["value"] for k in counts},
                                 {k: second[k]["value"] for k in counts})


class WrongResultsAreFailedOps(unittest.TestCase):
    def test_off_by_one_flow_oracle(self):
        import etaforge.flow as flow

        original = flow.flow_in_delta_oracle

        def off_by_one(*args, **kwargs):
            result = original(*args, **kwargs)
            return flow.FlowResult(result.net + 1, result.crossings)

        tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
        try:
            workload = InProcess(Context(ROOT, tmp, seed=5, smoke=True))
            workload.setup()
            flow.flow_in_delta_oracle = off_by_one
            try:
                results, _ = run.measure(workload, workload.fixed_ops())
            finally:
                flow.flow_in_delta_oracle = original
            failures: list[str] = []
            for op, out, err in results:
                run.record(failures, workload, op, out, err)
        finally:
            shutil.rmtree(tmp)
        # every batch holds surface points, which compare against the oracle
        batches = sum(op.kind == "batch" for op, _, _ in results)
        self.assertEqual(len(failures), batches, failures)
        self.assertGreater(batches, 0)
        self.assertTrue(all(f.startswith("batch: point: delta flow") for f in failures), failures)


class IncompleteCheckout(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "in_process", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
