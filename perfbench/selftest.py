#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at tiny problem sizes.

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that a fault injected into a copy of an output is
counted as a failed op, that the compare flags follow their definitions,
and that the benchmark refuses to run without nufd's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import compare
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.DEFAULT_OUT / "selftest"


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


def tiny_workload(name: str):
    workloads = run.import_workloads()
    return workloads.build(name, workloads.generate(name, 7, "tiny", run.ROOT))


def failures_with(op, fault) -> run.Tally:
    """Run ``op`` once with ``fault`` applied to its output before the check."""
    original = op.fn

    def with_fault(*args):
        return fault(original(*args))

    faulty = type(op)(op.label, with_fault, op.args, op.check)
    tally = run.Tally()
    run.run_pass([faulty], tally, timed=True)
    return tally


class MetricsEmitted(unittest.TestCase):
    def check_run(self, workload: str, trace: int, metrics: list[dict]) -> None:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
                     "--size", "tiny", "--out", str(SCRATCH))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertIn(name, proc.stdout.split("\n", 2)[-1], "metric not printed by name")

    def test_end_to_end_metrics(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check_run(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check_run(workload, 1, SPEC["per_layer"])


class InjectedFaults(unittest.TestCase):
    def test_scaled_operator_result_fails(self) -> None:
        import nufd

        def scale(out):
            mesh, u, exact, approx, series = out
            scaled = nufd.GridFunction(approx.mesh, approx.first_index, approx.values * (1 + 1e-6))
            return mesh, u, exact, scaled, series

        for op in tiny_workload("arrays").ops:
            with self.subTest(op=op.label):
                tally = failures_with(op, scale)
                self.assertEqual((tally.attempted, tally.failed), (1, 1))
                self.assertEqual(run.percentile(tally.latencies, 0.5), sys.float_info.max)

    def test_perturbed_march_value_fails(self) -> None:
        import nufd

        def perturb(solution):
            w = solution.w.values.copy()
            k = w.size // 2
            w[k] += 1e-6 * max(abs(w).max(), 1.0)
            return nufd.IvpSolution(nufd.GridFunction(solution.w.mesh, 0, w), solution.exact, solution.sld)

        for op in tiny_workload("march").ops:
            with self.subTest(op=op.label):
                self.assertEqual(failures_with(op, perturb).failed, 1)

    def test_fault_counts_in_fail_ratio(self) -> None:
        workload = tiny_workload("march")
        op = workload.ops[0]
        faulty = type(op)(op.label, lambda *a: None, op.args, op.check)
        tally = run.Tally()
        run.run_pass([faulty, *workload.ops[1:]], tally, timed=True)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.attempted, len(workload.ops))

    def test_clean_outputs_pass(self) -> None:
        for name in ("arrays", "analysis", "march", "cli"):
            workload = tiny_workload(name)
            tally = run.Tally()
            try:
                run.run_pass(workload.ops, tally, timed=True)
            finally:
                workload.cleanup()
            with self.subTest(workload=name):
                self.assertEqual(tally.failed, 0, tally.reasons)


class CompareFlags(unittest.TestCase):
    def test_flags(self) -> None:
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(compare.flag(base, [1.01, 1.00, 1.02, 0.99, 1.00], "lower", 0.1)[0], "unchanged")
        self.assertEqual(compare.flag(base, [1.30, 1.31, 1.29, 1.30, 1.32], "lower", 0.1)[0], "worse")
        self.assertEqual(compare.flag(base, [1.30, 1.31, 1.29, 1.30, 1.32], "higher", 0.1)[0], "unchanged")
        self.assertEqual(compare.flag(base, [0.5, 1.5, 1.0, 0.6, 1.4], "lower", 0.1)[0], "unresolved")
        self.assertEqual(compare.flag(base, [0.5, 0.8, 0.6, 0.55, 0.7], "lower", 0.1)[0], "unchanged")


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_src(self) -> None:
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = bench("--workload", "arrays", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
