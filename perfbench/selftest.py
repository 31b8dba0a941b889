"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

At a fixed seed, work counts and output digests repeat exactly between runs,
and a traced run writes the same outputs as an untraced one.  Each run makes
one pass (--seconds 0), so the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def _bench(workload: str, trace: int):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), json.loads(detail[len("detail "):])


class Determinism(unittest.TestCase):
    def test_counts_and_outputs_repeat_and_tracing_changes_no_output(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload):
                first, d1 = _bench(workload, 0)
                second, d2 = _bench(workload, 0)
                traced, d3 = _bench(workload, 1)
                for result in (first, second, traced):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                self.assertEqual(d1["counts"], d2["counts"])
                self.assertEqual(d1["counts"], d3["counts"])
                self.assertEqual(d1["digest"], d2["digest"])
                self.assertEqual(d1["digest"], d3["digest"])
                self.assertEqual(list(first["metrics"]),
                                 [m["name"] for m in spec["end_to_end"]])
                self.assertEqual(list(traced["metrics"]),
                                 [m["name"] for m in spec["per_layer"]])


class Spans(unittest.TestCase):
    def test_self_time_excludes_children_and_families_are_inclusive(self):
        sys.path.insert(0, str(HERE))
        import spans
        times = spans.layer_times([
            ["cli.self", 0.0, 10.0, -1],
            ["audits.grid", 1.0, 9.0, 0],
            ["exact.search", 2.0, 6.0, 1],
            ["exact.search", 3.0, 4.0, 2],
        ])
        self.assertEqual(times["cli.self"], 2.0)
        self.assertEqual(times["audits.grid"], 8.0)
        self.assertEqual(times["exact.search"], 4.0)


class Scaling(unittest.TestCase):
    def test_op_time_is_scaled_by_the_kernel_groups_around_it(self):
        sys.path.insert(0, str(HERE))
        import reference
        import run
        r = reference.REFERENCE_S
        done = run.Pass(results=[(1.0, 0, ""), (2.0, 0, "")], counts=None,
                        spans=None, ref=[[r], [2 * r, 2 * r], [r]])
        self.assertEqual(done.scaled(), [0.5, 1.0])
        self.assertAlmostEqual(done.speed(), 1 / 1.5)   # median of r, 2r, 2r, r


class WithoutProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = _run("--workload", "audit-battery", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
