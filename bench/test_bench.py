"""Self-tests of the benchmark: its checks are live and its counts repeat.

Run from the repository root with::

    python3 -m unittest discover -s bench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from workloads import (WORKLOADS, ExtremalSolve, FuzzSweep,  # noqa: E402
                       OracleCertify)

WORK = bench.WORK / "selftest"


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def execute(self, workload, trace=False):
        """Run `workload` with its failure reports kept in self.stderr."""
        run = bench.Run(workload, seconds=0, trace=trace, work_root=WORK)
        self.stderr = io.StringIO()
        with contextlib.redirect_stderr(self.stderr):
            metrics = run.execute()
        return run, metrics

    def test_minimal_run_of_each_workload_passes_every_check(self):
        for cls in (ExtremalSolve, FuzzSweep, OracleCertify):
            with self.subTest(cls.name):
                run, metrics = self.execute(cls(seed=3, rounds=1))
                self.assertEqual(run.failed, 0)
                self.assertGreaterEqual(run.attempted, 9)
                self.assertEqual(list(metrics),
                                 [name for name, _ in bench.END_TO_END])
                self.assertTrue(all(v > 0 for v in metrics.values()))

    def test_planted_wrong_alpha_is_a_failed_op(self):
        workload = ExtremalSolve(seed=3, rounds=1)
        generate = workload.generate

        def planted(mb, cli_call, work):
            generate(mb, cli_call, work)
            next(workload.rounds())[0].expect["alpha"] += 1

        workload.generate = planted
        run, _ = self.execute(workload)
        self.assertEqual(run.failed, 1)
        self.assertIn("!= predicted", self.stderr.getvalue())

    def test_ops_that_raise_are_failed_and_leave_no_latency(self):
        workload = OracleCertify(seed=3, rounds=1)
        generate = workload.generate

        def planted(mb, cli_call, work):
            generate(mb, cli_call, work)
            for op in next(workload.rounds()):
                op.calls = [["matching", 12]]  # argparse raises on an int

        workload.generate = planted
        run, metrics = self.execute(workload)
        self.assertEqual(metrics, {})
        self.assertEqual(run.latencies, [])
        self.assertEqual(run.failed, 36)

    def test_failed_set_up_is_a_failed_op_without_metrics(self):
        workload = FuzzSweep(seed=3, rounds=1)

        def broken(mb, cli_call, work):
            raise RuntimeError("construct failed")

        workload.generate = broken
        run, metrics = self.execute(workload)
        self.assertEqual((metrics, run.failed, run.attempted), ({}, 1, 1))
        self.assertIn("construct failed", self.stderr.getvalue())

    def test_same_seed_gives_the_same_digests_and_a_change_fails(self):
        first, _ = self.execute(FuzzSweep(seed=5, rounds=1))
        second, _ = self.execute(FuzzSweep(seed=5, rounds=1))
        self.assertEqual(first.digests, second.digests)
        self.assertEqual(second.failed, 0)
        store, = (WORK / "digests").glob("fuzz-sweep-5-*.json")
        stored = json.loads(store.read_text())
        store.write_text(json.dumps({key: "0" * 64 for key in stored}))
        third, _ = self.execute(FuzzSweep(seed=5, rounds=1))
        self.assertEqual(third.failed, third.attempted)
        self.assertIn("output digest", self.stderr.getvalue())

    def test_traced_runs_repeat_their_call_counts(self):
        counts = []
        for _ in range(2):
            _, metrics = self.execute(FuzzSweep(seed=7), trace=True)
            self.assertEqual(list(metrics),
                             [name for name, _ in bench.PER_LAYER])
            counts.append({k: v for k, v in metrics.items()
                           if k.endswith("calls_per_op")})
        self.assertEqual(counts[0], counts[1])
        # run_fuzz reaches components through fuzz, bounds and graphs
        self.assertGreater(counts[0]["graphs.components.calls_per_op"], 200)

    def test_tracer_wraps_every_binding_site(self):
        _, metrics = self.execute(ExtremalSolve(seed=3, rounds=1), trace=True)
        # one solve from `matching` (bound in cli), one from `audit` (bounds)
        self.assertEqual(metrics["matching.maximum_matching.calls_per_op"], 2)
        self.assertEqual(metrics["graphs.components.calls_per_op"], 2)
        self.assertGreater(metrics["families.block_chain.self_ms"], 0)

    def test_pools_never_repeat_an_instance(self):
        for cls in (ExtremalSolve, OracleCertify):
            with self.subTest(cls.name):
                keys = [spec[0] if cls is ExtremalSolve else spec
                        for specs in cls(seed=9)._pool for spec in specs]
                self.assertEqual(len(keys), len(set(keys)))

    def test_fails_without_the_package(self):
        bare = WORK / "bare"
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
