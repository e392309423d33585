"""Self-test of the benchmark harness, on the real program.

Usage: ``python3 bench/selftest.py`` from the root of a checkout (about a
minute).  It checks that

- a traced pass puts back every function it wraps;
- on each workload the wrapped layers outside ``verify`` account for at
  least 80% of the traced check time, and the split between layers is the
  one the benchmark predicts;
- a false verdict and a changed check count make the command exit nonzero;
- without the package sources the command exits nonzero and prints no result.

It is not named ``test_*.py`` so that the repository's own test run does not
collect it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import passes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from geomcrystal import verify  # noqa: E402  (passes put src/ on the path)

SEED = run.DEFAULT_SEED


def wrapped_attributes():
    """(owner, attribute) of everything a traced pass replaces."""
    return [(verify, "_timed"), (verify, "_from_identity")] + [
        tracing.resolve(module, path) for _name, module, path, _count in tracing.TARGETS
    ]


class TracedPasses(unittest.TestCase):
    traces = {}

    @classmethod
    def setUpClass(cls):
        before = [(owner, attr, vars(owner)[attr]) for owner, attr in wrapped_attributes()]
        for workload in passes.WORKLOADS:
            record = passes.run_pass(workload, SEED, traced=True)
            cls.traces[workload] = record["trace"]
            cls.restored = all(vars(owner)[attr] is fn for owner, attr, fn in before)
            if not cls.restored:
                break

    def test_wrappers_removed_after_traced_run(self):
        self.assertTrue(self.restored)
        for owner, attr in wrapped_attributes():
            self.assertFalse(hasattr(vars(owner)[attr], "__wrapped__"), f"{owner}.{attr}")

    def test_layers_cover_check_time(self):
        for workload, trace in self.traces.items():
            with self.subTest(workload=workload):
                covered = sum(v["self_s"] for v in trace["layers_in_checks"].values())
                self.assertAlmostEqual(covered, trace["check_s"] - trace["check_self_s"], delta=1e-6)
                self.assertGreaterEqual(covered / trace["check_s"], 0.8)

    def in_checks(self, workload, prefixes):
        layers = self.traces[workload]["layers_in_checks"]
        return sum(v["self_s"] for k, v in layers.items() if k.startswith(prefixes))

    def test_predicted_split(self):
        for workload in ("ratio-braid", "pointwise"):
            layers = self.traces[workload]["layers"]
            self.assertEqual(sum(v["calls"] for k, v in layers.items() if k.startswith("slgroup.")), 0)
        braid = self.traces["ratio-braid"]
        self.assertGreaterEqual(self.in_checks("ratio-braid", ("ratfun.eq",)), 0.8 * braid["check_s"])
        point = self.traces["pointwise"]
        carried = self.in_checks("pointwise", ("ud.", "gyt.", "ratfun.subst_monomial", "ratfun.eval"))
        self.assertGreater(carried, 0.5 * point["check_s"])
        matrix = self.traces["symbolic-matrix"]
        self.assertGreater(self.in_checks("symbolic-matrix", ("slgroup.", "ratfun.")), 0.8 * matrix["check_s"])


def in_process_spawn(workload, seed, traced):
    start = passes.monotonic()
    record = passes.pass_record(workload, seed, traced)
    record["verdict_s"] = record["t_last"] - start
    return record


class Gate(unittest.TestCase):
    def run_with_oracle(self, fabricated):
        """Exit status of the pointwise command with the tableau-oracle
        suite replaced by ``fabricated`` reports."""
        real = verify.oracle_reports
        verify.oracle_reports = lambda *args: fabricated
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return run.main(["--workload", "pointwise", "--seconds", "0"], spawn=in_process_spawn)
        finally:
            verify.oracle_reports = real

    def test_false_verdict_fails_the_command(self):
        failing = [verify.VerifyReport("fabricated tableau oracle at n=4", 4, False, 0.001)]
        self.assertEqual(self.run_with_oracle(failing), 1)

    def test_changed_check_count_fails_the_command(self):
        self.assertEqual(self.run_with_oracle([]), 3)

    def test_no_sources_no_result(self):
        with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
            bare = Path(tmp)
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "pointwise", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    (HERE / "results").mkdir(exist_ok=True)
    unittest.main(verbosity=2)
