"""Self-tests of the benchmark: checks catch perturbed outputs, counts repeat,
seed 0 reproduces the reference grids, and a tree without sources is refused.

    python3 perfbench/selftest.py

Takes about a minute: the count test runs each workload twice, traced.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

os.environ.update(run.THREAD_PINS)  # before numpy loads BLAS

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from trotterwalk import depthsearch, trotter  # noqa: E402


def scratch_dir() -> Path:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=work))


class SeedTest(unittest.TestCase):
    def test_seed_zero_reproduces_the_grids(self):
        ratio = workloads.make_inputs("ratio-grid", 0)
        self.assertEqual((ratio["n_range"], ratio["epsilons"], ratio["workers"]), ("16..32:2", [0.1, 0.01], 2))
        self.assertEqual(len(workloads.cells_of("ratio-grid", ratio)), 18)
        self.assertEqual(workloads.make_inputs("large-cell", 0), {"n": 44, "epsilon": 0.01})
        deep = workloads.make_inputs("deep-power", 0)
        expected = [[n, e] for n in range(56, 81, 4) for e in (0.1, 0.01, 0.001)]
        self.assertEqual((deep["cells"], deep["samples"]), (expected, 41))

    def test_other_seeds_stay_in_range_and_repeat(self):
        for seed in range(1, 20):
            deep = workloads.make_inputs("deep-power", seed)
            self.assertEqual(deep, workloads.make_inputs("deep-power", seed))
            ns = sorted({n for n, _ in deep["cells"]})
            self.assertEqual(sum(ns), sum(workloads.DEEP_POWER_NS))
            self.assertTrue(all(abs(n - g) <= 1 for n, g in zip(ns, workloads.DEEP_POWER_NS)) and ns[-1] == 80)
            grid = [e for _ in workloads.DEEP_POWER_NS for e in workloads.DEEP_POWER_EPSILONS]
            for (_, eps), base in zip(deep["cells"], grid):
                self.assertLess(abs(np.log10(eps / base)), 0.0201)
            eps = workloads.make_inputs("large-cell", seed)["epsilon"]
            self.assertLess(abs(np.log10(eps / 0.01)), 0.0201)


class CheckTest(unittest.TestCase):
    def failed_checks(self, workload, inputs, outputs):
        return {f["check"] for f in workloads.check(workload, inputs, outputs).failures}

    def test_perturbed_overlap_or_spectral_error_fails(self):
        inputs = {"cells": [[20, 0.01]], "samples": 5}
        outputs = workloads.run_deep_power(inputs, "")
        self.assertEqual(self.failed_checks("deep-power", inputs, outputs), set())
        cell = outputs["cells"][0]
        amp = cell["amp"].copy()
        amp[0], amp[1] = amp[0] * np.sqrt(1 - 0.05 / abs(amp[0]) ** 2), np.sqrt(abs(amp[1]) ** 2 + 0.05)
        bad_overlap = {"cells": [dict(cell, amp=amp)]}
        self.assertIn("overlap_within_2eps", self.failed_checks("deep-power", inputs, bad_overlap))
        bad_spectral = {"cells": [dict(cell, spectral_error=0.02)]}
        self.assertEqual(self.failed_checks("deep-power", inputs, bad_spectral), {"spectral_error_within_eps"})

    def test_perturbed_depth_fails_the_recheck(self):
        inputs = {"n": 20, "epsilon": 0.01}
        outputs = workloads.run_large_cell(inputs, "")
        self.assertEqual(self.failed_checks("large-cell", inputs, outputs), set())
        record = outputs["record"]
        short = replace(record, p_numerical=trotter.stage_count(record.q))
        self.assertEqual(self.failed_checks("large-cell", inputs, dict(outputs, record=short)), {"p_numerical_recheck"})
        failure = depthsearch.CellFailure(n=20, epsilon=0.01, q=2, message="scan exhausted")
        self.assertIn("search_failures", self.failed_checks("large-cell", inputs, dict(outputs, failures=[failure])))


# per-process caches make these depend on which pool worker ran which cell
POOL_DEPENDENT = {"symspace.eigh_calls", "trace.spans"}


class CountTest(unittest.TestCase):
    def test_counts_repeat_across_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        counts = [m["name"] for m in spec["per_layer"] if m["unit"].startswith("count")]
        tmp = scratch_dir()
        try:
            for i, workload in enumerate(workloads.WORKLOADS):
                results = []
                for j in range(2):
                    workdir = tmp / f"{i}-{j}"
                    workdir.mkdir()
                    results.append(run.spawn_rep(["--workload", workload, "--seed", "0", "--trace", "1"], workdir))
                counted = [k for k in counts if k in results[0]["layers"] and not (workload == "ratio-grid" and k in POOL_DEPENDENT)]
                a, b = ({k: r["layers"][k] for k in counted} for r in results)
                self.assertEqual(a, b, workload)
                self.assertGreater(a["symspace.squarings"], 0)
                self.assertEqual(results[0]["fingerprint"], results[1]["fingerprint"])
                self.assertGreaterEqual(results[0]["layers"]["trace.covered_share"], 0.9)
        finally:
            shutil.rmtree(tmp)


class ContractTest(unittest.TestCase):
    def test_tree_without_sources_is_refused(self):
        tmp = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "ratio-grid", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
