"""Workload inputs, the timed calls into trotterwalk, and the output checks.

Each workload is a pair of functions: ``run`` makes the timed calls and
returns their outputs, ``check`` verifies those outputs outside the timed
region and returns one record per failed check.  Inputs come from the seed
alone; seed 0 is the reference grid.

Other seeds move every epsilon by a log-uniform factor of at most
10**EPS_JITTER_DECADES (about 5%) and, on deep-power, move system sizes by
one qubit in a zero-sum pattern.  Wall time grows roughly as 2**(n/2) and
as a power of 1/epsilon, so wider draws would make the seed, not the code,
decide the measured time.
"""

from __future__ import annotations

import csv
import json
import os
import random

import numpy as np

from trotterwalk import bounds, cli, ctqw, depthsearch, trotter

WORKLOADS = ("ratio-grid", "large-cell", "deep-power")

EPS_JITTER_DECADES = 0.02

RATIO_GRID_N_RANGE = "16..32:2"
RATIO_GRID_EPSILONS = (0.1, 0.01)
RATIO_GRID_WORKERS = 2
LARGE_CELL_N = 44
LARGE_CELL_EPSILON = 0.01
DEEP_POWER_NS = (56, 60, 64, 68, 72, 76, 80)
DEEP_POWER_EPSILONS = (0.1, 0.01, 0.001)
DEEP_POWER_SAMPLES = 41
# every deep-power size but the last (N_MAX = 80) moves by one of these
DEEP_POWER_N_SHIFTS = (-1, -1, 0, 0, 1, 1)

TRACE_ENDPOINT_TOL = 1e-9
NORM_DRIFT_TOL = 1e-8


def _jitter(rng: random.Random, value: float) -> float:
    return float(f"{value * 10.0 ** rng.uniform(-EPS_JITTER_DECADES, EPS_JITTER_DECADES):.6g}")


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload, a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ratio-grid":
        eps = RATIO_GRID_EPSILONS if seed == 0 else tuple(_jitter(rng, e) for e in RATIO_GRID_EPSILONS)
        return {"n_range": RATIO_GRID_N_RANGE, "epsilons": list(eps), "workers": RATIO_GRID_WORKERS}
    if workload == "large-cell":
        eps = LARGE_CELL_EPSILON if seed == 0 else _jitter(rng, LARGE_CELL_EPSILON)
        return {"n": LARGE_CELL_N, "epsilon": eps}
    ns = list(DEEP_POWER_NS)
    if seed != 0:
        shifts = list(DEEP_POWER_N_SHIFTS)
        rng.shuffle(shifts)
        ns = [n + s for n, s in zip(ns, shifts)] + ns[len(shifts):]
    cells = [[n, eps if seed == 0 else _jitter(rng, eps)] for n in ns for eps in DEEP_POWER_EPSILONS]
    return {"cells": cells, "samples": DEEP_POWER_SAMPLES}


def cells_of(workload: str, inputs: dict) -> list[tuple[int, float]]:
    """The (n, epsilon) cells a workload attempts, in output order."""
    if workload == "ratio-grid":
        return [(n, e) for n in cli.parse_int_range(inputs["n_range"]) for e in sorted(inputs["epsilons"])]
    if workload == "large-cell":
        return [(inputs["n"], inputs["epsilon"])]
    return [(n, e) for n, e in inputs["cells"]]


# --- timed calls -----------------------------------------------------------


def run_ratio_grid(inputs: dict, workdir: str) -> dict:
    out = os.path.join(workdir, "ratio-sweep.csv")
    argv = [
        "ratio-sweep",
        "--n-range", inputs["n_range"],
        "--epsilon-list", ",".join(repr(e) for e in inputs["epsilons"]),
        "--workers", str(inputs["workers"]),
        "--out", out,
    ]
    return {"exit_code": cli.main(argv), "csv": out, "sidecar": cli.sidecar_path(out)}


def run_large_cell(inputs: dict, workdir: str) -> dict:
    record, failures = depthsearch.sweep_cell(inputs["n"], inputs["epsilon"])
    return {"record": record, "failures": failures}


def run_deep_power(inputs: dict, workdir: str) -> dict:
    cells = []
    for n, eps in inputs["cells"]:
        q = bounds.optimal_order(n, eps).q_even
        r = bounds.required_steps(n, q, eps)
        ts = ctqw.t_star(n)
        state = trotter.trotterized_state(n, q, ts, r)
        err = bounds.spectral_error(n, q, ts, r)
        trace = trotter.overlap_trace(n, q, ts, r, inputs["samples"])
        ref = depthsearch.reference_overlap(n)
        cells.append({"n": n, "epsilon": eps, "q": q, "r": r, "amp": state.amp, "spectral_error": err, "trace": trace, "reference": ref})
    return {"cells": cells}


RUNNERS = {"ratio-grid": run_ratio_grid, "large-cell": run_large_cell, "deep-power": run_deep_power}


# --- checks, run outside the timed region ------------------------------------


class Checker:
    """Collects failed checks per cell and the health of the states seen."""

    def __init__(self):
        self.failures: list[dict] = []
        self.health = {"health.overlap_dev_max": 0.0, "health.norm_drift_max": 0.0, "health.trace_endpoint_diff_max": 0.0}

    def expect(self, ok: bool, cell, check: str, detail: str = "") -> None:
        if not ok:
            self.failures.append({"cell": list(cell), "check": check, "detail": detail})

    def note(self, key: str, value: float) -> None:
        self.health[key] = max(self.health[key], float(value))

    def state_health(self, n: int, eps: float, amp: np.ndarray) -> tuple[float, float]:
        """Target overlap and norm drift of a final state, recorded as health."""
        ov = float(abs(amp[0]) ** 2)
        drift = abs(float(np.linalg.norm(amp)) - 1.0)
        self.note("health.overlap_dev_max", abs(ov - depthsearch.reference_overlap(n)) / (2.0 * eps))
        self.note("health.norm_drift_max", drift)
        return ov, drift

    def recheck_depth(self, n: int, eps: float, q: int, p: int) -> None:
        """Re-run the reported depth: its overlap must reach reference - eps."""
        stages = trotter.stage_count(q)
        ok_split = p % stages == 0
        self.expect(ok_split, (n, eps), "p_numerical_recheck", f"p={p} not a multiple of {stages} stages")
        if ok_split:
            state = trotter.trotterized_state(n, q, ctqw.t_star(n), p // stages)
            ov, _ = self.state_health(n, eps, state.amp)
            ref = depthsearch.reference_overlap(n)
            self.expect(ov >= ref - eps, (n, eps), "p_numerical_recheck", f"overlap {ov:.9f} < {ref - eps:.9f}")


def _read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_ratio_grid(inputs: dict, outputs: dict, chk: Checker) -> None:
    cells = cells_of("ratio-grid", inputs)
    for cell in cells:
        chk.expect(outputs["exit_code"] == 0, cell, "exit_code", f"exit code {outputs['exit_code']}")
    with open(outputs["sidecar"]) as fh:
        errors = json.load(fh)["errors"]
    for err in errors:
        chk.expect(False, (err["n"], err["epsilon"]), "sidecar_errors", err.get("message") or err.get("error", ""))
    rows = {(int(r["n"]), float(r["epsilon"])): r for r in _read_csv_rows(outputs["csv"])}
    for n, eps in cells:
        row = rows.get((n, eps))
        chk.expect(row is not None, (n, eps), "missing_row")
        if row is None:
            continue
        ratio = float(row["ratio"])
        chk.expect(ratio > 1.0, (n, eps), "ratio_gt_1", f"ratio {ratio}")
        prev = rows.get((n - 2, eps))
        if prev is not None:
            growth = ratio / float(prev["ratio"])
            chk.expect(growth < 2.0, (n, eps), "ratio_growth_lt_2", f"ratio(n)/ratio(n-2) = {growth}")
        chk.recheck_depth(n, eps, int(row["q_best"]), int(row["p_numerical"]))


def check_large_cell(inputs: dict, outputs: dict, chk: Checker) -> None:
    cell = (inputs["n"], inputs["epsilon"])
    for failure in outputs["failures"]:
        chk.expect(False, cell, "search_failures", failure.message)
    record = outputs["record"]
    chk.expect(record is not None, cell, "missing_row")
    if record is not None:
        chk.expect(record.ratio > 1.0, cell, "ratio_gt_1", f"ratio {record.ratio}")
        chk.recheck_depth(record.n, record.epsilon, record.q, record.p_numerical)


def check_deep_power(inputs: dict, outputs: dict, chk: Checker) -> None:
    for c in outputs["cells"]:
        n, eps = c["n"], c["epsilon"]
        ov, drift = chk.state_health(n, eps, c["amp"])
        chk.expect(abs(ov - c["reference"]) <= 2.0 * eps, (n, eps), "overlap_within_2eps", f"overlap {ov:.9f} vs reference {c['reference']:.9f}")
        chk.expect(c["spectral_error"] <= eps, (n, eps), "spectral_error_within_eps", f"spectral error {c['spectral_error']:.3e}")
        last_step, last_overlap = c["trace"][-1]
        endpoint = abs(last_overlap - ov)
        chk.note("health.trace_endpoint_diff_max", endpoint)
        chk.expect(endpoint <= TRACE_ENDPOINT_TOL, (n, eps), "trace_endpoint", f"endpoint overlap differs by {endpoint:.3e}")
        # the trace must end at the state trotterized_state computed, r steps in
        chk.expect(last_step == c["r"], (n, eps), "trace_endpoint_steps", f"trace ends at {last_step} steps, r = {c['r']}")
        chk.expect(drift <= NORM_DRIFT_TOL, (n, eps), "norm_drift", f"norm drift {drift:.3e}")


CHECKS = {"ratio-grid": check_ratio_grid, "large-cell": check_large_cell, "deep-power": check_deep_power}


def check(workload: str, inputs: dict, outputs: dict) -> Checker:
    chk = Checker()
    CHECKS[workload](inputs, outputs, chk)
    return chk


def fingerprint(workload: str, outputs: dict) -> str:
    """Exact digest of the outputs, to confirm repeated runs agree bit for bit."""
    if workload == "ratio-grid":
        with open(outputs["csv"]) as fh:
            return fh.read()
    if workload == "large-cell":
        return repr((outputs["record"], [f.message for f in outputs["failures"]]))
    return repr([(c["n"], c["epsilon"], c["q"], c["r"], c["amp"].tobytes().hex(), c["spectral_error"], c["trace"]) for c in outputs["cells"]])
