"""The repository benchmark: closed loop, one client, fresh process per run.

    python3 perfbench/run.py --workload ratio-grid|large-cell|deep-power|all \
        --seed N --seconds T --trace 0|1

Every repetition ("rep") of a workload runs in a new Python process with
BLAS and OpenMP pinned to one thread, as one CLI invocation would.  Reps
run back to back until ``--seconds`` would be exceeded (at least
MIN_REPS of each kind).  Set-up is also sampled by import-only probes
spread over the run.

--trace 0 reports the end-to-end metrics of untraced reps.  --trace 1
alternates traced and untraced reps and reports per-layer metrics from the
traced ones, plus the tracing overhead (median traced wall_s minus median
untraced wall_s).  Outputs of every rep are checked; ``attempted`` and
``failed`` count the cells of the input and those that fail a check, once,
not once per rep.  ``correct`` is false when the checks could not
be applied to every cell or when reps of the same input disagree.

Human-readable lines go first; the last line of stdout is one JSON object.
See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the same names as workloads.WORKLOADS; this file imports nothing that needs the sources
WORKLOADS = ("ratio-grid", "large-cell", "deep-power")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
PROBES_PER_REP = 1
MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 150.0
POLL_S = 0.02


class RepFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            todo.extend(kids)
    return found


def _hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def spawn_rep(argv: list[str], workdir: Path) -> dict:
    """Run rep.py in a fresh process; returns its JSON plus set-up and child memory."""
    out = workdir / "result.json"
    log = workdir / "log.txt"
    child_hwm: dict[int, int] = {}
    started = time.monotonic()
    with open(log, "w") as log_fh:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), *argv, "--workdir", str(workdir), "--out", str(out)],
            stdout=log_fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
        )
        try:
            while True:
                try:
                    proc.wait(timeout=POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                for kid in _descendants(proc.pid):
                    hwm = _hwm_kb(kid)
                    if hwm is not None:
                        child_hwm[kid] = max(hwm, child_hwm.get(kid, 0))
                if time.monotonic() - started > REP_TIMEOUT_S:
                    raise RepFailed(f"rep exceeded {REP_TIMEOUT_S:.0f} s")
        finally:
            if proc.poll() is None:
                for kid in _descendants(proc.pid):
                    try:
                        os.kill(kid, signal.SIGKILL)
                    except OSError:
                        pass
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not out.exists():
        tail = log.read_text()[-2000:]
        raise RepFailed(f"rep {' '.join(argv)} exited with {proc.returncode}:\n{tail}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - started
    result["children_hwm_kb"] = sum(child_hwm.values())
    result["duration_s"] = time.monotonic() - started
    return result


def units(spec: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """All reps of one workload within the time budget, aggregated."""
    deadline = time.monotonic() + seconds
    count = 0

    def rep(argv):
        nonlocal count
        count += 1
        workdir = tmp / f"{workload}-{count}"
        workdir.mkdir()
        return spawn_rep(argv, workdir)

    env = rep(["--probe"])["env"]  # this first probe also warms the file cache
    setup = [rep(["--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
    kinds = ("traced", "plain") if trace else ("plain",)
    runs: dict[str, list[dict]] = {k: [] for k in kinds}
    minimum = MIN_TRACED_REPS if trace else MIN_REPS
    reps: list[dict] = []
    for kind in itertools.cycle(kinds):
        enough = min(len(rs) for rs in runs.values()) >= minimum
        if enough and time.monotonic() + max(r["duration_s"] for r in reps) > deadline:
            break
        reps.append(rep(["--workload", workload, "--seed", str(seed), "--trace", str(int(kind == "traced"))]))
        runs[kind].append(reps[-1])
        # spread the set-up samples over the run, as the host's speed drifts
        setup += [rep(["--probe"])["setup_s"] for _ in range(PROBES_PER_REP)]
    setup += [r["setup_s"] for r in reps]
    plain = runs["plain"]

    consistent = len({r["fingerprint"] for r in reps}) == 1 and len({json.dumps(r["failures"]) for r in reps}) == 1
    # Every rep runs the same input and must agree (``correct``), so the counts
    # are those of the input.  Summed over reps they would follow the rep count,
    # which the host's speed decides.
    attempted = reps[0]["attempted"]
    failed = len({tuple(f["cell"]) for f in reps[0]["failures"]})
    summary = {
        "workload": workload,
        "seed": seed,
        "env": env,
        "reps": {k: len(v) for k, v in runs.items()},
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": Counter(f["check"] for f in reps[0]["failures"]),
        "samples": {
            "setup_s": setup,
            "wall_s": [r["wall_s"] for r in plain],
            "peak_rss_mb": [(r["maxrss_kb"] + r["children_hwm_kb"]) / 1024.0 for r in plain],
        },
    }
    metrics = {name: statistics.median(summary["samples"][name]) for name in units(spec, "end_to_end")}
    if trace:
        traced = runs["traced"]
        layers = {name: statistics.median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        layers.update({k: max(r["health"][k] for r in reps) for k in reps[0]["health"]})
        layers["bounds.spectral_violations"] = sum(f["check"] == "spectral_error_within_eps" for f in reps[0]["failures"])
        layers["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - metrics["wall_s"]
        summary["samples"]["traced_wall_s"] = [r["wall_s"] for r in traced]
        metrics = layers
    summary["metrics"] = metrics
    return summary


def report(s: dict, trace: bool) -> None:
    env = s["env"]
    print(f"== {s['workload']} seed={s['seed']} trace={int(trace)} reps={s['reps']}")
    print(
        f"   env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, blas threads {env['blas_threads']}, "
        f"pins {env['thread_env']}, nproc {env['nproc']}"
    )
    for name, values in s["samples"].items():
        if values:
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            print(f"   {name:<16} median {statistics.median(values):.4f}  q1 {q[0]:.4f}  q3 {q[2]:.4f}  max {max(values):.4f}  n={len(values)}")
    share = s["failed"] / s["attempted"] if s["attempted"] else 0.0
    print(f"   fail_share       {share:.4f} ({s['failed']}/{s['attempted']} cells of the input; correct={s['correct']})")
    for check, count in sorted(s["failed_checks"].items()):
        print(f"   failed check     {check}: {count} cells")
    if trace:
        for name, value in s["metrics"].items():
            print(f"   {name:<34} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trotterwalk" / "__init__.py").is_file():
        print(f"error: no trotterwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    os.environ.update(THREAD_PINS)
    # turn SIGTERM into SystemExit, so that the finally blocks stop the reps
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        summaries = [measure(spec, w, args.seed, seconds, bool(args.trace), tmp) for w in names]
    except RepFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    wanted = units(spec, "per_layer" if args.trace else "end_to_end")
    metrics = {}
    for s in summaries:
        report(s, bool(args.trace))
        if set(s["metrics"]) != set(wanted):
            print(f"error: metrics {sorted(set(s['metrics']) ^ set(wanted))} differ from BENCHMARK.json", file=sys.stderr)
            return 1
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        metrics.update({prefix + k: {"value": s["metrics"][k], "unit": u} for k, u in wanted.items()})
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
