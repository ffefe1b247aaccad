"""Batch experiment front-end.

Each subcommand runs one experiment family and writes a CSV (one
``#``-prefixed metadata line, then a header row, floats at 17 significant
digits) plus a JSON sidecar holding the settings the experiment reads, the
library version, and wall-clock duration.  CSV bytes are deterministic for
a given configuration; timestamps live only in the sidecar.

Exit codes: 0 success, 2 usage/validation error, 3 partial failure (some
cells failed; completed rows are still written and the sidecar lists the
failures as machine-readable records).  An argument ``@run.args`` stands
for the whitespace-separated arguments in ``run.args``.

Each ``ExperimentConfig`` field is one argparse argument, and an unset one
keeps the field's default.  ``--n`` and ``--n-range`` are two spellings of
the sizes, ``--epsilon`` and ``--epsilon-list`` two of the budgets; a
setting given twice, in either spelling, keeps its later value.  argparse
refuses an unknown subcommand, a value its flag's type cannot read, and an
``--order`` or ``--spacing`` outside its choices; ``validate`` checks the
rest and reports every violation at once.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from math import asin, ceil, pi

from . import __version__, bounds, ctqw, depthsearch, trotter

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARTIAL = 3

ENV_OUTDIR = "TROTTERWALK_OUTDIR"

N_MIN, N_MAX = 1, 80

# the largest --order, and --orders entry: over n <= N_MAX, the ln of
# bound-check's error bound at r = 4 peaks at 669.2 for q = 16 and at 778.0 for
# q = 18, past ln(float max) = 709.8; a q-step costs 2^(q/2 - 1) order-2 blocks
Q_MAX = 16

# bound-check measures the Trotter error at r = 2^j for each of these j
BOUND_CHECK_R_EXPONENTS = range(2, 15)

# grover-curve (--k-max) holds one row per iteration and overlap-trace
# (--samples) one trace point per sample; grover-curve's default count,
# ceil(pi / (4 asin 2^(-n/2))), stays under this cap up to n = 40
MAX_ROWS = 10**6


@dataclass
class ExperimentConfig:
    experiment: str
    ns: list[int] = field(default_factory=list)
    epsilons: list[float] = field(default_factory=list)
    order: str = "auto"
    orders: list[int] = field(default_factory=lambda: list(depthsearch.SWEEP_ORDERS))
    samples: int = 41
    spacing: str = "linear"
    k_max: int | None = None
    out: str = ""
    workers: int = 0


class RangeError(argparse.ArgumentTypeError, ValueError):
    """A refused range, still a ValueError; argparse shows its text, which it drops for a plain ValueError."""


def parse_int_range(text: str) -> list[int]:
    """Parse '12' or '16..32' or '16..32:2' into a list of at most N_MAX - N_MIN + 1 integers."""
    text = text.strip()
    if ".." not in text:
        return [int(text)]
    lo, rest = text.split("..", 1)
    step = 1
    if ":" in rest:
        hi, step_s = rest.split(":", 1)
        step = int(step_s)
    else:
        hi = rest
    if step < 1:
        raise RangeError(f"range step must be >= 1, got {step}")
    sizes = range(int(lo), int(hi) + 1, step)
    if len(sizes) > N_MAX - N_MIN + 1:  # refused before the list is built
        raise RangeError(f"range holds {len(sizes)} sizes, more than the {N_MAX - N_MIN + 1} in [{N_MIN}, {N_MAX}]")
    if not sizes:
        raise RangeError(f"range {text} holds no sizes")
    return list(sizes)


def parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: str, experiment: str, header: list[str], rows) -> int:
    """Write the CSV beside ``path`` and move it onto ``path`` after the last row.

    Rows may be formed as they are written; if forming one raises, ``path``
    keeps what it held and the partial file is removed.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    partial = f"{path}.{os.getpid()}.partial"
    count = 0
    try:
        with open(partial, "w", newline="") as fh:
            fh.write(f"# trotterwalk={__version__} experiment={experiment}\n")
            fh.write(",".join(header) + "\n")
            for count, row in enumerate(rows, 1):
                fh.write(",".join(format_value(v) for v in row) + "\n")
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):  # only after a failure: a moved file is gone
            os.remove(partial)
    return count


def sidecar_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    if ext.lower() == ".json":
        return out + ".meta.json"
    return stem + ".json"


def write_sidecar(out: str, payload: dict) -> None:
    with open(sidecar_path(out), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def validate(config: ExperimentConfig) -> list[str]:
    """Normalize the config in place and return every violation found.

    A bad subcommand, ``--order`` or ``--spacing`` never gets here from the
    command line: argparse refuses it.  In a config built in Python, an order
    outside ``--order``'s choices is refused here, from the same tuple; an
    unknown subcommand raises KeyError here, and the library refuses a bad
    spacing when the run reaches it.
    """
    errors: list[str] = []
    settings = EXPERIMENTS[config.experiment].settings
    choices = FLAGS["order"][1]["choices"]
    if config.order not in choices:
        errors.append(f"--order must be one of {', '.join(choices)}, got {config.order!r}")
    if not config.ns:
        errors.append("no system size given (use --n or --n-range)")
    outside = [n for n in config.ns if not N_MIN <= n <= N_MAX]
    if outside:
        errors.append(f"{len(outside)} system size(s) outside supported range [{N_MIN}, {N_MAX}]: smallest n={min(outside)}, largest n={max(outside)}")
    if "epsilons" in settings and not config.epsilons:
        errors.append("no error budget given (use --epsilon or --epsilon-list)")
    for eps in config.epsilons:
        if not 0.0 < eps < 1.0:
            errors.append(f"epsilon={eps} outside (0, 1)")
    if not config.orders:
        errors.append("no admissible order given (--orders is empty)")
    if len(set(config.orders)) != len(config.orders):
        errors.append(f"admissible orders must not repeat, got {config.orders}")
    for q in config.orders:
        if not 2 <= q <= Q_MAX or q % 2:
            errors.append(f"--orders must list even integers in [2, {Q_MAX}], got {q}")
    if config.samples < 2:
        errors.append(f"--samples must be >= 2, got {config.samples}")
    if config.samples > MAX_ROWS:
        errors.append(f"overlap-trace would write {config.samples} rows, above the cap of {MAX_ROWS}; set a smaller --samples")
    if "k_max" in settings and config.k_max is None and len(config.ns) == 1 and N_MIN <= config.ns[0] <= N_MAX:
        config.k_max = ceil(pi / (4.0 * asin(2.0 ** (-0.5 * config.ns[0]))))
    if config.k_max is not None and config.k_max < 1:
        errors.append(f"--k-max must be >= 1, got {config.k_max}")
    if config.k_max is not None and config.k_max > MAX_ROWS:
        errors.append(f"grover-curve would write {config.k_max} rows, above the cap of {MAX_ROWS}; set a smaller --k-max")
    if config.workers < 0:
        errors.append(f"--workers must be >= 0 (0 = one per CPU), got {config.workers}")
    # the CPUs this process may run on, which taskset or a cpuset can make fewer
    # than os.cpu_count(); 0 means one worker per CPU, and no count exceeds them.
    # Only Linux forks children: Windows has no os.fork, and macOS's system
    # libraries are not fork-safe
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if sys.platform != "linux":
        cpus = 1
    config.workers = min(config.workers or cpus, cpus)
    if config.experiment in ("overlap-trace", "grover-curve") and len(config.ns) != 1:
        errors.append(f"{config.experiment} needs exactly one system size")
    if config.experiment == "overlap-trace" and len(config.epsilons) > 1:
        errors.append("overlap-trace needs exactly one error budget")
    if not config.out:
        outdir = os.environ.get(ENV_OUTDIR, ".")
        config.out = os.path.join(outdir, f"{config.experiment}.csv")
    for path in (config.out, sidecar_path(config.out)):
        if os.path.isdir(path):
            errors.append(f"output path {path} is a directory")
    # write_csv makes the output's missing directories, under an existing one
    parent = os.path.dirname(os.path.abspath(config.out))
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        errors.append(f"output path {config.out} lies under {parent}, which is not a directory")
    return errors


def _grid(config: ExperimentConfig) -> list[tuple[int, float]]:
    """The (n, epsilon) cells of a config, sorted and without repeats."""
    return [(n, eps) for n in sorted(set(config.ns)) for eps in sorted(set(config.epsilons))]


def _resolve_order(config: ExperimentConfig, n: int, eps: float) -> int:
    if config.order == "auto":
        return bounds.optimal_order(n, eps).q_even
    return int(config.order)


def run_overlap_trace(config: ExperimentConfig):
    n, eps = config.ns[0], config.epsilons[0]
    q = _resolve_order(config, n, eps)
    r = bounds.required_steps(n, q, eps)
    stages = trotter.stage_count(q)
    ts = ctqw.t_star(n)
    trace = trotter.overlap_trace(n, q, ts, r, config.samples, config.spacing)
    reference = ctqw.ctqw_overlaps(n, ctqw.alpha_star(n), [ts * m / r for m, _ in trace])
    # formed as they are written: a list would hold five fields per sample
    rows = ((m, m * stages, ov, float(depthsearch.grover_closed_form(n, m * stages)), float(ref)) for (m, ov), ref in zip(trace, reference))
    header = ["steps_applied", "layer_count", "overlap_qaoa", "overlap_grover", "overlap_ctqw_reference"]
    meta = {"q": q, "r": r, "depth": r * stages, "reference_overlap": depthsearch.reference_overlap(n), "epsilon_role": "spectral"}
    return header, rows, meta, []


def _depth_search_cell(args):
    n, eps, q = args
    try:
        res = depthsearch.numeric_optimal_depth(n, q, eps)
    except depthsearch.DepthSearchError as err:
        return depthsearch.CellFailure(n=n, epsilon=eps, q=q, message=str(err))
    return res


def run_depth_search(config: ExperimentConfig):
    cells = [(n, eps, _resolve_order(config, n, eps)) for n, eps in _grid(config)]
    results = _map_cells(_depth_search_cell, cells, config.workers)
    rows, errors = [], []
    for res in results:
        if isinstance(res, depthsearch.CellFailure):
            errors.append(asdict(res))
            continue
        rows.append(
            (res.n, res.q, res.epsilon, res.r_final, res.p_numerical, res.overlap, res.reference, res.d, res.evaluations)
        )
    header = ["n", "q", "epsilon_overlap", "r_final", "p_numerical", "overlap", "reference_overlap", "d_final", "evaluations"]
    return header, rows, {"epsilon_role": "overlap"}, errors


def run_analytic_depth(config: ExperimentConfig):
    rows = []
    for n, eps in _grid(config):
        est = bounds.optimal_order(n, eps)
        q_used = _resolve_order(config, n, eps)
        depth = bounds.analytic_depth(n, q_used, eps)
        rows.append(
            (
                n,
                eps,
                est.q_real,
                est.q_even,
                q_used,
                depth.p0,
                depth.delta_bound,
                depth.p_analytic,
                depth.log2_p,
                bounds.analytic_depth_closed(n, eps),
                bounds.required_steps(n, q_used, eps),
            )
        )
    header = ["n", "epsilon", "q_real", "q_even", "q_used", "p0", "delta_bound", "p_analytic", "log2_p", "p_closed_form", "r_required"]
    return header, rows, {"epsilon_role": "spectral"}, []


def _ratio_sweep_size(args):
    n, epsilons, orders = args
    return [(n, eps, *cell) for eps, cell in zip(epsilons, depthsearch.sweep_cells(n, epsilons, orders))]


def run_ratio_sweep(config: ExperimentConfig):
    # one task per size, largest first so the longest tasks leave no tail;
    # reversed, the results are in (n, epsilon) order
    epsilons = sorted(set(config.epsilons))
    tasks = [(n, epsilons, tuple(config.orders)) for n in sorted(set(config.ns), reverse=True)]
    results = _map_cells(_ratio_sweep_size, tasks, config.workers)
    rows, errors = [], []
    for n, eps, record, failures in (cell for size in reversed(results) for cell in size):
        for failure in failures:
            errors.append(asdict(failure))
        if record is None:
            errors.append({"n": n, "epsilon": eps, "message": "no admissible order produced a depth"})
        else:
            rows.append((record.n, record.epsilon, record.q, record.p_numerical, record.p_analytical, record.ratio))
    header = ["n", "epsilon", "q_best", "p_numerical", "p_analytical", "ratio"]
    meta = {"epsilon_role": "overlap for p_numerical, spectral for p_analytical"}
    return header, rows, meta, errors


def run_grover_curve(config: ExperimentConfig):
    n = config.ns[0]
    rows = [
        (k, ov, float(depthsearch.grover_closed_form(n, k)))
        for k, ov in depthsearch.grover_curve(n, config.k_max)
    ]
    header = ["iteration", "overlap", "overlap_closed_form"]
    return header, rows, {}, []


def run_bound_check(config: ExperimentConfig):
    orders = [int(config.order)] if config.order != "auto" else [2, 4]
    rows = []
    for n in sorted(set(config.ns)):
        ts = ctqw.t_star(n)
        for q in orders:
            db = bounds.delta_bound(n, q)
            stages = trotter.stage_count(q)
            for j in BOUND_CHECK_R_EXPONENTS:
                r = 2**j
                measured = bounds.spectral_error(n, q, ts, r)
                bound = bounds.trotter_error_bound(q, db, ts, r, stages)
                rows.append((n, q, r, measured, bound, measured <= bound))
    header = ["n", "q", "r", "spectral_error", "error_bound", "within_bound"]
    return header, rows, {"epsilon_role": "spectral"}, []


@dataclass(frozen=True)
class Experiment:
    """A subcommand: its runner, help text, and the ExperimentConfig fields it
    reads besides ``ns`` and ``out`` (each set by the one argument ``FLAGS``
    gives it)."""

    runner: Callable[[ExperimentConfig], tuple]
    help: str
    settings: tuple[str, ...]


EXPERIMENTS = {
    "overlap-trace": Experiment(
        run_overlap_trace, "target overlap through a fixed-depth trotterized sequence", ("epsilons", "order", "samples", "spacing")
    ),
    "depth-search": Experiment(
        run_depth_search, "numeric optimal-depth search at an overlap budget", ("epsilons", "order", "workers")
    ),
    "analytic-depth": Experiment(run_analytic_depth, "analytic depth bound, optimal order, required steps", ("epsilons", "order")),
    "ratio-sweep": Experiment(
        run_ratio_sweep, "analytic vs numeric depth ratios over (n, epsilon) cells", ("epsilons", "orders", "workers")
    ),
    "grover-curve": Experiment(run_grover_curve, "Grover iteration overlaps against the closed form", ("k_max",)),
    "bound-check": Experiment(run_bound_check, "measured Trotter error against the analytic bound", ("order",)),
}

# ExperimentConfig field -> (the flags that spell it, their argparse options):
# one argument per field, so a flag given twice, in either spelling, keeps its
# later value; the flags that set ns and out belong to every subcommand
FLAGS = {
    "ns": (("--n", "--n-range"), {"type": parse_int_range, "metavar": "N", "help": "system size, or range 'lo..hi' or 'lo..hi:step'"}),
    "epsilons": (("--epsilon", "--epsilon-list"), {"type": parse_float_list, "metavar": "EPS", "help": "error budget, or comma-separated budgets"}),
    "order": (("--order",), {"choices": ("auto", *(str(q) for q in range(2, Q_MAX + 1, 2))), "help": "even formula order, or 'auto' (default)"}),
    "orders": (("--orders",), {"type": parse_int_list, "help": "admissible orders, e.g. '2,4,6,8'"}),
    "samples": (("--samples",), {"type": int, "help": f"trace prefix lengths to sample, at most {MAX_ROWS}; lengths that round to one step count give one row"}),
    "spacing": (("--spacing",), {"choices": ("linear", "geometric"), "help": "trace prefix spacing"}),
    "k_max": (("--k-max",), {"type": int, "help": f"Grover iteration count (at most {MAX_ROWS})"}),
    "workers": (("--workers",), {"type": int, "help": "processes that take cells from one queue, the calling one and the children it forks, on Linux only (default or 0: one per usable CPU, which also caps it)"}),
    "out": (("--out",), {"help": f"output CSV path (default: ${ENV_OUTDIR}/<experiment>.csv)"}),
}


def _claim_cells(fn, cells: list, token: tuple[int, int]):
    """Claim cells from the token pipe and yield ``(index, ok, fn(cell) or its exception)``.

    The pipe holds one token, the index of the next unclaimed cell: a claim
    reads it and writes back the next index.  After a failed cell the next
    read writes back ``len(cells)``, so no process claims another cell.
    """
    read_end, write_end = token
    failed = False
    while True:
        index = int.from_bytes(os.read(read_end, 8), "little")
        claimed = index < len(cells) and not failed
        os.write(write_end, (index + 1 if claimed else len(cells)).to_bytes(8, "little"))
        if not claimed:
            return
        try:
            record = index, True, fn(cells[index])
        except Exception as exc:
            record, failed = (index, False, exc), True
        yield record


def _child(fn, cells: list, token: tuple[int, int], write_end: int) -> None:
    """A forked child's whole life: claim cells, pickle each record into
    ``write_end`` and exit, with status 1 if anything raised."""
    try:
        with open(write_end, "wb") as out:
            for index, ok, value in _claim_cells(fn, cells, token):
                if not ok:
                    # a traceback does not pickle; its text goes as a note
                    note = "raised in a forked child:\n" + "".join(traceback.format_exception(value))
                    value.__notes__ = [*getattr(value, "__notes__", ()), note]
                out.write(pickle.dumps((index, ok, value)))
                out.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _map_cells(fn, cells: list, workers: int) -> list:
    """``[fn(cell) for cell in cells]`` computed by the calling process and
    ``min(workers, len(cells)) - 1`` children forked with ``os.fork``.

    One claim loop serves any worker count: every process, the calling one
    alone included, claims cells one at a time from a shared queue, a pipe
    holding the index of the next unclaimed cell, until none is left.  Each
    child pickles its ``(index, ok, result or exception)`` records into a pipe
    of its own and exits; the caller reads every pipe to its end and waits for
    every child, which it kills first if it stops early itself (an interrupt,
    say).  A failed cell stops further claims, and the exception of the lowest
    failed cell propagates; a cell whose child exited without returning it
    raises a RuntimeError that names it.
    """
    token = os.pipe()
    os.write(token[1], (0).to_bytes(8, "little"))
    pipes = {}  # child pid -> the read end of its record pipe
    drained = False
    try:
        for _ in range(min(workers, len(cells)) - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # with the caller gone, a write to a full pipe then fails instead of blocking
                os.close(read_end)
                _child(fn, cells, token, write_end)
            os.close(write_end)
            pipes[pid] = read_end
        records = list(_claim_cells(fn, cells, token))
        for read_end in pipes.values():
            with open(read_end, "rb", closefd=False) as pipe:
                while pipe.peek(1):
                    records.append(pickle.load(pipe))
        drained = True
    finally:
        for fd in (*token, *pipes.values()):
            os.close(fd)
        for pid in pipes:
            if not drained:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    done = {index: (ok, value) for index, ok, value in records}
    results = []
    # claims go in index order, so a cell missing below the lowest failed one
    # was claimed and never returned
    for index, cell in enumerate(cells):
        if index not in done:
            raise RuntimeError(f"cell {index} ({cell!r}) was lost: the child process that claimed it exited without returning it")
        ok, value = done[index]
        if not ok:
            raise value
        results.append(value)
    return results


def run(config: ExperimentConfig) -> int:
    """Execute a validated experiment; returns the process exit code."""
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    spec = EXPERIMENTS[config.experiment]
    header, rows, meta, errors = spec.runner(config)
    # some runners form their rows as the CSV is written, so the clock stops after it
    count = write_csv(config.out, config.experiment, header, rows)
    duration = time.perf_counter() - t0
    write_sidecar(
        config.out,
        {
            "experiment": config.experiment,
            "config": {key: value for key, value in asdict(config).items() if key in ("experiment", "ns", "out", *spec.settings)},
            "columns": header,
            "meta": meta,
            "errors": errors,
            "library_version": __version__,
            "started_at": started,
            "duration_seconds": duration,
            "rows_written": count,
        },
    )
    if errors:
        print(f"{config.experiment}: {count} rows, {len(errors)} failed cells -> {config.out}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"{config.experiment}: {count} rows -> {config.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotterwalk",
        description="Experiments on quantum-walk search trotterized into QAOA sequences.",
        epilog="An argument @FILE stands for the whitespace-separated arguments in FILE; a setting given twice, in either spelling, keeps its later value.",
        fromfile_prefix_chars="@",
    )
    # a file line reads as the command line does ('--n 46'); a blank line adds nothing
    parser.convert_arg_line_to_args = str.split
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, spec in EXPERIMENTS.items():
        # no abbreviations: with --order absent, '--order' would mean '--orders'
        p = sub.add_parser(name, help=spec.help, allow_abbrev=False)
        for setting, (flags, kwargs) in FLAGS.items():
            if setting in ("ns", "out", *spec.settings):
                # SUPPRESS: a flag not given sets no attribute, so the field keeps its default
                p.add_argument(*flags, dest=setting, default=argparse.SUPPRESS, **kwargs)
    return parser


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    config = ExperimentConfig(**vars(args))
    errors = [f"{args.experiment} does not take: {' '.join(unread)}"] if unread else []
    errors += validate(config)
    if errors:
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
