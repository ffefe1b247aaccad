"""Spans around calls into trotterwalk, recorded from outside the package.

``Tracer.install`` replaces every public function of the trotterwalk
modules, the pool boundary ``cli._map_cells`` and ``numpy.linalg.svd`` /
``numpy.linalg.eigh`` with wrappers that record a span: name, start, end,
the calling span, and a few arguments needed for counts.  Spans stay in
memory.  A forked pool worker inherits the wrappers and the open span
stack, so its spans name the parent's span as caller; each time a worker's
outermost traced call returns, the worker appends its spans to a file in
``spill_dir``, which the parent reads back after the pool has shut down.

Times come from ``time.monotonic``, one clock shared by all processes on
Linux, so worker spans line up with the parent's.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict, namedtuple

import numpy as np

from trotterwalk import bounds, cli, ctqw, depthsearch, symspace, trotter

MODULES = (symspace, ctqw, trotter, bounds, depthsearch, cli)
# (owner, attribute, span name) wrapped besides the public functions
EXTRA = ((cli, "_map_cells", "cli._map_cells"), (np.linalg, "svd", "numpy.linalg.svd"), (np.linalg, "eigh", "numpy.linalg.eigh"))
LAYERS = ("cli", "depthsearch", "trotter", "bounds", "ctqw", "symspace", "numpy.linalg.svd", "numpy.linalg.eigh")

# sid and parent are (pid, serial) pairs; info holds what DESCRIBE extracted
Span = namedtuple("Span", "sid parent name t0 t1 info")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# span name -> extractor of the arguments and results that counts need
DESCRIBE = {
    "symspace.matrix_power": lambda a, k, res: {"r": int(_arg(a, k, 1, "r"))},
    "trotter.overlap_trace": lambda a, k, res: {"r": int(_arg(a, k, 3, "r"))},
    "trotter.step_operator": lambda a, k, res: {"q": int(_arg(a, k, 1, "q"))},
    "depthsearch.numeric_optimal_depth": lambda a, k, res: {"q": int(_arg(a, k, 1, "q"))},
    "depthsearch.sweep_cell": lambda a, k, res: {"q_best": res[0].q if res is not None and res[0] is not None else None},
}


def public_functions(module):
    """Names of the callables defined in ``module`` that do not start with '_'."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self.stack: list[tuple] = []
        self.root_pid = self.pid = os.getpid()
        self.base_depth = 0
        self._count = 0
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)
        self._count = 0

    def install(self) -> None:
        targets = [(m, name, f"{m.__name__.rsplit('.', 1)[-1]}.{name}") for m in MODULES for name in public_functions(m)]
        for owner, attr, span in targets + list(EXTRA):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self._count += 1
            sid = (self.pid, self._count)
            self.stack.append(sid)
            result = None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic()
                self.stack.pop()
                info = describe(args, kwargs, result) if describe else None
                self.spans.append(Span(sid, parent, name, t0, t1, info))
                if self.pid != self.root_pid and len(self.stack) == self.base_depth:
                    self._spill()

        return traced

    def _spill(self) -> None:
        with open(os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl"), "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """The parent's spans plus every span spilled by pool workers."""
        spans = list(self.spans)
        for fname in sorted(os.listdir(self.spill_dir)):
            if fname.startswith("spans-"):
                with open(os.path.join(self.spill_dir, fname)) as fh:
                    for line in fh:
                        sid, parent, name, t0, t1, info = json.loads(line)
                        spans.append(Span(tuple(sid), tuple(parent) if parent else None, name, t0, t1, info))
        return spans


def _layer(name: str) -> str:
    return name if name.startswith("numpy.") else name.split(".", 1)[0]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer counts and times from one traced run's spans."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def nearest(span, names):
        parent = span.parent
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                return None
            if p.name in names:
                return p
            parent = p.parent
        return None

    def self_time(s):
        return (s.t1 - s.t0) - _covered([(c.t0, c.t1) for c in children[s.sid]], s.t0, s.t1)

    def total(name):
        return sum(s.t1 - s.t0 for s in spans if s.name == name)

    def named(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {}
    projections = [s for s in named("numpy.linalg.svd") if nearest(s, ("symspace.matrix_power", "trotter.overlap_trace"))]
    m["symspace.projections"] = len(projections)
    m["symspace.projection_s"] = sum(s.t1 - s.t0 for s in projections)
    powered = named("symspace.matrix_power") + named("trotter.overlap_trace")
    m["symspace.squarings"] = sum(max(0, s.info["r"].bit_length() - 1) for s in powered)
    m["symspace.matrix_power.calls"] = len(named("symspace.matrix_power"))
    m["symspace.matrix_power.self_s"] = sum(self_time(s) for s in named("symspace.matrix_power"))
    eig_calls = named("symspace.hermitian_eigensystem")
    eigh = named("numpy.linalg.eigh")
    m["symspace.eigh_calls"] = len(eigh)
    m["symspace.eig_s"] = total("symspace.hermitian_eigensystem")
    misses = sum(1 for s in eigh if nearest(s, ("symspace.hermitian_eigensystem",)))
    m["symspace.eig_cache_hit_ratio"] = (len(eig_calls) - misses) / len(eig_calls) if eig_calls else 0.0

    steps = named("trotter.step_operator")
    m["trotter.step_builds"] = len(steps)
    m["trotter.step_build_s"] = total("trotter.step_operator")
    # flat build: 5^(q/2-1)+1 mixer factors per step, two dense products each
    m["trotter.step_products"] = sum(2 * (trotter.stage_count(s.info["q"]) + 1) for s in steps)
    m["trotter.trotterized_state_s"] = total("trotter.trotterized_state")
    m["trotter.overlap_trace_s"] = total("trotter.overlap_trace")

    evals = defaultdict(int)
    useful = attempted = 0
    for s in steps:
        search = nearest(s, ("depthsearch.numeric_optimal_depth",))
        if search is None:
            continue
        q = search.info["q"]
        evals[q] += 1
        cell = nearest(search, ("depthsearch.sweep_cell",))
        if cell is not None:
            attempted += 1
            useful += q == cell.info["q_best"]
    m["depthsearch.evaluations"] = sum(evals.values())
    for q in depthsearch.SWEEP_ORDERS:
        m[f"depthsearch.evals.q{q}"] = evals[q]
    m["depthsearch.useful_eval_ratio"] = useful / attempted if attempted else 0.0

    m["bounds.spectral_error_s"] = total("bounds.spectral_error")
    m["ctqw.reference_s"] = total("ctqw.ctqw_overlap")

    m["cli.run_s"] = total("cli.run")
    m["cli.write_s"] = total("cli.write_csv") + total("cli.write_sidecar")
    busy = tail = 0.0
    for pool in named("cli._map_cells"):
        workers = defaultdict(list)
        for c in children[pool.sid]:
            pid = c.sid[0]
            if pid != pool.sid[0]:
                workers[pid].append(c)
        if workers:
            span = pool.t1 - pool.t0
            busy += sum(c.t1 - c.t0 for cs in workers.values() for c in cs) / (len(workers) * span)
            tail += pool.t1 - min(max(c.t1 for c in cs) for cs in workers.values())
    m["cli.pool_busy_share"] = busy / max(1, len(named("cli._map_cells")))
    m["cli.pool_tail_s"] = tail

    selfs = defaultdict(float)
    for s in spans:
        selfs[_layer(s.name)] += self_time(s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]

    roots = [s for s in spans if s.parent is None]
    m["trace.covered_share"] = sum(s.t1 - s.t0 for s in roots) / wall_s
    m["trace.spans"] = len(spans)
    return m
