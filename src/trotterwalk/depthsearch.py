"""Numeric optimal-depth search, Grover baseline, and depth-ratio sweeps.

The search asks: how few Trotter steps r keep the trotterized walk's target
overlap within epsilon of the exact walk's?  Steps are parametrized as
r = d * 2^(n/2 - l); d is scanned upward one by one until the overlap
condition holds, then the resolution is refined (d -> 2d - 1, l -> l + 1)
for a fixed number of iterations.  epsilon here is an overlap deficit, not
the spectral budget used by the analytic bounds; sweep records pair the
numeric depth with the closed-form analytic depth at the same nominal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import asin

import numpy as np

from . import bounds, ctqw, symspace, trotter

DEFAULT_ITERATIONS = 15
DEFAULT_D_CAP = 4096
SWEEP_ORDERS = (2, 4, 6, 8)


@lru_cache(maxsize=None)
def reference_overlap(n: int) -> float:
    """Exact walk overlap at the resonant coupling and t = t*, cached."""
    return ctqw.ctqw_overlap(n, ctqw.alpha_star(n), ctqw.t_star(n))


class DepthSearchError(RuntimeError):
    """Raised when a d-scan exhausts its per-level budget without acceptance."""

    def __init__(self, n, q, epsilon, level, d_cap, best_overlap, threshold):
        self.n, self.q, self.epsilon = n, q, epsilon
        self.level, self.d_cap = level, d_cap
        self.best_overlap, self.threshold = best_overlap, threshold
        super().__init__(
            f"no accepted step count for n={n}, q={q}, eps={epsilon}: "
            f"scanned {d_cap} multipliers at level {level}, best overlap "
            f"{best_overlap:.6f} < threshold {threshold:.6f}"
        )


@dataclass(frozen=True)
class DepthSearchResult:
    """Outcome of the numeric depth search for one (n, q, epsilon)."""

    n: int
    q: int
    epsilon: float
    p_numerical: int
    r_final: int
    d: int
    level: int
    overlap: float
    reference: float
    evaluations: int


def _steps_at(n: int, d: int, level: int) -> int:
    return max(1, round(d * 2.0 ** (0.5 * n - level)))


def numeric_optimal_depth(
    n: int,
    q: int,
    epsilon_overlap: float,
    refinement_iterations: int = DEFAULT_ITERATIONS,
    d_cap: int = DEFAULT_D_CAP,
) -> DepthSearchResult:
    """Approximate the smallest depth reaching the walk overlap within epsilon.

    Deterministic in all arguments.  Each refinement level scans the step
    multiplier d upward until |<e_0|S_q^r|+>|^2 >= reference - epsilon, then
    halves the resolution starting from d = 2d' - 1.  The returned depth is
    r * 5^(q/2-1) at the final accepted step count.  d_cap bounds the scan
    length within one level; levels after the first need at most two probes,
    so the cap effectively limits the initial coarse scan.
    """
    trotter._check_order(q)
    if not 0.0 < epsilon_overlap < 1.0:
        raise ValueError(f"overlap budget must lie in (0, 1), got {epsilon_overlap}")
    threshold = reference_overlap(n) - epsilon_overlap
    ts = ctqw.t_star(n)
    alpha = ctqw.alpha_star(n)
    cache: dict[int, float] = {}

    def overlap_at(r: int) -> float:
        hit = cache.get(r)
        if hit is None:
            state = trotter.trotterized_state(n, q, ts, r, alpha)
            cache[r] = hit = float(abs(state.amp[0]) ** 2)
        return hit

    d, level = 1, 0
    accepted_d = None
    for _ in range(refinement_iterations):
        best = -1.0
        scan_limit = d + d_cap
        while d <= scan_limit:
            ov = overlap_at(_steps_at(n, d, level))
            best = max(best, ov)
            if ov >= threshold:
                accepted_d = d
                break
            d += 1
        else:
            raise DepthSearchError(n, q, epsilon_overlap, level, d_cap, best, threshold)
        d, level = 2 * accepted_d - 1, level + 1
    level -= 1  # the last accepted scan happened at the previous level
    r_final = _steps_at(n, accepted_d, level)
    return DepthSearchResult(
        n=n,
        q=q,
        epsilon=epsilon_overlap,
        p_numerical=r_final * trotter.stage_count(q),
        r_final=r_final,
        d=accepted_d,
        level=level,
        overlap=overlap_at(r_final),
        reference=reference_overlap(n),
        evaluations=len(cache),
    )


def grover_closed_form(n: int, k) -> np.ndarray:
    """Success probability sin^2((2k+1)*theta) with sin(theta) = 2^(-n/2)."""
    theta = asin(2.0 ** (-0.5 * n))
    return np.sin((2.0 * np.asarray(k, dtype=float) + 1.0) * theta) ** 2


def grover_curve(n: int, k_max: int) -> list[tuple[int, float]]:
    """Overlap after each of k_max Grover iterations, simulated in the subspace.

    The iterate reflects about the target state then about |+>^n; both
    reflections act within the symmetric subspace.
    """
    symspace._check_n(n)
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise ValueError(f"iteration count must be an integer >= 1, got {k_max!r}")
    s = symspace.plus_state(n).amp
    psi = s.copy()
    out = [(0, float(abs(psi[0]) ** 2))]
    for k in range(1, k_max + 1):
        psi[0] = -psi[0]
        psi = 2.0 * np.vdot(s, psi) * s - psi
        out.append((k, float(abs(psi[0]) ** 2)))
    return out


@dataclass(frozen=True)
class SweepRecord:
    """Numeric-vs-analytic depth comparison for one (n, epsilon) cell."""

    n: int
    q: int
    epsilon: float
    p_numerical: int
    p_analytical: float
    ratio: float


@dataclass(frozen=True)
class CellFailure:
    """A (n, epsilon, q) combination whose depth search did not terminate."""

    n: int
    epsilon: float
    q: int
    message: str


def sweep_cell(
    n: int,
    epsilon: float,
    orders=SWEEP_ORDERS,
    refinement_iterations: int = DEFAULT_ITERATIONS,
    d_cap: int = DEFAULT_D_CAP,
) -> tuple[SweepRecord | None, list[CellFailure]]:
    """Depth comparison for one cell: numeric minimum over orders vs closed form.

    Orders whose search fails are skipped.  A scan failure implies that
    order needs more than (d_cap+1) * 2^(n/2 - level) steps, so failures
    that provably cannot beat the best surviving depth are dropped as
    benign; only decisive failures are returned.  The record is None if
    every order failed.
    """
    failures: list[tuple[CellFailure, float]] = []
    best: DepthSearchResult | None = None
    for q in orders:
        try:
            res = numeric_optimal_depth(n, q, epsilon, refinement_iterations, d_cap)
        except DepthSearchError as err:
            p_lower = trotter.stage_count(q) * _steps_at(n, d_cap + 1, err.level)
            failures.append((CellFailure(n=n, epsilon=epsilon, q=q, message=str(err)), p_lower))
            continue
        if best is None or res.p_numerical < best.p_numerical:
            best = res
    if best is None:
        return None, [f for f, _ in failures]
    decisive = [f for f, p_lower in failures if p_lower <= best.p_numerical]
    p_analytic = bounds.analytic_depth_closed(n, epsilon)
    record = SweepRecord(
        n=n,
        q=best.q,
        epsilon=epsilon,
        p_numerical=best.p_numerical,
        p_analytical=p_analytic,
        ratio=p_analytic / best.p_numerical,
    )
    return record, decisive


def ratio_sweep(
    n_list,
    epsilon_list,
    orders=SWEEP_ORDERS,
    refinement_iterations: int = DEFAULT_ITERATIONS,
    d_cap: int = DEFAULT_D_CAP,
) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Cell-by-cell depth comparison over a grid of sizes and budgets.

    Per-cell failures are collected, not raised; output ordering is by
    (n, epsilon) regardless of evaluation order.
    """
    if not n_list or not epsilon_list:
        raise ValueError("n_list and epsilon_list must be non-empty")
    records: list[SweepRecord] = []
    failures: list[CellFailure] = []
    for n in sorted(set(n_list)):
        for eps in sorted(set(epsilon_list)):
            record, cell_failures = sweep_cell(n, eps, orders, refinement_iterations, d_cap)
            failures.extend(cell_failures)
            if record is not None:
                records.append(record)
    return records, failures
