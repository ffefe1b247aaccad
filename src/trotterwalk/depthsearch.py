"""Numeric optimal-depth search, Grover baseline, and depth-ratio sweeps.

The search asks: how few Trotter steps r keep the trotterized walk's target
overlap within epsilon of the exact walk's?  Step counts lie on one grid,
r = d * 2^(n/2 - (LEVELS - 1)), with 2^(LEVELS - 1) grid points per
multiplier of 2^(n/2).  The search probes one, two, four, ... multipliers
(the last probe capped at 1 + D_CAP) until the overlap condition holds,
then bisects between the last rejected step count and the accepted one
down to one grid point.  epsilon here is an overlap deficit, not the
spectral budget used by the analytic bounds; sweep records pair the
numeric depth with the closed-form analytic depth at the same nominal
value.

The search reads overlaps through one evaluator per (n, q), from
``_walk_overlaps``: the one place where a step count becomes a target
overlap.  The evaluator remembers each step count it evaluated for as long
as it lives: one ``numeric_optimal_depth`` call, or one ``sweep_cells``
call, whose budgets share it; nothing is remembered across calls.

Bisection needs a rejected step count to stay rejected.  At the default
D_CAP the doubling leaves a bracket of power-of-two width, so while it
spans more than one multiplier its midpoints are whole multipliers d, where
each step covers tau = t*/r = pi/(2d) <= pi/2, well below the tau of about
2 to 9 where the q = 8 deficit oscillates in r (and the q = 4 deficit at
epsilon = 0.1, at tau of about 2 to 3.7); its finer halvings can
reach that window, where the bisection returns one crossing of the budget,
not necessarily the first.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator
from dataclasses import dataclass
from functools import lru_cache
from math import asin

import numpy as np

from . import bounds, ctqw, symspace, trotter

LEVELS = 15  # 2^(LEVELS - 1) grid points per multiplier of 2^(n/2); read when a search runs
D_CAP = 4096  # the doubling scan covers 1..1+D_CAP multipliers; read when a search runs
SWEEP_ORDERS = (2, 4, 6, 8)


@lru_cache(maxsize=None)
def reference_overlap(n: int) -> float:
    """Exact walk overlap at the resonant coupling and t = t*, cached."""
    return ctqw.ctqw_overlap(n, ctqw.alpha_star(n), ctqw.t_star(n))


class DepthSearchError(RuntimeError):
    """Raised when the doubling scan reaches 1 + D_CAP multipliers without acceptance."""


@dataclass(frozen=True)
class DepthSearchResult:
    """Outcome of the numeric depth search for one (n, q, epsilon)."""

    n: int
    q: int
    epsilon: float
    p_numerical: int
    r_final: int
    d: int
    overlap: float
    reference: float
    evaluations: int


def _steps_at(n: int, d: int) -> int:
    """The step count at grid point d: 2^(LEVELS - 1) grid points per multiplier of 2^(n/2)."""
    return max(1, round(d * 2.0 ** (0.5 * n - (LEVELS - 1))))


def numeric_optimal_depth(n: int, q: int, epsilon_overlap: float) -> DepthSearchResult:
    """Search for a depth reaching the walk overlap within epsilon.

    Deterministic in all arguments.  Returns the depth r * 5^(q/2-1) of a
    step count r on the grid of the module docstring with
    |<e_0|S_q^r|+>|^2 >= reference - epsilon whose grid neighbour below it is
    rejected.  The search doubles from one multiplier of 2^(n/2) and raises
    DepthSearchError if 1 + D_CAP multipliers fail too; then it bisects.

    That is the smallest depth on the grid only while a rejected step
    count stays rejected, as at q = 2, and at q = 4 for epsilon <= 0.01.  At
    q = 8, and at q = 4 with epsilon = 0.1, the deficit is not monotone in
    r, and the result is the crossing the bisection lands on: at
    (44, 8, 0.01) r = 0.727 r_final also meets the budget, and at
    (22, 4, 0.1) r = 868 against r_final = 1630.  Bisecting
    whole multipliers relies on the same assumption, but only at
    tau = t*/r <= pi/2, below the tau of about 2 to 9 where q = 8 oscillates.
    """
    search = _depth_search(n, q, epsilon_overlap, _walk_overlaps(n, q))
    try:
        while True:
            next(search)
    except StopIteration as done:
        return done.value


def _walk_overlaps(n: int, q: int) -> Callable[[int], float]:
    """The search's evaluator at (n, q): r -> |<e_0|S_q(t*/r)^r|+>|^2.

    The one place where a step count becomes a target overlap.  It
    remembers what it evaluated for as long as it lives: one
    ``numeric_optimal_depth`` call, or one ``sweep_cells`` call, never the
    process.  It looks ``trotter.trotterized_state`` up at each evaluation,
    so a patched or traced one sees every step count evaluated.
    """
    ts = ctqw.t_star(n)

    @lru_cache(maxsize=None)
    def overlap(r: int) -> float:
        return float(abs(trotter.trotterized_state(n, q, ts, r).amp[0]) ** 2)

    return overlap


def _depth_search(
    n: int, q: int, epsilon_overlap: float, overlap: Callable[[int], float]
) -> Generator[int, None, DepthSearchResult]:
    """The search of ``numeric_optimal_depth``, one rejected step count at a time.

    After each rejected step count r on the grid of the module docstring,
    except at the capped probe of 1 + D_CAP multipliers, which ends the
    scan, it yields
    stages(q) * (r + 1): no depth it can still return is smaller.  It
    returns the DepthSearchResult or raises DepthSearchError.
    ``overlap`` maps a step count to its target overlap at this (n, q),
    as ``_walk_overlaps`` does; the search calls it once per probe.
    """
    stages = trotter.stage_count(q)
    if not 0.0 < epsilon_overlap < 1.0:
        raise ValueError(f"overlap budget must lie in (0, 1), got {epsilon_overlap}")
    threshold = reference_overlap(n) - epsilon_overlap
    used: dict[int, float] = {}  # the step counts this search read, and their overlaps

    def overlap_at(r: int) -> float:
        used[r] = hit = overlap(r)
        return hit

    # double, then bisect (rejected, d] on the grid of the module docstring.
    # Every step count still reachable exceeds a rejected r: the search only
    # probes above a rejected d, and a rejected r stays rejected.  The capped
    # probe yields nothing, so an exhausted scan raises at once.
    rejected, d = 0, 2 ** (LEVELS - 1)  # one multiplier
    cap = (D_CAP + 1) * d
    while overlap_at(r := _steps_at(n, d)) < threshold:
        if d == cap:
            raise DepthSearchError(
                f"no accepted step count for n={n}, q={q}, eps={epsilon_overlap}: "
                f"scanned {D_CAP + 1} multipliers at level 0, best overlap "
                f"{max(used.values()):.6f} < threshold {threshold:.6f}"
            )
        yield stages * (r + 1)
        rejected, d = d, min(2 * d, cap)
    while d - rejected > 1:
        mid = (rejected + d) // 2
        if overlap_at(r := _steps_at(n, mid)) >= threshold:
            d = mid
        else:
            yield stages * (r + 1)
            rejected = mid
    r_final = _steps_at(n, d)
    return DepthSearchResult(
        n=n,
        q=q,
        epsilon=epsilon_overlap,
        p_numerical=r_final * stages,
        r_final=r_final,
        d=d,
        overlap=used[r_final],
        reference=reference_overlap(n),
        evaluations=len(used),
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
    symspace.check_n(n)
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


def sweep_cell(n: int, epsilon: float, orders=SWEEP_ORDERS) -> tuple[SweepRecord | None, list[CellFailure]]:
    """Depth comparison for one cell: numeric minimum over orders vs closed form.

    The numeric depth is the smallest p = stages(q) * r over ``orders``; on
    equal p the order earlier in ``orders`` wins.  The search is a best-first
    branch-and-bound over the orders' searches, run side by side: each order
    holds a lower bound on the depth it can still return, stages(q) at the
    start and stages(q) * (r + 1) once its scan has rejected r.  The order
    with the smallest bound (then the earlier one in ``orders``) always takes
    the next step, and the cell stops once the smallest bound exceeds the
    best finished depth.  The result equals a full search of every order.
    Each order's depth is what ``numeric_optimal_depth`` returns: at q = 8,
    the crossing its bisection lands on, not the smallest depth that meets
    the budget.

    Orders whose search fails are skipped.  A search fails only in its
    doubling scan, which implies that order needs more than
    (D_CAP+1) * 2^(n/2) steps, so failures that provably cannot beat the
    best surviving depth are dropped as benign; only decisive failures are
    returned, in the order of ``orders``.  An unfinished order could only
    have failed later in that scan, where the bound exceeds the best depth
    too.  The record is None if every order failed.
    """
    return sweep_cells(n, [epsilon], orders)[0]


def sweep_cells(n: int, epsilons, orders=SWEEP_ORDERS) -> list[tuple[SweepRecord | None, list[CellFailure]]]:
    """``sweep_cell`` at one size for each budget in ``epsilons``, in that order.

    The searches of one order share one evaluator: a step count r gives
    the same overlap at every budget, and only the threshold it is compared
    with changes, so each (q, r) is evaluated once per call.
    """
    if not orders:
        raise ValueError("orders must be non-empty")
    evaluators = [_walk_overlaps(n, q) for q in orders]
    return [_best_first(n, eps, orders, evaluators) for eps in epsilons]


def _best_first(n: int, epsilon: float, orders, evaluators) -> tuple[SweepRecord | None, list[CellFailure]]:
    """The best-first search of ``sweep_cell``; ``evaluators[rank]`` is the evaluator of ``orders[rank]``."""
    searches = [_depth_search(n, q, epsilon, evaluators[rank]) for rank, q in enumerate(orders)]
    heap = [(trotter.stage_count(q), rank) for rank, q in enumerate(orders)]
    heapq.heapify(heap)
    failures: dict[int, CellFailure] = {}  # by rank in orders
    best: tuple[int, int] | None = None  # (p, rank in orders) of the best depth so far
    while heap and (best is None or heap[0][0] <= best[0]):
        _, rank = heapq.heappop(heap)
        try:
            bound = next(searches[rank])
        except StopIteration as done:
            found = (done.value.p_numerical, rank)
            best = found if best is None else min(best, found)
        except DepthSearchError as err:
            failures[rank] = CellFailure(n=n, epsilon=epsilon, q=orders[rank], message=str(err))
        else:
            heapq.heappush(heap, (bound, rank))
    failed = [failures[rank] for rank in sorted(failures)]
    if best is None:
        return None, failed
    p_best, rank_best = best
    # a failed order's depth exceeds stages(q) times the last step count its scan rejected
    capped = _steps_at(n, (D_CAP + 1) * 2 ** (LEVELS - 1))
    decisive = [f for f in failed if trotter.stage_count(f.q) * capped <= p_best]
    p_analytic = bounds.analytic_depth_closed(n, epsilon)
    record = SweepRecord(
        n=n,
        q=orders[rank_best],
        epsilon=epsilon,
        p_numerical=p_best,
        p_analytical=p_analytic,
        ratio=p_analytic / p_best,
    )
    return record, decisive


def ratio_sweep(n_list, epsilon_list, orders=SWEEP_ORDERS) -> tuple[list[SweepRecord], list[CellFailure]]:
    """Cell-by-cell depth comparison over a grid of sizes and budgets.

    Each size runs through ``sweep_cells``.  Per-cell failures are
    collected, not raised; output ordering is by (n, epsilon).
    """
    if not n_list or not epsilon_list:
        raise ValueError("n_list and epsilon_list must be non-empty")
    records: list[SweepRecord] = []
    failures: list[CellFailure] = []
    for n in sorted(set(n_list)):
        for record, cell_failures in sweep_cells(n, sorted(set(epsilon_list)), orders):
            failures.extend(cell_failures)
            if record is not None:
                records.append(record)
    return records, failures
