import math
import os
import pickle
import re
import time

import numpy as np
import pytest

from trotterwalk import bounds, cli, ctqw, depthsearch, trotter


def test_reference_overlap_delegates():
    assert depthsearch.reference_overlap(16) == pytest.approx(
        ctqw.ctqw_overlap(16, ctqw.alpha_star(16), ctqw.t_star(16)), rel=1e-14
    )


def test_reference_overlap_range():
    for n in (8, 12, 20, 30):
        assert 0.5 < depthsearch.reference_overlap(n) <= 1.0


def test_reference_overlap_deficit_stable():
    cs = [n * (1 - depthsearch.reference_overlap(n)) for n in range(10, 31, 2)]
    assert max(cs) <= 2 * min(cs)


def steps_at_multiplier(n, d):
    """The step count d * 2^(n/2) on the search grid: d whole multipliers."""
    return depthsearch._steps_at(n, d * 2 ** (depthsearch.LEVELS - 1))


def test_numeric_depth_deterministic():
    a = depthsearch.numeric_optimal_depth(10, 2, 0.05)
    b = depthsearch.numeric_optimal_depth(10, 2, 0.05)
    assert a == b


def test_numeric_depth_frozen_case():
    # stable regression anchor for the search procedure
    res = depthsearch.numeric_optimal_depth(8, 2, 0.1)
    assert res.p_numerical == 14
    assert res.r_final == 14
    assert res.p_numerical == res.r_final * trotter.stage_count(2)


def test_numeric_depth_acceptance_postcondition():
    for n, q, eps in ((10, 2, 0.05), (12, 4, 0.02)):
        res = depthsearch.numeric_optimal_depth(n, q, eps)
        threshold = res.reference - eps
        assert res.overlap >= threshold

        def overlap_at(r):
            # the search's own read of the target overlap
            return float(abs(trotter.trotterized_state(n, q, ctqw.t_star(n), r).amp[0]) ** 2)

        r_below = depthsearch._steps_at(n, res.d - 1)
        if r_below < res.r_final:
            assert overlap_at(r_below) < threshold


@pytest.mark.parametrize("n", [70, 80])
def test_numeric_depth_invariants_at_large_n(n):
    # the README promises n <= 80; the search is checked at its top end
    eps = 0.01
    res = depthsearch.numeric_optimal_depth(n, 8, eps)
    threshold = res.reference - eps
    assert res.overlap >= threshold
    r_below = depthsearch._steps_at(n, res.d - 1)
    assert r_below < res.r_final
    state = trotter.trotterized_state(n, 8, ctqw.t_star(n), r_below)
    assert abs(state.amp[0]) ** 2 < threshold


def test_q8_depth_is_a_crossing_not_the_smallest():
    # at q = 8 the deficit is not monotone in r: a step count 0.727 r_final
    # meets the budget (margin +7.8e-3), the grid's neighbour below r_final
    # does not (-1.8e-3), and r_final does again (+1.1e-3)
    n, q, eps = 44, 8, 0.01
    res = depthsearch.numeric_optimal_depth(n, q, eps)
    assert res.r_final == 760832
    threshold = res.reference - eps

    def accepted(r):
        return abs(trotter.trotterized_state(n, q, ctqw.t_star(n), r).amp[0]) ** 2 >= threshold

    r_below = depthsearch._steps_at(n, res.d - 1)
    assert [accepted(r) for r in (552820, r_below, res.r_final)] == [True, False, True]


def test_q4_depth_is_a_crossing_at_epsilon_0_1():
    # at epsilon = 0.1 the q = 4 step runs at tau = t*/r of about 2 to 4, and
    # its deficit is not monotone there either: r = 868 meets the budget
    # (margin +0.012), 867 does not (-0.0098), the grid's neighbour below
    # r_final fails by 8.7e-5, and r_final = 1630 meets it (+2.9e-4)
    n, q, eps = 22, 4, 0.1
    res = depthsearch.numeric_optimal_depth(n, q, eps)
    assert res.r_final == 1630 and res.p_numerical == 8150
    threshold = res.reference - eps

    def accepted(r):
        return abs(trotter.trotterized_state(n, q, ctqw.t_star(n), r).amp[0]) ** 2 >= threshold

    r_below = depthsearch._steps_at(n, res.d - 1)
    assert r_below == 1629
    assert [accepted(r) for r in (868, 867, r_below, res.r_final)] == [True, False, False, True]


def test_numeric_depth_monotone_in_epsilon():
    rs = [depthsearch.numeric_optimal_depth(10, 2, eps).r_final for eps in (0.01, 0.05, 0.2)]
    assert rs[0] >= rs[1] >= rs[2]


def test_numeric_depth_below_analytic_bound():
    for n in (8, 12, 16):
        q = bounds.optimal_order(n, 0.01).q_even
        numeric = depthsearch.numeric_optimal_depth(n, q, 0.01).p_numerical
        assert numeric <= bounds.analytic_depth(n, q, 0.01).p_analytic


def test_numeric_depth_rejects_bad_budget():
    with pytest.raises(ValueError):
        depthsearch.numeric_optimal_depth(8, 2, 0.0)
    with pytest.raises(ValueError):
        depthsearch.numeric_optimal_depth(8, 2, 1.0)
    with pytest.raises(ValueError):
        depthsearch.numeric_optimal_depth(8, 3, 0.1)


def test_zero_d_cap_refines_past_the_first_level(monkeypatch):
    # the scan probes one multiplier only, and the bisection then halves
    # the bracket (0, 1 multiplier] LEVELS - 1 times
    monkeypatch.setattr(depthsearch, "D_CAP", 0)
    res = depthsearch.numeric_optimal_depth(4, 2, 0.1)
    assert res.d < 2 ** (depthsearch.LEVELS - 1)
    assert res.p_numerical == 3
    record, failures = depthsearch.sweep_cell(4, 0.1)
    assert (record.q, record.p_numerical, failures) == (2, 3, [])


def test_one_level_search_stops_at_the_scan(monkeypatch):
    # LEVELS is read when a search runs: with one level the grid points are
    # whole multipliers, and the search ends at the scan's accepted one
    monkeypatch.setattr(depthsearch, "LEVELS", 1)
    res = depthsearch.numeric_optimal_depth(10, 2, 0.05)
    assert (res.d, res.evaluations) == (2, 2)
    assert res.r_final == 64 == depthsearch._steps_at(10, 2)
    record, _ = depthsearch.sweep_cell(10, 0.05)
    assert record.p_numerical == 64


FAILURE_MESSAGE = re.compile(
    r"no accepted step count for n=10, q=2, eps=0\.001: scanned (\d+) multipliers at level 0, "
    r"best overlap (\d\.\d{6}) < threshold (\d\.\d{6})"
)


def test_numeric_depth_failure_diagnostics(monkeypatch):
    # a scan budget of zero cannot move past d=1, which is insufficient here
    monkeypatch.setattr(depthsearch, "D_CAP", 0)
    with pytest.raises(depthsearch.DepthSearchError) as err:
        depthsearch.numeric_optimal_depth(10, 2, 0.001)
    scanned, best, threshold = FAILURE_MESSAGE.fullmatch(str(err.value)).groups()
    assert scanned == "1"
    assert float(best) < float(threshold)
    assert float(threshold) == pytest.approx(depthsearch.reference_overlap(10) - 0.001, abs=5e-7)


def test_depth_search_error_crosses_processes(monkeypatch):
    # a child of cli._map_cells pickles the error its cell raises, and the
    # caller raises it again; the forked child inherits the budget
    monkeypatch.setattr(depthsearch, "D_CAP", 0)
    with pytest.raises(depthsearch.DepthSearchError) as err:
        depthsearch.numeric_optimal_depth(10, 2, 0.001)
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is depthsearch.DepthSearchError and str(copy) == str(err.value)
    caller = os.getpid()

    def search(args):
        # the caller's own cell is slow and searches nothing, so the child
        # claims the other cell and its search fails there
        if os.getpid() == caller:
            time.sleep(0.3)
            return None
        return depthsearch.numeric_optimal_depth(*args)

    with pytest.raises(depthsearch.DepthSearchError) as remote:
        cli._map_cells(search, [(10, 2, 0.001)] * 2, 2)
    assert type(remote.value) is depthsearch.DepthSearchError and str(remote.value) == str(err.value)
    # the child's traceback comes along as a note
    assert "in numeric_optimal_depth" in remote.value.__notes__[-1]


@pytest.mark.parametrize("d_cap", [0, 2, 6])
def test_depth_search_error_counts_evaluated_multipliers(d_cap, monkeypatch):
    # the scan covers multipliers d = 1 through 1 + D_CAP, the count its message
    # names, and evaluates only its doubling probes; (16, 2, 0.001) first
    # accepts d = 8
    probes = {0: [1], 2: [1, 2, 3], 6: [1, 2, 4, 7]}[d_cap]
    monkeypatch.setattr(depthsearch, "D_CAP", d_cap)
    calls = []
    original = depthsearch.trotter.trotterized_state

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(depthsearch.trotter, "trotterized_state", counted)
    with pytest.raises(depthsearch.DepthSearchError, match=f"scanned {d_cap + 1} multipliers at level 0"):
        depthsearch.numeric_optimal_depth(16, 2, 0.001)
    assert calls == [steps_at_multiplier(16, d) for d in probes]


def test_exhausted_scan_at_the_default_cap_probes_by_doubling(monkeypatch):
    # q = 2 cannot meet the budget at (64, 0.01) within d <= 1 + D_CAP: the
    # scan probes d = 1, 2, 4, ..., 4096 and 4097, not all 4097 multipliers
    calls = []
    original = depthsearch.trotter.trotterized_state

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(depthsearch.trotter, "trotterized_state", counted)
    with pytest.raises(depthsearch.DepthSearchError, match="scanned 4097 multipliers at level 0"):
        depthsearch.numeric_optimal_depth(64, 2, 0.01)
    assert calls == [steps_at_multiplier(64, d) for d in [*(2**k for k in range(13)), 4097]]


@pytest.mark.parametrize(
    "n, q, eps, d_cap, probes, r_final",
    [
        # the q = 8 deficit is not monotone in r here, so the crossing the
        # bisection lands on depends on the order of its probes: one
        # multiplier is accepted at once, then 14 halvings of the bracket
        (44, 8, 0.01, 4096, [
            4194304, 2097152, 1048576, 524288, 786432, 655360, 720896, 753664,
            770048, 761856, 757760, 759808, 760832, 760320, 760576,
        ], 760832),
        # a cap of 7 multipliers leaves the bracket (4, 7], three multipliers
        # wide: its first midpoints are 5.5 and 6.25 multipliers, off the
        # whole ones, and the bisection still ends at r_final after 20 probes
        (40, 4, 0.001, 6, [
            1048576, 2097152, 4194304, 7340032, 5767168, 6553600, 6946816,
            6750208, 6651904, 6602752, 6627328, 6615040, 6608896, 6605824,
            6607360, 6608128, 6607744, 6607936, 6607808, 6607872,
        ], 6607936),
    ],
    ids=["q8-not-monotone", "capped-scan"],
)
def test_search_probes_in_a_fixed_order(n, q, eps, d_cap, probes, r_final, monkeypatch):
    monkeypatch.setattr(depthsearch, "D_CAP", d_cap)
    calls = []
    original = depthsearch.trotter.trotterized_state

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(depthsearch.trotter, "trotterized_state", counted)
    res = depthsearch.numeric_optimal_depth(n, q, eps)
    assert calls == probes
    assert (res.r_final, res.evaluations) == (r_final, len(probes))


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail any test that simulates the walk: its search reads a synthetic evaluator only."""

    def refuse(*args):
        raise AssertionError("the search simulated the walk")

    monkeypatch.setattr(trotter, "trotterized_state", refuse)


class Synthetic:
    """An evaluator that simulates nothing: overlap 1 at the step counts ``accepts`` takes, 0 elsewhere.

    It records the step counts it is asked for, in order.
    """

    def __init__(self, accepts):
        self.accepts = accepts
        self.probes = []

    def __call__(self, r):
        self.probes.append(r)
        return 1.0 if self.accepts(r) else 0.0


def run_search(n, q, eps, overlap):
    """Drive ``_depth_search`` to its end; returns its result and the bounds it yielded."""
    search = depthsearch._depth_search(n, q, eps, overlap)
    yielded = []
    try:
        while True:
            yielded.append(next(search))
    except StopIteration as done:
        return done.value, yielded


# at n = 40 a multiplier of 2^(n/2) holds 2^14 grid points, 64 step counts apart
MULTIPLIER = 2**20


@pytest.mark.parametrize(
    "crossing",
    [1.0, 1 + 2**-14, 5 + 3 * 2**-14, 4096.0, 3000 + 12345 * 2**-14],
    ids=["one-multiplier", "one-grid-point-above", "above-5", "4096", "above-3000"],
)
def test_step_function_search_meets_the_readme_probe_count(crossing, no_simulation):
    # a step-function overlap accepts from one grid point on: the search
    # returns that point after k + 1 doubling probes and k + 13 halvings,
    # k = ceil(log2 d) for the multiplier d (one probe and 14 halvings at
    # d = 1), which is within one of the README's 2 log2 d + 15
    n, q = 40, 4
    r_cross = round(crossing * MULTIPLIER)
    overlap = Synthetic(lambda r: r >= r_cross)
    res, yielded = run_search(n, q, 0.01, overlap)
    assert res.r_final == r_cross and res.d == r_cross // 64
    assert res.p_numerical == trotter.stage_count(q) * r_cross and res.overlap == 1.0
    k = math.ceil(math.log2(crossing))
    assert res.evaluations == len(overlap.probes) == len(set(overlap.probes)) == (2 * k + 14 if k else 15)
    assert abs(res.evaluations - (2 * math.log2(crossing) + 15)) <= 1
    assert yielded == [trotter.stage_count(q) * (r + 1) for r in overlap.probes if r < r_cross]


def test_exhausted_synthetic_scan_probes_by_doubling(no_simulation):
    # an overlap below every threshold: the scan probes d = 1, 2, 4, ...,
    # 4096 and 4097 multipliers, yields after each but the capped one, and
    # names the best overlap it read
    n = 40
    overlap = Synthetic(lambda r: False)
    yielded = []
    with pytest.raises(depthsearch.DepthSearchError) as err:
        for bound in depthsearch._depth_search(n, 2, 0.01, overlap):
            yielded.append(bound)
    threshold = depthsearch.reference_overlap(n) - 0.01
    assert str(err.value) == (
        f"no accepted step count for n=40, q=2, eps=0.01: scanned 4097 multipliers at level 0, "
        f"best overlap 0.000000 < threshold {threshold:.6f}"
    )
    doubling = [*(2**k for k in range(13)), 4097]
    assert overlap.probes == [d * MULTIPLIER for d in doubling]
    assert yielded == [r + 1 for r in overlap.probes[:-1]]


@pytest.mark.parametrize(
    "windows, landing",
    [
        # the bisection's first midpoint, 3 multipliers, is rejected, so it
        # never sees the window below it and lands on the crossing at 3.5
        ([(2.25, 2.75), (3.5, math.inf)], 3.5),
        # the midpoint 3 is accepted and the next one, 2.5, too; the window
        # at 2.125 lies below 2.25, which is rejected
        ([(2.125, 2.1875), (2.5, 3.25), (3.5, math.inf)], 2.5),
    ],
    ids=["window-missed", "window-below-missed"],
)
def test_non_monotone_search_returns_the_crossing_it_lands_on(windows, landing, no_simulation):
    # where a rejected step count need not stay rejected, the search returns
    # a crossing of the threshold, not the smallest accepted step count
    n = 40
    bounds_r = [(lo * MULTIPLIER, hi * MULTIPLIER) for lo, hi in windows]
    overlap = Synthetic(lambda r: any(lo <= r < hi for lo, hi in bounds_r))
    res, _ = run_search(n, 8, 0.01, overlap)
    assert res.r_final == landing * MULTIPLIER
    assert not overlap.accepts(res.r_final - 64)
    smallest = windows[0][0] * MULTIPLIER
    assert overlap.accepts(smallest) and smallest < res.r_final


def test_each_search_evaluates_its_own_probes(monkeypatch):
    # the evaluator's memory lasts one numeric_optimal_depth call, or one
    # sweep_cells call, never the process: a repeated call evaluates its
    # whole probe list again
    calls = []
    original = trotter.trotterized_state

    def counting(n, q, t, r):
        calls.append((q, r))
        return original(n, q, t, r)

    monkeypatch.setattr(trotter, "trotterized_state", counting)
    first = depthsearch.numeric_optimal_depth(24, 4, 0.01)
    probes = calls.copy()
    calls.clear()
    assert depthsearch.numeric_optimal_depth(24, 4, 0.01) == first
    assert calls == probes and len(probes) == first.evaluations
    calls.clear()
    cells = depthsearch.sweep_cells(24, [0.1, 0.01])
    probes = calls.copy()
    calls.clear()
    assert depthsearch.sweep_cells(24, [0.1, 0.01]) == cells
    assert calls == probes and len(probes) == len(set(probes))


def linear_scan(n, q, epsilon):
    """Reference for the doubling scan: the first accepted multiplier d in 1..1+D_CAP, tried one by one."""
    threshold = depthsearch.reference_overlap(n) - epsilon
    for d in range(1, depthsearch.D_CAP + 2):
        state = trotter.trotterized_state(n, q, ctqw.t_star(n), steps_at_multiplier(n, d))
        if abs(state.amp[0]) ** 2 >= threshold:
            return d
    return None


@pytest.mark.parametrize(
    "n, q, eps, d",
    [
        (44, 2, 0.01, 318),
        (40, 2, 0.01, 167),
        (32, 2, 0.001, 84),
        (30, 2, 0.001, 61),
        (40, 4, 0.001, 7),
        (56, 6, 0.001, 3),
        (68, 6, 0.001, 5),
        (80, 6, 0.001, 9),
        (44, 8, 0.01, 1),
        (80, 8, 0.001, 1),
    ],
)
def test_level0_bisection_finds_the_linear_scans_multiplier(n, q, eps, d, monkeypatch):
    # doubling then bisecting finds the first accepted d only while a rejected
    # step count stays rejected at tau = t*/r <= pi/2; q = 8 accepted d = 1
    # in every cell tried
    monkeypatch.setattr(depthsearch, "LEVELS", 1)
    assert linear_scan(n, q, eps) == d
    assert depthsearch.numeric_optimal_depth(n, q, eps).d == d


def test_grover_curve_small_cases():
    curve = depthsearch.grover_curve(2, 1)
    assert curve[0][1] == pytest.approx(0.25)  # k=0 -> 2^-n
    assert curve[1][1] == pytest.approx(1.0, abs=1e-12)  # theta = pi/6
    with pytest.raises(ValueError):
        depthsearch.grover_curve(3, 0)


def test_grover_matches_closed_form():
    for n in (2, 7, 16):
        curve = depthsearch.grover_curve(n, 2000)
        ks = np.array([k for k, _ in curve])
        sim = np.array([ov for _, ov in curve])
        closed = depthsearch.grover_closed_form(n, ks)
        assert np.max(np.abs(sim - closed)) < 1e-9


def test_grover_peak_position():
    import math

    n = 10
    theta = math.asin(2.0 ** (-n / 2))
    k_star = round(math.pi / (4 * theta) - 0.5)
    curve = depthsearch.grover_curve(n, 2 * k_star)
    best_k = max(curve, key=lambda kv: kv[1])[0]
    assert abs(best_k - k_star) <= 1
    assert dict(curve)[k_star] >= 1 - 2.0**-n


def test_sweep_cell_record():
    record, failures = depthsearch.sweep_cell(10, 0.05, orders=(2, 4))
    assert not failures
    assert record.ratio == pytest.approx(record.p_analytical / record.p_numerical)
    assert record.ratio > 1
    assert record.q in (2, 4)


def test_sweep_cell_all_orders_fail(monkeypatch):
    monkeypatch.setattr(depthsearch, "D_CAP", 0)
    record, failures = depthsearch.sweep_cell(10, 0.001, orders=(2,))
    assert record is None
    assert len(failures) == 1
    assert failures[0].q == 2


def test_ratio_sweep_ordering_and_fields():
    records, failures = depthsearch.ratio_sweep([8, 6], [0.1, 0.05], orders=(2, 4))
    assert not failures
    keys = [(r.n, r.epsilon) for r in records]
    assert keys == sorted(keys)
    assert all(r.ratio > 1 for r in records)
    with pytest.raises(ValueError):
        depthsearch.ratio_sweep([], [0.1])


def exhaustive_sweep_cell(n, epsilon, orders=depthsearch.SWEEP_ORDERS):
    """Reference for sweep_cell: every order searched in full, in the given order, at the current D_CAP.

    Returns the record, the decisive failures and the benign ones.
    """
    best, failures = None, []
    for q in orders:
        try:
            res = depthsearch.numeric_optimal_depth(n, q, epsilon)
        except depthsearch.DepthSearchError as err:
            p_lower = trotter.stage_count(q) * steps_at_multiplier(n, depthsearch.D_CAP + 1)
            failures.append((depthsearch.CellFailure(n, epsilon, q, str(err)), p_lower))
            continue
        if best is None or res.p_numerical < best.p_numerical:  # ties keep the earlier order
            best = res
    if best is None:
        return None, [f for f, _ in failures], []
    p_analytic = bounds.analytic_depth_closed(n, epsilon)
    record = depthsearch.SweepRecord(n, best.q, epsilon, best.p_numerical, p_analytic, p_analytic / best.p_numerical)
    decisive = [f for f, p_lower in failures if p_lower <= best.p_numerical]
    benign = [f for f, p_lower in failures if p_lower > best.p_numerical]
    return record, decisive, benign


@pytest.mark.parametrize("n", range(16, 33, 2))
def test_sweep_cell_matches_exhaustive_on_criterion_07_grid(n):
    for eps in (0.1, 0.01):
        record, decisive, _ = exhaustive_sweep_cell(n, eps)
        assert depthsearch.sweep_cell(n, eps) == (record, decisive)


@pytest.mark.parametrize(
    "n, eps, orders, d_cap, kind",
    [
        (14, 0.01, depthsearch.SWEEP_ORDERS, 2, "benign"),
        (18, 0.1, depthsearch.SWEEP_ORDERS, 2, "benign"),
        (20, 0.001, depthsearch.SWEEP_ORDERS, 8, "benign"),
        (14, 0.001, depthsearch.SWEEP_ORDERS, 2, "decisive"),
        (20, 0.1, depthsearch.SWEEP_ORDERS, 2, "decisive"),
        (14, 0.001, (8, 2, 4), 2, "decisive"),
        (4, 0.1, depthsearch.SWEEP_ORDERS, 0, "none"),
        (10, 0.001, (2,), 0, "decisive"),
        (16, 0.01, (8, 2, 4), depthsearch.D_CAP, "none"),
        (24, 0.01, (8, 2, 4), depthsearch.D_CAP, "none"),
        (20, 0.01, (6,), depthsearch.D_CAP, "none"),
    ],
)
def test_sweep_cell_matches_exhaustive_with_failures_and_orders(n, eps, orders, d_cap, kind, monkeypatch):
    monkeypatch.setattr(depthsearch, "D_CAP", d_cap)
    record, decisive, benign = exhaustive_sweep_cell(n, eps, orders)
    # each case exercises the failure handling it is labelled with
    assert kind == ("decisive" if decisive else "benign" if benign else "none")
    assert depthsearch.sweep_cell(n, eps, orders) == (record, decisive)


@pytest.mark.parametrize("n, q_best", [(38, 6), (44, 8)])
def test_sweep_cell_matches_exhaustive_past_the_bounds_order(n, q_best):
    # the numeric winner is not the order the analytic bound picks
    record, decisive, _ = exhaustive_sweep_cell(n, 0.01)
    assert record.q == q_best != bounds.optimal_order(n, 0.01).q_even
    assert depthsearch.sweep_cell(n, 0.01) == (record, decisive)


def test_sweep_cell_prunes_losing_orders(monkeypatch):
    full = sum(depthsearch.numeric_optimal_depth(24, q, 0.01).evaluations for q in depthsearch.SWEEP_ORDERS)
    calls = []
    original = trotter.trotterized_state

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trotter, "trotterized_state", counting)
    depthsearch.sweep_cell(24, 0.01)
    assert len(calls) < full


def test_sweep_cell_best_first_stops_losing_orders_early(monkeypatch):
    # best-first by lower bound: the losing orders stop near the q = 8 depth
    # (searching the bound's q = 4 first took 84 evaluations here)
    calls = []
    original = trotter.trotterized_state

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trotter, "trotterized_state", counting)
    record, _ = depthsearch.sweep_cell(44, 0.01)
    assert record.q == 8
    assert len(calls) <= 31


def test_sweep_cell_rejects_empty_orders():
    with pytest.raises(ValueError, match="orders must be non-empty"):
        depthsearch.sweep_cell(10, 0.05, orders=())


def test_sweep_cells_evaluates_each_step_count_once(monkeypatch):
    # a step count gives the same overlap at every budget; only the
    # threshold changes, so the budgets of one size share their evaluations
    calls = []
    original = trotter.trotterized_state

    def counting(n, q, t, r):
        calls.append((q, r))
        return original(n, q, t, r)

    monkeypatch.setattr(trotter, "trotterized_state", counting)
    single = [depthsearch.sweep_cell(24, eps) for eps in (0.1, 0.01)]
    used = set(calls)
    assert len(calls) > len(used)  # the cells repeat each other's step counts
    calls.clear()
    assert depthsearch.sweep_cells(24, [0.1, 0.01]) == single
    assert sorted(calls) == sorted(used)


@pytest.mark.parametrize(
    "n, rows",
    [
        (40, [(8, 24504000), (6, 20604800), (6, 16950400)]),
        (48, [(8, 525184000), (8, 360064000), (8, 359552000)]),
        (56, [(8, 10043392000), (8, 9058304000), (8, 8398848000)]),
    ],
)
def test_sweep_rows_past_the_golden_sizes(n, rows):
    # the golden gate stops at n = 24; these are the README sweep's
    # (q_best, p_numerical) at epsilon = 0.001, 0.01 and 0.1, the same with
    # 1 and 2 BLAS threads.  Sizes from n = 72 on are left out: roundoff
    # decides their q = 8 depths
    cells = depthsearch.sweep_cells(n, [0.001, 0.01, 0.1])
    assert [(record.q, record.p_numerical, failures) for record, failures in cells] == [(*row, []) for row in rows]
