import numpy as np
import pytest

from trotterwalk import bounds, ctqw, depthsearch, symspace, trotter


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
            u = symspace.matrix_power(trotter.step_operator(n, q, ctqw.t_star(n), r), r)
            return float(abs((u.entries @ symspace.plus_state(n).amp)[0]) ** 2)

        r_below = depthsearch._steps_at(n, res.d - 1, res.level)
        if r_below < res.r_final:
            assert overlap_at(r_below) < threshold


@pytest.mark.parametrize("n", [70, 80])
def test_numeric_depth_invariants_at_large_n(n):
    # the README promises n <= 80; the search is checked at its top end
    eps = 0.01
    res = depthsearch.numeric_optimal_depth(n, 8, eps)
    threshold = res.reference - eps
    assert res.overlap >= threshold
    r_below = depthsearch._steps_at(n, res.d - 1, res.level)
    assert r_below < res.r_final
    state = trotter.trotterized_state(n, 8, ctqw.t_star(n), r_below)
    assert abs(state.amp[0]) ** 2 < threshold


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


def test_numeric_depth_rejects_zero_iterations():
    with pytest.raises(ValueError, match="refinement iterations must be >= 1"):
        depthsearch.numeric_optimal_depth(8, 2, 0.1, refinement_iterations=0)


def test_numeric_depth_rejects_negative_d_cap():
    with pytest.raises(ValueError, match="d_cap must be >= 0"):
        depthsearch.numeric_optimal_depth(8, 2, 0.1, d_cap=-1)
    with pytest.raises(ValueError, match="d_cap must be >= 0"):
        depthsearch.sweep_cell(8, 0.1, d_cap=-1)


def test_zero_d_cap_refines_past_the_first_level():
    # level 0 probes d = 1 only; every later level probes 2d' - 1 and 2d',
    # and 2d' repeats the step count accepted one level up
    res = depthsearch.numeric_optimal_depth(4, 2, 0.1, d_cap=0)
    assert res.level == depthsearch.DEFAULT_ITERATIONS - 1
    assert res.p_numerical == 3
    record, failures = depthsearch.sweep_cell(4, 0.1, d_cap=0)
    assert (record.q, record.p_numerical, failures) == (2, 3, [])


def test_numeric_depth_failure_diagnostics():
    # a scan budget of zero cannot move past d=1, which is insufficient here
    with pytest.raises(depthsearch.DepthSearchError) as err:
        depthsearch.numeric_optimal_depth(10, 2, 0.001, d_cap=0)
    assert err.value.n == 10
    assert err.value.best_overlap < err.value.threshold


@pytest.mark.parametrize("d_cap", [0, 2])
def test_depth_search_error_counts_evaluated_multipliers(d_cap, monkeypatch):
    # the level-0 scan evaluates d = 1 through 1 + d_cap
    calls = []
    original = depthsearch.trotter.trotterized_state

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(depthsearch.trotter, "trotterized_state", counted)
    with pytest.raises(depthsearch.DepthSearchError) as err:
        depthsearch.numeric_optimal_depth(10, 2, 0.001, d_cap=d_cap)
    assert err.value.scanned == len(set(calls)) == d_cap + 1
    assert f"scanned {d_cap + 1} multipliers at level 0" in str(err.value)


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


def test_sweep_cell_all_orders_fail():
    record, failures = depthsearch.sweep_cell(10, 0.001, orders=(2,), d_cap=0)
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


def exhaustive_sweep_cell(n, epsilon, orders=depthsearch.SWEEP_ORDERS, d_cap=depthsearch.DEFAULT_D_CAP):
    """Reference for sweep_cell: every order searched in full, in the given order.

    Returns the record, the decisive failures and the benign ones.
    """
    best, failures = None, []
    for q in orders:
        try:
            res = depthsearch.numeric_optimal_depth(n, q, epsilon, d_cap=d_cap)
        except depthsearch.DepthSearchError as err:
            p_lower = trotter.stage_count(q) * depthsearch._steps_at(n, d_cap + 1, err.level)
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
        (16, 0.01, (8, 2, 4), depthsearch.DEFAULT_D_CAP, "none"),
        (24, 0.01, (8, 2, 4), depthsearch.DEFAULT_D_CAP, "none"),
        (20, 0.01, (6,), depthsearch.DEFAULT_D_CAP, "none"),
    ],
)
def test_sweep_cell_matches_exhaustive_with_failures_and_orders(n, eps, orders, d_cap, kind):
    record, decisive, benign = exhaustive_sweep_cell(n, eps, orders, d_cap)
    # each case exercises the failure handling it is labelled with
    assert kind == ("decisive" if decisive else "benign" if benign else "none")
    assert depthsearch.sweep_cell(n, eps, orders, d_cap=d_cap) == (record, decisive)


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


def test_sweep_cell_rejects_empty_orders():
    with pytest.raises(ValueError, match="orders must be non-empty"):
        depthsearch.sweep_cell(10, 0.05, orders=())
