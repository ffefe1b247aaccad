"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import math

import numpy as np
import pytest

import oracle
from oracle import full_space_oracle
from trotterwalk import bounds, ctqw, depthsearch, symspace, trotter


def report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def trotterized_overlap_at_required_depth(n: int, eps: float):
    q = bounds.optimal_order(n, eps).q_even
    r = bounds.required_steps(n, q, eps)
    state = trotter.trotterized_state(n, q, ctqw.t_star(n), r)
    return q, r, float(abs(state.amp[0]) ** 2), depthsearch.reference_overlap(n)


def test_criterion_01_overlap_at_desk_scale():
    q, r, overlap, reference = trotterized_overlap_at_required_depth(20, 0.01)
    ok = overlap >= reference - 0.01 and reference >= 0.8
    report(1, ok, f"n=20 q={q} r={r}: overlap={overlap:.6f} reference={reference:.6f}")


def test_criterion_02_overlap_at_large_scale():
    oks, details = [], []
    for n in (42, 46):
        q, r, overlap, reference = trotterized_overlap_at_required_depth(n, 0.01)
        oks.append(overlap >= reference - 0.01 and reference >= 0.8)
        details.append(f"n={n} q={q} r={r:.2e} overlap={overlap:.6f} ref={reference:.6f}")
    q46 = bounds.optimal_order(46, 0.01).q_even
    oks.append(q46 == 4)
    report(2, all(oks), "; ".join(details) + f"; q_even(46,0.01)={q46}")


def _scaling_regime(n: int, q: int, j_max: int = 14):
    """(log2 r, log2 err) points on the descending branch within [1e-10, 1e-2]."""
    ts = ctqw.t_star(n)
    points, prev = [], None
    for j in range(1, j_max + 1):
        err = bounds.spectral_error(n, q, ts, 2**j)
        if err > 1e-2:
            continue
        if err < 1e-10 or (prev is not None and err >= prev):
            break
        points.append((float(j), math.log2(err)))
        prev = err
    return points


def test_criterion_03_trotter_order_scaling():
    oks, details = [], []
    for n in (6, 8):
        for q in (2, 4, 6):
            points = _scaling_regime(n, q)
            slope = float(np.polyfit(*zip(*points), 1)[0])
            oks.append(abs(slope + q) <= 0.15 * q)
            details.append(f"n={n},q={q}: slope={slope:.2f}")
    report(3, all(oks), "; ".join(details))


def test_criterion_04_bound_validity_sweep():
    violations = 0
    cells = 0
    for n in (4, 6, 8, 10):
        ts = ctqw.t_star(n)
        for q in (2, 4):
            delta = bounds.delta_bound(n, q)
            stages = trotter.stage_count(q)
            for j in range(2, 15):
                cells += 1
                measured = bounds.spectral_error(n, q, ts, 2**j)
                if measured > bounds.trotter_error_bound(q, delta, ts, 2**j, stages):
                    violations += 1
    report(4, violations == 0, f"{cells} cells, {violations} violations")


def test_criterion_05_full_space_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (4, 6, 8, 10):
        alpha = ctqw.alpha_star(n)
        for _ in range(20):
            q = int(rng.choice([2, 4, 6]))
            r = int(rng.integers(1, 33))
            t = float(rng.uniform(0.05, 1.0)) * ctqw.t_star(n)
            factors = trotter.group_sequence(q, r, t)
            full = full_space_oracle(n, factors, alpha)
            sub = trotter.trotterized_state(n, q, t, r)
            worst = max(worst, float(np.max(np.abs(full.amp - sub.amp))))
    report(5, worst <= 1e-10, f"80 randomized cases, max amplitude diff {worst:.2e}")


def test_criterion_06_commutator_sum_ordering_and_lemmas():
    ordering_ok = all(
        bounds.delta_exact(n, q) <= bounds.delta_bound(n, q) for n in range(1, 17) for q in range(1, 5)
    )
    rng = np.random.default_rng(99)
    lemmas_ok = True
    for n in (4, 8, 16):
        h1 = oracle.build_h0(n)
        h2 = ctqw.alpha_star(n) * oracle.build_hx(n)
        mixer_bound = 2 * ctqw.alpha_star(n) * (n + 1)
        for _ in range(500):
            a = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
            amax = np.max(np.abs(a))
            lemmas_ok &= np.max(np.abs(h1 @ a - a @ h1)) <= amax * (1 + 1e-12)
            lemmas_ok &= np.max(np.abs(h2 @ a - a @ h2)) <= mixer_bound * amax * (1 + 1e-12)
            lemmas_ok &= np.linalg.norm(a, 2) <= np.linalg.norm(a, "fro") * (1 + 1e-12)
    report(6, ordering_ok and bool(lemmas_ok), "delta ordering n<=16 q<=4; norm lemmas on 1500 random matrices")


def test_criterion_07_depth_ratio_sweep():
    records, failures = depthsearch.ratio_sweep(list(range(16, 33, 2)), [0.1, 0.01])
    ratios_ok = all(rec.ratio > 1 for rec in records)
    growth_ok = True
    worst_growth = 0.0
    for eps in (0.1, 0.01):
        by_n = {rec.n: rec.ratio for rec in records if rec.epsilon == eps}
        for n in range(16, 31, 2):
            growth = by_n[n + 2] / by_n[n]
            worst_growth = max(worst_growth, growth)
            growth_ok &= growth < 2
    ok = not failures and len(records) == 18 and ratios_ok and growth_ok
    report(7, ok, f"{len(records)} cells, ratios > 1, max ratio(n+2)/ratio(n) = {worst_growth:.3f}")


def test_criterion_08_depth_vs_epsilon():
    oks, details = [], []
    for n in (20, 24):
        q = bounds.optimal_order(n, 0.01).q_even
        depths = [
            depthsearch.numeric_optimal_depth(n, q, eps).p_numerical for eps in (0.001, 0.003, 0.01, 0.03, 0.1)
        ]
        oks.append(all(a >= b for a, b in zip(depths, depths[1:])))
        details.append(f"n={n} q={q}: {depths}")
    report(8, all(oks), "; ".join(details))


def test_criterion_09_angle_recovery():
    n = 6
    t = ctqw.t_star(n)
    worst = 0.0
    for q in (2, 4, 6):
        for r in range(1, 17):
            angles = trotter.qaoa_angles(q, t, r)
            rebuilt = trotter.angles_operator(n, angles)
            power = symspace.apply_powers(trotter.step_operator(n, q, t, r), [r], np.eye(n + 1))[0]
            reference = symspace.SymOperator(n, power - np.eye(n + 1))
            worst = max(worst, trotter.phase_aligned_distance(rebuilt, reference))
    report(9, worst <= 1e-10, f"48 (q, r) combinations, max operator distance {worst:.2e}")


def test_criterion_10_grover_baseline():
    worst = 0.0
    for n in (2, 6, 10, 18, 24, 30):
        curve = depthsearch.grover_curve(n, 10**4)
        ks = np.array([k for k, _ in curve])
        sim = np.array([ov for _, ov in curve])
        worst = max(worst, float(np.max(np.abs(sim - depthsearch.grover_closed_form(n, ks)))))
    single_shot = depthsearch.grover_curve(2, 1)[1][1]
    ok = worst <= 1e-9 and abs(single_shot - 1.0) <= 1e-12
    report(10, ok, f"max |sim - closed| = {worst:.2e}; n=2 one iteration -> {single_shot:.12f}")


def test_criterion_11_closed_form_consistency():
    # the two depth forms cross-check internally; recompute the direct form here
    est = bounds.analytic_depth(30, 4, 0.01)
    stages = trotter.stage_count(4)
    direct = (
        stages ** (2 + 1 / 4)
        * (2 * bounds.delta_bound(30, 4)) ** (1 / 4)
        * ctqw.t_star(30) ** (1 + 1 / 4)
        / (0.01 * 5) ** (1 / 4)
    )
    forms_ok = abs(est.p_analytic - direct) <= 1e-9 * direct

    closed_ok = True
    for n in range(10, 69, 2):
        for eps in (0.1, 0.01):
            q_real = bounds.optimal_order(n, eps).q_real
            ln_at_q = (
                math.log(bounds.p0(n, q_real))
                + 0.5 * n * math.log(2)
                + (math.log(2 * math.pi * (n + 1)) + 0.5 * n * math.log(2) - math.log(5 * eps)) / q_real
                + q_real * math.log(5)
            )
            closed_ok &= bounds.analytic_depth_closed(n, eps) >= math.exp(ln_at_q) * (1 - 1e-12)

    p0_ok = all(bounds.p0(n, q) < 0.5 for n in range(1, 69) for q in (2, 4, 6, 8))

    residuals = [
        math.log2(bounds.analytic_depth_closed(n, 0.01)) - n / 2 - math.sqrt(2 * n * math.log2(5))
        for n in range(10, 69)
    ]
    exponent_ok = 0.0 < min(residuals) and max(residuals) < 8.0

    ok = forms_ok and closed_ok and p0_ok and exponent_ok
    report(
        11,
        ok,
        f"forms agree to {abs(est.p_analytic - direct) / direct:.1e}; "
        f"closed >= at-q_real; max p0 = {max(bounds.p0(n, q) for n in range(1, 69) for q in (2, 4, 6, 8)):.3f}; "
        f"exponent residual in [{min(residuals):.2f}, {max(residuals):.2f}]",
    )
