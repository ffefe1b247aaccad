import math

import numpy as np
import pytest

from trotterwalk import ctqw, symspace, trotter
from trotterwalk.symspace import COST, MIXER


def test_recursion_weight():
    assert trotter.u_coefficient(2) == pytest.approx(0.41449077179437573, rel=1e-14)
    assert 1 - 4 * trotter.u_coefficient(2) == pytest.approx(-0.6579630871775029, rel=1e-13)


def test_suzuki_order_two():
    t = 1.7
    assert trotter.suzuki_coefficients(2, t) == [(MIXER, t / 2), (COST, t), (MIXER, t / 2)]


def test_suzuki_rejects_bad_order():
    for q in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            trotter.suzuki_coefficients(q, 1.0)


def test_suzuki_order_four_middle_block():
    # middle sub-block runs at (1 - 4 u_2) * t < 0
    t = 2.0
    factors = trotter.suzuki_coefficients(4, t)
    costs = [c for tag, c in factors if tag == COST]
    assert len(costs) == 5
    assert costs[2] == pytest.approx((1 - 4 * trotter.u_coefficient(2)) * t, rel=1e-14)
    assert costs[2] < 0


def test_group_sequence_merges_halves():
    pf = trotter.group_sequence(2, 2, 1.0)
    assert pf.factors == ((MIXER, 0.25), (COST, 0.5), (MIXER, 0.5), (COST, 0.5), (MIXER, 0.25))
    assert pf.depth == 2


def test_group_sequence_depths():
    assert trotter.group_sequence(2, 1, 1.0).depth == 1
    pf = trotter.group_sequence(4, 3, 1.0)
    assert sum(1 for tag, _ in pf.factors if tag == COST) == 15
    assert pf.depth == 15
    assert pf.stages == 5


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_group_sequence_structure(q):
    assert trotter.stage_count(q) == 5 ** (q // 2 - 1)
    for r in (1, 3, 13, 32):
        pf = trotter.group_sequence(q, r, 2.9)
        tags = [tag for tag, _ in pf.factors]
        assert tags[0] == MIXER and tags[-1] == MIXER
        assert all(tags[i] != tags[i + 1] for i in range(len(tags) - 1))
        assert sum(1 for tag in tags if tag == COST) == r * pf.stages
        for gen in (COST, MIXER):
            total = sum(c for tag, c in pf.factors if tag == gen)
            assert total == pytest.approx(2.9, rel=1e-9)


def test_step_operator_identity_at_zero_time():
    u = trotter.step_operator(6, 4, 0.0, 1)
    assert np.max(np.abs(u.entries - np.eye(7))) < 1e-12


def test_step_operator_unitary():
    u = trotter.step_operator(20, 6, ctqw.t_star(20), 64)
    assert u.unitarity_defect() <= 1e-11


def test_trotterized_state_converges_to_walk():
    n, q = 6, 2
    t = ctqw.t_star(n)
    exact = ctqw.ctqw_state(n, ctqw.alpha_star(n), t)
    prev = None
    for r in (64, 256, 1024):
        ov = abs(np.vdot(exact.amp, trotter.trotterized_state(n, q, t, r).amp)) ** 2
        if prev is not None:
            assert ov >= prev - 1e-12
        prev = ov
    assert prev > 1 - 1e-6


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_trotterized_state_matches_full_space(n):
    rng = np.random.default_rng(n)
    alpha = ctqw.alpha_star(n)
    for _ in range(5):
        q = int(rng.choice([2, 4, 6]))
        r = int(rng.integers(1, 24))
        t = float(rng.uniform(0.1, 1.0)) * ctqw.t_star(n)
        full = symspace.full_space_oracle(n, trotter.group_sequence(q, r, t).factors, alpha)
        sub = trotter.trotterized_state(n, q, t, r)
        assert np.max(np.abs(full.amp - sub.amp)) < 1e-10


def test_overlap_trace_endpoints():
    n, q, r = 10, 2, 512
    t = ctqw.t_star(n)
    trace = trotter.overlap_trace(n, q, t, r, samples=9)
    assert trace[0] == (0, pytest.approx(2.0**-n, rel=1e-12))
    direct = float(abs(trotter.trotterized_state(n, q, t, r).amp[0]) ** 2)
    assert trace[-1][0] == r
    assert trace[-1][1] == pytest.approx(direct, abs=1e-12)


def test_overlap_trace_geometric_spacing():
    trace = trotter.overlap_trace(8, 2, ctqw.t_star(8), 256, samples=6, spacing="geometric")
    steps = [m for m, _ in trace]
    assert steps[0] == 0 and steps[-1] == 256
    assert steps == sorted(steps)
    with pytest.raises(ValueError):
        trotter.overlap_trace(8, 2, 1.0, 4, samples=1)


def test_overlap_trace_ends_at_r_past_float_precision():
    # r = 2^60 + 1 has no exact double, so float spacing alone ends off r
    r = 2**60 + 1
    for spacing in ("linear", "geometric"):
        trace = trotter.overlap_trace(4, 2, ctqw.t_star(4), r, samples=5, spacing=spacing)
        assert trace[-1][0] == r


def test_overlap_trace_follows_two_level_profile():
    n = 20
    from trotterwalk import bounds

    q = bounds.optimal_order(n, 0.01).q_even
    r = bounds.required_steps(n, q, 0.01)
    t = ctqw.t_star(n)
    gap = ctqw.gap(n).gap_exact
    peak = ctqw.ctqw_overlap(n, ctqw.alpha_star(n), t)
    for m, ov in trotter.overlap_trace(n, q, t, r, samples=25):
        model = peak * math.sin(gap * t * (m / r) / 2) ** 2
        assert abs(ov - model) <= 0.05


def test_qaoa_angles_single_block():
    ang = trotter.qaoa_angles(2, 3.0, 1)
    assert ang.p == 1
    assert ang.gammas.tolist() == [3.0]
    assert ang.betas.tolist() == [1.5]  # final mixer half-angle t/2
    assert ang.leading_mixer_half == 1.5


def test_qaoa_angles_interior_merge():
    ang = trotter.qaoa_angles(2, 3.0, 2)
    assert ang.p == 2
    assert ang.betas[0] == pytest.approx(1.5)  # (t_1 + t_2)/2 = t/2


@pytest.mark.parametrize("q", [2, 4, 6])
def test_angle_reconstruction_operator_equality(q):
    n = 5
    alpha = ctqw.alpha_star(n)
    for r in (1, 4, 16):
        t = 0.8 * ctqw.t_star(n)
        ang = trotter.qaoa_angles(q, t, r)
        assert ang.p == r * trotter.stage_count(q)
        rec = trotter.angles_operator(n, ang, alpha)
        ref = symspace.matrix_power(trotter.step_operator(n, q, t, r, alpha), r)
        assert trotter.phase_aligned_distance(rec, ref) < 1e-10


def test_angle_circuit_reproduces_state():
    n = 8
    for q, r in ((2, 7), (4, 3)):
        t = 0.6 * ctqw.t_star(n)
        ang = trotter.qaoa_angles(q, t, r)
        state = trotter.apply_qaoa_angles(n, ang)
        ref = trotter.trotterized_state(n, q, t, r)
        assert np.max(np.abs(state.amp - ref.amp)) < 1e-10


def test_block_times_sum():
    for q, r in ((2, 5), (4, 2), (6, 3)):
        tk = trotter.block_times(q, 4.2, r)
        assert len(tk) == r * trotter.stage_count(q)
        assert tk.sum() == pytest.approx(4.2, rel=1e-12)
        costs = [tau for tag, tau in trotter.group_sequence(q, r, 4.2).factors if tag == COST]
        assert tk.tolist() == costs


def test_order_scaling_small():
    from trotterwalk import bounds

    n = 6
    ts = ctqw.t_star(n)
    for q in (2, 4):
        pts = []
        prev = None
        for j in range(1, 13):
            e = bounds.spectral_error(n, q, ts, 2**j)
            if e > 1e-2:
                continue
            if e < 1e-10 or (prev is not None and e >= prev):
                break
            pts.append((j, math.log2(e)))
            prev = e
        slope = np.polyfit(*zip(*pts), 1)[0]
        assert abs(slope + q) <= 0.15 * q
