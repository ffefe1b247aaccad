import math
import tracemalloc

import numpy as np
import pytest

import oracle
from oracle import dicke_step_delta, full_space_oracle, krawtchouk_mixer_basis
from trotterwalk import bounds, ctqw, symspace, trotter
from trotterwalk.symspace import COST, MIXER


def test_recursion_weight():
    assert trotter.u_coefficient(2) == pytest.approx(0.41449077179437573, rel=1e-14)
    assert 1 - 4 * trotter.u_coefficient(2) == pytest.approx(-0.6579630871775029, rel=1e-13)


def test_suzuki_order_two():
    t = 1.7
    assert trotter.suzuki_coefficients(2, t) == [(MIXER, t / 2), (COST, t), (MIXER, t / 2)]


def test_suzuki_rejects_bad_order():
    # the step build recurses on q, so a bad order must be refused before it starts
    for q in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            trotter.suzuki_coefficients(q, 1.0)
        with pytest.raises(ValueError):
            trotter.step_operator(4, q, 1.0, 1)
        with pytest.raises(ValueError):
            trotter.trotterized_state(4, q, 1.0, 1)
    # and so must a step count below 1, which divides t
    with pytest.raises(ValueError, match="step count must be an integer >= 1, got 0"):
        trotter.step_operator(4, 2, 1.0, 0)


def test_suzuki_order_four_middle_block():
    # middle sub-block runs at (1 - 4 u_2) * t < 0
    t = 2.0
    factors = trotter.suzuki_coefficients(4, t)
    costs = [c for tag, c in factors if tag == COST]
    assert len(costs) == 5
    assert costs[2] == pytest.approx((1 - 4 * trotter.u_coefficient(2)) * t, rel=1e-14)
    assert costs[2] < 0


def test_group_sequence_merges_halves():
    factors = trotter.group_sequence(2, 2, 1.0)
    assert factors == ((MIXER, 0.25), (COST, 0.5), (MIXER, 0.5), (COST, 0.5), (MIXER, 0.25))


def test_group_sequence_depths():
    # the depth is the number of cost factors, r * stage_count(q)
    assert sum(1 for tag, _ in trotter.group_sequence(2, 1, 1.0) if tag == COST) == 1
    assert sum(1 for tag, _ in trotter.group_sequence(4, 3, 1.0) if tag == COST) == 15
    assert trotter.stage_count(4) == 5


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_group_sequence_structure(q):
    assert trotter.stage_count(q) == 5 ** (q // 2 - 1)
    for r in (1, 3, 13, 32):
        factors = trotter.group_sequence(q, r, 2.9)
        tags = [tag for tag, _ in factors]
        assert tags[0] == MIXER and tags[-1] == MIXER
        assert all(tags[i] != tags[i + 1] for i in range(len(tags) - 1))
        assert sum(1 for tag in tags if tag == COST) == r * trotter.stage_count(q)
        for gen in (COST, MIXER):
            total = sum(c for tag, c in factors if tag == gen)
            assert total == pytest.approx(2.9, rel=1e-9)


def test_step_operator_identity_at_zero_time():
    u = trotter.step_operator(6, 4, 0.0, 1)
    assert np.max(np.abs(u.entries - np.eye(7))) < 1e-12


def test_step_operator_unitary():
    u = trotter.step_operator(20, 6, ctqw.t_star(20), 64)
    assert u.unitarity_defect() <= 1e-11


def test_step_operator_is_read_only():
    # the cached step is handed to every caller of its (n, q, t, r)
    step = trotter._mixer_basis_step(6, 4, ctqw.t_star(6), 8)
    with pytest.raises(ValueError):
        step.delta[0, 0] = 0.0
    # entries is a new array on each access: writing into one leaves the step as it was
    u = trotter.step_operator(6, 4, ctqw.t_star(6), 8)
    delta, entries = u.delta.tobytes(), u.entries
    entries[0, 0] = 0.0
    assert u.delta.tobytes() == delta and u.entries[0, 0] != 0.0


@pytest.mark.parametrize("q", [2, 4, 6, 8, 16])
@pytest.mark.parametrize("n", [10, 80])
def test_step_is_complex_symmetric(n, q):
    # in the mixer basis a step is a palindrome of complex symmetric factors,
    # so E = E^T up to roundoff.  Measured at most 8.6e-16 relative for
    # q <= 8, and 9.0e-16 and 1.05e-14 for q = 16 at n = 10 and 80; the
    # bounds are about 5 times those
    bound = 4e-15 if q <= 8 else {10: 5e-15, 80: 5e-14}[n]
    for r in (round(2 ** (n / 2)), 1000):
        e = trotter._mixer_basis_step(n, q, ctqw.t_star(n), r).delta
        assert np.max(np.abs(e - e.T)) <= bound * np.max(np.abs(e)), r


@pytest.mark.parametrize(
    "n, q, r",
    [(20, 4, 1572901), (44, 8, 760832), (80, 8, 688536944640), (80, 4, bounds.required_steps(80, 4, 0.001))],
)
def test_kept_squares_stay_complex_symmetric(n, q, r):
    # squaring, 2E + E^2, and the Newton-Schulz step X (3I - X^dag X) / 2
    # both map a complex symmetric matrix to one, so every square the
    # powering keeps is symmetric up to roundoff.  Measured at most 1.3e-15,
    # 9.5e-15, 1.5e-14 and 3.5e-14 relative in these cases, the last at
    # r = 7.2e17 with 15 kept squares; the bound is about 3 times the worst
    trotter.trotterized_state(n, q, ctqw.t_star(n), r)
    kept = trotter._mixer_basis_step(n, q, ctqw.t_star(n), r)._polar_squares
    assert len(kept) == 1 + (r.bit_length() - 1) // symspace._POLAR_EVERY
    for k, e in enumerate(kept):
        assert np.max(np.abs(e - e.T)) <= 1e-13 * np.max(np.abs(e)), k


@pytest.mark.parametrize("n", [1, 2, 44, 80])
def test_mixer_basis_is_exact(n):
    # W is built from exact Krawtchouk integers; eigh's vectors of H_x miss
    # the eigen-equation by 6.0e-14 at n = 80
    w = trotter._mixer_basis(n)
    assert w.dtype == np.float64 and np.array_equal(w, w.T)
    assert np.max(np.abs(w @ w - np.eye(n + 1))) <= 1e-15
    lam = n - 2.0 * np.arange(n + 1)
    assert np.max(np.abs(oracle.build_hx(n).real @ w - w * lam)) <= 1e-14
    # |+> is exactly e_0, so a state powered from e_0 starts as |+> bit for bit
    assert w[0].tobytes() == symspace.plus_state(n).amp.real.tobytes()


def test_mixer_basis_matches_the_full_recurrence():
    # the rows past n/2 are reflections of the rows below; W is bit for bit
    # the matrix that the recurrence through every row makes
    for n in range(1, 81):
        w, reference = trotter._mixer_basis(n), krawtchouk_mixer_basis(n)
        assert w.shape == reference.shape and w.tobytes() == reference.tobytes(), n


def test_mixer_basis_is_read_only():
    for n in (1, 2, 44, 80):
        w = trotter._mixer_basis(n)
        expected = w.copy()
        with pytest.raises(ValueError):
            w[0, 0] = 99.0
        assert np.array_equal(trotter._mixer_basis(n), expected)


@pytest.mark.parametrize("q", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [10, 44, 80])
def test_step_matches_dicke_build(n, q):
    # against a step built in the Dicke basis from eigh's eigenvectors of H_x
    alpha = ctqw.alpha_star(n)
    for tau in (1e-6, 0.5, 4.0, 9.0):
        ref = dicke_step_delta(n, q, tau, alpha)
        built = trotter.step_operator(n, q, tau, 1).delta
        assert np.max(np.abs(built - ref)) <= 1e-13 * np.max(np.abs(ref)), tau


def test_cell_shares_one_powered_step(monkeypatch):
    # state, spectral error and trace of one cell at r > 2^53 reuse the
    # cached step's projected squares: the first powering makes one polar
    # step per _POLAR_EVERY squarings, and no later one makes any.  A later
    # powering squares each run from a kept square only up to the run's
    # highest set bit of r, one _times_plus per plain square
    n, q = 80, 4
    t, r = ctqw.t_star(n), bounds.required_steps(n, q, 0.001)
    every = symspace._POLAR_EVERY
    trotter._mixer_basis_step.cache_clear()
    polar, times_plus, calls, products = symspace._polar_step, symspace._times_plus, [], []
    monkeypatch.setattr(symspace, "_polar_step", lambda e: calls.append(None) or polar(e))
    monkeypatch.setattr(symspace, "_times_plus", lambda x, y: products.append(None) or times_plus(x, y))
    passes = []  # _times_plus calls in each spectral-error pass

    def cell():
        state = trotter.trotterized_state(n, q, t, r)
        before = len(products)
        err = bounds.spectral_error(n, q, t, r)
        passes.append(len(products) - before)
        return state.amp.tobytes(), err, trotter.overlap_trace(n, q, t, r, samples=41)

    shared = cell()
    assert len(calls) == (r.bit_length() - 1) // every
    lazy = sum(max(((r >> k) & ((1 << every) - 1)).bit_length() - 1, 0) for k in range(0, r.bit_length(), every))
    assert passes == [lazy]
    # against the 45 plain squares between the kept ones up to r's top bit
    assert lazy == 24 and r.bit_length() - 1 - len(calls) == 45
    # the same cell with a fresh, uncached copy of the step in every call
    delta = trotter._mixer_basis_step(n, q, t, r).delta
    monkeypatch.setattr(trotter, "_mixer_basis_step", lambda *args: symspace.SymOperator(n, delta.copy()))
    assert cell() == shared


# the last case has r > 2^53, where the step's delta lies below machine epsilon of I
@pytest.mark.parametrize("n, q, eps", [(n, q, 0.01) for n in (8, 32, 68) for q in (2, 4, 6, 8)] + [(80, 4, 0.001)])
def test_recursive_step_matches_factor_walk(n, q, eps):
    t, r = ctqw.t_star(n), bounds.required_steps(n, q, eps)
    walked = trotter.factors_operator(n, trotter.merge_adjacent(trotter.suzuki_coefficients(q, t / r)), ctqw.alpha_star(n))
    built = trotter.step_operator(n, q, t, r)
    assert np.max(np.abs(built.delta - walked.delta)) <= 1e-13 * np.max(np.abs(walked.delta))


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
        full = full_space_oracle(n, trotter.group_sequence(q, r, t), alpha)
        sub = trotter.trotterized_state(n, q, t, r)
        assert np.max(np.abs(full.amp - sub.amp)) < 1e-10


def test_overlap_trace_endpoints():
    # both power the same cached step through symspace.apply_powers and take
    # the target amplitude as (W psi)[0], so the last sample is exact, also
    # past r = 2^53 where the step is within machine epsilon of I, and when
    # more samples than r + 1 make points repeat
    for n, q, r in ((10, 2, 512), (10, 2, 6), (80, 4, bounds.required_steps(80, 4, 0.001))):
        t = ctqw.t_star(n)
        for spacing in ("linear", "geometric"):
            trace = trotter.overlap_trace(n, q, t, r, samples=9, spacing=spacing)
            steps = [m for m, _ in trace]
            assert steps == sorted(set(steps)) and (len(steps) == 9 if r >= 9 else steps == list(range(r + 1)))
            assert trace[0] == (0, pytest.approx(2.0**-n, rel=1e-12))
            assert trace[-1] == (r, abs(trotter.trotterized_state(n, q, t, r).amp[0]) ** 2)


@pytest.mark.parametrize(
    "n, q, eps, spacing, samples",
    [
        (20, 2, 0.01, "linear", 41),
        (20, 2, 0.01, "geometric", 41),
        (80, 4, 0.001, "linear", 41),
        (20, 2, 0.01, "linear", 20_000),
    ],
    ids=["20-2-0.01-linear", "20-2-0.01-geometric", "80-4-0.001-linear", "20-2-0.01-linear-20000"],
)
def test_overlap_trace_matches_lone_powers(n, q, eps, spacing, samples, monkeypatch):
    # the trace carries its samples as columns of a block, which may differ
    # from a lone power's matrix-vector products in the last bits; 20,000
    # samples at n = 20 are 60 passes of 16 slices of n + 1
    t, r = ctqw.t_star(n), bounds.required_steps(n, q, eps)
    step, w = trotter._mixer_basis_step(n, q, t, r), trotter._mixer_basis(n)
    e0 = np.eye(1, n + 1, dtype=complex)[0]
    tracemalloc.start()
    try:
        trace = trotter.overlap_trace(n, q, t, r, samples=samples, spacing=spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for m, overlap in trace[:: len(trace) // 40] + trace[-1:]:
        lone = abs((w @ symspace.apply_powers(step, [m], e0)[0])[0]) ** 2
        assert abs(overlap - lone) <= 1e-13, m
    # a pass's block holds 16 (n + 1) samples whatever their count: one
    # block of all 20,000 peaked at 12.6 MB, the passes at 3.7 MB
    assert peak <= 6e6
    monkeypatch.setattr(trotter, "_TRACE_SLICES", samples)
    one_pass = trotter.overlap_trace(n, q, t, r, samples=samples, spacing=spacing)
    assert [m for m, _ in one_pass] == [m for m, _ in trace]
    assert one_pass[0] == trace[0] and one_pass[-1] == trace[-1]
    assert max(abs(a - b) for (_, a), (_, b) in zip(one_pass, trace)) <= 1e-13


def test_overlap_trace_geometric_spacing():
    trace = trotter.overlap_trace(8, 2, ctqw.t_star(8), 256, samples=6, spacing="geometric")
    steps = [m for m, _ in trace]
    assert steps[0] == 0 and steps[-1] == 256
    assert steps == sorted(steps)
    with pytest.raises(ValueError):
        trotter.overlap_trace(8, 2, 1.0, 4, samples=1)
    with pytest.raises(ValueError, match="spacing must be 'linear' or 'geometric', got 'bogus'"):
        trotter.overlap_trace(8, 2, 1.0, 4, samples=3, spacing="bogus")


def test_overlap_trace_ends_at_r_past_float_precision():
    # r = 2^60 + 1 has no exact double, so float spacing alone ends off r;
    # r = 2^64 + 1 does not fit an int64 either
    for r in (2**60 + 1, 2**64 + 1):
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
    for r in (1, 4, 16):
        t = 0.8 * ctqw.t_star(n)
        ang = trotter.qaoa_angles(q, t, r)
        assert ang.p == r * trotter.stage_count(q)
        rec = trotter.angles_operator(n, ang)
        eye = np.eye(n + 1, dtype=complex)
        ref = symspace.SymOperator(n, symspace.apply_powers(trotter.step_operator(n, q, t, r), [r], eye)[0] - eye)
        assert trotter.phase_aligned_distance(rec, ref) < 1e-10


def test_angle_circuit_reproduces_state():
    n = 8
    for q, r in ((2, 7), (4, 3)):
        t = 0.6 * ctqw.t_star(n)
        ang = trotter.qaoa_angles(q, t, r)
        state = trotter.apply_qaoa_angles(n, ang)
        ref = trotter.trotterized_state(n, q, t, r)
        assert np.max(np.abs(state.amp - ref.amp)) < 1e-10


def test_qaoa_angles_are_the_grouped_sequence():
    for q, r in ((2, 5), (4, 2), (6, 3), (8, 1), (2, 13), (8, 13)):
        ang = trotter.qaoa_angles(q, 4.2, r)
        assert len(ang.gammas) == len(ang.betas) == ang.p == r * trotter.stage_count(q)
        assert ang.gammas.sum() == pytest.approx(4.2, rel=1e-12)
        factors = trotter.group_sequence(q, r, 4.2)
        # the r steps merged one factor at a time, a reference for the tiling
        assert factors == tuple(trotter.merge_adjacent(trotter.suzuki_coefficients(q, 4.2 / r) * r))
        assert factors[0] == (MIXER, ang.leading_mixer_half)
        assert factors[1::2] == tuple((COST, gamma) for gamma in ang.gammas.tolist())
        assert factors[2::2] == tuple((MIXER, beta) for beta in ang.betas.tolist())


def test_qaoa_angles_hold_no_more_than_the_result():
    # the angles are one merged step's, tiled r times, with no r-fold list of factors
    tracemalloc.start()
    try:
        ang = trotter.qaoa_angles(4, 4.2, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (ang.gammas.nbytes + ang.betas.nbytes)


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
