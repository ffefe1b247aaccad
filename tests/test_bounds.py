import itertools
import math
import sys

import numpy as np
import pytest

import oracle
from trotterwalk import bounds, cli, ctqw, depthsearch, trotter


def test_delta_bound_value():
    # direct arithmetic: alpha*(3) = 29/96, so 2*4*(2*(29/96)*4 + 1)^2
    expected = 2 * 4 * (2 * (29 / 96) * 4 + 1) ** 2
    assert bounds.delta_bound(3, 2) == pytest.approx(expected, rel=1e-12)


def test_delta_bound_guards_and_monotonicity():
    with pytest.raises(ValueError):
        bounds.delta_bound(3, 0)
    with pytest.raises(ValueError):
        bounds.delta_exact(3, 0)
    values = [bounds.delta_bound(5, q) for q in range(1, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_delta_exact_first_order():
    # q=1: only the two mixed sequences survive, each |[H1, H2]|
    n = 5
    h1 = -1j * oracle.build_h0(n)
    h2 = -1j * ctqw.alpha_star(n) * oracle.build_hx(n)
    comm = np.linalg.norm(h2 @ h1 - h1 @ h2, 2)
    assert bounds.delta_exact(n, 1) == pytest.approx(2 * comm, rel=1e-12)


def test_delta_exact_below_bound():
    for n in (3, 6, 16):
        for q in range(1, 9):
            assert bounds.delta_exact(n, q) <= bounds.delta_bound(n, q)


@pytest.mark.parametrize("n, q", [(1, 1), (3, 6), (5, 3), (6, 4), (16, 8), (44, 4)])
def test_delta_exact_matches_the_dense_walk(n, q):
    # the mixer-basis walk with its LAPACK-free norms against every sequence
    # built from scratch in the Dicke basis with SVD norms, in the same order;
    # the two bases and the two norms differ in the last bits only.  A guard:
    # a Dicke-basis walk with SVD norms passes it too
    assert bounds.delta_exact(n, q) == pytest.approx(oracle.dense_delta_exact(n, q), rel=1e-13, abs=0)


def test_trotter_error_bound_specialization():
    # q=2, one stage: 2*delta*t^3 / (3 r^2)
    delta, t, r = 3.7, 2.1, 9
    direct = 2 * delta * t**3 / (3 * r**2)
    assert bounds.trotter_error_bound(2, delta, t, r, 1) == pytest.approx(direct, rel=1e-12)


def test_trotter_error_bound_power_law():
    for q in (2, 4):
        b1 = bounds.trotter_error_bound(q, 5.0, 3.0, 64, trotter.stage_count(q))
        b2 = bounds.trotter_error_bound(q, 5.0, 3.0, 128, trotter.stage_count(q))
        assert b1 / b2 == pytest.approx(2.0**q, rel=1e-12)


def test_bound_dominates_measurement():
    n, q = 6, 2
    ts = ctqw.t_star(n)
    db = bounds.delta_bound(n, q)
    for j in range(4, 13):
        measured = bounds.spectral_error(n, q, ts, 2**j)
        assert measured <= bounds.trotter_error_bound(q, db, ts, 2**j, 1)


def test_error_bound_fits_a_float_up_to_the_cli_order_cap():
    # bound-check's smallest r gives its largest bound: below ln(float max)
    # at every order the CLI takes, past it two orders above the cap
    r = 2 ** cli.BOUND_CHECK_R_EXPONENTS[0]
    ln_max = math.log(sys.float_info.max)

    def ln_bound(n, q):
        return bounds.ln_trotter_error_bound(q, bounds.ln_delta_bound(n, q), ctqw.t_star(n), r, trotter.stage_count(q))

    sizes = range(cli.N_MIN, cli.N_MAX + 1)
    assert max(ln_bound(n, q) for n in sizes for q in range(2, cli.Q_MAX + 1, 2)) < ln_max
    assert max(ln_bound(n, cli.Q_MAX + 2) for n in sizes) > ln_max


def test_analytic_depth_consistency():
    est = bounds.analytic_depth(30, 4, 0.01)
    assert est.p_analytic > 0 and math.isfinite(est.log2_p)
    assert est.log2_p == pytest.approx(math.log2(est.p_analytic), rel=1e-12)


def test_p0_below_half():
    for n in range(1, 69):
        for q in (2, 4, 6, 8):
            assert bounds.p0(n, q) < 0.5


def test_depth_epsilon_scaling():
    # depth scales as epsilon^(-1/q)
    for q in (2, 6):
        p1 = bounds.analytic_depth(24, q, 0.04).p_analytic
        p2 = bounds.analytic_depth(24, q, 0.01).p_analytic
        assert p2 / p1 == pytest.approx(4.0 ** (1.0 / q), rel=1e-9)


def test_optimal_order_at_paper_point():
    est = bounds.optimal_order(46, 0.01)
    # direct arithmetic on the closed form
    q_direct = math.sqrt((46 * math.log(math.sqrt(2)) + math.log(2 * math.pi * 47) - math.log(0.05)) / math.log(5))
    assert est.q_real == pytest.approx(q_direct, rel=1e-12)
    assert round(est.q_real, 1) == 3.9
    assert est.q_even == 4


def test_optimal_order_monotone_in_n():
    qs = [bounds.optimal_order(n, 0.01).q_real for n in range(4, 69, 8)]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_optimal_order_rejects_bad_radicand():
    # inside epsilon in (0, 1) the radicand stays positive; push epsilon past it
    with pytest.raises(ValueError):
        bounds.optimal_order(1, 3.6)
    with pytest.raises(ValueError):
        bounds.optimal_order(10, -0.1)


def test_closed_form_dominates_real_order_depth():
    for n in range(10, 69, 2):
        for eps in (0.1, 0.01):
            q_real = bounds.optimal_order(n, eps).q_real
            ln27 = (
                math.log(bounds.p0(n, q_real))
                + 0.5 * n * math.log(2)
                + (math.log(2 * math.pi * (n + 1)) + 0.5 * n * math.log(2) - math.log(5 * eps)) / q_real
                + q_real * math.log(5)
            )
            assert bounds.analytic_depth_closed(n, eps) >= math.exp(ln27) * (1 - 1e-12)


def test_closed_form_growth_exponent_bounded():
    residuals = [
        math.log2(bounds.analytic_depth_closed(n, 0.01)) - n / 2 - math.sqrt(2 * n * math.log2(5))
        for n in range(10, 69)
    ]
    assert max(residuals) < 8.0
    assert min(residuals) > 0.0


def test_closed_form_between_sqrt_n_and_n():
    # the evaluable part of the complexity comparison at n=68: sqrt(N) < p < N
    n = 68
    p = bounds.analytic_depth_closed(n, 0.01)
    assert 2.0 ** (n / 2) < p < 2.0**n
    # the subexponential factor drops below N^0.1 only past the crossover size
    assert math.sqrt(465) * math.sqrt(2 * math.log2(5)) < 0.1 * 465
    assert math.sqrt(400) * math.sqrt(2 * math.log2(5)) > 0.1 * 400


def test_required_steps_matches_analytic_depth():
    for n, q, eps in ((6, 2, 0.01), (20, 4, 0.01), (46, 4, 0.01), (31, 6, 0.003)):
        r = bounds.required_steps(n, q, eps)
        p = r * trotter.stage_count(q)
        p_analytic = bounds.analytic_depth(n, q, eps).p_analytic
        assert p >= p_analytic * (1 - 1e-9)
        assert p - p_analytic <= trotter.stage_count(q) + 1e-9 * p_analytic


def test_required_steps_achieves_budget():
    n, q, eps = 6, 2, 0.01
    r = bounds.required_steps(n, q, eps)
    assert bounds.spectral_error(n, q, ctqw.t_star(n), r) <= eps


def test_required_steps_monotone_in_epsilon():
    rs = [bounds.required_steps(12, 4, eps) for eps in (0.001, 0.01, 0.1)]
    assert rs[0] >= rs[1] >= rs[2]


def test_required_steps_is_the_smallest_step_count_within_its_bound():
    # the defining inequality holds at r and fails at r - 1, from r = 1 to past 2^64
    found = set()
    for n, q, eps in itertools.product((1, 2, 10, 44, 80), (2, 4, 8, 16), (1e-9, 1e-3, 0.1, 1e3)):
        stages, ln_d, ts = trotter.stage_count(q), bounds.ln_delta_bound(n, q), ctqw.t_star(n)

        def within(r):
            return bounds.ln_trotter_error_bound(q, ln_d, ts, r, stages) <= math.log(eps)

        r = bounds.required_steps(n, q, eps)
        assert within(r) and (r == 1 or not within(r - 1)), (n, q, eps)
        found.add(r)
    assert 1 in found and max(found) > 2**64


def test_required_steps_bisects_far_from_its_estimate(monkeypatch):
    # at r ~ 2e21 a closed-form estimate of r is about 8e6 steps off the
    # answer; doubling from r = 1 and bisecting takes about 2 log2(r) calls
    calls = 0
    inner = bounds.ln_trotter_error_bound

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(bounds, "ln_trotter_error_bound", counted)
    assert bounds.required_steps(80, 2, 0.001) == 2276034248947483672577
    assert calls <= 200


def test_spectral_error_limits():
    n, q = 5, 2
    ts = ctqw.t_star(n)
    assert bounds.spectral_error(n, q, ts, 2**14) < 1e-6
    assert bounds.spectral_error(n, q, ts, 1) <= 2.0 + 1e-12


def test_spectral_error_keeps_one_size_cached():
    # the walk's eigensystem and H_x's eigenbasis W are kept for the last
    # size alone, and a size computed again gives the same bytes
    seen = {}
    for n in (10, 12, 14, 10):
        ts = ctqw.t_star(n)
        err = bounds.spectral_error(n, 2, ts, 2**10)
        assert ctqw.walk_eigensystem.cache_info().currsize == 1
        assert trotter._mixer_basis.cache_info().currsize == 1
        eig = ctqw.walk_eigensystem(n, ctqw.alpha_star(n))
        found = (err, *(a.tobytes() for a in eig), trotter._mixer_basis(n).tobytes())
        assert seen.setdefault(n, found) == found, n


def test_max_norm_lemmas():
    rng = np.random.default_rng(123)
    for n in (4, 8):
        h1 = oracle.build_h0(n)
        h2 = ctqw.alpha_star(n) * oracle.build_hx(n)
        bound2 = 2 * ctqw.alpha_star(n) * (n + 1)
        for _ in range(100):
            a = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
            amax = np.max(np.abs(a))
            assert np.max(np.abs(h1 @ a - a @ h1)) <= amax + 1e-12
            assert np.max(np.abs(h2 @ a - a @ h2)) <= bound2 * amax + 1e-12
            assert np.linalg.norm(a, 2) <= np.linalg.norm(a, "fro") + 1e-12


# numpy's entry points into LAPACK
LAPACK_ENTRY_POINTS = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "solve", "inv", "lstsq")


def test_no_lapack_call_in_the_library(monkeypatch, tmp_path):
    # each entry point raises, in numpy.linalg and in its implementation
    # module, which np.linalg.norm(a, 2) and the others call within
    try:
        from numpy.linalg import _linalg as impl  # numpy 2
    except ImportError:
        from numpy.linalg import linalg as impl  # numpy 1.x

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")

        return call

    for name in LAPACK_ENTRY_POINTS:
        for module in (np.linalg, impl):
            monkeypatch.setattr(module, name, refuse(name))
    for cache in (ctqw.walk_eigensystem, trotter._mixer_basis, trotter._mixer_basis_step):
        cache.cache_clear()
    # a deep-power cell as perfbench runs it
    n, eps = 56, 0.1
    q = bounds.optimal_order(n, eps).q_even
    r = bounds.required_steps(n, q, eps)
    ts = ctqw.t_star(n)
    trotter.trotterized_state(n, q, ts, r)
    assert bounds.spectral_error(n, q, ts, r) <= eps
    trotter.overlap_trace(n, q, ts, r, 41)
    depthsearch.reference_overlap(n)
    assert cli.main(["bound-check", "--n-range", "4..8:2", "--out", str(tmp_path / "bound.csv")]) == 0
    a, b = trotter.step_operator(6, 4, 1.0, 3), trotter.step_operator(6, 2, 1.0, 3)
    assert 0 < trotter.phase_aligned_distance(a, b) < 1
    assert bounds.delta_exact(6, 4) > 0
