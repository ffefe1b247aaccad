"""Double-precision limits of powering Trotter steps past r = 2^53.

A step at t*/r differs from the identity by about t*/r, far below machine
epsilon once r passes 2^53 (n >= 74 at epsilon = 0.01), so the step and its
powers are carried as E = S - I.  These tests guard that representation and
record the floor that remains: errors of order t* times machine epsilon,
which grow like 2^(n/2).
"""

from decimal import Decimal, localcontext
from math import comb, ulp

import numpy as np
import pytest

from oracle import eigenphase_power, svd_norm, walk_overlap_eigh
from trotterwalk import bounds, ctqw, depthsearch, symspace, trotter

EPS_MACH = np.finfo(float).eps


@pytest.mark.parametrize("eps", [0.01, 0.001])
@pytest.mark.parametrize("n", [56, 68, 74, 80])
def test_overlap_within_budget_at_bound_depth(n, eps):
    q = bounds.optimal_order(n, eps).q_even
    r = bounds.required_steps(n, q, eps)
    state = trotter.trotterized_state(n, q, ctqw.t_star(n), r)
    overlap = abs(state.amp[0]) ** 2
    assert abs(overlap - depthsearch.reference_overlap(n)) <= 0.01 * eps


def test_ladder_matches_eigenphase_power():
    # step at t*/r with r = 2^40 + 3: E ~ 1e-11, so rounding I + E would
    # already cost five digits of the step before any squaring
    n, q, r = 8, 4, 2**40 + 3
    step = trotter.step_operator(n, q, ctqw.t_star(n), r)
    eye = np.eye(n + 1, dtype=complex)
    powered = symspace.apply_powers(step, [r], eye)[0] - eye
    assert np.max(np.abs(powered - eigenphase_power(step, r))) <= 1e-9


# the r_final of numeric_optimal_depth(n, 16, 0.01): t*/r ~ 200, where a q = 16
# step is built 1.2e-12 to 4.5e-12 off unitary
@pytest.mark.parametrize("n, r", [(44, 15872), (56, 1179648), (68, 89128960), (80, 7717519360)])
def test_order16_powers_stay_unitary(n, r):
    # every fourth square is projected, whatever the step's build defect,
    # which unprojected squares would double each time (measured: at most
    # 1.4e-14, at n = 80)
    state = trotter.trotterized_state(n, 16, ctqw.t_star(n), r)
    assert abs(state.norm() - 1.0) <= 1e-12


def test_spectral_error_floor_at_n80():
    # measured 1.20e-3, 0.97e-3 and 1.44e-3 at epsilon 0.1, 0.01, 0.001
    # (1.45e-3, 1.34e-3 and 1.69e-3 with a dense eigh of the walk):
    # spectral errors below this cannot be verified at n = 80 in double
    # precision
    n, q = 80, 4
    for eps in (0.1, 0.01, 0.001):
        r = bounds.required_steps(n, q, eps)
        assert bounds.spectral_error(n, q, ctqw.t_star(n), r) <= 2.5e-3, eps


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
@pytest.mark.parametrize("n", [56, 60, 64, 68, 72, 76, 80])
def test_spectral_error_matches_the_svd(n, eps, monkeypatch):
    # perfbench's deep-power cells: the norm spectral_error takes of
    # U - S^r, against LAPACK's SVD of the same matrix (measured: within
    # 7.8e-16 relative)
    seen = []
    norm = symspace._spectral_norm
    monkeypatch.setattr(symspace, "_spectral_norm", lambda a: seen.append(a) or norm(a))
    q = bounds.optimal_order(n, eps).q_even
    err = bounds.spectral_error(n, q, ctqw.t_star(n), bounds.required_steps(n, q, eps))
    assert len(seen) == 1
    assert err == pytest.approx(svd_norm(seen[0]), rel=1e-12, abs=0)


def _resonant_gap(n: int) -> Decimal:
    """The top pair's splitting at alpha = alpha_star(n), from the secular equation in 40-digit decimals.

    With lambda = alpha n + mu the pair solves
    f(mu) = mu sum_(k>=1) P_k / (2 alpha k (mu + 2 alpha k)) - P_0 / mu = 0
    at resonance, as ``ctqw.walk_eigensystem`` takes alpha_star(n) to be, with
    P_k exact; Newton from +-sqrt(P_0 / c_0), c_0 = sum_(k>=1) P_k / (2 alpha k)^2,
    finds both roots.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        a = Decimal(ctqw.alpha_star(n))
        p = [Decimal(comb(n, k)) / 2**n for k in range(n + 1)]
        poles = [2 * a * k for k in range(1, n + 1)]
        start = (p[0] / sum(pk / (e * e) for pk, e in zip(p[1:], poles))).sqrt()
        roots = []
        for mu in (start, -start):
            for _ in range(8):
                f = mu * sum(pk / (e * (mu + e)) for pk, e in zip(p[1:], poles)) - p[0] / mu
                mu -= f / (sum(pk / (mu + e) ** 2 for pk, e in zip(p[1:], poles)) + p[0] / (mu * mu))
            roots.append(mu)
        return roots[0] - roots[1]


def test_gap_drift_at_double_precision_floor():
    # the pair's splitting, about 2/sqrt(2^n) against eigenvalues of order 1,
    # is the difference of two offsets from the same pole, so it keeps its
    # digits: within 4 ulp of the 40-digit secular solution (measured: at
    # most 2), where a dense eigh drifted by about 2^(n/2) machine epsilons
    # (1.5e-5 relative at n = 80); and within 4 ulp of 2 alpha xi beyond the
    # formula's own O(2^-n) error, which is 6.6e-12 relative at n = 34 and
    # below an ulp from n = 49
    for n in range(34, 81):
        g = ctqw.gap(n)
        exact = _resonant_gap(n)
        assert abs(Decimal(g.gap_exact) - exact) <= 4 * Decimal(ulp(g.gap_exact)), n
        formula_error = float(abs(exact / Decimal(g.gap_formula) - 1))
        assert abs(g.gap_exact / g.gap_formula - 1.0) <= 4 * EPS_MACH + formula_error, n


@pytest.mark.parametrize("n", [16, 44, 68, 80])
def test_reference_overlap_matches_eigh(n):
    # a guard on the secular solve against the dense eigh it replaced: eigh's
    # eigenvalues are good to a few eps, so its splitting is good to about
    # 2^(n/2) eps relative and its overlap at t*, a phase of about pi in that
    # splitting, to about as much (measured differences: 2.1e-15, 1.7e-11,
    # 8.8e-10 and 5.7e-7, against bounds of 5.7e-14, 9.3e-10, 3.8e-6 and
    # 2.4e-4)
    oracle = walk_overlap_eigh(n, ctqw.alpha_star(n), ctqw.t_star(n))
    assert abs(depthsearch.reference_overlap(n) - oracle) <= 2.0 ** (n / 2) * EPS_MACH
