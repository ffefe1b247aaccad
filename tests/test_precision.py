"""Double-precision limits of powering Trotter steps past r = 2^53.

A step at t*/r differs from the identity by about t*/r, far below machine
epsilon once r passes 2^53 (n >= 74 at epsilon = 0.01), so the step and its
powers are carried as E = S - I.  These tests guard that representation and
record the floor that remains: errors of order t* times machine epsilon,
which grow like 2^(n/2).
"""

import numpy as np
import pytest

from oracle import eigenphase_power
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
    # measured 1.45e-3, 1.34e-3 and 1.69e-3 at epsilon 0.1, 0.01, 0.001:
    # spectral errors below this cannot be verified at n = 80 in double
    # precision
    n, q = 80, 4
    for eps in (0.1, 0.01, 0.001):
        r = bounds.required_steps(n, q, eps)
        assert bounds.spectral_error(n, q, ctqw.t_star(n), r) <= 2.5e-3, eps


def test_gap_drift_at_double_precision_floor():
    # the pair's splitting is 2/sqrt(2^n) against eigenvalues of order 1, so
    # eigh resolves it to about sqrt(2^n) machine epsilons (measured: at most
    # 0.97 of that, 4.9e-5 at n = 79, 1.5e-5 at n = 80, 2.8e-9 at n = 56);
    # below n = 34 the O(2^-n) error of the formula itself dominates
    for n in range(34, 81):
        g = ctqw.gap(n)
        assert abs(g.gap_exact / g.gap_formula - 1.0) <= 2.0 * 2.0 ** (n / 2) * EPS_MACH, n
