import math

import numpy as np
import pytest

from trotterwalk import ctqw, symspace


def test_alpha_star_values():
    assert ctqw.alpha_star(1) == pytest.approx(0.25, abs=1e-15)
    # direct finite sum: P = (3/8, 3/8, 1/8) -> (1/2)(3/8 + 3/16 + 1/24) = 29/96
    assert ctqw.alpha_star(3) == pytest.approx(29 / 96, rel=1e-12)


def test_alpha_star_asymptotics():
    assert abs(60 * ctqw.alpha_star(60) - 1.0) < 0.05


def test_p_weights_sum_to_one():
    for n in (1, 12, 68):
        assert abs(ctqw.p_weights(n).sum() - 1.0) < 1e-12


def test_t_star():
    assert ctqw.t_star(2) == pytest.approx(math.pi)
    assert ctqw.t_star(20) == pytest.approx(1608.4954386379741, rel=1e-12)
    with pytest.raises(ValueError):
        ctqw.t_star(0)


def test_gap_formula_tracks_exact():
    g = ctqw.gap(10)
    assert 0.9 <= g.gap_formula / g.gap_exact <= 1.1
    # the finite-sum expression is exponentially accurate
    assert abs(ctqw.gap(16).gap_formula / ctqw.gap(16).gap_exact - 1.0) < 1e-4
    assert all(v > 0 for v in ctqw.gap(7))


def test_gap_asymptotic_at_n30():
    g = ctqw.gap(30)
    assert 1 - 5 / 30 <= g.gap_exact * 2**15 / 2 <= 1 + 5 / 30


def test_gap_asymptotic_relative_error_stable():
    # n * |gap_exact - 2/sqrt(2^n)| / gap_exact has a stable prefactor
    cs = []
    for n in range(10, 31, 2):
        g = ctqw.gap(n)
        cs.append(n * abs(g.gap_asymptotic - g.gap_exact) / g.gap_exact)
    assert max(cs) <= 2 * min(cs)


def test_ctqw_overlap_initial():
    for n in (3, 11):
        assert ctqw.ctqw_overlap(n, ctqw.alpha_star(n), 0.0) == pytest.approx(2.0**-n, rel=1e-12)


def test_ctqw_overlap_peak_n16():
    ov = ctqw.ctqw_overlap(16, ctqw.alpha_star(16), ctqw.t_star(16))
    assert ov >= 0.8
    assert 1 - ov <= 2.5 / 16  # 1 - O(1/n) with the measured prefactor


def test_ctqw_overlap_peaks_near_t_star():
    # dense scan: the first peak sits 27% above t* at n=4 and tightens with n
    deviations = {}
    for n in (4, 8):
        a, ts = ctqw.alpha_star(n), ctqw.t_star(n)
        grid = np.linspace(0.01, 1.6 * ts, 400)
        ovs = [ctqw.ctqw_overlap(n, a, t) for t in grid]
        deviations[n] = abs(grid[int(np.argmax(ovs))] - ts) / ts
    assert deviations[4] <= 0.3
    assert deviations[8] <= 0.2


def test_ctqw_overlap_rejects_negative_time():
    with pytest.raises(ValueError):
        ctqw.ctqw_overlap(4, 0.2, -1.0)


@pytest.mark.parametrize("n", [12, 16, 20, 24])
def test_two_level_model(n):
    # overlap(t) ~ peak * sin^2(gap t / 2) uniformly within 0.05
    a = ctqw.alpha_star(n)
    g = ctqw.gap(n).gap_exact
    peak = ctqw.ctqw_overlap(n, a, ctqw.t_star(n))
    for t in np.linspace(0.0, 1.3 * ctqw.t_star(n), 60):
        model = peak * math.sin(g * t / 2) ** 2
        assert abs(ctqw.ctqw_overlap(n, a, t) - model) <= 0.05


@pytest.mark.parametrize("n", [8, 12, 16])
def test_alpha_star_maximizes_overlap(n):
    a0, ts = ctqw.alpha_star(n), ctqw.t_star(n)
    grid = np.linspace(0.7 * a0, 1.3 * a0, 13)
    ovs = [ctqw.ctqw_overlap(n, a, ts) for a in grid]
    best = grid[int(np.argmax(ovs))]
    assert abs(best - a0) <= grid[1] - grid[0]


def test_low_eigenstates_structure():
    pair = ctqw.low_eigenstates(12)
    assert abs(pair.psi_plus.norm() - 1.0) < 1e-10
    assert abs(pair.psi_minus.norm() - 1.0) < 1e-10
    assert abs(np.vdot(pair.psi_plus.amp, pair.psi_minus.amp)) < 1e-10
    assert pair.energies[0] > pair.energies[1]
    with pytest.raises(ValueError):
        ctqw.low_eigenstates(1)


def test_low_eigenstates_plus_overlap():
    # <h_0|psi+-> -> 1/sqrt(2); within 1e-3 already at n=20
    pair = ctqw.low_eigenstates(20)
    plus = symspace.plus_state(20).amp
    for psi in (pair.psi_plus, pair.psi_minus):
        ov = np.vdot(plus, psi.amp)
        assert ov.real > 0
        assert abs(ov - 1 / math.sqrt(2)) < 1e-3


def test_low_eigenstates_target_overlap_tracks_gap():
    # |<e_0|psi+->| = 2^(n/2) * gap / (2 sqrt 2), up to O(2^(-n/2)) corrections
    errs = {}
    for n in (16, 20):
        pair = ctqw.low_eigenstates(n)
        gap = pair.energies[0] - pair.energies[1]
        predicted = 2 ** (n / 2) * gap / (2 * math.sqrt(2))
        errs[n] = max(
            abs(abs(pair.psi_plus.amp[0]) - predicted) / predicted,
            abs(abs(pair.psi_minus.amp[0]) - predicted) / predicted,
        )
    assert errs[16] < 5e-3
    assert errs[20] < errs[16] / 3  # converging at the 2^(-n/2) rate


def test_low_eigenstates_bessel():
    pair = ctqw.low_eigenstates(10)
    plus = symspace.plus_state(10).amp
    total = abs(pair.psi_plus.amp[0]) ** 2 + abs(np.vdot(plus, pair.psi_plus.amp)) ** 2
    assert total <= 1.0 + 1e-12


def test_evolution_two_eigenstate_decomposition():
    # U(alpha*, t)|+> stays in the psi+- span up to the O(1/n) leakage
    n = 16
    pair = ctqw.low_eigenstates(n)
    state = ctqw.ctqw_state(n, ctqw.alpha_star(n), 0.37 * ctqw.t_star(n))
    inside = abs(np.vdot(pair.psi_plus.amp, state.amp)) ** 2 + abs(np.vdot(pair.psi_minus.amp, state.amp)) ** 2
    assert inside > 1 - 2.5 / n
