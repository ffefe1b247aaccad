import math

import numpy as np
import pytest

from trotterwalk import symspace
from trotterwalk.symspace import COST, MIXER


def test_build_hx_small_cases():
    hx1 = symspace.build_hx(1).entries
    assert np.allclose(hx1, [[0, 1], [1, 0]])
    hx4 = symspace.build_hx(4).entries
    assert hx4[1, 0] == pytest.approx(2.0)  # sqrt((0+1)(4-0))
    hx3 = symspace.build_hx(3).entries
    assert np.allclose(np.diag(hx3, 1), [math.sqrt(3), 2.0, math.sqrt(3)])
    assert np.allclose(np.diag(hx3), 0.0)


def test_build_hx_rejects_zero():
    with pytest.raises(ValueError):
        symspace.build_hx(0)
    with pytest.raises(ValueError):
        symspace.build_h0(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_build_hx_spectrum(n):
    # eigenvalues are exactly {n - 2k}
    w = np.linalg.eigvalsh(symspace.build_hx(n).entries)
    expected = np.array(sorted(n - 2 * k for k in range(n + 1)), dtype=float)
    assert np.max(np.abs(w - expected)) < 1e-9


@pytest.mark.parametrize("n", [1, 5, 17, 40, 68])
def test_build_hx_max_norm(n):
    assert np.max(np.abs(symspace.build_hx(n).entries)) <= (n + 1) / 2 + 1e-12


def test_build_h0_projector():
    h0 = symspace.build_h0(2).entries
    assert np.allclose(h0, np.diag([1.0, 0.0, 0.0]))
    for n in (1, 7, 33):
        m = symspace.build_h0(n).entries
        assert np.trace(m).real == pytest.approx(1.0)
    assert symspace.build_h0(3).entries[1, 1] == 0.0


def test_hamiltonians_hermitian():
    for n in (1, 6, 30):
        for op in (symspace.build_hx(n), symspace.build_h0(n)):
            m = op.entries
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12


def test_plus_state_values():
    p2 = symspace.plus_state(2).amp
    assert np.allclose(p2, [0.5, 1 / math.sqrt(2), 0.5])
    p1 = symspace.plus_state(1).amp
    assert np.allclose(p1, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_plus_state_norm_large_n():
    # independent oracle: exact integer binomials
    n = 40
    exact = sum(math.comb(n, k) for k in range(n + 1)) / 2**n
    assert exact == 1.0
    assert abs(symspace.plus_state(n).norm() - 1.0) < 1e-12
    assert abs(symspace.plus_state(68).norm() - 1.0) < 1e-12


def test_evolve_identity_at_zero_time():
    v = symspace.plus_state(5)
    out = symspace.evolve(symspace.build_hx(5), 0.0, v)
    assert np.allclose(out.amp, v.amp, atol=1e-14)


def test_evolve_projector_eigenphase():
    n = 3
    v = symspace.basis_state(n, 0)
    out = symspace.evolve(symspace.build_h0(n), math.pi, v)
    assert np.allclose(out.amp, -v.amp, atol=1e-12)


def test_evolve_single_qubit_closed_form():
    # exp(-i X t) (1,0) = (cos t, -i sin t)
    out = symspace.evolve(symspace.build_hx(1), math.pi / 2, symspace.basis_state(1, 0))
    assert np.allclose(out.amp, [0.0, -1.0j], atol=1e-12)


def test_hermitian_eigensystem_is_read_only():
    w, v = symspace.hermitian_eigensystem(symspace.build_hx(4))
    expected = w.copy()
    with pytest.raises(ValueError):
        w[0] = 99.0
    with pytest.raises(ValueError):
        v[0, 0] = 99.0
    again, _ = symspace.hermitian_eigensystem(symspace.build_hx(4))
    assert np.array_equal(again, expected)


def test_evolve_errors():
    with pytest.raises(ValueError):
        symspace.evolve(symspace.build_hx(3), 1.0, symspace.plus_state(4))
    bad = symspace.SymOperator(1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        symspace.evolve(bad, 1.0, symspace.plus_state(1))


def test_evolve_norm_preservation_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        h = symspace.SymOperator(n, (m + m.conj().T) / 2)
        amp = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v = symspace.SymVector(n, amp / np.linalg.norm(amp))
        t = float(rng.uniform(-1e6, 1e6))
        assert abs(symspace.evolve(h, t, v).norm() - 1.0) < 1e-10


def test_matrix_power_trivial():
    u = symspace.evolution_operator(symspace.build_hx(2), 0.3)
    assert np.allclose(symspace.matrix_power(u, 1).entries, u.entries)
    assert np.allclose(symspace.matrix_power(u, 0).entries, np.eye(3))
    with pytest.raises(ValueError):
        symspace.matrix_power(u, -1)


def test_matrix_power_matches_naive_product():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m /= np.linalg.norm(m, 2)  # keep powers O(1) so the comparison is meaningful
    op = symspace.SymOperator(2, m)
    naive = np.eye(3, dtype=complex)
    for _ in range(16):
        naive = m @ naive
    assert np.max(np.abs(symspace.matrix_power(op, 16).entries - naive)) < 1e-12


def test_matrix_power_unitarity_drift():
    u = symspace.evolution_operator(symspace.build_hx(8), 0.7)
    assert symspace.matrix_power(u, 10**6).unitarity_defect() <= 1e-9


def test_matrix_power_additivity_on_unitary():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    u = symspace.evolution_operator(symspace.SymOperator(6, (m + m.conj().T) / 2), 1.3)
    for a, b in ((3, 9), (17, 40), (1, 100)):
        lhs = symspace.matrix_power(u, a + b).entries
        rhs = symspace.matrix_power(u, a).entries @ symspace.matrix_power(u, b).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_overlap_basic():
    v = symspace.plus_state(6)
    assert symspace.overlap(v, v) == pytest.approx(1.0)
    assert symspace.overlap(symspace.basis_state(4, 1), symspace.basis_state(4, 3)) == 0.0
    for n in (2, 9):
        assert symspace.overlap(symspace.plus_state(n), symspace.basis_state(n, 0)) == pytest.approx(2.0**-n)
    with pytest.raises(ValueError):
        symspace.overlap(symspace.plus_state(2), symspace.plus_state(3))


def test_full_space_oracle_identity_sequence():
    for n in (3, 6):
        out = symspace.full_space_oracle(n, [], alpha=0.2)
        assert np.max(np.abs(out.amp - symspace.plus_state(n).amp)) < 1e-12


def test_full_space_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        symspace.full_space_oracle(13, [], alpha=0.1)


def test_full_space_oracle_matches_subspace():
    from trotterwalk import ctqw, trotter

    for n, q, r in ((4, 2, 1), (8, 4, 16), (12, 2, 8)):
        alpha = ctqw.alpha_star(n)
        t = 0.5 * ctqw.t_star(n)
        pf = trotter.group_sequence(q, r, t)
        full = symspace.full_space_oracle(n, pf.factors, alpha)
        sub = trotter.apply_factors(n, pf.factors, alpha)
        assert np.max(np.abs(full.amp - sub.amp)) < 1e-10


def test_full_space_oracle_single_factors():
    # one mixer factor and one cost factor against subspace application
    from trotterwalk import trotter

    n, alpha = 5, 0.21
    for factors in ([(MIXER, 0.8)], [(COST, 1.1)], [(MIXER, 0.4), (COST, 0.9), (MIXER, -0.3)]):
        full = symspace.full_space_oracle(n, factors, alpha)
        sub = trotter.apply_factors(n, factors, alpha)
        assert np.max(np.abs(full.amp - sub.amp)) < 1e-12


def test_symvector_validation():
    with pytest.raises(ValueError):
        symspace.SymVector(2, np.zeros(2))
    with pytest.raises(ValueError):
        symspace.SymOperator(2, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symspace.basis_state(3, 5)
