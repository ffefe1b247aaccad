import math

import numpy as np
import pytest

import oracle
from oracle import MAX_FULL_SPACE_QUBITS, basis_state, eigenphase_power, full_space_oracle, in_dicke_basis
from trotterwalk import bounds, ctqw, symspace, trotter
from trotterwalk.symspace import COST, MIXER


def test_build_hx_small_cases():
    hx1 = oracle.build_hx(1)
    assert np.allclose(hx1, [[0, 1], [1, 0]])
    hx4 = oracle.build_hx(4)
    assert hx4[1, 0] == pytest.approx(2.0)  # sqrt((0+1)(4-0))
    hx3 = oracle.build_hx(3)
    assert np.allclose(np.diag(hx3, 1), [math.sqrt(3), 2.0, math.sqrt(3)])
    assert np.allclose(np.diag(hx3), 0.0)


def test_build_hx_rejects_zero():
    with pytest.raises(ValueError):
        oracle.build_hx(0)
    with pytest.raises(ValueError):
        oracle.build_h0(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_build_hx_spectrum(n):
    # eigenvalues are exactly {n - 2k}
    w = np.linalg.eigvalsh(oracle.build_hx(n))
    expected = np.array(sorted(n - 2 * k for k in range(n + 1)), dtype=float)
    assert np.max(np.abs(w - expected)) < 1e-9


@pytest.mark.parametrize("n", [1, 5, 17, 40, 68])
def test_build_hx_max_norm(n):
    assert np.max(np.abs(oracle.build_hx(n))) <= (n + 1) / 2 + 1e-12


def test_build_h0_projector():
    h0 = oracle.build_h0(2)
    assert np.allclose(h0, np.diag([1.0, 0.0, 0.0]))
    for n in (1, 7, 33):
        m = oracle.build_h0(n)
        assert np.trace(m).real == pytest.approx(1.0)
    assert oracle.build_h0(3)[1, 1] == 0.0


def test_hamiltonians_hermitian():
    for n in (1, 6, 30):
        for m in (oracle.build_hx(n), oracle.build_h0(n)):
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


def test_evolve_projector_eigenphase():
    # exp(-i pi H_0) flips the sign of |e_0>
    n = 3
    v = basis_state(n, 0)
    out = in_dicke_basis(trotter.factors_operator(n, [(COST, math.pi)], alpha=0.3)).entries @ v.amp
    assert np.allclose(out, -v.amp, atol=1e-12)


def test_evolve_single_qubit_closed_form():
    # exp(-i X t) (1,0) = (cos t, -i sin t)
    out = in_dicke_basis(trotter.factors_operator(1, [(MIXER, math.pi / 2)], alpha=1.0)).entries @ basis_state(1, 0).amp
    assert np.allclose(out, [0.0, -1.0j], atol=1e-12)
    # a factor names one of the two generators
    with pytest.raises(ValueError, match="unknown generator tag 'Z'"):
        trotter.factors_operator(1, [("Z", 1.0)], alpha=1.0)


def _evolution(h: np.ndarray, t: float) -> symspace.SymOperator:
    """exp(-i h t) of a Hermitian matrix h, with its delta, from its eigensystem."""
    w, v = np.linalg.eigh(h)
    return symspace.SymOperator(len(h) - 1, (v * np.expm1(-1j * w * t)) @ v.conj().T)


def _power(u: symspace.SymOperator, m: int) -> symspace.SymOperator:
    """u^m as an operator: ``apply_powers`` on the identity."""
    eye = np.eye(u.n + 1, dtype=complex)
    return symspace.SymOperator(u.n, symspace.apply_powers(u, [m], eye)[0] - eye)


def test_power_of_identity_trivial():
    u = _evolution(oracle.build_hx(2), 0.3)
    assert np.allclose(_power(u, 1).entries, u.entries)
    assert np.allclose(_power(u, 0).entries, np.eye(3))
    with pytest.raises(ValueError):
        _power(u, -1)


def test_power_of_identity_matches_naive_product():
    op = trotter.step_operator(8, 4, ctqw.t_star(8), 64)
    naive = np.eye(9, dtype=complex)
    for _ in range(16):
        naive = op.entries @ naive
    assert np.max(np.abs(_power(op, 16).entries - naive)) < 1e-12


# only unitary steps are powered: apply_powers projects every fourth square
# to its unitary polar factor, which would rewrite a non-unitary operator
@pytest.mark.parametrize("unitary", [True])
def test_apply_powers_matches_power_of_identity(unitary):
    op = trotter.step_operator(8, 4, ctqw.t_star(8), 64)
    assert (op.unitarity_defect() <= 1e-12) == unitary
    x = symspace.plus_state(op.n).amp
    steps = [0, 1, 5, 2**40 + 3]
    for m, y in zip(steps, symspace.apply_powers(op, steps, x)):
        assert np.max(np.abs(y - _power(op, m).entries @ x)) <= 1e-12, m


def test_apply_powers_on_unitary():
    # the eigenphase power checks m = 2^40 + 3, for the step at t*/m
    n, m = 8, 2**40 + 3
    x = symspace.plus_state(n).amp
    op = trotter.step_operator(n, 4, ctqw.t_star(n), m)
    y = symspace.apply_powers(op, [m], x)[0]
    assert np.max(np.abs(y - x - eigenphase_power(op, m) @ x)) <= 1e-9
    with pytest.raises(ValueError):
        symspace.apply_powers(op, [3, -1], x)


@pytest.mark.parametrize("x", ["vector", "matrix"])
def test_apply_powers_repeated_zero_and_empty(x):
    # several step counts take a vector: the powers below the largest are
    # carried as columns of one block, and the largest apart, bit for bit as
    # a lone power.  A matrix takes one step count, however often it is named
    op = trotter.step_operator(8, 4, ctqw.t_star(8), 64)
    if x == "matrix":
        eye = np.eye(9, dtype=complex)
        assert symspace.apply_powers(op, [], eye) == []
        lone = symspace.apply_powers(op, [64], eye)[0]
        assert [y.tobytes() for y in symspace.apply_powers(op, [64, 64], eye)] == [lone.tobytes()] * 2
        with pytest.raises(ValueError, match="a matrix takes one step count, got 2"):
            symspace.apply_powers(op, [0, 64], eye)
        return
    x = symspace.plus_state(8).amp
    assert symspace.apply_powers(op, [], x) == []
    steps = [5, 0, 2**40 + 3, 5, 1, 2**40 + 3, 0, 64]
    out = symspace.apply_powers(op, steps, x)
    for m, y in zip(steps, out):
        lone = symspace.apply_powers(op, [m], x)[0]
        assert y.shape == x.shape and np.max(np.abs(y - lone)) <= 1e-13, m
        if m in (0, 2**40 + 3):
            assert y.tobytes() == lone.tobytes(), m


def test_apply_powers_block_reads_bits_past_64():
    # the block's columns are picked from the powers' bytes; dropping the
    # bits past 2^64 moves these powers by 0.76 to 0.91, against 2.5e-16
    op = trotter.step_operator(8, 4, ctqw.t_star(8), 64)
    x = symspace.plus_state(8).amp
    steps = [2**64 + 3, 2**66 + 2**64 + 1, 2**70 + 5, 2**71 + 2**65]
    for m, y in zip(steps, symspace.apply_powers(op, steps, x)):
        assert np.max(np.abs(y - symspace.apply_powers(op, [m], x)[0])) <= 1e-13, m


def test_powering_leaves_its_operator_untouched():
    # squaring writes its products over a working matrix, never over the step's delta
    step = trotter.step_operator(20, 4, ctqw.t_star(20), 64)
    delta, entries = step.delta.tobytes(), step.entries.tobytes()
    plus = symspace.plus_state(20).amp
    runs = [(symspace.apply_powers(step, [5, 1000], plus), _power(step, 1000)) for _ in range(2)]
    assert step.delta.tobytes() == delta and step.entries.tobytes() == entries
    (states, power), (states_again, power_again) = runs
    assert [y.tobytes() for y in states] == [y.tobytes() for y in states_again]
    assert power.delta.tobytes() == power_again.delta.tobytes()


def test_power_of_identity_unitarity_drift():
    u = _evolution(oracle.build_hx(8), 0.7)
    assert _power(u, 10**6).unitarity_defect() <= 1e-9


@pytest.mark.parametrize("eps", [0.01, 0.001])
@pytest.mark.parametrize("n", [56, 68, 80])
def test_sparse_projection_keeps_powers_unitary(n, eps):
    # apply_powers projects every fourth squaring; in between, the Gram defect
    # only doubles per squaring (measured at most 1.8e-14 on any rung, and
    # 4.4e-14 on S^r itself).  Each rung is copied as it comes: the squares
    # between the kept ones are written over one working matrix
    q, t = 4, ctqw.t_star(n)
    r = bounds.required_steps(n, q, eps)
    step = trotter.step_operator(n, q, t, r)
    rungs = [e.copy() for _, e in step._squares(2 ** r.bit_length() - 1)]
    eye = np.eye(n + 1, dtype=complex)
    rungs.append(symspace.apply_powers(step, [r], eye)[0] - eye)
    assert len(rungs) == r.bit_length() + 1
    for k, e in enumerate(rungs):
        assert np.max(np.abs(symspace._gram_defect(e))) <= 1e-13, k
    assert abs(trotter.trotterized_state(n, q, t, r).norm() - 1.0) <= 1e-13


def test_power_of_identity_additivity_on_unitary():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    u = _evolution((m + m.conj().T) / 2, 1.3)
    for a, b in ((3, 9), (17, 40), (1, 100)):
        lhs = _power(u, a + b).entries
        rhs = _power(u, a).entries @ _power(u, b).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_full_space_oracle_identity_sequence():
    for n in (3, 6):
        out = full_space_oracle(n, [], alpha=0.2)
        assert np.max(np.abs(out.amp - symspace.plus_state(n).amp)) < 1e-12


def test_full_space_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        full_space_oracle(MAX_FULL_SPACE_QUBITS + 1, [], alpha=0.1)


def test_full_space_oracle_matches_subspace():
    for n, q, r in ((4, 2, 1), (8, 4, 16), (12, 2, 8)):
        alpha = ctqw.alpha_star(n)
        t = 0.5 * ctqw.t_star(n)
        factors = trotter.group_sequence(q, r, t)
        full = full_space_oracle(n, factors, alpha)
        sub = in_dicke_basis(trotter.factors_operator(n, factors, alpha)).entries @ symspace.plus_state(n).amp
        assert np.max(np.abs(full.amp - sub)) < 1e-10


def test_full_space_oracle_single_factors():
    # one mixer factor and one cost factor against subspace application
    n, alpha = 5, 0.21
    for factors in ([(MIXER, 0.8)], [(COST, 1.1)], [(MIXER, 0.4), (COST, 0.9), (MIXER, -0.3)]):
        full = full_space_oracle(n, factors, alpha)
        sub = in_dicke_basis(trotter.factors_operator(n, factors, alpha)).entries @ symspace.plus_state(n).amp
        assert np.max(np.abs(full.amp - sub)) < 1e-12


def test_symvector_validation():
    with pytest.raises(ValueError):
        symspace.SymVector(2, np.zeros(2))
    with pytest.raises(ValueError):
        symspace.SymOperator(2, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        basis_state(3, 5)


def _assert_brackets(a, sigma):
    # low <= sigma <= high, each within the tolerance at which the bracket stops
    low, high = symspace._spectral_norm(a)
    tol = symspace._NORM_TOL
    assert low <= sigma * (1 + tol) and sigma <= high * (1 + tol), (low, sigma, high)
    assert high <= low * (1 + 1.001 * tol), (low, high)
    return low, high


@pytest.mark.parametrize("size", range(2, 82))
def test_spectral_norm_brackets_random_matrices(size):
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    _assert_brackets(a, oracle.svd_norm(a))


def test_spectral_norm_brackets_equal_and_paired_singular_values():
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81)))
    # every singular value of a scaled unitary is 3
    _assert_brackets(3.0 * u, 3.0)
    x = rng.standard_normal((81, 81))
    # a real antisymmetric matrix has its singular values in equal pairs
    s = np.linalg.svd(x - x.T, compute_uv=False)
    assert s[0] == pytest.approx(s[1], rel=1e-12)
    _assert_brackets(x - x.T, s[0])


def test_spectral_norm_of_zero_and_tiny_matrices():
    assert symspace._spectral_norm(np.zeros((5, 5), dtype=complex)) == (0.0, 0.0)
    rng = np.random.default_rng(3)
    a = 1e-200 * (rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    low, _ = _assert_brackets(a, oracle.svd_norm(a))
    assert low > 1e-200
