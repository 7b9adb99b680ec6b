"""Core Bogoliubov/Gaussian machinery."""

import math

import numpy as np
import pytest

from cvcloner.circuits import asym_factorized, sym_n_to_m
from cvcloner.gaussian import (
    NOPA,
    BogoliubovTransform,
    GaussianState,
    ModeLabel,
    Passive,
    SymplecticCheck,
    apply_to_gaussian,
    check_symplectic,
    coherent_vacuum_input,
    compose,
    embed,
    fold_gates,
    identity_transform,
    reduce_mode,
    symplectic_form,
    uncertainty_defect,
)


def random_passive(n, rng):
    # unitary A, zero B: always a valid transform
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return BogoliubovTransform(A=q, B=np.zeros((n, n), dtype=complex))


def test_symplectic_form_is_antisymmetric_and_squares_to_minus_one():
    for n in (1, 2, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_identity_transform_checks_out():
    t = identity_transform(3)
    assert np.array_equal(t.A, np.eye(3))
    assert not t.B.any()
    assert check_symplectic(t).passed
    assert np.allclose(t.symplectic_matrix(), np.eye(6))


def test_identity_transform_rejects_nonpositive_mode_count():
    with pytest.raises(ValueError):
        identity_transform(0)


def test_transform_validation_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        BogoliubovTransform(A=np.eye(2, dtype=complex),
                            B=np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        BogoliubovTransform(A=np.ones((2, 3), dtype=complex),
                            B=np.zeros((2, 3), dtype=complex))


def test_transform_arrays_are_read_only():
    t = identity_transform(2)
    with pytest.raises(ValueError):
        t.A[0, 0] = 5.0


def test_check_symplectic_flags_broken_transform():
    bad = BogoliubovTransform(A=1.1 * np.eye(2, dtype=complex),
                              B=np.zeros((2, 2), dtype=complex))
    chk = check_symplectic(bad)
    assert not chk.passed
    assert chk.commutation_dev > 0.1


def test_symplectic_matrix_satisfies_symplectic_condition():
    rng = np.random.default_rng(7)
    t = random_passive(3, rng)
    s = t.symplectic_matrix()
    omega = symplectic_form(3)
    assert np.abs(s @ omega @ s.T - omega).max() < 1e-12


def test_compose_is_associative_and_has_identity():
    rng = np.random.default_rng(11)
    t1, t2, t3 = (random_passive(2, rng) for _ in range(3))
    left = compose(compose(t3, t2), t1)
    right = compose(t3, compose(t2, t1))
    assert np.allclose(left.A, right.A) and np.allclose(left.B, right.B)
    ident = identity_transform(2)
    same = compose(ident, t1)
    assert np.allclose(same.A, t1.A) and np.allclose(same.B, t1.B)


def test_compose_symplectic_matrices_multiply():
    rng = np.random.default_rng(13)
    t1, t2 = random_passive(2, rng), random_passive(2, rng)
    s = compose(t2, t1).symplectic_matrix()
    assert np.allclose(s, t2.symplectic_matrix() @ t1.symplectic_matrix())


def test_embed_rejects_bad_targets():
    t = identity_transform(2)
    with pytest.raises(ValueError):
        embed(t, [0, 0], 3)
    with pytest.raises(ValueError):
        embed(t, [0, 5], 3)
    with pytest.raises(ValueError):
        embed(t, [0], 3)


def test_embed_acts_only_on_targets():
    rng = np.random.default_rng(17)
    t = random_passive(2, rng)
    big = embed(t, [1, 3], 4)
    assert big.A[0, 0] == 1 and big.A[2, 2] == 1
    assert big.A[1, 1] == t.A[0, 0] and big.A[3, 1] == t.A[1, 0]
    assert check_symplectic(big).passed


def test_coherent_vacuum_input_moments():
    xi = 0.75 - 0.25j
    state = coherent_vacuum_input([xi, 0j])
    assert np.allclose(state.cov, np.eye(4) / 2)
    assert np.isclose(state.mean[0], np.sqrt(2) * xi.real)
    assert np.isclose(state.mean[1], np.sqrt(2) * xi.imag)
    assert state.mean[2] == state.mean[3] == 0.0
    assert np.isclose(state.mode_amplitude(0), xi)
    assert np.isclose(state.mode_amplitude(ModeLabel(1)), 0)


def test_apply_to_gaussian_transforms_moments():
    rng = np.random.default_rng(23)
    t = random_passive(2, rng)
    state = coherent_vacuum_input([1 + 1j, -0.5j])
    out = apply_to_gaussian(t, state)
    s = t.symplectic_matrix()
    assert np.allclose(out.mean, s @ state.mean)
    assert np.allclose(out.cov, s @ state.cov @ s.T)
    # passive transform preserves amplitude map: a_out = A a_in
    amps_in = np.array([state.mode_amplitude(k) for k in range(2)])
    amps_out = np.array([out.mode_amplitude(k) for k in range(2)])
    assert np.allclose(amps_out, t.A @ amps_in)


def test_apply_to_gaussian_rejects_nonsymplectic():
    bad = BogoliubovTransform(A=2 * np.eye(1, dtype=complex),
                              B=np.zeros((1, 1), dtype=complex))
    with pytest.raises(ValueError):
        apply_to_gaussian(bad, coherent_vacuum_input([0j]))


def test_reduce_mode_picks_the_right_block():
    state = coherent_vacuum_input([1j, 2 + 0j, 3j])
    sub = reduce_mode(state, 1)
    assert sub.n_modes == 1
    assert np.isclose(sub.mode_amplitude(0), 2)
    assert np.allclose(sub.cov, np.eye(2) / 2)


def test_uncertainty_defect_zero_for_vacuum_positive_for_squashed():
    vac = coherent_vacuum_input([0j])
    assert uncertainty_defect(vac) == 0.0
    squashed = GaussianState(mean=np.zeros(2), cov=0.2 * np.eye(2))
    assert uncertainty_defect(squashed) > 0.01


def test_state_validation_rejects_asymmetric_covariance():
    cov = np.eye(2) / 2
    cov[0, 1] = 0.3
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=cov)


@pytest.mark.parametrize("cov", [
    [[np.nan, 1.0], [5.0, 0.5]],   # a NaN must not hide the 1 vs 5 mismatch
    [[0.5, np.nan], [0.0, 0.5]],   # a NaN with no mirror image
])
def test_state_validation_rejects_an_asymmetric_nan_covariance(cov):
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianState(mean=np.zeros(2), cov=cov)


def test_symplectic_check_fails_on_nan_in_either_constraint():
    for devs in ((float("nan"), 0.0), (0.0, float("nan"))):
        check = SymplecticCheck(*devs)
        assert check.max_dev == float("inf")
        assert not check.passed


@pytest.mark.parametrize("cov", [
    [[np.nan, 0.0], [0.0, np.nan]],   # read 0.707 before it failed closed
    [[np.inf, 0.0], [0.0, 0.5]],      # read 0.0, a silent pass
])
def test_uncertainty_defect_fails_closed_on_a_non_finite_covariance(cov):
    with np.errstate(invalid="ignore"):  # the symmetry check subtracts inf - inf
        state = GaussianState(mean=np.zeros(2), cov=cov)
    assert uncertainty_defect(state) == math.inf


def test_transform_keeps_real_matrices_real():
    real = BogoliubovTransform(A=np.eye(2), B=np.zeros((2, 2)))
    assert real.A.dtype == real.B.dtype == np.float64
    mixed = BogoliubovTransform(A=np.eye(2), B=np.zeros((2, 2), dtype=complex))
    assert mixed.A.dtype == mixed.B.dtype == np.complex128


@pytest.mark.parametrize("block", [
    ((1, 0), (0,)),
    ((1, 0), (0, 1), (0, 0)),
    ((1, "x"), (0, 1)),
    None,
])
def test_passive_refuses_a_block_that_is_not_2x2(block):
    with pytest.raises(ValueError, match=r"Passive gate on \(0, 1\) needs a 2x2 block"):
        Passive(block, 0, 1)


@pytest.mark.parametrize("block", [
    ((np.nan, 0), (0, 1)),
    ((1, 0), (0, np.inf)),
    ((1, complex(0, np.nan)), (0, 1)),
])
def test_passive_refuses_a_non_finite_block(block):
    with pytest.raises(ValueError, match=r"Passive gate on \(0, 1\) has a non-finite block"):
        Passive(block, 0, 1)


@pytest.mark.parametrize("r", [np.inf, -np.inf, np.nan])
def test_nopa_refuses_a_non_finite_squeeze(r):
    with pytest.raises(ValueError, match=r"NOPA gate on \(0, 1\) needs a finite r"):
        NOPA(r, 0, 1)


def test_passive_stores_a_block_with_zero_imaginary_parts_as_floats():
    real = Passive(((1 + 0j, np.float64(0.5)), (0, -1)), 0, 1)
    assert real.block == ((1.0, 0.5), (0.0, -1.0))
    assert all(type(x) is float for row in real.block for x in row)
    lossy = Passive(((1, 0.5j), (0, -1)), 0, 1)
    assert all(type(x) is complex for row in lossy.block for x in row)


def test_fold_is_real_unless_a_gate_is_complex():
    for t in (sym_n_to_m(3, 5), asym_factorized(0.3)):
        assert t.A.dtype == t.B.dtype == np.float64
    gates = (Passive(((0.6, 0.8), (-0.8, 0.6)), 0, 1), NOPA(0.2, 1, 2),
             Passive(((1j, 0), (0, 1)), 0, 2))
    t = fold_gates(gates, 3)
    assert t.A.dtype == t.B.dtype == np.complex128
    assert check_symplectic(t).passed


@pytest.mark.parametrize("amplitudes", [[], [[1.0, 0.5j]]])
def test_coherent_input_needs_a_flat_list_of_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="one amplitude per mode"):
        coherent_vacuum_input(amplitudes)
