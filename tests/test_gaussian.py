"""Core Bogoliubov/Gaussian machinery."""

import math
import warnings

import numpy as np
import pytest

from cvcloner import gaussian
from cvcloner.circuits import AsymSpec, SymSpec, build_cloners
from cvcloner.fock import FockSpace, coherent_fock, fidelities_fock
from cvcloner.gaussian import (
    DEFAULT_TOL,
    ModeLabel,
    _deviations,
    checked_stack,
    fold_stack,
    uncertainty_defect,
    worst_dev,
)
from reference import (
    GaussianState,
    Transform,
    apply_to_gaussian,
    as_transform,
    chaotic_photons,
    check_symplectic_four_products,
    coherent_vacuum_input,
    compose,
    embed,
    phase_covariance_defect,
    reduce_mode,
    register,
    symplectic_form,
    symplectic_matrix,
)


def random_passive(n, rng):
    # orthogonal A, zero B: always a valid transform
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Transform(q, np.zeros((n, n)))


def _checked(t):
    """``checked_stack`` on one transform's (A, B): its rows, with no
    register axis, as ``fold_stack`` writes them."""
    return checked_stack(np.stack((t.A, t.B), axis=1))


def _max_dev(t):
    """The larger of one transform's two ``_deviations``, NaN read as inf."""
    return worst_dev(np.concatenate(_deviations(t.A, t.B)))


def test_symplectic_form_is_antisymmetric_and_squares_to_minus_one():
    for n in (1, 2, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_identity_transform_checks_out():
    t = as_transform(fold_stack((), 3))
    assert np.array_equal(t.A, np.eye(3))
    assert not t.B.any()
    assert _checked(t)[1].tolist() == [0.0]
    assert np.allclose(symplectic_matrix(t), np.eye(6))


def test_identity_transform_rejects_nonpositive_mode_count():
    with pytest.raises(ValueError):
        fold_stack((), 0)


def test_transform_arrays_are_read_only():
    # the checked stack, and the fold's rows it was made from
    rows = fold_stack((), 2)
    stack, devs = checked_stack(rows)
    for array in (stack, devs, rows):
        with pytest.raises(ValueError):
            array[0] = 5.0


def test_a_transform_keeps_the_rows_a_builder_froze_without_a_copy():
    # a stack's A and B are two views of the one read-only array of rows
    # that its check froze, every register's included, a stack of one's too
    for stack in (build_cloners([AsymSpec(g) for g in (-0.5, 0.0, 0.5)]),
                  build_cloners([SymSpec(2, 3)])):
        rows = stack.A.base
        assert rows is not None and not rows.flags.writeable
        assert stack.A.base is stack.B.base is rows


def test_check_symplectic_flags_broken_transform():
    bad = Transform(1.1 * np.eye(2), np.zeros((2, 2)))
    commutation, _ = _deviations(bad.A, bad.B)
    assert commutation[0] > 0.1
    with pytest.raises(ValueError, match="transform is not symplectic"):
        _checked(bad)


# every asym gamma of a 0.05 grid in both forms, N -> M for N <= 11 and M < 40,
# and the three largest machines the tests build: 859 machines
CHECKED_SPECS = ([AsymSpec(float(g), factorized=f)
                  for f in (False, True) for g in np.linspace(-6.0, 6.0, 241)]
                 + [SymSpec(n, m) for n in range(1, 12) for m in range(n, 40)]
                 + [SymSpec(16, 256), SymSpec(16, 1008), SymSpec(1, 1023)])


def test_one_product_check_agrees_with_the_four_product_check():
    # the symmetric and antisymmetric parts of X P^T are A A^T - B B^T and
    # B A^T - A B^T; they round differently (measured worst gap 6.2e-12)
    assert len(CHECKED_SPECS) == 859
    for spec in CHECKED_SPECS:
        t = register(build_cloners([spec]))
        (commutation,), (symmetry,) = _deviations(t.A, t.B)
        four = check_symplectic_four_products(t)
        assert abs(commutation - four[0]) <= 1e-11, spec
        assert abs(symmetry - four[1]) <= 1e-11, spec


@pytest.mark.parametrize("block", ["A", "B"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_fails_the_check_and_is_refused(block, value):
    stack = build_cloners([SymSpec(2, 3)])
    arrays = {"A": stack.A[0].copy(), "B": stack.B[0].copy()}
    arrays[block][1, 3] = value
    rows = np.stack((arrays["A"], arrays["B"]), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _max_dev(Transform(**arrays)) == math.inf
        with pytest.raises(ValueError, match="transform is not symplectic") as refused:
            checked_stack(rows)
    assert "dev nan" in str(refused.value)


def test_symplectic_matrix_satisfies_symplectic_condition():
    rng = np.random.default_rng(7)
    t = random_passive(3, rng)
    s = symplectic_matrix(t)
    omega = symplectic_form(3)
    assert np.abs(s @ omega @ s.T - omega).max() < 1e-12


# compose, embed, reduce_mode and symplectic_matrix are the dense references of reference.py,
# checked here before other tests lean on them

def test_compose_is_associative_and_has_identity():
    rng = np.random.default_rng(11)
    t1, t2, t3 = (random_passive(2, rng) for _ in range(3))
    left = compose(compose(t3, t2), t1)
    right = compose(t3, compose(t2, t1))
    assert np.allclose(left.A, right.A) and np.allclose(left.B, right.B)
    ident = as_transform(fold_stack((), 2))
    same = compose(ident, t1)
    assert np.allclose(same.A, t1.A) and np.allclose(same.B, t1.B)


def test_compose_symplectic_matrices_multiply():
    rng = np.random.default_rng(13)
    t1, t2 = random_passive(2, rng), random_passive(2, rng)
    s = symplectic_matrix(compose(t2, t1))
    assert np.allclose(s, symplectic_matrix(t2) @ symplectic_matrix(t1))


def test_embed_rejects_bad_targets():
    t = as_transform(fold_stack((), 2))
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
    assert _max_dev(big) <= DEFAULT_TOL


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
    s = symplectic_matrix(t)
    assert np.allclose(out.mean, s @ state.mean)
    assert np.allclose(out.cov, s @ state.cov @ s.T)
    # passive transform preserves amplitude map: a_out = A a_in
    amps_in = np.array([state.mode_amplitude(k) for k in range(2)])
    amps_out = np.array([out.mode_amplitude(k) for k in range(2)])
    assert np.allclose(amps_out, t.A @ amps_in)


def test_apply_to_gaussian_rejects_nonsymplectic():
    bad = Transform(2 * np.eye(1), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        apply_to_gaussian(bad, coherent_vacuum_input([0j]))


def test_reduce_mode_picks_the_right_block():
    state = coherent_vacuum_input([1j, 2 + 0j, 3j])
    sub = reduce_mode(state, 1)
    assert sub.n_modes == 1
    assert np.isclose(sub.mode_amplitude(0), 2)
    assert np.allclose(sub.cov, np.eye(2) / 2)


def test_uncertainty_defect_zero_for_vacuum_positive_for_squashed():
    # the identity leaves the vacuum's I/2; A = sqrt(0.4) squashes it to 0.2 I,
    # which (i/2) Omega takes below zero
    identity = as_transform(fold_stack((), 1))
    assert uncertainty_defect(identity.A[None], identity.B[None]).tolist() == [0.0]
    squashed = Transform(np.sqrt(0.4) * np.eye(1), np.zeros((1, 1)))
    assert uncertainty_defect(squashed.A[None], squashed.B[None])[0] > 0.01


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


def test_symplectic_check_fails_on_nan_in_either_constraint(monkeypatch):
    # a NaN in either deviation fails the check, and reads as inf, never as
    # the other deviation; the refusal gives both as they were measured
    rows = fold_stack((), 2)
    for devs in ((math.nan, 0.0), (0.0, math.nan)):
        monkeypatch.setattr(gaussian, "_deviations",
                            lambda A, B, devs=devs: tuple(np.array([d]) for d in devs))
        with pytest.raises(ValueError) as refused:
            checked_stack(rows)
        assert str(refused.value) == (
            f"transform is not symplectic within tol={DEFAULT_TOL}: "
            f"commutation dev {devs[0]:.3e}, symmetry dev {devs[1]:.3e}")


@pytest.mark.parametrize("block", ["A", "B"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_uncertainty_defect_fails_closed_on_a_non_finite_transform(block, value):
    # a NaN covariance read 0.707 and an infinite one 0.0, a silent pass,
    # before the defect failed closed
    stack = build_cloners([SymSpec(2, 3)])
    arrays = {"A": stack.A[0].copy(), "B": stack.B[0].copy()}
    arrays[block][1, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = Transform(**arrays)
        assert uncertainty_defect(t.A[None], t.B[None]).tolist() == [math.inf]


@pytest.mark.parametrize("cov", [
    [[np.inf, 0.0], [0.0, 0.5]],
    [[0.5, np.inf], [np.inf, 0.5]],
])
def test_symmetry_check_accepts_mirrored_infs_without_a_warning(cov):
    # the check must never form inf - inf, which warns and reads NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = GaussianState(mean=np.zeros(2), cov=cov)
    assert np.array_equal(state.cov, cov)


@pytest.mark.parametrize("cov, symmetric", [
    ([[np.nan, 0.0], [0.0, np.nan]], True),        # NaNs at mirror images
    ([[0.5, np.nan], [np.nan, 0.5]], True),
    ([[0.5, np.inf], [np.inf, 0.5]], True),        # equal infs
    ([[0.5, -np.inf], [-np.inf, 0.5]], True),
    ([[0.5, 1e-8], [0.0, 0.5]], True),             # a gap at the tolerance
    ([[0.5, np.nan], [0.0, 0.5]], False),          # a NaN with no mirror image
    ([[0.5, np.nan], [np.inf, 0.5]], False),
    ([[0.5, np.inf], [1.0, 0.5]], False),          # inf against a finite value
    ([[0.5, np.inf], [-np.inf, 0.5]], False),
    ([[0.5, 2e-8], [0.0, 0.5]], False),            # an off-diagonal gap of 2e-8
], ids=["nan-diagonal", "nan-mirrored", "inf-mirrored", "minus-inf-mirrored", "gap-at-tol",
        "nan-unmirrored", "nan-against-inf", "inf-against-finite", "inf-against-minus-inf",
        "gap-2e-8"])
def test_symmetry_check_agrees_with_isclose(cov, symmetric):
    cov = np.array(cov)
    assert np.isclose(cov, cov.T, rtol=0.0, atol=1e-8, equal_nan=True).all() == symmetric
    if symmetric:
        GaussianState(mean=np.zeros(2), cov=cov)
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianState(mean=np.zeros(2), cov=cov)


ROTATION = ((0.6, 0.8), (-0.8, 0.6))


@pytest.mark.parametrize("gate, n", [
    ((ROTATION, 1, 1), 2),
    ((0.3, 1, 1), 2),
    ((ROTATION, -1, 0), 2),
    ((0.3, 0, -1), 2),
    ((ROTATION, -1, 0), 3),
], ids=["passive-equal", "nopa-equal", "passive-negative", "nopa-negative",
        "negative-is-not-the-last-of-three"])
def test_gate_refuses_a_pair_that_is_not_two_distinct_modes(gate, n):
    # a wire of -1 must not fold onto the last mode, as numpy indexing would
    _, p, q = gate
    with pytest.raises(ValueError, match=rf"two distinct modes in \[0, {n}\), got \({p}, {q}\)"):
        fold_stack((gate,), n)


def _asym(gamma):
    """The closed-form asymmetric machine's (A, B)."""
    return register(build_cloners([AsymSpec(gamma)]))


@pytest.mark.parametrize("read, mode", [
    (lambda k: coherent_vacuum_input([0j] * 3).mode_amplitude(k), -1),
    (lambda k: coherent_vacuum_input([0j] * 3).mode_amplitude(k), 3),
    (lambda k: chaotic_photons(_asym(0.3), k), -1),
    (lambda k: chaotic_photons(_asym(0.3), k), 3),
    (lambda k: phase_covariance_defect(_asym(0.3), k, (2,)), -1),
    (lambda k: phase_covariance_defect(_asym(0.3), 0, (k,)), -1),
    (lambda k: fidelities_fock([(coherent_fock(FockSpace(3, 2), [0j] * 3), k, 0j)]), -1),
], ids=["amplitude-negative", "amplitude-past-end", "photons-negative", "photons-past-end",
        "defect-clone-negative", "defect-signal-negative", "fock-negative"])
def test_a_mode_outside_the_register_is_refused(read, mode):
    # a negative mode must not wrap round to the last one, as numpy indexing would
    with pytest.raises(ValueError, match=rf"mode {mode} out of range for 3 modes"):
        read(mode)


@pytest.mark.parametrize("amplitudes", [[], [[1.0, 0.5j]]])
def test_coherent_input_needs_a_flat_list_of_amplitudes(amplitudes):
    with pytest.raises(ValueError, match="one amplitude per mode"):
        coherent_vacuum_input(amplitudes)
