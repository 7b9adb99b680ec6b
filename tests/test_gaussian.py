"""Core Bogoliubov/Gaussian machinery."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cvcloner.circuits import AsymSpec, SymSpec, asym_direct, build_cloner, build_cloners
from cvcloner.fock import FockSpace, coherent_fock, fidelities_fock
from cvcloner.gaussian import (
    NOPA,
    BogoliubovTransform,
    GaussianState,
    ModeLabel,
    Passive,
    SymplecticCheck,
    check_symplectic,
    fold_gates,
    symplectic_form,
    uncertainty_defect,
)
from reference import (
    apply_to_gaussian,
    chaotic_photons,
    check_symplectic_four_products,
    coherent_vacuum_input,
    compose,
    embed,
    phase_covariance_defect,
    reduce_mode,
)


def random_passive(n, rng):
    # orthogonal A, zero B: always a valid transform
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return BogoliubovTransform(A=q, B=np.zeros((n, n)))


def test_symplectic_form_is_antisymmetric_and_squares_to_minus_one():
    for n in (1, 2, 5):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_identity_transform_checks_out():
    t = fold_gates((), 3)
    assert np.array_equal(t.A, np.eye(3))
    assert not t.B.any()
    assert check_symplectic(t).passed
    assert np.allclose(t.symplectic_matrix(), np.eye(6))


def test_identity_transform_rejects_nonpositive_mode_count():
    with pytest.raises(ValueError):
        fold_gates((), 0)


def test_transform_validation_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        BogoliubovTransform(A=np.eye(2), B=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        BogoliubovTransform(A=np.ones((2, 3)), B=np.zeros((2, 3)))


def test_transform_arrays_are_read_only():
    t = fold_gates((), 2)
    with pytest.raises(ValueError):
        t.A[0, 0] = 5.0


def test_a_transform_copies_an_array_its_caller_can_still_write():
    A, B = np.eye(3), np.zeros((3, 3))
    frozen_view = np.eye(3)[:, :]  # read-only, but its base is not
    frozen_view.flags.writeable = False
    for t in (BogoliubovTransform(A=A, B=B), BogoliubovTransform(A=frozen_view, B=B)):
        A[0, 0], B[0, 1] = 5.0, 7.0
        frozen_view.base[0, 0] = 5.0
        assert np.array_equal(t.A, np.eye(3)) and np.array_equal(t.B, np.zeros((3, 3)))
        A[0, 0], B[0, 1], frozen_view.base[0, 0] = 1.0, 0.0, 1.0


def test_a_transform_keeps_the_rows_a_builder_froze_without_a_copy():
    # a fold's rows, and each machine's slice of a stack built at once
    t = fold_gates((NOPA(0.3, 0, 1),), 2)
    assert t.A.base is t.B.base is not None
    machines = build_cloners([AsymSpec(g) for g in (-0.5, 0.0, 0.5)])
    stack = machines[0].transform.A.base
    assert stack is not None and not stack.flags.writeable
    assert all(m.transform.A.base is m.transform.B.base is stack for m in machines)


def test_check_symplectic_flags_broken_transform():
    bad = BogoliubovTransform(A=1.1 * np.eye(2), B=np.zeros((2, 2)))
    chk = check_symplectic(bad)
    assert not chk.passed
    assert chk.commutation_dev > 0.1


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
        t = build_cloner(spec).transform
        one, four = check_symplectic(t), check_symplectic_four_products(t)
        assert abs(one.commutation_dev - four.commutation_dev) <= 1e-11, spec
        assert abs(one.symmetry_dev - four.symmetry_dev) <= 1e-11, spec


@pytest.mark.parametrize("block", ["A", "B"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_fails_the_check_and_is_refused(block, value):
    machine = build_cloner(SymSpec(2, 3))
    arrays = {"A": machine.transform.A.copy(), "B": machine.transform.B.copy()}
    arrays[block][1, 3] = value
    broken = BogoliubovTransform(**arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_symplectic(broken).max_dev == math.inf
        with pytest.raises(ValueError, match="transform is not symplectic"):
            replace(machine, transform=broken)


def test_symplectic_matrix_satisfies_symplectic_condition():
    rng = np.random.default_rng(7)
    t = random_passive(3, rng)
    s = t.symplectic_matrix()
    omega = symplectic_form(3)
    assert np.abs(s @ omega @ s.T - omega).max() < 1e-12


# compose, embed and reduce_mode are the dense references of reference.py,
# checked here before other tests lean on them

def test_compose_is_associative_and_has_identity():
    rng = np.random.default_rng(11)
    t1, t2, t3 = (random_passive(2, rng) for _ in range(3))
    left = compose(compose(t3, t2), t1)
    right = compose(t3, compose(t2, t1))
    assert np.allclose(left.A, right.A) and np.allclose(left.B, right.B)
    ident = fold_gates((), 2)
    same = compose(ident, t1)
    assert np.allclose(same.A, t1.A) and np.allclose(same.B, t1.B)


def test_compose_symplectic_matrices_multiply():
    rng = np.random.default_rng(13)
    t1, t2 = random_passive(2, rng), random_passive(2, rng)
    s = compose(t2, t1).symplectic_matrix()
    assert np.allclose(s, t2.symplectic_matrix() @ t1.symplectic_matrix())


def test_embed_rejects_bad_targets():
    t = fold_gates((), 2)
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
    bad = BogoliubovTransform(A=2 * np.eye(1), B=np.zeros((1, 1)))
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
    state = GaussianState(mean=np.zeros(2), cov=cov)
    assert uncertainty_defect(state) == math.inf


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


def test_transform_keeps_real_matrices_real():
    ints = BogoliubovTransform(A=np.eye(2, dtype=int), B=np.zeros((2, 2), dtype=int))
    assert ints.A.dtype == ints.B.dtype == np.float64
    with pytest.raises(ValueError, match="must be real"):
        BogoliubovTransform(A=np.eye(2), B=np.zeros((2, 2), dtype=complex))


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
])
def test_passive_refuses_a_non_finite_block(block):
    with pytest.raises(ValueError, match=r"Passive gate on \(0, 1\) has a non-finite block"):
        Passive(block, 0, 1)


@pytest.mark.parametrize("entry", [
    complex(0, np.nan),
    1 + 0j,
    0.5j,
    np.complex128(1),
    np.complex64(1),
    "0.8",
    b"0.8",
], ids=["complex-nan", "zero-imaginary", "imaginary", "complex128", "complex64", "str", "bytes"])
def test_passive_refuses_a_block_that_is_not_real(entry):
    # a str or bytes entry parses under float(), but it is not a real number
    with pytest.raises(ValueError, match=r"Passive gate on \(0, 1\) needs a real block"):
        Passive(((1, entry), (0, 1)), 0, 1)


def test_passive_refuses_a_zero_dimensional_complex_array():
    with pytest.raises(ValueError, match=r"Passive gate on \(0, 1\) needs a real block"):
        Passive(((1, np.array(1j)), (0, 1)), 0, 1)


def test_passive_accepts_a_zero_dimensional_real_array():
    gate = Passive(((1, np.array(0.5)), (0, 1)), 0, 1)
    assert gate.block == ((1.0, 0.5), (0.0, 1.0))


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


@pytest.mark.parametrize("r", [np.inf, -np.inf, np.nan])
def test_nopa_refuses_a_non_finite_squeeze(r):
    with pytest.raises(ValueError, match=r"NOPA gate on \(0, 1\) needs a finite r"):
        NOPA(r, 0, 1)


@pytest.mark.parametrize("r", [np.complex128(0.3 + 0.2j), 0.3 + 0j, np.complex64(0.3), "0.3"],
                         ids=["numpy-complex", "python-complex", "complex-zero-imag", "string"])
def test_nopa_refuses_a_non_real_squeeze(r):
    # the stem Passive uses for a non-real block
    with pytest.raises(ValueError, match=r"NOPA gate on \(0, 1\) needs a real r"):
        NOPA(r, 0, 1)


def test_nopa_stores_r_as_a_float_and_folds_in_float64():
    gate = NOPA(np.float32(0.3), 0, 1)
    assert type(gate.r) is float and gate.r == float(np.float32(0.3))
    assert fold_gates((gate,), 2).A[0, 0] == math.cosh(gate.r)
    assert type(NOPA(1, 0, 1).r) is float


@pytest.mark.parametrize("make_gate", [
    lambda: Passive(((0.6, 0.8), (-0.8, 0.6)), 1, 1),
    lambda: NOPA(0.3, 1, 1),
    lambda: Passive(((0.6, 0.8), (-0.8, 0.6)), -1, 0),
    lambda: NOPA(0.3, 0, -1),
], ids=["passive-equal", "nopa-equal", "passive-negative", "nopa-negative"])
def test_gate_refuses_a_pair_that_is_not_two_distinct_modes(make_gate):
    with pytest.raises(ValueError, match="two distinct modes >= 0"):
        make_gate()


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_passive_refuses_four_floats_that_are_not_all_finite(entry):
    # four Python floats skip the realness checks, never the finiteness one
    with pytest.raises(ValueError, match=r"Passive gate on \(0, 1\) has a non-finite block"):
        Passive(((0.6, 0.8), (entry, -0.6)), 0, 1)


def test_passive_stores_its_block_as_floats():
    gate = Passive(((1, np.float64(0.5)), (np.int64(0), -1)), 0, 1)
    assert gate.block == ((1.0, 0.5), (0.0, -1.0))
    assert all(type(x) is float for row in gate.block for x in row)


@pytest.mark.parametrize("read, mode", [
    (lambda k: coherent_vacuum_input([0j] * 3).mode_amplitude(k), -1),
    (lambda k: coherent_vacuum_input([0j] * 3).mode_amplitude(k), 3),
    (lambda k: chaotic_photons(asym_direct(0.3), k), -1),
    (lambda k: chaotic_photons(asym_direct(0.3), k), 3),
    (lambda k: phase_covariance_defect(asym_direct(0.3), k, (2,)), -1),
    (lambda k: phase_covariance_defect(asym_direct(0.3), 0, (k,)), -1),
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


def test_the_symplectic_form_is_one_read_only_array_per_size():
    omega = symplectic_form(4)
    assert symplectic_form(4) is omega
    with pytest.raises(ValueError, match="read-only"):
        omega[0, 1] = 2.0
    assert np.array_equal(omega, np.kron(np.eye(4), [[0.0, 1.0], [-1.0, 0.0]]))
