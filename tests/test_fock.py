"""Truncated Fock oracle: generators, Chebyshev propagation, fidelity cross-checks."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import jv
from scipy.sparse.linalg import expm_multiply

import cvcloner.fock as fock
from cvcloner.circuits import AsymSpec, asym_direct
from cvcloner.verification import _oracle_dev, oracle_agreement
from cvcloner.fock import (
    FockSpace,
    FockState,
    TruncationError,
    apply_cloning_fock_block,
    coherent_fock,
    fidelity_fock,
    reduced_density_matrix,
)
from reference import mode_expectation


def test_space_enforces_budget_and_cutoff():
    with pytest.raises(ValueError):
        FockSpace(3, 60)  # 61^3 > 2e5
    with pytest.raises(ValueError):
        FockSpace(2, 0)
    with pytest.raises(ValueError):
        FockSpace(0, 5)
    assert FockSpace(3, 14).dim == 15 ** 3


def _box_flow(space, pair, squeeze):
    """K = H - H^T of one pair over the whole box, assembled from fock's nonzeros of H."""
    rows, cols, values = fock._pair_nonzeros(space, pair, squeeze, np.arange(space.dim))
    half = sp.csr_matrix((values, (rows, cols)), shape=(space.dim, space.dim))
    return (half - half.T).tocsr()


def test_mix_flow_single_photon_element():
    # basis |n0 n1>, index 2*n0 + n1 at cutoff 1; the Hermitian generator is
    # G = i K, so <10| G |01> = i reads <10| K |01> = 1
    space = FockSpace(2, 1)
    k = _box_flow(space, (0, 1), squeeze=False).toarray()
    assert k[2, 1] == 1
    assert k[1, 2] == -1


def test_squeeze_flow_acts_on_vacuum_as_pair_creation():
    # G = i K with G |00> = -i |11>, so K |00> = -|11>
    space = FockSpace(2, 1)
    column = _box_flow(space, (0, 1), squeeze=True).toarray()[:, 0]
    expected = np.zeros(4)
    expected[3] = -1.0
    assert np.allclose(column, expected)


def test_generator_exponentials_reproduce_gaussian_elements():
    # a beam splitter angle transfers |1,0> -> cos(th)|1,0> - sin(th)|0,1>
    space = FockSpace(2, 3)
    th = 0.6
    u = expm(th * _box_flow(space, (0, 1), squeeze=False).toarray())
    one_zero = np.zeros(space.dim)
    one_zero[1 * 4] = 1.0
    out = u @ one_zero
    assert np.isclose(abs(out[4]) ** 2, math.cos(th) ** 2, atol=1e-12)
    assert np.isclose(abs(out[1]) ** 2, math.sin(th) ** 2, atol=1e-12)


def test_matrix_and_krylov_paths_agree():
    space = FockSpace(3, 6)
    psi = coherent_fock(space, [0j, 0j, 0.4 + 0.1j])
    via_matrix = _dense_cloner(space.cutoff, 0.25) @ psi.amplitudes
    via_krylov = apply_cloning_fock_block([(0.25, psi)])[0].amplitudes
    assert np.abs(via_matrix - via_krylov).max() < 1e-10


def test_evolution_preserves_norm():
    space = FockSpace(3, 10)
    out = apply_cloning_fock_block([(0.4, coherent_fock(space, [0j, 0j, 0.3 + 0j]))])[0]
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-8


def test_coherent_state_is_nearly_normalized_and_poissonian():
    space = FockSpace(2, 12)
    xi = 0.7 - 0.2j
    state = coherent_fock(space, [xi, 0j])
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9
    dist = np.diag(reduced_density_matrix(state, 0)).real
    mean_n = float(np.arange(13) @ dist)
    assert np.isclose(mean_n, abs(xi) ** 2, atol=1e-9)
    assert np.isclose(reduced_density_matrix(state, 1)[0, 0].real, 1.0, atol=1e-12)


def test_fidelity_of_unevolved_vacuum_is_one():
    space = FockSpace(3, 4)
    state = coherent_fock(space, [0j, 0j, 0j])
    assert np.isclose(fidelity_fock(state, 0, 0j), 1.0, atol=1e-14)


def test_two_mode_squeezed_vacuum_thermal_overlap():
    # reduced state of a two-mode squeezed vacuum is thermal with
    # n = sinh^2 r, so its vacuum overlap must be 1/cosh^2 r
    space = FockSpace(2, 20)
    r = 0.4
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    flow = _box_flow(space, (0, 1), squeeze=True)
    state = FockState(space, expm_multiply(r * flow, vac))
    got = fidelity_fock(state, 0, 0j)
    assert np.isclose(got, 1 / math.cosh(r) ** 2, atol=1e-10)


def test_truncated_coherent_overlap_gate():
    space = FockSpace(2, 6)
    state = coherent_fock(space, [0j, 0j])
    with pytest.raises(TruncationError):
        fidelity_fock(state, 0, 4.0 + 0j)


def test_leakage_gate_trips_on_undersized_cutoff():
    space = FockSpace(3, 3)
    out = apply_cloning_fock_block([(1.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    with pytest.raises(TruncationError):
        fidelity_fock(out, 0, 0.5 + 0j)


def test_symmetric_point_fidelity_converges_to_two_thirds():
    space = FockSpace(3, 12)
    out = apply_cloning_fock_block([(0.0, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    assert abs(fidelity_fock(out, 0, 0.5) - 2 / 3) < 2e-3
    assert abs(fidelity_fock(out, 2, 0.5) - 2 / 3) < 2e-3


def test_asymmetric_point_fidelities_converge():
    space = FockSpace(3, 14)
    out = apply_cloning_fock_block([(0.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    assert abs(fidelity_fock(out, 0, 0.5) - 2 / (math.e + 2)) < 5e-3
    assert abs(fidelity_fock(out, 2, 0.5) - 2 / (math.exp(-1) + 2)) < 5e-3


def test_heisenberg_means_match_the_transform_picture():
    gamma, xi = 0.3, 0.4 + 0.15j
    space = FockSpace(3, 14)
    out = apply_cloning_fock_block([(gamma, coherent_fock(space, [0j, 0j, xi]))])[0]
    t = asym_direct(gamma)
    for mode in range(3):
        want = t.A[mode, 2] * xi + t.B[mode, 2] * np.conj(xi)
        assert abs(mode_expectation(out, mode) - want) < 2e-3


def test_reduced_density_matrix_traces_to_norm():
    space = FockSpace(3, 6)
    out = apply_cloning_fock_block([(0.2, coherent_fock(space, [0j, 0j, 0.3 + 0j]))])[0]
    for mode in range(3):
        rho = reduced_density_matrix(out, mode)
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
        assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_state_vector_shape_validation():
    space = FockSpace(2, 3)
    with pytest.raises(ValueError):
        FockState(space, np.zeros(5, dtype=complex))


def _kron_ladders(n_modes, cutoff):
    """Annihilation operator of every mode, lifted by dense Kronecker products."""
    levels = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, levels)), k=1)
    lifted = []
    for mode in range(n_modes):
        op = np.ones((1, 1))
        for m in range(n_modes):
            op = np.kron(op, a if m == mode else np.eye(levels))
        lifted.append(op)
    return lifted


@pytest.mark.parametrize("n_modes", [2, 3])
@pytest.mark.parametrize("cutoff", range(1, 7))
def test_flows_equal_the_kron_built_operators(n_modes, cutoff):
    space = FockSpace(n_modes, cutoff)
    ladders = _kron_ladders(n_modes, cutoff)
    for p in range(n_modes):
        for q in range(n_modes):
            if p == q:
                continue
            ap, aq = ladders[p], ladders[q]
            mix = ap.T @ aq - aq.T @ ap
            squeeze = ap @ aq - ap.T @ aq.T
            assert (_box_flow(space, (p, q), squeeze=False).toarray() == mix).all()
            assert (_box_flow(space, (p, q), squeeze=True).toarray() == squeeze).all()


def _sector_size(cutoff, sectors):
    """Box states of a 3-mode register (clone, idler, signal) whose charge lies in `sectors`."""
    n = np.arange(cutoff + 1)
    charge = n[:, None, None] - n[None, :, None] + n[None, None, :]
    return int(np.isin(charge, sectors).sum())


def test_oracle_builds_one_set_of_flows_per_rung(monkeypatch):
    calls = []
    real = fock._pair_nonzeros

    def counting(space, pair, squeeze, cols):
        calls.append((space.cutoff, cols.size))
        return real(space, pair, squeeze, cols)

    monkeypatch.setattr(fock, "_pair_nonzeros", counting)
    result = oracle_agreement(cutoffs=(10, 12))
    assert result.passed
    # per rung, three generators (clone-idler squeeze, mix, signal-idler squeeze)
    # for each group: the vacuum probes on Q = 0, the xi = 0.3 probes on Q in [0, c]
    want = []
    for c in (10, 12):
        want += [(c, _sector_size(c, [0]))] * 3 + [(c, _sector_size(c, range(c + 1)))] * 3
    assert calls == want


def test_real_input_evolves_to_exactly_real_amplitudes():
    space = FockSpace(3, 8)
    out = apply_cloning_fock_block([(0.3, coherent_fock(space, [0j, 0j, 0.3 + 0j]))])[0]
    assert (out.amplitudes.imag == 0).all()
    assert np.abs(out.amplitudes.real).max() > 0


def _dense_cloner(cutoff, gamma):
    """exp(-i(U+V)) exp(-i chi Y) as a dense matrix, from Kronecker-built ladders."""
    chi = gamma + 0.5 * math.log(2.0)
    a, b, c = _kron_ladders(3, cutoff)  # clone, idler, signal
    fixed = (a.T @ c - c.T @ a) + (c @ b - c.T @ b.T)
    squeeze = a @ b - a.T @ b.T
    return expm(fixed) @ expm(chi * squeeze)


def test_chi_zero_reduces_to_the_fixed_factor():
    # gamma = -ln(2)/2 is chi = 0: the clone-idler squeeze drops out and the
    # cloner is the fixed factor exp(-i(U+V)) alone
    space = FockSpace(3, 5)
    gamma = -0.5 * math.log(2.0)
    a, b, c = _kron_ladders(3, space.cutoff)  # clone, idler, signal
    fixed = expm((a.T @ c - c.T @ a) + (c @ b - c.T @ b.T))
    psi = coherent_fock(space, [0.1 - 0.05j, 0j, 0.3 + 0.2j])
    got = apply_cloning_fock_block([(gamma, psi)])[0].amplitudes
    assert np.abs(got - fixed @ psi.amplitudes).max() < 1e-12


def test_complex_input_matches_the_dense_exponentials():
    space = FockSpace(3, 5)
    psi = coherent_fock(space, [0.1 - 0.05j, 0j, 0.3 + 0.2j])
    assert np.abs(psi.amplitudes.imag).max() > 0
    for gamma in (0.2, -0.5 * math.log(2.0)):
        want = _dense_cloner(space.cutoff, gamma) @ psi.amplitudes
        got = apply_cloning_fock_block([(gamma, psi)])[0].amplitudes
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("xi", [complex("nan"), complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_fidelity_fock_refuses_a_non_finite_target(xi):
    state = coherent_fock(FockSpace(1, 10), [0.3])
    with pytest.raises(ValueError, match="must be finite"):
        fidelity_fock(state, 0, xi)


@pytest.mark.parametrize("xi", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_coherent_fock_refuses_a_non_finite_amplitude(xi):
    with pytest.raises(ValueError, match="coherent amplitudes must be finite"):
        coherent_fock(FockSpace(2, 6), [0.3, xi])


def test_a_block_refuses_an_empty_list_of_probes():
    with pytest.raises(ValueError, match="at least one probe"):
        apply_cloning_fock_block([])


def test_fidelity_fock_refuses_a_nan_state():
    # a NaN population must trip the leakage gate, not slip past it
    space = FockSpace(2, 6)
    state = FockState(space, np.full(space.dim, np.nan, dtype=complex))
    with pytest.raises(TruncationError, match="top-level population nan"):
        fidelity_fock(state, 0, 0.3)


def _chi(gamma):
    return gamma + 0.5 * math.log(2.0)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("cutoff", range(6, 17))
def test_propagator_matches_expm_multiply(cutoff, gamma):
    space = FockSpace(3, cutoff)
    amps = coherent_fock(space, [0.1 - 0.05j, 0j, 0.3 + 0.2j]).amplitudes
    block = np.stack([amps.real, amps.imag], axis=1)
    squeeze, fixed = fock._cloner_flows(space, np.arange(space.dim))
    for flow, t in ((squeeze, _chi(gamma)), (fixed, 1.0)):
        got = fock._propagate(flow, block, np.full(2, t)).T
        want = expm_multiply(t * flow.matrix, amps, traceA=0.0)
        assert np.abs(got[0] + 1j * got[1] - want).max() <= 1e-13


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_propagator_backward_undoes_forward(t):
    space = FockSpace(3, 12)
    block = np.stack([coherent_fock(space, [0j, 0j, 0.3 + 0j]).amplitudes.real,
                      coherent_fock(space, [0.2 + 0j, 0j, 0.4 + 0j]).amplitudes.real], axis=1)
    for flow in fock._cloner_flows(space, np.arange(space.dim)):
        there = fock._propagate(flow, block, np.full(2, t))
        back = fock._propagate(flow, there, np.full(2, -t))
        assert np.abs(back - block).max() <= 1e-13


def _bessel_j(k, x):
    """J_k(x) from its power series in decimal arithmetic, with digits to spare for the cancellation."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + int(x)
        half = decimal.Decimal(x) / 2
        term = half ** k / math.factorial(k)
        total, m = term, 0
        while m < x or abs(term) > decimal.Decimal(10) ** -40:
            m += 1
            term *= -half * half / (m * (m + k))
            total += term
        return float(total)


BESSEL_RHOS = [1e-3, 4.7, 26.0, 41.0, 62.0, 160.0]


@pytest.mark.parametrize("rho", BESSEL_RHOS)
def test_bessel_coefficients_are_exact_and_cut_below_the_unit_roundoff(rho):
    got = np.array(fock._bessel_coefficients(rho))
    exact = np.array([_bessel_j(k, rho) for k in range(got.size + 40)])
    assert np.abs(got - exact[:got.size]).max() <= 2.0 ** -51
    assert 2 * np.abs(exact[got.size:]).sum() < 2.0 ** -53
    # the cut is the first that meets the bound: one term fewer would not
    assert 2 * np.abs(exact[got.size - 1:]).sum() > 2.0 ** -54


@pytest.mark.parametrize("rho", BESSEL_RHOS[:-1])
def test_bessel_coefficients_match_scipy(rho):
    # at rho = 160 scipy's jv is itself off by 3.3e-15 from the exact series,
    # so that point is checked against the exact series alone
    got = np.array(fock._bessel_coefficients(rho))
    assert np.abs(got - jv(np.arange(got.size), rho)).max() <= 1e-15


def test_bessel_coefficients_of_a_negligible_rho_are_the_identity():
    assert fock._bessel_coefficients(0.0) == (1.0,)
    assert fock._bessel_coefficients(2.0 ** -54) == (1.0,)
    assert len(fock._bessel_coefficients(2.0 ** -52)) == 2


def test_bessel_coefficients_of_a_large_rho_stay_finite():
    # unscaled, the backward run from past order 12000 would overflow before J_0
    got = np.array(fock._bessel_coefficients(12000.0))
    assert np.isfinite(got).all()
    assert abs(got[0] ** 2 + 2 * (got[1:] ** 2).sum() - 1) <= 1e-13
    assert np.abs(got - jv(np.arange(got.size), 12000.0)).max() <= 1e-12


@pytest.mark.parametrize("cutoff", range(1, 7))
def test_the_one_norm_bounds_the_spectrum_of_each_flow(cutoff):
    # the Chebyshev series needs the eigenvalues of K / one_norm in [-i, i]
    space = FockSpace(3, cutoff)
    charge = fock._charge(space, np.arange(space.dim))
    for basis in (np.arange(space.dim), np.flatnonzero(charge == 0)):
        for flow in fock._cloner_flows(space, basis):
            eigenvalues = np.linalg.eigvals(flow.matrix.toarray())
            assert np.abs(eigenvalues.real).max() <= 1e-12
            assert np.abs(eigenvalues).max() <= flow.one_norm


@pytest.mark.parametrize("cutoff", [6, 11, 16])
def test_mixed_sign_times_equal_one_call_per_column(cutoff):
    space = FockSpace(3, cutoff)
    rng = np.random.default_rng(cutoff)
    block = np.column_stack([coherent_fock(space, [0j, 0j, xi]).amplitudes.real
                             for xi in (0.0, 0.3, 0.5)] + [rng.standard_normal(space.dim)])
    block /= np.linalg.norm(block, axis=0)
    times = np.array([0.2, -0.4, 0.9, -0.35])
    for flow in fock._cloner_flows(space, np.arange(space.dim)):
        got = fock._propagate(flow, block, times)
        for j, t in enumerate(times):
            alone = fock._propagate(flow, block[:, [j]], times[[j]])
            assert np.abs(got[:, [j]] - alone).max() <= 1e-15


def test_a_block_equals_one_call_per_probe():
    space = FockSpace(3, 12)
    probes = [(g, coherent_fock(space, [0j, 0j, xi]))
              for g in (-0.5, 0.0, 0.5) for xi in (0.0, 0.3)]
    block = apply_cloning_fock_block(probes)
    assert len(block) == 6
    for (gamma, state), out in zip(probes, block, strict=True):
        alone = apply_cloning_fock_block([(gamma, state)])[0]
        assert np.abs(out.amplitudes - alone.amplitudes).max() <= 1e-14


def test_a_block_keeps_real_and_imaginary_parts_apart():
    space = FockSpace(3, 8)
    imaginary = FockState(space, 1j * coherent_fock(space, [0j, 0j, 0.3 + 0j]).amplitudes)
    probes = [(0.2, imaginary),
              (-0.4, coherent_fock(space, [0.1 - 0.05j, 0j, 0.3 + 0.2j])),
              (0.0, coherent_fock(space, [0j, 0j, 0.3 + 0j]))]
    block = apply_cloning_fock_block(probes)
    assert (block[0].amplitudes.real == 0).all()
    assert (block[2].amplitudes.imag == 0).all()
    for (gamma, state), out in zip(probes, block, strict=True):
        want = _dense_cloner(space.cutoff, gamma) @ state.amplitudes
        assert np.abs(out.amplitudes - want).max() < 1e-12


def test_a_block_refuses_mixed_registers_and_a_non_finite_gamma():
    space = FockSpace(3, 6)
    with pytest.raises(ValueError, match="every probe needs the register"):
        apply_cloning_fock_block([(0.0, coherent_fock(space, [0j, 0j, 0.3])),
                                  (0.0, coherent_fock(FockSpace(3, 7), [0j, 0j, 0.3]))])
    with pytest.raises(ValueError, match="gamma must be finite"):
        apply_cloning_fock_block([(math.nan, coherent_fock(space, [0j, 0j, 0.3]))])
    with pytest.raises(ValueError, match="the cloner acts on 3 modes, got 2"):
        apply_cloning_fock_block([(0.0, coherent_fock(FockSpace(2, 6), [0j, 0.3]))])


@pytest.mark.parametrize("gamma", [6.5, -6.5, 1000.0])
def test_a_block_refuses_a_gamma_every_gaussian_path_refuses(gamma):
    # past GAMMA_LIMIT the truncated box would still return a figure
    state = coherent_fock(FockSpace(3, 4), [0j, 0j, 0.3])
    with pytest.raises(ValueError, match=r"\|gamma\| > 6\.0 exceeds the supported range") as err:
        apply_cloning_fock_block([(0.0, state), (gamma, state)])
    with pytest.raises(ValueError) as spec_err:
        AsymSpec(gamma)
    assert str(err.value) == str(spec_err.value)


@pytest.mark.parametrize("gamma", [6.0, -6.0])
def test_a_block_takes_a_gamma_at_the_limit(gamma):
    state = coherent_fock(FockSpace(3, 4), [0j, 0j, 0.3])
    (out,) = apply_cloning_fock_block([(gamma, state)])
    assert np.isfinite(out.amplitudes).all()


@pytest.mark.parametrize("cutoff", range(1, 7))
def test_box_flows_equal_the_kron_built_generators(cutoff):
    space = FockSpace(3, cutoff)
    a, b, c = _kron_ladders(3, cutoff)  # clone, idler, signal
    squeeze, fixed = fock._cloner_flows(space, np.arange(space.dim))
    assert (squeeze.matrix.toarray() == a @ b - a.T @ b.T).all()
    assert (fixed.matrix.toarray() == (a.T @ c - c.T @ a) + (c @ b - c.T @ b.T)).all()
    for flow in (squeeze, fixed):
        assert flow.one_norm == np.abs(flow.matrix.toarray()).sum(axis=0).max()


@pytest.mark.parametrize("cutoff", [1, 5, 10, 16, 20])
def test_both_flows_conserve_the_charge(cutoff):
    space = FockSpace(3, cutoff)
    clone, idler, signal = np.unravel_index(np.arange(space.dim), (cutoff + 1,) * 3)
    charge = clone + signal - idler
    assert (fock._charge(space, np.arange(space.dim)) == charge).all()
    for flow in fock._cloner_flows(space, np.arange(space.dim)):
        nonzeros = flow.matrix.tocoo()
        assert nonzeros.nnz > 0
        assert (charge[nonzeros.row] == charge[nonzeros.col]).all()


def test_sector_norms_of_the_oracle_register():
    # the xi = 0.3 probes occupy Q in [0, c], whose flows have the box's norms;
    # the vacuum occupies Q = 0, whose fixed flow is smaller
    space = FockSpace(3, 16)
    charge = fock._charge(space, np.arange(space.dim))
    box = fock._cloner_flows(space, np.arange(space.dim))
    signal = fock._cloner_flows(space, np.flatnonzero((charge >= 0) & (charge <= 16)))
    vacuum = fock._cloner_flows(space, np.flatnonzero(charge == 0))
    assert [f.one_norm for f in signal] == [f.one_norm for f in box]
    assert [round(f.one_norm, 1) for f in box] == [31.0, 62.0]
    assert [round(f.one_norm, 1) for f in vacuum] == [31.0, 41.0]
    assert [f.matrix.shape[0] for f in (box[0], signal[0], vacuum[0])] == [4913, 3281, 153]


@pytest.mark.parametrize("amplitudes", [[0j, 0j, 0j], [0j, 0j, 0.3 + 0j],
                                        [0.1 - 0.05j, 0.2j, 0.3 + 0.2j]])
def test_a_flow_that_breaks_the_charge_is_refused(monkeypatch, amplitudes):
    # the clone-idler pair built as a mix moves a photon from the idler to the
    # clone, so Q changes by 2; even a probe on the whole box is refused
    monkeypatch.setattr(fock, "_SQUEEZE_TERMS", (((fock._CLONE, fock._IDLER), False),))
    space = FockSpace(3, 8)
    with pytest.raises(ValueError, match="does not conserve Q"):
        apply_cloning_fock_block([(0.2, coherent_fock(space, amplitudes))])


def _reference_probes(space):
    random = np.random.default_rng(space.cutoff).standard_normal(space.dim)
    return {
        "vacuum": coherent_fock(space, [0j, 0j, 0j]),
        "signal": coherent_fock(space, [0j, 0j, 0.3 + 0j]),
        "complex on three modes": coherent_fock(space, [0.1 - 0.05j, 0.2j, 0.3 + 0.2j]),
        "random real": FockState(space, random / np.linalg.norm(random)),
    }


def _box_reference(gamma, state):
    """One probe evolved over the whole box, its two parts as one block."""
    space = state.space
    squeeze, fixed = fock._cloner_flows(space, np.arange(space.dim))
    block = np.stack([state.amplitudes.real, state.amplitudes.imag], axis=1)
    block = fock._propagate(squeeze, block, np.full(2, _chi(gamma)))
    block = fock._propagate(fixed, block, np.ones(2))
    return block[:, 0] + 1j * block[:, 1]


@pytest.mark.parametrize("name", ["vacuum", "signal", "complex on three modes", "random real"])
@pytest.mark.parametrize("cutoff", [6, 11, 16])
def test_a_probe_on_its_sectors_equals_the_box_propagation(cutoff, name):
    space = FockSpace(3, cutoff)
    state = _reference_probes(space)[name]
    occupied = np.isin(fock._charge(space, np.arange(space.dim)),
                       fock._charge(space, np.flatnonzero(state.amplitudes)))
    for gamma in (-0.5, 0.0, 0.5):
        got = apply_cloning_fock_block([(gamma, state)])[0].amplitudes
        assert np.abs(got - _box_reference(gamma, state)).max() <= 1e-14
        assert (got[~occupied] == 0).all()


@pytest.mark.parametrize("cutoff", [6, 11, 16])
def test_a_mixed_block_equals_the_box_propagation(cutoff):
    space = FockSpace(3, cutoff)
    probes = list(zip((-0.5, 0.0, 0.5, 0.2), _reference_probes(space).values(), strict=True))
    probes += [(0.5, state) for _, state in probes]
    outs = apply_cloning_fock_block(probes)
    for (gamma, state), out in zip(probes, outs, strict=True):
        assert np.abs(out.amplitudes - _box_reference(gamma, state)).max() <= 1e-14


def test_a_scalar_time_steps_as_a_vector_of_it():
    space = FockSpace(3, 10)
    block = np.stack([coherent_fock(space, [0j, 0j, xi]).amplitudes.real for xi in (0.0, 0.3)],
                     axis=1)
    for flow in fock._cloner_flows(space, np.arange(space.dim)):
        assert np.array_equal(fock._propagate(flow, block, 1.0),
                              fock._propagate(flow, block, np.ones(2)))


def test_a_state_keeps_its_own_copy_of_the_callers_array():
    space = FockSpace(2, 3)
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0
    state = FockState(space, vec)
    vec[:] = 0.5
    assert state.amplitudes[0] == 1.0
    assert (state.amplitudes[1:] == 0).all()
    assert not state.amplitudes.flags.writeable


def test_a_vector_fock_builds_is_frozen_in_place_not_copied():
    space = FockSpace(3, 4)
    vec = np.ones(space.dim, dtype=complex)
    assert FockState(space, vec, copy=False).amplitudes is vec
    assert not vec.flags.writeable
    # coherent_fock allocates its vector once: the peak holds one, not two
    space = FockSpace(3, 40)
    tracemalloc.start()
    try:
        coherent_fock(space, [0j, 0j, 0.3 + 0j])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * space.dim * np.dtype(complex).itemsize


# _oracle_dev at cutoffs 10..16 as computed by scipy's expm_multiply, one probe at a time
ORACLE_DEVS_BY_EXPM_MULTIPLY = {
    10: 0.004003547101940841,
    11: 0.0024200401473792876,
    12: 0.0014535234517596418,
    13: 0.0008686468393466207,
    14: 0.000517081683068854,
    15: 0.00030686478395614003,
    16: 0.00018168150597352994,
}


@pytest.mark.parametrize("cutoff", sorted(ORACLE_DEVS_BY_EXPM_MULTIPLY))
def test_oracle_dev_matches_the_expm_multiply_values(cutoff):
    assert abs(_oracle_dev(cutoff) - ORACLE_DEVS_BY_EXPM_MULTIPLY[cutoff]) <= 1e-14

