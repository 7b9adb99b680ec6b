"""Truncated Fock oracle: generators, Taylor propagation, fidelity cross-checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import cvcloner.fock as fock
from cvcloner.circuits import asym_direct
from cvcloner.verification import _oracle_dev, oracle_agreement
from cvcloner.fock import (
    FockSpace,
    FockState,
    TruncationError,
    apply_cloning_fock,
    apply_cloning_fock_block,
    coherent_fock,
    fidelity_fock,
    mode_expectation,
    photon_distribution,
    reduced_density_matrix,
)


def test_space_enforces_budget_and_cutoff():
    with pytest.raises(ValueError):
        FockSpace(3, 60)  # 61^3 > 2e5
    with pytest.raises(ValueError):
        FockSpace(2, 0)
    with pytest.raises(ValueError):
        FockSpace(0, 5)
    assert FockSpace(3, 14).dim == 15 ** 3


def test_mix_flow_single_photon_element():
    # basis |n0 n1>, index 2*n0 + n1 at cutoff 1; the Hermitian generator is
    # G = i K, so <10| G |01> = i reads <10| K |01> = 1
    space = FockSpace(2, 1)
    k = fock._mix_flow(space, (0, 1)).toarray()
    assert k[2, 1] == 1
    assert k[1, 2] == -1


def test_squeeze_flow_acts_on_vacuum_as_pair_creation():
    # G = i K with G |00> = -i |11>, so K |00> = -|11>
    space = FockSpace(2, 1)
    column = fock._squeeze_flow(space, (0, 1)).toarray()[:, 0]
    expected = np.zeros(4)
    expected[3] = -1.0
    assert np.allclose(column, expected)


def test_generator_exponentials_reproduce_gaussian_elements():
    # a beam splitter angle transfers |1,0> -> cos(th)|1,0> - sin(th)|0,1>
    space = FockSpace(2, 3)
    th = 0.6
    u = expm(th * fock._mix_flow(space, (0, 1)).toarray())
    one_zero = np.zeros(space.dim)
    one_zero[1 * 4] = 1.0
    out = u @ one_zero
    assert np.isclose(abs(out[4]) ** 2, math.cos(th) ** 2, atol=1e-12)
    assert np.isclose(abs(out[1]) ** 2, math.sin(th) ** 2, atol=1e-12)


def test_matrix_and_krylov_paths_agree():
    space = FockSpace(3, 6)
    psi = coherent_fock(space, [0j, 0j, 0.4 + 0.1j])
    via_matrix = _dense_cloner(space.cutoff, 0.25) @ psi.amplitudes
    via_krylov = apply_cloning_fock(0.25, psi).amplitudes
    assert np.abs(via_matrix - via_krylov).max() < 1e-10


def test_evolution_preserves_norm():
    space = FockSpace(3, 10)
    out = apply_cloning_fock(0.4, coherent_fock(space, [0j, 0j, 0.3 + 0j]))
    assert abs(out.norm - 1.0) < 1e-8


def test_coherent_state_is_nearly_normalized_and_poissonian():
    space = FockSpace(2, 12)
    xi = 0.7 - 0.2j
    state = coherent_fock(space, [xi, 0j])
    assert abs(state.norm - 1.0) < 1e-9
    dist = photon_distribution(state, 0)
    mean_n = float(np.arange(13) @ dist)
    assert np.isclose(mean_n, abs(xi) ** 2, atol=1e-9)
    assert np.isclose(photon_distribution(state, 1)[0], 1.0, atol=1e-12)


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
    flow = fock._squeeze_flow(space, (0, 1))
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
    out = apply_cloning_fock(1.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))
    with pytest.raises(TruncationError):
        fidelity_fock(out, 0, 0.5 + 0j)


def test_symmetric_point_fidelity_converges_to_two_thirds():
    space = FockSpace(3, 12)
    out = apply_cloning_fock(0.0, coherent_fock(space, [0j, 0j, 0.5 + 0j]))
    assert abs(fidelity_fock(out, 0, 0.5) - 2 / 3) < 2e-3
    assert abs(fidelity_fock(out, 2, 0.5) - 2 / 3) < 2e-3


def test_asymmetric_point_fidelities_converge():
    space = FockSpace(3, 14)
    out = apply_cloning_fock(0.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))
    assert abs(fidelity_fock(out, 0, 0.5) - 2 / (math.e + 2)) < 5e-3
    assert abs(fidelity_fock(out, 2, 0.5) - 2 / (math.exp(-1) + 2)) < 5e-3


def test_heisenberg_means_match_the_transform_picture():
    gamma, xi = 0.3, 0.4 + 0.15j
    space = FockSpace(3, 14)
    out = apply_cloning_fock(gamma, coherent_fock(space, [0j, 0j, xi]))
    t = asym_direct(gamma)
    for mode in range(3):
        want = t.A[mode, 2] * xi + t.B[mode, 2] * np.conj(xi)
        assert abs(mode_expectation(out, mode) - want) < 2e-3


def test_reduced_density_matrix_traces_to_norm():
    space = FockSpace(3, 6)
    out = apply_cloning_fock(0.2, coherent_fock(space, [0j, 0j, 0.3 + 0j]))
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
            assert (fock._mix_flow(space, (p, q)).toarray() == mix).all()
            assert (fock._squeeze_flow(space, (p, q)).toarray() == squeeze).all()


def test_oracle_builds_one_set_of_flows_per_rung(monkeypatch):
    calls = []
    real = fock._pair_flow

    def counting(space, pair, squeeze):
        calls.append(space.cutoff)
        return real(space, pair, squeeze)

    fock._cloner_flows.cache_clear()
    monkeypatch.setattr(fock, "_pair_flow", counting)
    try:
        result = oracle_agreement(cutoffs=(10, 12))
    finally:
        fock._cloner_flows.cache_clear()
    assert result.passed
    # three generators (clone-idler squeeze, mix, signal-idler squeeze) per rung
    assert calls == [10] * 3 + [12] * 3


def test_real_input_evolves_to_exactly_real_amplitudes():
    space = FockSpace(3, 8)
    out = apply_cloning_fock(0.3, coherent_fock(space, [0j, 0j, 0.3 + 0j]))
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
    got = apply_cloning_fock(gamma, psi).amplitudes
    assert np.abs(got - fixed @ psi.amplitudes).max() < 1e-12


def test_complex_input_matches_the_dense_exponentials():
    space = FockSpace(3, 5)
    psi = coherent_fock(space, [0.1 - 0.05j, 0j, 0.3 + 0.2j])
    assert np.abs(psi.amplitudes.imag).max() > 0
    for gamma in (0.2, -0.5 * math.log(2.0)):
        want = _dense_cloner(space.cutoff, gamma) @ psi.amplitudes
        got = apply_cloning_fock(gamma, psi).amplitudes
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("xi", [complex("nan"), complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_fidelity_fock_refuses_a_non_finite_target(xi):
    state = coherent_fock(FockSpace(1, 10), [0.3])
    with pytest.raises(ValueError, match="must be finite"):
        fidelity_fock(state, 0, xi)


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
    squeeze, fixed = fock._cloner_flows(space)
    for flow, t in ((squeeze, _chi(gamma)), (fixed, 1.0)):
        got = fock._propagate(flow, block, np.full(2, t)).T
        want = expm_multiply(t * flow.matrix, amps, traceA=0.0)
        assert np.abs(got[0] + 1j * got[1] - want).max() <= 1e-13


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_propagator_backward_undoes_forward(t):
    space = FockSpace(3, 12)
    block = np.stack([coherent_fock(space, [0j, 0j, 0.3 + 0j]).amplitudes.real,
                      coherent_fock(space, [0.2 + 0j, 0j, 0.4 + 0j]).amplitudes.real], axis=1)
    for flow in fock._cloner_flows(space):
        there = fock._propagate(flow, block, np.full(2, t))
        back = fock._propagate(flow, there, np.full(2, -t))
        assert np.abs(back - block).max() <= 1e-13


def _propagate_with_exact_norms(flow, block, times):
    """The propagator with the sum's exact norm taken after every term, as scipy does."""
    m, s = fock._taylor_plan(float(np.abs(times).max()) * flow.one_norm)
    out = np.array(block, order="C")
    term = out
    for _ in range(s):
        c1 = np.abs(term).max(axis=0)
        for j in range(m):
            term = (flow.matrix @ term) * (times / (s * (j + 1)))
            c2 = np.abs(term).max(axis=0)
            out = out + term
            if (c1 + c2 <= 2.0 ** -53 * np.abs(out).max(axis=0)).all():
                break
            c1 = c2
        term = out
    return out


@pytest.mark.parametrize("cutoff", [6, 11, 16])
def test_propagator_equals_the_exact_norm_loop(cutoff):
    space = FockSpace(3, cutoff)
    rng = np.random.default_rng(cutoff)
    block = np.column_stack([coherent_fock(space, [0j, 0j, xi]).amplitudes.real
                             for xi in (0.0, 0.3, 0.5)] + [rng.standard_normal(space.dim)])
    times = np.array([0.2, -0.4, 0.9, 0.35])
    for flow in fock._cloner_flows(space):
        got = fock._propagate(flow, block, times)
        assert np.array_equal(got, _propagate_with_exact_norms(flow, block, times))


def test_a_block_equals_one_call_per_probe():
    space = FockSpace(3, 12)
    probes = [(g, coherent_fock(space, [0j, 0j, xi]))
              for g in (-0.5, 0.0, 0.5) for xi in (0.0, 0.3)]
    block = apply_cloning_fock_block(probes)
    assert len(block) == 6
    for (gamma, state), out in zip(probes, block, strict=True):
        alone = apply_cloning_fock(gamma, state)
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

