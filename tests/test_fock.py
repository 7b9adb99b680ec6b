"""Truncated Fock oracle: generators, chain squeeze, Chebyshev series, fidelity cross-checks."""

import decimal
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import jv
from scipy.sparse.linalg import expm_multiply

import cvcloner.fock as fock
from cvcloner.circuits import GAMMA_LIMIT, AsymSpec, build_cloners
from cvcloner.verification import _oracle_dev, oracle_agreement
from cvcloner.fock import (
    FockSpace,
    FockState,
    TruncationError,
    apply_cloning_fock_block,
    coherent_fock,
    fidelities_fock,
)
from reference import mode_expectation, reduced_density_matrix


def test_space_enforces_budget_and_cutoff():
    with pytest.raises(ValueError):
        FockSpace(3, 60)  # 61^3 > 2e5
    with pytest.raises(ValueError):
        FockSpace(2, 0)
    with pytest.raises(ValueError):
        FockSpace(0, 5)
    assert FockSpace(3, 14).dim == 15 ** 3


@pytest.mark.parametrize("n_modes, cutoff", [(3, 10.0), (3.0, 4), (3, 12.5), (3, "12"), (None, 4)],
                         ids=["float-cutoff", "float-modes", "fractional", "string", "none"])
def test_space_refuses_sizes_that_are_not_integers(n_modes, cutoff):
    # a float size would make a float dim, 1331.0 at (3, 10.0)
    with pytest.raises(ValueError, match=rf"must be integers, got n_modes={n_modes!r}, "
                                         rf"cutoff={cutoff!r}"):
        FockSpace(n_modes, cutoff)


def test_space_stores_integer_sizes_as_ints():
    space = FockSpace(np.int64(3), np.int32(10))
    assert type(space.n_modes) is type(space.cutoff) is type(space.dim) is int
    assert space == FockSpace(3, 10)


def test_oracle_agreement_refuses_a_float_cutoff_at_the_boundary():
    # refused where the register is made, not by numpy deep inside the oracle
    with pytest.raises(ValueError, match=r"cutoff=12\.0"):
        oracle_agreement(cutoffs=(12.0,))


# the clone-idler squeeze as a flow, which the oracle itself never builds, and
# the clone-signal beam splitter alone
SQUEEZE_TERMS = (((fock._CLONE, fock._IDLER), True),)
MIX_TERMS = (((fock._CLONE, fock._SIGNAL), False),)


def _box_flows(space):
    """The clone-idler squeeze flow and the fixed flow, each over the whole box."""
    box = np.arange(space.dim)
    return fock._flow(space, SQUEEZE_TERMS, box), fock._cloner_flows(space, box)


def _scaled(flow, t):
    """The flow of tK, whose radius is |t| times that of K."""
    return fock._Flow(t * flow.matrix, abs(t) * flow.radius)


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
    assert np.isclose(fidelities_fock([(state, 0, 0j)])[0], 1.0, atol=1e-14)


def test_two_mode_squeezed_vacuum_thermal_overlap():
    # reduced state of a two-mode squeezed vacuum is thermal with
    # n = sinh^2 r, so its vacuum overlap must be 1/cosh^2 r
    space = FockSpace(2, 20)
    r = 0.4
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    flow = _box_flow(space, (0, 1), squeeze=True)
    state = FockState(space, expm_multiply(r * flow, vac))
    (got,) = fidelities_fock([(state, 0, 0j)])
    assert np.isclose(got, 1 / math.cosh(r) ** 2, atol=1e-10)


def test_truncated_coherent_overlap_gate():
    space = FockSpace(2, 6)
    state = coherent_fock(space, [0j, 0j])
    with pytest.raises(TruncationError):
        fidelities_fock([(state, 0, 4.0 + 0j)])


def test_leakage_gate_trips_on_undersized_cutoff():
    space = FockSpace(3, 3)
    out = apply_cloning_fock_block([(1.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    with pytest.raises(TruncationError):
        fidelities_fock([(out, 0, 0.5 + 0j)])


def test_symmetric_point_fidelity_converges_to_two_thirds():
    space = FockSpace(3, 12)
    out = apply_cloning_fock_block([(0.0, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    clone, signal = fidelities_fock([(out, 0, 0.5), (out, 2, 0.5)])
    assert abs(clone - 2 / 3) < 2e-3
    assert abs(signal - 2 / 3) < 2e-3


def test_asymmetric_point_fidelities_converge():
    space = FockSpace(3, 14)
    out = apply_cloning_fock_block([(0.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    clone, signal = fidelities_fock([(out, 0, 0.5), (out, 2, 0.5)])
    assert abs(clone - 2 / (math.e + 2)) < 5e-3
    assert abs(signal - 2 / (math.exp(-1) + 2)) < 5e-3


def test_heisenberg_means_match_the_transform_picture():
    gamma, xi = 0.3, 0.4 + 0.15j
    space = FockSpace(3, 14)
    out = apply_cloning_fock_block([(gamma, coherent_fock(space, [0j, 0j, xi]))])[0]
    stack = build_cloners([AsymSpec(gamma)])
    A, B = stack.A[0], stack.B[0]
    for mode in range(3):
        want = A[mode, 2] * xi + B[mode, 2] * np.conj(xi)
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


@pytest.fixture
def cold_registers():
    """An empty register cache on entry and on exit.

    For a test that counts the builds or patches what a build reads
    (`_FIXED_TERMS`, `_pair_nonzeros`): an entry another test built would
    be read instead, and one this test built would outlive its patch.
    """
    fock._CACHE.clear()
    yield
    fock._CACHE.clear()


def _count_builds(monkeypatch):
    """Record each generator build (`_pair_nonzeros`) and each chain eigh the oracle runs."""
    built, eighs, propagated = [], [], []
    pair_nonzeros, eigh, propagate = fock._pair_nonzeros, np.linalg.eigh, fock._propagate

    def counting_pairs(space, pair, squeeze, cols):
        built.append((space.cutoff, cols.size))
        return pair_nonzeros(space, pair, squeeze, cols)

    def counting_eigh(matrices, *args, **kwargs):
        eighs.append(matrices.shape)
        return eigh(matrices, *args, **kwargs)

    def counting_propagate(flow, block):
        propagated.append(block.shape)
        return propagate(flow, block)

    monkeypatch.setattr(fock, "_pair_nonzeros", counting_pairs)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(fock, "_propagate", counting_propagate)
    return built, eighs, propagated


def test_oracle_builds_one_set_of_flows_per_rung(monkeypatch, cold_registers):
    built, eighs, propagated = _count_builds(monkeypatch)
    result = oracle_agreement(cutoffs=(10, 12))
    assert result.passed
    # per rung, two generators (mix, signal-idler squeeze) for each group: the
    # vacuum probes on Q = 0, the xi = 0.3 probes on Q in [0, c]; the
    # clone-idler squeeze is applied on its chains and builds no generator
    want = []
    for c in (10, 12):
        want += [(c, _sector_size(c, [0]))] * 2 + [(c, _sector_size(c, range(c + 1)))] * 2
    assert built == want
    assert eighs == [(c + 1,) * 3 for c in (10, 12)]  # the padded chains, once per register
    # a warm ladder builds nothing, and still evolves its probes once per rung
    del built[:], eighs[:], propagated[:]
    assert oracle_agreement(cutoffs=(10, 12)) == result
    assert built == eighs == []
    assert [rows for rows, _ in propagated] == [
        _sector_size(c, [0]) + _sector_size(c, range(c + 1)) for c in (10, 12)]


def test_cold_and_warm_amplitudes_are_bit_identical(cold_registers):
    space = FockSpace(3, 11)
    probes = list(zip((-0.5, 0.0, 0.5, 0.2), _reference_probes(space).values(), strict=True))
    cold = apply_cloning_fock_block(probes)
    warm = apply_cloning_fock_block(probes)
    for cold_out, warm_out in zip(cold, warm, strict=True):
        assert np.array_equal(cold_out.amplitudes, warm_out.amplitudes)
        assert cold_out.amplitudes is not warm_out.amplitudes


def test_every_cached_array_is_read_only(cold_registers):
    space = FockSpace(3, 6)
    apply_cloning_fock_block([(0.1, coherent_fock(space, [0j, 0j, 0.3 + 0j]))])
    flow, bases = fock._fixed_flow(space, (tuple(range(7)),))
    arrays = [*fock._register(space), *bases,
              flow.matrix.data, flow.matrix.indices, flow.matrix.indptr]
    assert len(arrays) == 10
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


def test_the_cache_evicts_the_least_recently_used_past_its_budget():
    cache = fock._BoxCache(10)
    assert cache.get("a", lambda: (4, "A")) == "A"
    cache.get("b", lambda: (4, "B"))
    assert cache.get("a", lambda: pytest.fail("a was held")) == "A"  # a is now the most recent
    cache.get("c", lambda: (4, "C"))  # 12 states: b goes
    assert cache.get("a", lambda: pytest.fail("a was evicted")) == "A"
    assert cache.get("c", lambda: pytest.fail("c was evicted")) == "C"
    assert cache.get("b", lambda: (4, "B again")) == "B again"  # 12 again: a goes
    # an entry past the budget alone is still kept, and every other goes
    assert cache.get("d", lambda: (11, "D")) == "D"
    assert cache.get("d", lambda: pytest.fail("d was evicted")) == "D"
    assert cache.get("c", lambda: (4, "C again")) == "C again"


def test_registers_past_the_dimension_budget_evict_the_oldest(monkeypatch, cold_registers):
    _, eighs, _ = _count_builds(monkeypatch)
    # 41^3 + 46^3 box states fit DIMENSION_BUDGET; 48^3 more do not
    for cutoff in (40, 45, 47, 47, 40):
        space = FockSpace(3, cutoff)
        apply_cloning_fock_block([(0.2, coherent_fock(space, [0j, 0j, 0j]))])
    assert eighs == [(c + 1,) * 3 for c in (40, 45, 47, 40)]
    held = sum(states for states, _ in fock._CACHE._entries.values())
    assert held <= fock.DIMENSION_BUDGET


class _CountedMatrix:
    """A sparse matrix that records the shape of every block it multiplies."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    def __mul__(self, scalar):
        return _CountedMatrix(self.matrix * scalar, self.products)

    def __matmul__(self, block):
        self.products.append(block.shape)
        return self.matrix @ block


def test_a_rung_makes_one_recurrence_of_at_most_95_products(monkeypatch):
    calls, products = [], []
    real = fock._propagate

    def counting(flow, block):
        calls.append(block.shape)
        return real(fock._Flow(_CountedMatrix(flow.matrix, products), flow.radius), block)

    monkeypatch.setattr(fock, "_propagate", counting)
    assert math.isfinite(_oracle_dev(16))
    # one call over both groups' rows, with the three real columns of each
    # group (one per gamma) side by side; the design with a squeeze flow made
    # 307 sparse products per rung here, in four recurrences, and a series
    # sized by the 1-norm (62.0) 107; sized by the chain bound (51.0) it makes 93
    assert calls == [(_sector_size(16, [0]) + _sector_size(16, range(17)), 3)]
    assert set(products) == set(calls)
    assert len(products) <= 95


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
        fidelities_fock([(state, 0, xi)])


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
        fidelities_fock([(state, 0, 0.3)])


def _chi(gamma):
    return gamma + 0.5 * math.log(2.0)


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("cutoff", range(6, 17))
def test_propagator_matches_expm_multiply(cutoff, gamma):
    space = FockSpace(3, cutoff)
    amps = coherent_fock(space, [0.1 - 0.05j, 0j, 0.3 + 0.2j]).amplitudes
    block = np.stack([amps.real, amps.imag], axis=1)
    squeeze, fixed = _box_flows(space)
    for flow, t in ((squeeze, _chi(gamma)), (fixed, 1.0)):
        got = fock._propagate(_scaled(flow, t), block).T
        want = expm_multiply(t * flow.matrix, amps, traceA=0.0)
        assert np.abs(got[0] + 1j * got[1] - want).max() <= 1e-13


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_propagator_backward_undoes_forward(t):
    space = FockSpace(3, 12)
    block = np.stack([coherent_fock(space, [0j, 0j, 0.3 + 0j]).amplitudes.real,
                      coherent_fock(space, [0.2 + 0j, 0j, 0.4 + 0j]).amplitudes.real], axis=1)
    for flow in _box_flows(space):
        there = fock._propagate(_scaled(flow, t), block)
        back = fock._propagate(_scaled(flow, -t), there)
        assert np.abs(back - block).max() <= 1e-13


def _signal_vacuum_columns(space):
    """Box indices of the (clone, idler) states with no signal photon, in box order."""
    return np.flatnonzero(np.arange(space.dim) % space.levels == 0)


CHAIN_CHIS = [_chi(-GAMMA_LIMIT), _chi(-0.5), _chi(0.0), _chi(0.5), 2.0, _chi(GAMMA_LIMIT)]


@pytest.mark.parametrize("cutoff", range(1, 7))
def test_the_chain_squeeze_equals_the_dense_exponential(cutoff):
    space = FockSpace(3, cutoff)
    a, b, _ = _kron_ladders(3, cutoff)  # clone, idler, signal
    for gamma in (-0.5, 0.0, 0.5):
        chi = _chi(gamma)
        got = fock._squeeze(space, np.eye(space.dim), np.full(space.dim, chi))
        assert np.abs(got - expm(chi * (a @ b - a.T @ b.T))).max() <= 1e-13


@pytest.mark.parametrize("cutoff", [1, 4, 6, 11, 16])
def test_the_chain_squeeze_is_orthogonal_and_its_inverse_is_minus_chi(cutoff):
    # E(chi) on the (clone, idler) register: the columns with no signal photon
    space = FockSpace(3, cutoff)
    cols = _signal_vacuum_columns(space)
    probe = np.zeros((space.dim, cols.size))
    probe[cols, np.arange(cols.size)] = 1.0
    for chi in CHAIN_CHIS:
        there, back = (fock._squeeze(space, probe, np.full(cols.size, t)) for t in (chi, -chi))
        assert (np.delete(there, cols, axis=0) == 0).all()
        there, back = there[cols], back[cols]
        assert np.abs(there @ back - np.eye(cols.size)).max() <= 32 * 2.0 ** -52
        assert np.abs(there @ there.T - np.eye(cols.size)).max() <= 32 * 2.0 ** -52


def test_the_chain_squeeze_at_chi_zero_is_exactly_the_identity():
    space = FockSpace(3, 9)
    block = np.random.default_rng(9).standard_normal((space.dim, 3))
    assert np.array_equal(fock._squeeze(space, block, np.zeros(3)), block)
    assert np.array_equal(fock._squeeze(space, np.eye(space.dim), np.zeros(space.dim)),
                          np.eye(space.dim))


@pytest.mark.parametrize("cutoff", [6, 11, 16])
def test_the_chain_squeeze_matches_the_propagator_on_the_box_flow(cutoff):
    space = FockSpace(3, cutoff)
    flow = fock._flow(space, SQUEEZE_TERMS, np.arange(space.dim))
    block = np.random.default_rng(cutoff).standard_normal((space.dim, len(CHAIN_CHIS)))
    block /= np.linalg.norm(block, axis=0)
    # every column with its own chi, in one call
    got = fock._squeeze(space, block, CHAIN_CHIS)
    for j, chi in enumerate(CHAIN_CHIS):
        want = fock._propagate(_scaled(flow, chi), block[:, [j]])
        assert np.abs(got[:, [j]] - want).max() <= 1e-14


@pytest.mark.parametrize("cutoff", [1, 6, 16])
def test_a_vacuum_clone_and_idler_stay_on_the_d_zero_chain(cutoff):
    # a_clone a_idler keeps n_clone - n_idler, so from |0, 0> every amplitude
    # off n_clone = n_idler is exactly zero
    space = FockSpace(3, cutoff)
    clone, idler, _ = np.unravel_index(np.arange(space.dim), (space.levels,) * 3)
    block = np.column_stack([coherent_fock(space, [0j, 0j, xi]).amplitudes.real
                             for xi in (0.0, 0.3, 1.1)])
    out = fock._squeeze(space, block, [_chi(0.5), _chi(GAMMA_LIMIT), _chi(-0.5)])
    assert (out[clone != idler] == 0).all()
    assert (np.abs(out[clone == idler]).max(axis=0) > 0).all()


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


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_the_one_norm_bounds_the_spectrum_of_each_flow(cutoff):
    # the 1-norm bounds the spectrum, and the radius that sizes the Chebyshev
    # series (which needs the eigenvalues of K / radius in [-i, i]) is the
    # smaller of the 1-norm and the chain bound, so it lies between the
    # spectral radius and the 1-norm, for a flow over the box, over
    # Q = 0 alone (whose 1-norm is the smaller), over the signal probes'
    # sectors, stacked over both, or of one term alone
    space = FockSpace(3, cutoff)
    charge = fock._charge(space, np.arange(space.dim))
    box, vacuum = np.arange(space.dim), np.flatnonzero(charge == 0)
    signal = np.flatnonzero((charge >= 0) & (charge <= cutoff))
    flows = [fock._flow(space, terms, basis) for terms in (SQUEEZE_TERMS, MIX_TERMS)
             for basis in (box, vacuum)]
    flows += [fock._cloner_flows(space, *bases)
              for bases in ((box,), (vacuum,), (signal,), (vacuum, signal))]
    for flow in flows:
        dense = flow.matrix.toarray()
        assert (dense == -dense.T).all()
        spectral_radius = np.abs(np.linalg.eigvalsh(1j * dense)).max()  # iK is Hermitian
        assert spectral_radius <= flow.radius <= np.abs(dense).sum(axis=0).max()


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
    squeeze, fixed = _box_flows(space)
    assert (squeeze.matrix.toarray() == a @ b - a.T @ b.T).all()
    assert (fixed.matrix.toarray() == (a.T @ c - c.T @ a) + (c @ b - c.T @ b.T)).all()
    mix_radius, squeeze_radius = fock._register(space).radii
    chain_bounds = (squeeze_radius, math.fsum((mix_radius, squeeze_radius)))
    for flow, chains in zip((squeeze, fixed), chain_bounds, strict=True):
        assert flow.radius == min(np.abs(flow.matrix.toarray()).sum(axis=0).max(), chains)


@pytest.mark.parametrize("cutoff", [1, 5, 10, 16, 20])
def test_both_flows_conserve_the_charge(cutoff):
    space = FockSpace(3, cutoff)
    clone, idler, signal = np.unravel_index(np.arange(space.dim), (cutoff + 1,) * 3)
    charge = clone + signal - idler
    assert (fock._charge(space, np.arange(space.dim)) == charge).all()
    for flow in _box_flows(space):
        nonzeros = flow.matrix.tocoo()
        assert nonzeros.nnz > 0
        assert (charge[nonzeros.row] == charge[nonzeros.col]).all()


def test_sector_norms_of_the_oracle_register():
    # the xi = 0.3 probes occupy Q in [0, c], whose fixed flow has the box's
    # norm; the vacuum occupies Q = 0, whose fixed flow is smaller.  Both
    # groups' flows stacked as one block diagonal take the larger norm.  The
    # radius of the box, signal and stacked flows is the chain bound
    # rho_BS + rho_NOPA = 25.14 + 25.82, below their 1-norm 62.0 (their
    # spectral radius is 49.42); the vacuum flow keeps its 1-norm 41.0
    space = FockSpace(3, 16)
    charge = fock._charge(space, np.arange(space.dim))
    signal_basis = np.flatnonzero((charge >= 0) & (charge <= 16))
    vacuum_basis = np.flatnonzero(charge == 0)
    box = fock._cloner_flows(space, np.arange(space.dim))
    signal = fock._cloner_flows(space, signal_basis)
    vacuum = fock._cloner_flows(space, vacuum_basis)
    both = fock._cloner_flows(space, vacuum_basis, signal_basis)
    def one_norm(flow):
        return abs(flow.matrix).sum(axis=0).max()

    assert one_norm(signal) == one_norm(box) == one_norm(both)
    assert [round(one_norm(f), 1) for f in (box, vacuum)] == [62.0, 41.0]
    radii = fock._register(space).radii
    assert [round(r, 2) for r in radii] == [25.14, 25.82]
    assert signal.radius == box.radius == both.radius == math.fsum(radii)
    assert round(box.radius, 2) == 50.96
    assert vacuum.radius == one_norm(vacuum)
    assert [f.matrix.shape[0] for f in (box, signal, vacuum, both)] == [4913, 3281, 153, 3434]
    assert (both.matrix[:153, :153] != vacuum.matrix).nnz == 0
    assert (both.matrix[153:, 153:] != signal.matrix).nnz == 0
    assert both.matrix[:153, 153:].nnz == both.matrix[153:, :153].nnz == 0


@pytest.mark.parametrize("amplitudes", [[0j, 0j, 0j], [0j, 0j, 0.3 + 0j],
                                        [0.1 - 0.05j, 0.2j, 0.3 + 0.2j]])
def test_a_flow_that_breaks_the_charge_is_refused(monkeypatch, cold_registers, amplitudes):
    # the clone-idler pair built as a mix moves a photon from the idler to the
    # clone, so Q changes by 2; even a probe on the whole box is refused
    monkeypatch.setattr(fock, "_FIXED_TERMS",
                        fock._FIXED_TERMS + (((fock._CLONE, fock._IDLER), False),))
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
    squeeze, fixed = _box_flows(state.space)
    block = np.stack([state.amplitudes.real, state.amplitudes.imag], axis=1)
    block = fock._propagate(_scaled(squeeze, _chi(gamma)), block)
    block = fock._propagate(fixed, block)
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



def _all_chain_squeeze(space, block, chis):
    """`fock._squeeze` with every (chain, column) pair taken as occupied."""
    register = fock._register(space)
    levels, k = space.levels, block.shape[1]
    distinct, which = np.unique(np.asarray(chis, dtype=float), return_inverse=True)
    out = block.copy()
    boxed = out.reshape(levels ** 2, levels, k)
    padded = np.concatenate([boxed, np.zeros((1, levels, k))])
    chain, col = (grid.ravel() for grid in np.meshgrid(np.arange(2 * levels - 1), np.arange(k),
                                                       indexing="ij"))
    gap = np.abs(chain - space.cutoff)
    v = np.array([1, 1j, -1, -1j])[np.arange(levels) % 4, None] * register.w[gap]
    steps = ((v * np.expm1(1j * distinct[which[col], None] * register.lam[gap])[:, None, :])
             @ v.conj().swapaxes(1, 2)).real
    cols = np.broadcast_to(col[:, None], (chain.size, levels))
    slices = padded[register.rows[chain], :, cols]
    slices += steps @ slices
    on_chain = register.on_chain[chain]
    boxed[register.rows[chain][on_chain], :, cols[on_chain]] = slices[on_chain]
    return out


@pytest.mark.parametrize("cutoff", [1, 4, 9, 16])
def test_the_occupied_chain_squeeze_equals_the_all_chain_one_bit_for_bit(cutoff):
    space = FockSpace(3, cutoff)
    rng = np.random.default_rng(cutoff)
    clone, idler, _ = np.unravel_index(np.arange(space.dim), (space.levels,) * 3)
    chain = clone - idler
    block = rng.standard_normal((space.dim, 5))
    for j in range(5):  # each column keeps a random set of chains, none or all among them
        kept = rng.random(2 * cutoff + 1) < (0.0, 0.3, 0.6, 1.0, 0.5)[j]
        block[~kept[chain + cutoff], j] = 0.0
    chis = [_chi(0.5), _chi(-0.5), _chi(0.5), 0.0, _chi(GAMMA_LIMIT)]
    got = fock._squeeze(space, block, chis)
    assert np.array_equal(got, _all_chain_squeeze(space, block, chis))
    for j in range(5):  # a chain a column leaves empty stays exactly zero
        assert (got[~np.isin(chain, chain[block[:, j] != 0]), j] == 0).all()


def test_the_oracle_probes_touch_only_the_d_zero_chain(monkeypatch):
    # with every chain's eigenbasis but d = 0's poisoned, the oracle's probes
    # still evolve to the same amplitudes: no other chain's step is formed
    space = FockSpace(3, 12)
    probes = [(g, coherent_fock(space, [0j, 0j, xi]))
              for g in (-0.5, 0.0, 0.5) for xi in (0.0, 0.3)]
    want = apply_cloning_fock_block(probes)
    register = fock._register(space)
    lam, w = register.lam.copy(), register.w.copy()
    lam[1:], w[1:] = np.nan, np.nan
    monkeypatch.setattr(fock, "_register", lambda _: register._replace(lam=lam, w=w))
    for out, alone in zip(apply_cloning_fock_block(probes), want, strict=True):
        assert np.array_equal(out.amplitudes, alone.amplitudes)
    # a probe with an idler photon occupies the d = -1 chain, and reads the poison
    stray = apply_cloning_fock_block([(0.0, coherent_fock(space, [0j, 0.2 + 0j, 0.3 + 0j]))])
    assert np.isnan(stray[0].amplitudes).any()


def _fidelity_by_trace(state, mode, xi):
    """<xi| rho |xi> from the partial trace, the reference the readout is checked against."""
    target = fock._coherent_column(state.space.levels, complex(xi)).astype(np.clongdouble)
    return float((target.conj() @ reduced_density_matrix(state, mode) @ target).real)


@pytest.mark.parametrize("cutoff", [10, 13, 16])
def test_the_readout_matches_the_partial_trace(cutoff):
    space = FockSpace(3, cutoff)
    probes = _reference_probes(space)
    states = [probes["vacuum"], probes["complex on three modes"],
              *apply_cloning_fock_block([(g, probes["signal"]) for g in (-0.5, 0.5)]),
              apply_cloning_fock_block([(0.2, probes["complex on three modes"])])[0]]
    reads = [(state, mode, xi) for state in states for mode in range(3)
             for xi in (0.0, 0.3, 0.2 - 0.4j)]
    got = fidelities_fock(reads)
    assert len(got) == len(reads)
    for f, (state, mode, xi) in zip(got, reads, strict=True):
        assert abs(f - _fidelity_by_trace(state, mode, xi)) <= 1e-15


def test_the_readout_refuses_a_nan_state_and_a_leaking_read_among_good_ones():
    # every target is the vacuum, whose truncated norm is exactly 1, so only
    # the leakage gate can refuse
    space = FockSpace(3, 3)
    good = coherent_fock(space, [0j, 0j, 0.3 + 0j])
    leaking = apply_cloning_fock_block([(1.5, coherent_fock(space, [0j, 0j, 0.5 + 0j]))])[0]
    nan = FockState(space, np.full(space.dim, np.nan, dtype=complex))
    assert len(fidelities_fock([(good, 0, 0), (good, 2, 0)])) == 2
    with pytest.raises(TruncationError, match=r"top-level population \d"):
        fidelities_fock([(good, 0, 0), (leaking, 0, 0), (good, 2, 0)])
    with pytest.raises(TruncationError, match="top-level population nan"):
        fidelities_fock([(good, 0, 0), (nan, 1, 0)])


def test_the_readout_refuses_no_reads_and_mixed_registers():
    with pytest.raises(ValueError, match="at least one read"):
        fidelities_fock([])
    with pytest.raises(ValueError, match="every read needs the register"):
        fidelities_fock([(coherent_fock(FockSpace(3, 6), [0j, 0j, 0.3]), 0, 0.3),
                         (coherent_fock(FockSpace(3, 7), [0j, 0j, 0.3]), 0, 0.3)])


def test_coherent_fock_is_the_kron_product_of_its_columns():
    # the product is built by broadcasting, in the association np.kron takes
    for cutoff in (3, 10, 16):
        space = FockSpace(3, cutoff)
        for amps in ([0j, 0j, 0.3], [0.5 - 1j, 0j, -1.2 + 0.4j], [1e-3, 2j, -0.7 - 0.1j]):
            vec = np.ones(1, dtype=complex)
            for xi in amps:
                vec = np.kron(vec, fock._coherent_column(space.levels, complex(xi)))
            assert np.array_equal(coherent_fock(space, amps).amplitudes, vec)


def test_probes_that_share_a_state_evolve_as_probes_with_copies_of_it():
    # a block finds each distinct state's sectors once; what it finds for a
    # state sent twice is what it finds for two equal states sent once each
    space = FockSpace(3, 10)
    vacuum, signal = (coherent_fock(space, [0j, 0j, xi]) for xi in (0j, 0.3 - 0.2j))
    gammas = (-0.5, 0.0, 0.5)
    shared = apply_cloning_fock_block([(g, s) for g in gammas for s in (vacuum, signal)])
    copied = apply_cloning_fock_block([(g, FockState(space, s.amplitudes))
                                       for g in gammas for s in (vacuum, signal)])
    for one, other in zip(shared, copied, strict=True):
        assert np.array_equal(one.amplitudes, other.amplitudes)

    class Fresh(Sequence):
        """Probes whose every read builds its state again, so that a state
        read and dropped could leave its id to the next one."""

        def __init__(self, pairs):
            self.pairs = list(pairs)

        def __len__(self):
            return len(self.pairs)

        def __getitem__(self, i):
            gamma, amps = self.pairs[i]
            return gamma, FockState(space, amps)

    # a probe two reads on is another state, which could take a dropped state's id
    pairs = list(zip((-0.5, -0.5, 0.0, 0.0, 0.5, 0.5),
                     (signal, vacuum, vacuum, signal, signal, vacuum), strict=True))
    fresh = apply_cloning_fock_block(Fresh((g, s.amplitudes) for g, s in pairs))
    expected = apply_cloning_fock_block(pairs)
    for one, other in zip(fresh, expected, strict=True):
        assert np.array_equal(one.amplitudes, other.amplitudes)


def test_a_coherent_column_is_built_once_read_only_and_equal_to_a_fresh_build():
    fock._COLUMNS.clear()
    # complex(-0.3, -0.0) == complex(-0.3, 0.0), but np.angle reads the sign of
    # a zero part (-pi against pi), so the two are kept apart
    cases = [(11, 0.3 + 0j), (17, 0j), (17, complex(-0.0, -0.0)), (15, -1.2 + 0.4j),
             (13, complex(-0.3, 0.0)), (13, complex(-0.3, -0.0)), (13, complex(0.3, -0.0))]
    first = [fock._coherent_column(levels, xi) for levels, xi in cases]
    for (levels, xi), column in zip(cases, first, strict=True):
        assert not column.flags.writeable
        assert fock._coherent_column(levels, xi) is column
        assert column.tobytes() == fock._build_coherent_column(levels, xi).tobytes()
        n = np.arange(levels)
        exact = [math.exp(-abs(xi) ** 2 / 2) * xi ** k / math.sqrt(math.factorial(k)) for k in n]
        assert np.allclose(column, exact, rtol=1e-13, atol=1e-300)
    assert first[4] is not first[5] and first[4].tobytes() != first[5].tobytes()
    assert len({id(column) for column in first}) == len(cases)


def test_the_coherent_columns_kept_hold_at_most_the_dimension_budget_of_levels(monkeypatch):
    monkeypatch.setattr(fock, "_COLUMNS", fock._BoxCache(100))
    for levels in (30, 40, 50, 20):
        fock._coherent_column(levels, 0.5 + 0j)
    held = [states for states, _ in fock._COLUMNS._entries.values()]
    assert held == [50, 20]  # 30 and 40 went first, least recently used
    assert fock._COLUMNS.budget == 100 and fock.DIMENSION_BUDGET == 200_000


def test_a_chain_holding_only_a_nan_or_a_subnormal_is_occupied():
    # occupancy reads a sum of |entries|, which is not 0 for a NaN or for the
    # smallest subnormal, as any() reads them: both chains are squeezed
    space = FockSpace(3, 6)
    clone, idler, signal = np.unravel_index(np.arange(space.dim), (space.levels,) * 3)
    block = np.zeros((space.dim, 3))
    on_d1 = np.flatnonzero((clone - idler == 1) & (signal == 2))
    block[on_d1[0], 0] = math.nan
    block[on_d1[1], 1] = 5e-324
    block[on_d1[2], 2] = -0.0
    chis = [_chi(0.5)] * 3
    got = fock._squeeze(space, block, chis)
    assert np.array_equal(got, _all_chain_squeeze(space, block, chis), equal_nan=True)
    assert np.isnan(got[:, 0]).sum() > 1  # the NaN spread along its chain
    assert (got[:, 2] == 0).all() and np.signbit(got[on_d1[2], 2])  # a -0.0 chain is copied
