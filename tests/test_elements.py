"""Optical elements: beam splitters, NOPAs, collect/distribute cascades.

Each element is its gate list folded by ``fold_stack``, as the machines
build it, and read as one register's (A, B).  The cascade tests lean on
scalar amplitude recursions computed right here, independently of the
matrix code under test.
"""

import numpy as np
import pytest

from cvcloner.elements import collect_gates, distribute_gates
from cvcloner.gaussian import DEFAULT_TOL, checked_stack, fold_stack
from cvcloner.verification import SYM_CASES
from reference import apply_to_gaussian, as_transform, beam_splitter_gate, coherent_vacuum_input



def collect_amplitudes_by_recursion(amps):
    """Scalar oracle: fold mode j into the head, step by step."""
    out = list(amps)
    for j in range(1, len(amps)):
        head, nxt = out[0], out[j]
        out[0] = np.sqrt(j / (j + 1)) * head + np.sqrt(1 / (j + 1)) * nxt
        out[j] = np.sqrt(1 / (j + 1)) * head - np.sqrt(j / (j + 1)) * nxt
    return np.array(out)


def distribute_amplitudes_by_recursion(head, M):
    """Scalar oracle: tap 1/(M-j+1) of the running head into clone j."""
    out = np.zeros(M, dtype=complex)
    running = head
    for j in range(1, M):
        tap = np.sqrt(1 / (M - j + 1))
        keep = np.sqrt((M - j) / (M - j + 1))
        out[j] = tap * running
        running = keep * running
    out[0] = running
    return out


# --- beam splitter ---

def test_beam_splitter_matrix_and_energy_conservation():
    th = 0.37
    t = as_transform(fold_stack((beam_splitter_gate(th, 0, 1),), 2))
    expected = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    assert np.allclose(t.A, expected)
    assert not t.B.any()
    assert np.allclose(t.A @ t.A.conj().T, np.eye(2))


def test_beam_splitter_zero_angle_is_identity():
    t = as_transform(fold_stack((beam_splitter_gate(0.0, 0, 1),), 2))
    assert np.allclose(t.A, np.eye(2))


def test_beam_splitters_on_same_pair_add_angles():
    a, b = 0.3, 1.1
    combined = as_transform(fold_stack((beam_splitter_gate(b, 0, 1),
                                        beam_splitter_gate(a, 0, 1)), 2))
    single = as_transform(fold_stack((beam_splitter_gate(a + b, 0, 1),), 2))
    assert np.allclose(combined.A, single.A, atol=1e-14)


# --- NOPA ---

def test_nopa_coefficients_and_symplectic_identity():
    r = 0.8
    t = as_transform(fold_stack(((r, 0, 1),), 2))
    assert np.isclose(t.A[0, 0], np.cosh(r)) and np.isclose(t.A[1, 1], np.cosh(r))
    assert np.isclose(t.B[0, 1], -np.sinh(r)) and np.isclose(t.B[1, 0], -np.sinh(r))
    assert t.B[0, 0] == 0 and t.B[1, 1] == 0
    # cosh^2 - sinh^2 = 1 is exactly the AA+ - BB+ = I condition here
    assert checked_stack(np.stack(t, axis=1))[1][0] <= DEFAULT_TOL


def test_nopa_zero_gain_is_identity():
    t = as_transform(fold_stack(((0.0, 0, 1),), 2))
    assert np.allclose(t.A, np.eye(2)) and not t.B.any()


def test_two_mode_squeezed_vacuum_covariance():
    r = 0.6
    out = apply_to_gaussian(as_transform(fold_stack(((r, 0, 1),), 2)),
                            coherent_vacuum_input([0j, 0j]))
    c2, s2 = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    # x1x1 and p1p1 grow symmetrically; x1x2 and p1p2 carry opposite signs
    assert np.isclose(out.cov[0, 0], c2) and np.isclose(out.cov[1, 1], c2)
    assert np.isclose(out.cov[0, 2], -s2)
    assert np.isclose(out.cov[1, 3], s2)
    assert np.isclose(out.cov[0, 3], 0) and np.isclose(out.cov[1, 2], 0)


def test_nopa_amplifies_signal_mean():
    r = 0.4
    xi = 1.2 + 0.3j
    out = apply_to_gaussian(as_transform(fold_stack(((r, 0, 1),), 2)),
                            coherent_vacuum_input([xi, 0j]))
    assert np.isclose(out.mode_amplitude(0), np.cosh(r) * xi)
    assert np.isclose(out.mode_amplitude(1), -np.sinh(r) * np.conj(xi))


# --- collect cascade ---

def test_collect_chain_matches_scalar_recursion():
    rng = np.random.default_rng(3)
    for N in (2, 3, 4, 6):
        amps = rng.normal(size=N) + 1j * rng.normal(size=N)
        state = apply_to_gaussian(as_transform(fold_stack(collect_gates(N), N)),
                                  coherent_vacuum_input(list(amps)))
        got = np.array([state.mode_amplitude(k) for k in range(N)])
        assert np.allclose(got, collect_amplitudes_by_recursion(amps), atol=1e-12)


def test_collect_chain_concentrates_identical_inputs():
    xi = 0.9 - 0.1j
    for N in (2, 3, 4):
        t = as_transform(fold_stack(collect_gates(N), N))
        state = apply_to_gaussian(t, coherent_vacuum_input([xi] * N))
        assert abs(state.mode_amplitude(0) - np.sqrt(N) * xi) < 1e-12
        for k in range(1, N):
            assert abs(state.mode_amplitude(k)) < 1e-12
        # passive network: vacuum covariance everywhere
        assert np.abs(state.cov - np.eye(2 * N) / 2).max() < 1e-12


def test_collect_chain_is_passive_and_orthogonal():
    t = as_transform(fold_stack(collect_gates(5), 5))
    assert not t.B.any()
    assert np.abs(t.A.imag).max() == 0
    assert np.allclose(t.A.real @ t.A.real.T, np.eye(5), atol=1e-14)


def test_collect_chain_single_mode_is_identity():
    t = as_transform(fold_stack(collect_gates(1), 1))
    assert np.allclose(t.A, np.eye(1))


# --- distribute cascade ---

def test_distribute_chain_matches_scalar_recursion():
    for M in (2, 3, 5, 7):
        head = 1.3 - 0.7j
        state = apply_to_gaussian(as_transform(fold_stack(distribute_gates(M, list(range(M))), M)),
                                  coherent_vacuum_input([head] + [0j] * (M - 1)))
        got = np.array([state.mode_amplitude(k) for k in range(M)])
        assert np.allclose(got, distribute_amplitudes_by_recursion(head, M), atol=1e-12)


def test_distribute_chain_splits_evenly():
    for M in (2, 3, 5):
        t = as_transform(fold_stack(distribute_gates(M, list(range(M))), M))
        assert np.allclose(t.A[:, 0].real, 1 / np.sqrt(M), atol=1e-14)
        assert not t.B.any()
        assert np.allclose(t.A.real @ t.A.real.T, np.eye(M), atol=1e-14)


def test_distribute_then_collect_is_lossless_on_the_head():
    M = 4
    roundtrip = as_transform(fold_stack(distribute_gates(M, list(range(M))) + collect_gates(M), M))
    state = apply_to_gaussian(
        roundtrip, coherent_vacuum_input([2.0 + 1.0j] + [0j] * (M - 1)))
    assert np.isclose(state.mode_amplitude(0), 2.0 + 1.0j)


def test_chains_reject_bad_sizes():
    with pytest.raises(ValueError):
        collect_gates(0)
    with pytest.raises(ValueError):
        distribute_gates(0, [])
    for wires in ([0, 2, 2], [0, 1], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="need 3 distinct modes"):
            distribute_gates(3, wires)


@pytest.mark.parametrize("n, m", [*SYM_CASES, (16, 128)])
def test_cascades_take_the_square_roots_numpy_takes(n, m):
    # the cascades take their square roots over arrays of j; sqrt and division
    # are correctly rounded, so each coefficient equals numpy's scalar one, and
    # each is a Python float in a fold_stack tuple
    wires = [0, *range(n + 1, n + m)]
    collect = tuple(
        (((np.sqrt(j / (j + 1.0)), np.sqrt(1.0 / (j + 1.0))),
          (np.sqrt(1.0 / (j + 1.0)), -np.sqrt(j / (j + 1.0)))), 0, j)
        for j in range(1, n))
    distribute = tuple(
        (((np.sqrt((m - j) / (m - j + 1.0)), -np.sqrt(1.0 / (m - j + 1.0))),
          (np.sqrt(1.0 / (m - j + 1.0)), np.sqrt((m - j) / (m - j + 1.0)))),
         wires[0], wires[j])
        for j in range(1, m))
    gates = collect_gates(n) + distribute_gates(m, wires)
    assert gates == collect + distribute
    assert all(type(x) is float for block, _, _ in gates for row in block for x in row)
