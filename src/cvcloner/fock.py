"""Independent truncated-Fock-space oracle for the 1->2 cloner.

Everything else in this package manipulates (A, B) coefficient matrices and
Gaussian moments.  This module never touches those: it applies the cloning
unitary directly in a photon-number basis with a hard cutoff,

    C = exp(-i (U_mix + V_sq)) * exp(-i chi Y_sq),    chi = gamma + ln(2)/2,

where U_mix mixes the signal into the first clone mode, V_sq is a two-mode
squeeze of the signal against the idler, and Y_sq pre-squeezes clone against
idler.  Evolving exact state vectors and tracing out modes gives clone
fidelities with no Gaussian assumptions, so agreement with the covariance
pipeline checks both sides.

Numerical core: each generator is i times a real antisymmetric matrix in the
number basis, so every factor of C is a real orthogonal matrix.  Truncation
therefore never breaks unitarity; it only leaks population into the top Fock
levels, which is measured and gated rather than ignored.  C is never formed
as a matrix: each factor acts on the state by a truncated Taylor series with
scaling (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488), stepped with
the sparse generator and stopped once the next two terms fall below double
precision.  The degree and the number of scaling steps come from the
generator's exact 1-norm, which is computed once, beside the generator.

Each generator is written directly from basis-index arithmetic: the nonzeros
of a_p^dag a_q (or a_p a_q) are sqrt(n_p + 1) sqrt(n_q) (or sqrt(n_p)
sqrt(n_q)) at indices computed from the occupations, with no per-mode
operators lifted by Kronecker products.  The two flows of the cloner are
built once per register and shared by every probe at that cutoff.  Because
both factors are real, the real and imaginary parts of a state vector evolve
as real vectors; a part that is all zeros is dropped, since its image is
exactly zero.  Several probes, each with its own gamma, evolve as one real
block, so all their vectors cross each factor in the same sparse products.

Scope: three modes (or two for squeezer sanity checks).  The N->M machines
live in spaces of dimension (cutoff+1)^(N+M) and are out of reach here by
design; the Gaussian invariants cover them.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray
# unused here, but perfbench/tracer.py wraps it under the name cvcloner.fock.expm_multiply
from scipy.sparse.linalg import expm_multiply  # noqa: F401

from .gaussian import ModeLabel, mode_index

DIMENSION_BUDGET = 200_000
LEAKAGE_TOL = 1e-2
COHERENT_NORM_TOL = 1e-6


class TruncationError(RuntimeError):
    """Raised when too much population reaches the truncation boundary."""


@dataclass(frozen=True)
class FockSpace:
    """A register of modes, each truncated at `cutoff` photons."""

    n_modes: int
    cutoff: int

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError(f"need at least one mode, got {self.n_modes}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.dim > DIMENSION_BUDGET:
            raise ValueError(
                f"dimension {self.dim} exceeds the budget of {DIMENSION_BUDGET}"
            )

    @property
    def levels(self) -> int:
        return self.cutoff + 1

    @property
    def dim(self) -> int:
        return self.levels ** self.n_modes


@dataclass(frozen=True)
class FockState:
    """State vector over the truncated number basis (mode 0 varies slowest)."""

    space: FockSpace
    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _pair_flow(space: FockSpace, pair: tuple[int, int], squeeze: bool) -> sp.csr_matrix:
    """Real antisymmetric K = H - H^T with H = a_p^dag a_q, or a_p a_q if `squeeze`.

    The nonzeros of H come straight from basis-index arithmetic (mode 0 varies
    slowest), so no per-mode operator is lifted and multiplied.  A creation
    operator on a mode already at the cutoff leaves the register, so those
    columns of H carry nothing.
    """
    levels, dim = space.levels, space.dim
    stride_p, stride_q = (levels ** (space.n_modes - 1 - m) for m in pair)
    col = np.arange(dim)
    n_p, n_q = (col // stride_p) % levels, (col // stride_q) % levels
    if squeeze:
        keep = (n_p >= 1) & (n_q >= 1)
        shift, factor = -stride_p - stride_q, np.sqrt(n_p)
    else:
        keep = (n_p < levels - 1) & (n_q >= 1)
        shift, factor = stride_p - stride_q, np.sqrt(n_p + 1)
    col = col[keep]
    values = factor[keep] * np.sqrt(n_q[keep])
    half = sp.csr_matrix((values, (col + shift, col)), shape=(dim, dim))
    return (half - half.T).tocsr()


def _mix_flow(space: FockSpace, pair: tuple[int, int]) -> sp.csr_matrix:
    """Real antisymmetric K with exp(theta K) acting as a beam splitter on `pair`."""
    return _pair_flow(space, pair, squeeze=False)


def _squeeze_flow(space: FockSpace, pair: tuple[int, int]) -> sp.csr_matrix:
    """Real antisymmetric K with exp(r K) acting as a NOPA on `pair`."""
    return _pair_flow(space, pair, squeeze=True)


# Wiring of the 1->2 cloner in this module: mode 0 = clone a, mode 1 = idler b,
# mode 2 = signal c.  The gamma-independent factor exp(-i(U+V)) mixes (0, 2)
# and squeezes (2, 1); the gamma-dependent factor squeezes (0, 1).
_CLONE, _IDLER, _SIGNAL = 0, 1, 2


def _cloner_space(space: FockSpace) -> FockSpace:
    if space.n_modes != 3:
        raise ValueError(f"the cloner acts on 3 modes, got {space.n_modes}")
    return space


def _fixed_flow(space: FockSpace) -> sp.csr_matrix:
    return (_mix_flow(space, (_CLONE, _SIGNAL))
            + _squeeze_flow(space, (_SIGNAL, _IDLER))).tocsr()


class _Flow(NamedTuple):
    """A real antisymmetric generator and its exact 1-norm, which plans every propagation."""

    matrix: sp.csr_matrix
    one_norm: float


@lru_cache(maxsize=1)
def _cloner_flows(space: FockSpace) -> tuple[_Flow, _Flow]:
    """The clone-idler squeeze and the gamma-independent flow, built once per register.

    A verify --oracle ladder runs each rung once, so one slot lets the probes
    of a rung share their flows and holds no more than one rung's matrices.
    """
    flows = []
    for matrix in (_squeeze_flow(space, (_CLONE, _IDLER)), _fixed_flow(space)):
        for array in (matrix.data, matrix.indices, matrix.indptr):
            array.setflags(write=False)
        flows.append(_Flow(matrix, float(abs(matrix).sum(axis=0).max())))
    return flows[0], flows[1]


# theta_m of the degree-m truncated Taylor series in double precision: m <= 30
# from Higham, Functions of Matrices (SIAM, 2008), table A.3; m >= 35 from
# Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488, table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Degree m and scaling steps s with the fewest products m*s for a 1-norm of t*K."""
    if norm == 0.0:
        return 0, 1
    best_m, best_s = 0, 0
    for m, theta in _THETA.items():
        s = math.ceil(norm / theta)
        if best_m == 0 or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def _propagate(flow: _Flow, block: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t_j K) applied to column j of a real (dim, k) block, all columns at once.

    One plan, for the largest |t_j|, serves every column.  Each scaling step
    adds Taylor terms until, for every column, the last two terms together
    fall below the unit roundoff times that column's sum (the stopping test
    of scipy's expm_multiply, applied per column).  K is traceless, so no
    shift is needed.  The column norms are taken from a transposed copy:
    a max over the short axis of a (dim, k) array costs more than the copy.
    The sum's norm is taken only when the test can pass against its upper
    bound, the last norm plus every term's since; rounding is monotone, so
    the bound holds and every decision is the one the exact norm gives.
    """
    m, s = _taylor_plan(float(np.abs(times).max()) * flow.one_norm)
    out = np.array(block, order="C")
    magnitudes = np.empty(out.shape[::-1])

    def column_norms(x: np.ndarray) -> np.ndarray:
        return np.abs(x.T, out=magnitudes).max(axis=1)

    term = out
    for _ in range(s):
        c1 = column_norms(term)
        bound = c1
        for j in range(m):
            term = flow.matrix @ term
            term *= times / (s * (j + 1))
            c2 = column_norms(term)
            out += term
            bound = bound + c2
            if (c1 + c2 <= _UNIT_ROUNDOFF * bound).all():
                bound = column_norms(out)
                if (c1 + c2 <= _UNIT_ROUNDOFF * bound).all():
                    break
            c1 = c2
        term = out
    return out


def apply_cloning_fock_block(probes: Sequence[tuple[float, FockState]]) -> list[FockState]:
    """Send several 3-mode states, each with its own gamma, through the cloner.

    Both factors are real orthogonal, so the real and imaginary parts of
    every probe are real columns of one block; a part that is all zeros is
    dropped and stays exactly zero.  The block crosses the clone-idler
    squeeze with chi = gamma + ln(2)/2 per column, then the gamma-independent
    factor, without forming either matrix.
    """
    space = _cloner_space(probes[0][1].space)
    parts, chis, slots = [], [], {}
    for i, (gamma, state) in enumerate(probes):
        if state.space != space:
            raise ValueError(f"every probe needs the register {space}, got {state.space}")
        chi = float(gamma) + 0.5 * math.log(2.0)
        if not math.isfinite(chi):
            raise ValueError(f"gamma must be finite, got {gamma}")
        for imag, part in enumerate((state.amplitudes.real, state.amplitudes.imag)):
            if part.any():
                slots[i, imag] = len(parts)
                parts.append(part)
                chis.append(chi)
    if parts:
        squeeze, fixed = _cloner_flows(space)
        block = _propagate(squeeze, np.stack(parts, axis=1), np.array(chis))
        block = _propagate(fixed, block, np.ones(len(chis)))
    outs = []
    for i in range(len(probes)):
        amps = np.zeros(space.dim, dtype=complex)
        if (i, 0) in slots:
            amps.real = block[:, slots[i, 0]]
        if (i, 1) in slots:
            amps.imag = block[:, slots[i, 1]]
        outs.append(FockState(space=space, amplitudes=amps))
    return outs


def apply_cloning_fock(gamma: float, state: FockState) -> FockState:
    """Send one 3-mode state through the cloner: a block of one probe."""
    return apply_cloning_fock_block([(gamma, state)])[0]


def coherent_fock(space: FockSpace, amplitudes: list[complex] | tuple[complex, ...]) -> FockState:
    """Product of truncated coherent states, one amplitude per mode.

    Per-mode coefficients are exp(-|xi|^2/2) xi^n / sqrt(n!) with the tail
    above the cutoff simply dropped; the missing norm is the caller's
    truncation-error budget and is checked where it matters.
    """
    if len(amplitudes) != space.n_modes:
        raise ValueError(
            f"got {len(amplitudes)} amplitudes for {space.n_modes} modes"
        )
    vec = np.ones(1, dtype=complex)
    for xi in amplitudes:
        vec = np.kron(vec, _coherent_column(space.levels, complex(xi)))
    return FockState(space=space, amplitudes=vec)


def _coherent_column(levels: int, xi: complex) -> np.ndarray:
    ns = np.arange(levels)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, levels)))))
    mags = np.exp(-abs(xi) ** 2 / 2.0 + ns * np.log(abs(xi)) - log_fact / 2.0) \
        if xi != 0 else np.concatenate(([1.0], np.zeros(levels - 1)))
    phases = np.exp(1j * ns * np.angle(xi)) if xi != 0 else np.ones(levels)
    return mags * phases


def _mode_rows(state: FockState, mode: int | ModeLabel) -> np.ndarray:
    """Amplitudes as a (levels, rest) matrix whose row index is one mode's photon number."""
    space = state.space
    m = mode_index(mode, space.n_modes)
    d = space.levels
    psi = np.asarray(state.amplitudes).reshape((d,) * space.n_modes)
    return np.moveaxis(psi, m, 0).reshape(d, -1)


def reduced_density_matrix(state: FockState, mode: int | ModeLabel) -> np.ndarray:
    """Density matrix of one mode, the rest traced out."""
    psi = _mode_rows(state, mode)
    return psi @ psi.conj().T


def photon_distribution(state: FockState, mode: int | ModeLabel) -> NDArray[np.float64]:
    """Photon-number populations of one mode (diagonal of its density matrix)."""
    return np.real(np.diag(reduced_density_matrix(state, mode)))


def mode_expectation(state: FockState, mode: int | ModeLabel) -> complex:
    """<a_mode> in the current state, for Heisenberg-picture cross-checks.

    Sum over k of sqrt(k) conj(psi[k-1]) psi[k] along the mode's axis.
    """
    psi = _mode_rows(state, mode)
    root_k = np.sqrt(np.arange(1, state.space.levels))
    return complex(np.vdot(psi[:-1], root_k[:, None] * psi[1:]))


def fidelity_fock(state: FockState, clone_mode: int | ModeLabel, xi: complex) -> float:
    """Overlap <xi| rho_clone |xi> of one output mode with the coherent target.

    Refuses to answer when the truncated |xi> itself is too lossy (norm below
    1 - 1e-6) or when the clone has pushed more than LEAKAGE_TOL of its
    population onto the top Fock level: a silently truncated fidelity would
    look like a cloning result while actually measuring the box size.  Both
    gates fail closed: a NaN norm or population is refused, and so is a
    non-finite xi.
    """
    xi = complex(xi)
    if not cmath.isfinite(xi):
        raise ValueError(f"coherent amplitude must be finite, got {xi}")
    levels = state.space.levels
    target = _coherent_column(levels, xi)
    norm2 = float(np.vdot(target, target).real)
    if not norm2 >= 1.0 - COHERENT_NORM_TOL:
        raise TruncationError(
            f"coherent amplitude {xi} keeps only norm^2 = {norm2} below cutoff "
            f"{state.space.cutoff}; raise the cutoff"
        )
    rho = reduced_density_matrix(state, clone_mode)
    leak = float(rho[-1, -1].real)
    if not leak <= LEAKAGE_TOL:
        raise TruncationError(
            f"top-level population {leak:.3e} exceeds {LEAKAGE_TOL}; "
            f"the cutoff is too small for this evolution"
        )
    return float(np.real(np.vdot(target, rho @ target)))

