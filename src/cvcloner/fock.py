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
as a matrix: both factors act on the state vector by Krylov steps
(``expm_multiply``) with the sparse generators.

Each generator is written directly from basis-index arithmetic: the nonzeros
of a_p^dag a_q (or a_p a_q) are sqrt(n_p + 1) sqrt(n_q) (or sqrt(n_p)
sqrt(n_q)) at indices computed from the occupations, with no per-mode
operators lifted by Kronecker products.  The two flows of the cloner are
built once per register and shared by every probe at that cutoff.  Because
both factors are real, the real and imaginary parts of a state vector evolve
separately as real vectors; a part that is all zeros is skipped, since its
image is exactly zero.

Scope: three modes (or two for squeezer sanity checks).  The N->M machines
live in spaces of dimension (cutoff+1)^(N+M) and are out of reach here by
design; the Gaussian invariants cover them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray
from scipy.sparse.linalg import expm_multiply

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

    def top_level_population(self, mode: int | ModeLabel) -> float:
        """Population sitting at the truncation boundary of one mode."""
        return float(photon_distribution(self, mode)[-1])


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


@lru_cache(maxsize=1)
def _cloner_flows(space: FockSpace) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The clone-idler squeeze and the gamma-independent flow, built once per register.

    One slot is enough: the oracle runs every probe of a cutoff rung before
    moving to the next, so the slot is reused within a rung and never grows.
    """
    flows = (_squeeze_flow(space, (_CLONE, _IDLER)), _fixed_flow(space))
    for flow in flows:
        for array in (flow.data, flow.indices, flow.indptr):
            array.setflags(write=False)
    return flows


def apply_cloning_fock(gamma: float, state: FockState) -> FockState:
    """Send a 3-mode state through the cloner without forming the matrix.

    Krylov evaluation of both exponential factors acting on the vector.
    Both factors are real orthogonal, so the real and imaginary parts of the
    amplitudes evolve separately in real arithmetic, and a part that is all
    zeros stays exactly zero.
    """
    space = _cloner_space(state.space)
    chi = float(gamma) + 0.5 * math.log(2.0)
    squeeze, fixed = _cloner_flows(space)
    right = chi * squeeze
    amps = state.amplitudes
    out = np.zeros(space.dim, dtype=complex)
    for part, target in ((amps.real, out.real), (amps.imag, out.imag)):
        if part.any():
            # both generators are antisymmetric, hence traceless
            v = expm_multiply(right, part, traceA=0.0)
            target[:] = expm_multiply(fixed, v, traceA=0.0)
    return FockState(space=space, amplitudes=out)


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
    m = mode_index(mode)
    space = state.space
    if not 0 <= m < space.n_modes:
        raise ValueError(f"mode {m} out of range for {space.n_modes} modes")
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

