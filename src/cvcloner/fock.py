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
operators lifted by Kronecker products.  Because both factors are real, the
real and imaginary parts of a state vector evolve as real vectors; a part
that is all zeros is dropped, since its image is exactly zero.

Both flows conserve the charge Q = n_clone + n_signal - n_idler: a beam
splitter keeps the photon sum of its pair and a NOPA the photon difference.
So a vector evolves only on the box states of the Q sectors it occupies.
The vectors that occupy the same sectors form one real block, and the flows
are built for that block on those states alone, with their own 1-norms;
every nonzero is checked to conserve Q as they are built.  The oracle's
probes |0, 0, xi> occupy Q = 0 (xi = 0) or Q in [0, c] (xi != 0): at cutoff
16 that is 153 or 3281 of the 4913 box states.  A vector that occupies every
sector, such as a coherent state on all three modes, evolves over the whole
box.

scipy is imported in `_flow` alone, when the oracle builds a generator
(`scipy.sparse.csr_matrix`).  So importing this module loads no scipy, and
neither does any path that never runs the oracle (`clone`, `sweep`, plain
`verify`).  Nothing here calls scipy's `expm_multiply`, but the benchmark's
tracer looks it up as `cvcloner.fock.expm_multiply`; the module's
`__getattr__` imports it only when asked for, so the name costs nothing at
import.

Scope: the 3-mode register of the 1->2 cloner.  The sectors shrink what is
evolved, not the register: the whole (cutoff+1)^3 box must still fit
DIMENSION_BUDGET.  The N->M machines live in spaces of dimension
(cutoff+1)^(N+M) and are out of reach here by design; the Gaussian
invariants cover them.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .gaussian import ModeLabel, mode_index

if TYPE_CHECKING:
    import scipy.sparse as sp

DIMENSION_BUDGET = 200_000
LEAKAGE_TOL = 1e-2
COHERENT_NORM_TOL = 1e-6


def __getattr__(name: str):
    # perfbench/tracer.py looks up `expm_multiply` here (its EXTRA) with no
    # default, so the name resolves on demand; the bridge goes when ROADMAP
    # item 3 drops tracer.EXTRA
    if name == "expm_multiply":
        from scipy.sparse.linalg import expm_multiply
        return expm_multiply
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """State vector over the truncated number basis (mode 0 varies slowest).

    The amplitudes are converted to one read-only complex copy, so no caller
    can change the state afterwards.  `copy=False` is for a complex vector
    that nothing else holds, such as one this module has just built: it is
    frozen in place instead of copied.
    """

    space: FockSpace
    amplitudes: NDArray[np.complex128]
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool) -> None:
        if copy:
            amps = np.array(self.amplitudes, dtype=complex)
        else:
            amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def _occupation(space: FockSpace, index: np.ndarray, mode: int) -> np.ndarray:
    """Photon number of `mode` in the box states at `index` (mode 0 varies slowest)."""
    return (index // space.levels ** (space.n_modes - 1 - mode)) % space.levels


def _pair_nonzeros(space: FockSpace, pair: tuple[int, int], squeeze: bool,
                   cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzeros of H in the box columns `cols`.

    H = a_p^dag a_q, or a_p a_q if `squeeze`.  With K = H - H^T, exp(theta K)
    is a beam splitter of angle theta on the pair; with `squeeze`, exp(r K) is
    a NOPA of gain r.

    The nonzeros come straight from basis-index arithmetic, so no per-mode
    operator is lifted and multiplied.  A creation operator on a mode already
    at the cutoff leaves the register, so those columns of H carry nothing.
    """
    stride_p, stride_q = (space.levels ** (space.n_modes - 1 - m) for m in pair)
    n_p, n_q = (_occupation(space, cols, m) for m in pair)
    if squeeze:
        keep = (n_p >= 1) & (n_q >= 1)
        shift, factor = -stride_p - stride_q, np.sqrt(n_p)
    else:
        keep = (n_p < space.levels - 1) & (n_q >= 1)
        shift, factor = stride_p - stride_q, np.sqrt(n_p + 1)
    cols = cols[keep]
    return cols + shift, cols, factor[keep] * np.sqrt(n_q[keep])


# Wiring of the 1->2 cloner in this module: mode 0 = clone a, mode 1 = idler b,
# mode 2 = signal c.  The gamma-dependent flow squeezes (0, 1); the
# gamma-independent flow, the generator of exp(-i(U+V)), mixes (0, 2) and
# squeezes (2, 1).  Each flow is a sum of (pair, squeeze) terms.
_CLONE, _IDLER, _SIGNAL = 0, 1, 2
_SQUEEZE_TERMS = (((_CLONE, _IDLER), True),)
_FIXED_TERMS = (((_CLONE, _SIGNAL), False), ((_SIGNAL, _IDLER), True))


def _charge(space: FockSpace, index: np.ndarray) -> np.ndarray:
    """Q = n_clone + n_signal - n_idler of the box states at `index`.

    A beam splitter conserves the photon sum of its pair and a NOPA the photon
    difference of its pair, so both flows of the cloner conserve Q.
    """
    return (_occupation(space, index, _CLONE) + _occupation(space, index, _SIGNAL)
            - _occupation(space, index, _IDLER))


class _Flow(NamedTuple):
    """A real antisymmetric generator and its exact 1-norm, which plans every propagation."""

    matrix: sp.csr_matrix
    one_norm: float


def _flow(space: FockSpace, terms: Sequence[tuple[tuple[int, int], bool]],
          basis: np.ndarray) -> _Flow:
    """The sum over `terms` of K = H - H^T on the span of `basis`, with its 1-norm.

    `basis` holds the sorted box indices of a union of charge sectors.  Every
    nonzero of H must join two states of equal charge, so that K maps the
    span into itself; a term that breaks the law is refused, since its
    amplitude would otherwise leave the span unseen.  No box-sized matrix is
    formed.
    """
    from scipy.sparse import csr_matrix  # the package's one scipy import; see the module docstring

    rows, cols, values = (np.concatenate(parts) for parts in zip(
        *(_pair_nonzeros(space, pair, squeeze, basis) for pair, squeeze in terms)))
    if (_charge(space, rows) != _charge(space, cols)).any():
        raise ValueError(f"the flow {terms} does not conserve Q = n_clone + n_signal - n_idler")
    size = basis.size
    half = csr_matrix((values, (np.searchsorted(basis, rows), np.searchsorted(basis, cols))),
                      shape=(size, size))
    matrix = (half - half.T).tocsr()
    return _Flow(matrix, float(abs(matrix).sum(axis=0).max()))


def _cloner_flows(space: FockSpace, basis: np.ndarray) -> tuple[_Flow, _Flow]:
    """The clone-idler squeeze and the gamma-independent flow on the span of `basis`.

    Each block of probes builds its own pair, over the charge sectors it
    occupies; a verify --oracle ladder runs each rung once, so nothing is
    kept between calls.
    """
    return _flow(space, _SQUEEZE_TERMS, basis), _flow(space, _FIXED_TERMS, basis)


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


def _propagate(flow: _Flow, block: np.ndarray, times: np.ndarray | float) -> np.ndarray:
    """exp(t_j K) applied to column j of a real (dim, k) block, all columns at once.

    `times` holds one t_j per column, or one scalar t for all of them, which
    steps with a scalar multiply instead of a broadcast one.  One plan, for
    the largest |t_j|, serves every column.  Each scaling step
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
    every probe are real columns; a part that is all zeros is dropped and
    stays exactly zero.  Both factors conserve the charge Q (see `_charge`),
    so a column evolves only on the box states of the Q sectors it occupies.
    Columns that occupy the same sectors form one block, which crosses the
    clone-idler squeeze with chi = gamma + ln(2)/2 per column, then the
    gamma-independent factor, over flows built on those sectors alone.  A
    column that occupies every sector evolves over the whole box.  An empty
    list of probes is refused.
    """
    if not probes:
        raise ValueError("apply_cloning_fock_block needs at least one probe")
    space = probes[0][1].space
    if space.n_modes != 3:
        raise ValueError(f"the cloner acts on 3 modes, got {space.n_modes}")
    charge = _charge(space, np.arange(space.dim))
    # occupied sectors -> the (probe, imag, chi, part) of each column that occupies them
    groups: dict[tuple[int, ...], list[tuple[int, int, float, np.ndarray]]] = {}
    for i, (gamma, state) in enumerate(probes):
        if state.space != space:
            raise ValueError(f"every probe needs the register {space}, got {state.space}")
        chi = float(gamma) + 0.5 * math.log(2.0)
        if not math.isfinite(chi):
            raise ValueError(f"gamma must be finite, got {gamma}")
        for imag, part in enumerate((state.amplitudes.real, state.amplitudes.imag)):
            if part.any():
                sectors = tuple(np.unique(charge[part != 0]).tolist())
                groups.setdefault(sectors, []).append((i, imag, chi, part))
    amps = [np.zeros(space.dim, dtype=complex) for _ in probes]
    for sectors, columns in groups.items():
        basis = np.flatnonzero(np.isin(charge, sectors))
        squeeze, fixed = _cloner_flows(space, basis)
        block = np.stack([part[basis] for *_, part in columns], axis=1)
        block = _propagate(squeeze, block, np.array([chi for _, _, chi, _ in columns]))
        block = _propagate(fixed, block, 1.0)
        for (i, imag, _, _), column in zip(columns, block.T, strict=True):
            out = amps[i].imag if imag else amps[i].real
            out[basis] = column
    return [FockState(space, vec, copy=False) for vec in amps]


def coherent_fock(space: FockSpace, amplitudes: list[complex] | tuple[complex, ...]) -> FockState:
    """Product of truncated coherent states, one amplitude per mode.

    Per-mode coefficients are exp(-|xi|^2/2) xi^n / sqrt(n!) with the tail
    above the cutoff simply dropped; the missing norm is the caller's
    truncation-error budget and is checked where it matters.  A non-finite
    amplitude is refused.
    """
    if len(amplitudes) != space.n_modes:
        raise ValueError(
            f"got {len(amplitudes)} amplitudes for {space.n_modes} modes"
        )
    amps = [complex(xi) for xi in amplitudes]
    if not all(map(cmath.isfinite, amps)):
        raise ValueError(f"coherent amplitudes must be finite, got {amplitudes!r}")
    vec = np.ones(1, dtype=complex)
    for xi in amps:
        vec = np.kron(vec, _coherent_column(space.levels, xi))
    return FockState(space, vec, copy=False)


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

