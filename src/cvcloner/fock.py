"""Independent truncated-Fock-space oracle for the 1->2 cloner.

Everything else in this package manipulates (A, B) coefficient matrices and
Gaussian moments.  This module never touches those: it applies the cloning
unitary directly in a photon-number basis with a hard cutoff,

    C = exp(-i (U_mix + V_sq)) * exp(-i chi Y_sq),    chi = gamma + ln(2)/2,

where U_mix mixes the signal into the first clone mode, V_sq is a two-mode
squeeze of the signal against the idler, and Y_sq pre-squeezes clone against
idler.  Evolving exact state vectors and projecting one mode onto the
coherent target gives clone fidelities with no Gaussian assumptions, so
agreement with the covariance pipeline checks both sides.

Numerical core: each generator is i times a real antisymmetric matrix in the
number basis, so every factor of C is a real orthogonal matrix.  Truncation
therefore never breaks unitarity; it only leaks population into the top Fock
levels, which is measured and gated rather than ignored.  C is never formed
as a matrix.  The clone-idler squeeze conserves n_clone - n_idler, so it
splits the (clone, idler) register into 2c+1 tridiagonal chains of at most
c+1 states, and it acts exactly, through one batched eigendecomposition of
the chains, whatever chi is, on the chains a vector occupies (`_squeeze`).
The gamma-independent factor acts by a Chebyshev series in its sparse
generator (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967), whose
Bessel coefficients and length are fixed before the first product, from a
proven bound on the generator's spectral radius, computed once beside the
generator: the smaller of its exact 1-norm and the sum of its terms' chain
spectra.  A beam splitter conserves its pair's photon sum and a NOPA its
photon difference, so each term is a direct sum of tridiagonal chains whose
largest |eigenvalue| the register keeps (`_flow`).  At cutoff 16 that bound
is 50.96 where the 1-norm is 61.98, and the series makes 93 sparse
products, not 107.

Each generator is written directly from basis-index arithmetic: the nonzeros
of a_p^dag a_q (or a_p a_q) are sqrt(n_p + 1) sqrt(n_q) (or sqrt(n_p)
sqrt(n_q)) at indices computed from the occupations, with no per-mode
operators lifted by Kronecker products.  Because both factors are real, the
real and imaginary parts of a state vector evolve as real vectors; a part
that is all zeros is dropped, since its image is exactly zero.

Both factors conserve the charge Q = n_clone + n_signal - n_idler: a beam
splitter keeps the photon sum of its pair and a NOPA the photon difference.
The squeeze acts on the chains a box vector occupies, and a zero
(chain, n_signal) slice, an unoccupied sector, stays exactly zero.  For the gamma-independent factor
a vector needs only the box states of the Q sectors it occupies.  The
vectors that occupy the same sectors form a group, whose flow is built on
those states alone, and every nonzero is checked to conserve Q as it is
built.  The groups' flows are stacked as one block diagonal, and one
recurrence carries every group.  The
oracle's probes |0, 0, xi> occupy Q = 0 (xi = 0) or Q in [0, c] (xi != 0):
at cutoff 16 that is 153 and 3281 of the 4913 box states, so the recurrence
runs over 3434 rows.  A vector that occupies every sector, such as a
coherent state on all three modes, evolves over the whole box.

A clone's fidelity <xi| rho |xi> is read as ||(<xi|_m (x) I) psi||^2, one
contraction of a view of the state against the target, and its leakage as
the norm^2 of psi on the mode's top level (`fidelities_fock`): no state is
copied and no reduced density matrix is formed.

What the cutoff alone fixes, each register's charge map, chain eigenbasis
and chain bounds, and each sector grouping's checked flow and bases, is
built on first use and kept for the process, read-only, in `_CACHE`
(bounded by DIMENSION_BUDGET box states), and so is each truncated coherent
column, in `_COLUMNS` (bounded by DIMENSION_BUDGET levels).  No state and
no figure is kept: every call still squeezes, propagates and gates its own
probes.

scipy is imported in `_flow` alone, when the oracle builds a generator
(`scipy.sparse.csr_matrix`); the chains need only `numpy.linalg`.  So
importing this module loads no scipy, and neither does any path that never
runs the oracle (`clone`, `sweep`, plain `verify`).  Nothing here calls
scipy's `expm_multiply`, but the benchmark's tracer looks it up as
`cvcloner.fock.expm_multiply`; the module's `__getattr__` imports it only
when asked for, so the name costs nothing at import.

Scope: the 3-mode register of the 1->2 cloner, with the clone and idler as
its two slowest modes, which the chains' reshape of a box vector needs.  The
sectors shrink what the series evolves, not the register: the squeeze runs
over the whole box, which must fit DIMENSION_BUDGET.  The N->M machines
live in spaces of dimension (cutoff+1)^(N+M) and are out of reach here by
design; the Gaussian invariants cover them.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import OrderedDict
from collections.abc import Callable, Hashable, Sequence
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING, NamedTuple, TypeVar

import numpy as np
from numpy.typing import NDArray

from .circuits import AsymSpec
from .gaussian import ModeLabel, mode_index

if TYPE_CHECKING:
    import scipy.sparse as sp

DIMENSION_BUDGET = 200_000
LEAKAGE_TOL = 1e-2
COHERENT_NORM_TOL = 1e-6

_T = TypeVar("_T")


def __getattr__(name: str):
    # perfbench/tracer.py looks up `expm_multiply` here (its EXTRA) with no
    # default, so the name resolves on demand; the bridge goes when ROADMAP
    # item 8 drops tracer.EXTRA
    if name == "expm_multiply":
        from scipy.sparse.linalg import expm_multiply
        return expm_multiply
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class TruncationError(RuntimeError):
    """Raised when too much population reaches the truncation boundary."""


@dataclass(frozen=True)
class FockSpace:
    """A register of modes, each truncated at `cutoff` photons.

    Both sizes are stored as ints; anything that is not an integer, a float
    such as 10.0 included, is refused.
    """

    n_modes: int
    cutoff: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n_modes", operator.index(self.n_modes))
            object.__setattr__(self, "cutoff", operator.index(self.cutoff))
        except TypeError:
            raise ValueError(f"n_modes and cutoff must be integers, got "
                             f"n_modes={self.n_modes!r}, cutoff={self.cutoff!r}") from None
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
# mode 2 = signal c.  The gamma-dependent factor squeezes (0, 1) and is applied
# exactly on its chains (`_squeeze`).  The gamma-independent flow, the generator
# of exp(-i(U+V)), mixes (0, 2) and squeezes (2, 1): a sum of (pair, squeeze) terms.
_CLONE, _IDLER, _SIGNAL = 0, 1, 2
_FIXED_TERMS = (((_CLONE, _SIGNAL), False), ((_SIGNAL, _IDLER), True))


def _charge(space: FockSpace, index: np.ndarray) -> np.ndarray:
    """Q = n_clone + n_signal - n_idler of the box states at `index`.

    A beam splitter conserves the photon sum of its pair and a NOPA the photon
    difference of its pair, so both factors of the cloner conserve Q.
    """
    return (_occupation(space, index, _CLONE) + _occupation(space, index, _SIGNAL)
            - _occupation(space, index, _IDLER))


class _Flow(NamedTuple):
    """A real antisymmetric generator and a proven bound on its spectral radius (`_flow`)."""

    matrix: sp.csr_matrix
    radius: float


def _flow(space: FockSpace, terms: Sequence[tuple[tuple[int, int], bool]],
          *bases: np.ndarray) -> _Flow:
    """The sum over `terms` of K = H - H^T on the span of each basis, as one block diagonal.

    Each basis holds the sorted box indices of a union of charge sectors, and
    its states take the rows after those of the bases before it.  Every
    nonzero of H must join two states of equal charge, so that K maps each
    span into itself; a term that breaks the law is refused, since its
    amplitude would otherwise leave the span unseen.  No box-sized matrix is
    formed.

    The flow's radius is min(||K||_1, sum over the terms of rho_term), and
    both bound the spectral radius of K.  ||K||_1 bounds it for any matrix.
    K is normal (real antisymmetric), so its spectral radius is ||K||_2, and
    on an invariant span ||K||_2 is at most the box's, which is at most the
    sum of each term's ||K_term||_2 on the box.  A term's K is a direct sum
    of tridiagonal chains, whose largest |eigenvalue| is rho_term: the
    register keeps it for a beam splitter and for a NOPA (`_register`).
    """
    from scipy.sparse import csr_matrix  # the package's one scipy import; see the module docstring

    blocks, offset = [], 0
    for basis in bases:
        rows, cols, values = (np.concatenate(parts) for parts in zip(
            *(_pair_nonzeros(space, pair, squeeze, basis) for pair, squeeze in terms)))
        if (_charge(space, rows) != _charge(space, cols)).any():
            raise ValueError(
                f"the flow {terms} does not conserve Q = n_clone + n_signal - n_idler")
        blocks.append((values, offset + np.searchsorted(basis, rows),
                       offset + np.searchsorted(basis, cols)))
        offset += basis.size
    values, rows, cols = (np.concatenate(parts) for parts in zip(*blocks))
    half = csr_matrix((values, (rows, cols)), shape=(offset, offset))
    matrix = (half - half.T).tocsr()
    radii = _register(space).radii
    chains = math.fsum(float(radii[int(squeeze)]) for _, squeeze in terms)
    return _Flow(matrix, min(float(abs(matrix).sum(axis=0).max()), chains))


class _BoxCache:
    """What the oracle builds from fixed inputs alone, kept for the process.

    Each entry spans some states: a register's record (`_register`) its
    whole box, a fixed flow (`_fixed_flow`) its rows, a coherent column
    (`_coherent_column`) its levels.  The entries held span at most
    `budget` states in all; past that, the least recently used go first,
    but never the entry just read.  Every array an entry holds is
    read-only, so every caller can share it.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._entries: OrderedDict[Hashable, tuple[int, object]] = OrderedDict()

    def get(self, key: Hashable, build: Callable[[], tuple[int, _T]]) -> _T:
        """The entry at `key`, or the (states, entry) pair `build()` returns, kept."""
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self._entries[key] = build()
            held = sum(states for states, _ in self._entries.values())
            while held > self.budget and len(self._entries) > 1:
                held -= self._entries.popitem(last=False)[1][0]
        return self._entries[key][1]  # type: ignore[return-value]

    def clear(self) -> None:
        self._entries.clear()


_CACHE = _BoxCache(DIMENSION_BUDGET)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


class _Register(NamedTuple):
    """What a cutoff fixes of the cloner's 3-mode register, whatever the probes."""

    charge: np.ndarray    # Q of every box state (`_charge`)
    rows: np.ndarray      # (2c+1, c+1): the (n_clone, n_idler) row of chain d's slot j, or (c+1)^2
    on_chain: np.ndarray  # (2c+1, c+1): whether slot j lies on chain d, not in its padding
    lam: np.ndarray       # (c+1, c+1): the eigenvalues of the padded J of each |d| (`_squeeze`)
    w: np.ndarray         # (c+1, c+1, c+1): their eigenvectors
    radii: np.ndarray     # (2,): rho of a beam splitter's chains, then a NOPA's (`_flow`)


def _register(space: FockSpace) -> _Register:
    """The register's record, built on its first use and kept in `_CACHE`."""
    return _CACHE.get(space, lambda: (space.dim, _build_register(space)))


# eigvalsh is backward stable: each computed eigenvalue of a chain J of n <= 201
# states is within a modest multiple of n u ||J||_2 (about 1e-13 relative) of an
# exact one.  The chain bounds are raised by this relative margin, far above that.
_RADIUS_MARGIN = 1e-10


def _jacobi(hops: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrices with the given off-diagonals, one per row of hops."""
    levels = hops.shape[-1] + 1
    j = np.arange(levels)
    jacobi = np.zeros((hops.shape[0], levels, levels))
    jacobi[:, j[1:], j[:-1]] = jacobi[:, j[:-1], j[1:]] = hops
    return jacobi


def _build_register(space: FockSpace) -> _Register:
    """The register's charge map and padded chains, with one batched eigh of the
    squeeze chains and one batched eigvalsh of the beam-splitter chains."""
    levels, c = space.levels, space.cutoff
    j = np.arange(levels)
    d = np.arange(-c, levels)[:, None]
    on_chain = j < levels - np.abs(d)
    rows = np.where(on_chain, (j + np.maximum(d, 0)) * levels + j + np.maximum(-d, 0),
                    levels ** 2)
    # a NOPA on a pair keeps d = n_p - n_q; chains d and -d share one padded J per |d|,
    # with J[j-1, j] = sqrt(j (|d| + j))
    gap = j[:, None]
    lam, w = np.linalg.eigh(_jacobi(
        np.where(j[1:] < levels - gap, np.sqrt(j[1:] * (gap + j[1:])), 0.0)))
    # a beam splitter on a pair keeps s = n_p + n_q: chain s has slots n_p = max(s - c, 0) + j,
    # and J[j, j+1] = sqrt((n_p + 1)(s - n_p)), on the min(s, 2c - s) + 1 slots of the chain
    s = np.arange(2 * c + 1)[:, None]
    n_p = np.maximum(s - c, 0) + j[:-1]
    mix = np.linalg.eigvalsh(_jacobi(
        np.where(j[1:] <= np.minimum(s, 2 * c - s),
                 np.sqrt((n_p + 1) * np.maximum(s - n_p, 0)), 0.0)))
    radii = np.array([np.abs(mix).max(), np.abs(lam).max()]) * (1.0 + _RADIUS_MARGIN)
    # Q runs from -c to 2c, so int16 holds it for any register under the budget
    charge = _charge(space, np.arange(space.dim)).astype(np.int16)
    register = _Register(charge, rows, on_chain, lam, w, radii)
    _read_only(*register)
    return register


def _fixed_flow(space: FockSpace,
                groups: tuple[tuple[int, ...], ...]) -> tuple[_Flow, tuple[np.ndarray, ...]]:
    """The gamma-independent flow over the sectors of each group, as one
    block diagonal, and each group's basis.

    It is built with one basis per group of probes, so that one recurrence
    carries every group.  The clone-idler squeeze has no flow: `_squeeze`
    applies it exactly.  Built on the first call for these groups in this
    order, its charge checked by `_flow`, and kept in `_CACHE`.
    """
    def build() -> tuple[int, tuple[_Flow, tuple[np.ndarray, ...]]]:
        charge = _register(space).charge
        bases = tuple(np.flatnonzero(np.isin(charge, sectors)) for sectors in groups)
        flow = _flow(space, _FIXED_TERMS, *bases)
        _read_only(*bases, flow.matrix.data, flow.matrix.indices, flow.matrix.indptr)
        return flow.matrix.shape[0], (flow, bases)

    return _CACHE.get((space, groups), build)


def _squeeze(space: FockSpace, block: np.ndarray, chis: Sequence[float]) -> np.ndarray:
    """exp(chi_j K) of the clone-idler squeeze applied to column j of a real (dim, k) block.

    H = a_clone a_idler conserves d = n_clone - n_idler, so K = H - H^T splits
    the (clone, idler) register into 2c+1 chains, (n_clone, n_idler) =
    (max(d, 0) + j, max(-d, 0) + j) for j = 0..c-|d|, on which K is real
    tridiagonal with K[j-1, j] = -K[j, j-1] = h_j = sqrt(j (|d| + j)).  With
    D = diag(i^j), D^-1 K D = iJ for the real symmetric tridiagonal J with the
    same h_j, so if J = W diag(lambda) W^T and V = DW, then
    exp(chi K) = I + Re(V diag(e^(i chi lambda) - 1) V^H).  Every chain is
    padded to c+1 states; a padded state is isolated, with lambda = 0, and
    reads a row of zeros.  Chains d and -d share J, so one batched eigh of
    c+1 matrices serves every chain and every chi, at a cost that does not
    grow with chi.  The register's record (`_register`) keeps lambda and W.

    The block is read as (chain, slot, n_signal, column), which needs the
    clone and idler to be the two slowest modes.  Only the (chain, column)
    pairs whose slice is not all zero are touched: the step matrices
    exp(chi K) - I of the distinct (chi, |d|) those pairs need are built at
    once, and one batched product applies each to its pair's (c+1, c+1)
    slice of (slot, n_signal).  A zero chain is copied, so it stays exactly
    zero, and a chi of 0 is exactly the identity.  The oracle's probes
    |0, 0, xi> occupy the d = 0 chain alone.
    """
    register = _register(space)
    levels, k = space.levels, block.shape[1]
    distinct, which = np.unique(np.asarray(chis, dtype=float), return_inverse=True)
    # one buffer: the block's copy, rows (n_clone, n_idler) then n_signal, and
    # after it row (c+1)^2, of zeros, which every padding slot reads
    padded = np.empty((levels ** 2 + 1, levels, k))
    padded[-1] = 0.0
    boxed = padded[:-1]
    out = boxed.reshape(block.shape)
    out[...] = block
    rows = register.rows
    # the occupied (chain, column) pairs: a (row, column) is occupied where
    # its sum of |entries| over n_signal is not 0 (NaN included), which one
    # matrix-vector product reads faster than any() over the middle axis
    occupied = (np.abs(padded).transpose(0, 2, 1) @ np.ones(levels)) != 0
    chain, col = np.nonzero(occupied[rows].any(axis=1))
    if chain.size:
        pairs = which[col] * levels + np.abs(chain - space.cutoff)  # (chi, |d|) of each pair
        needed, step_of = np.unique(pairs, return_inverse=True)
        chi, gap = distinct[needed // levels], needed % levels
        v = np.array([1, 1j, -1, -1j])[np.arange(levels) % 4, None] * register.w[gap]  # DW
        steps = ((v * np.expm1(1j * chi[:, None] * register.lam[gap])[:, None, :])
                 @ v.conj().swapaxes(1, 2)).real  # exp(chi K) - I per (chi, |d|)
        cols = np.broadcast_to(col[:, None], (chain.size, levels))
        slices = padded[rows[chain], :, cols]  # (pair, slot, n_signal)
        slices += steps[step_of] @ slices
        on_chain = register.on_chain[chain]
        boxed[rows[chain][on_chain], :, cols[on_chain]] = slices[on_chain]
    return out


_UNIT_ROUNDOFF = 2.0 ** -53


@functools.lru_cache(maxsize=128)
def _bessel_coefficients(rho: float) -> tuple[float, ...]:
    """J_0(rho), ..., J_n(rho) for rho >= 0, cut at the first n with 2 sum_{k>n} |J_k(rho)| <= u/2.

    Miller's backward recurrence J_{k-1} = (2k/rho) J_k - J_{k+1}, from past the order where
    (rho/2)^k / k!, a bound on |J_k|, is below 1e-40, scaled down near overflow and normalized
    by J_0 + 2 sum_k J_2k = 1 (DLMF 3.6, 10.12.4).  Up to rho = u/2, J_0 rounds to 1.
    Memoized: a ladder run again reads the same rho.
    """
    if rho <= _UNIT_ROUNDOFF / 2:
        return (1.0,)
    start, log_bound = 0, 0.0
    while start < rho or log_bound > -92.0:  # e^-92 is about 1e-40
        start += 1
        log_bound += math.log(rho / (2 * start))
    j = [0.0] * (start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = 2 * k / rho * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
    norm = j[0] + 2 * math.fsum(j[2::2])
    j = [v / norm for v in j]
    n, tail = start, 0.0
    while tail + 2 * abs(j[n]) <= _UNIT_ROUNDOFF / 2:
        tail += 2 * abs(j[n])
        n -= 1
    return tuple(j[:n + 1])


def _propagate(flow: _Flow, block: np.ndarray) -> np.ndarray:
    """exp(K) applied to every column of a real (dim, k) block at once.

    A Chebyshev series (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967).
    K is real antisymmetric with spectrum in +-i rho, rho = `flow.radius`
    (`_flow`), so with A = K / rho, w_0 = v, w_1 = A v and
    w_{k+1} = 2 A w_k + w_{k-1}, each w_k is real with ||w_k||_2 <= ||v||_2,
    and exp(K) v = J_0(rho) w_0 + 2 sum_k J_k(rho) w_k: the series is cut
    before its first product where the dropped tail is <= u/2.  Its length
    grows with rho, so the tightest proven bound makes the fewest products.
    The columns share the recurrence and its scalar coefficients.  exp(tK)
    is the flow of tK, whose radius is |t| rho.
    """
    coeffs = _bessel_coefficients(flow.radius)
    out = coeffs[0] * block
    if len(coeffs) > 1:
        double = flow.matrix * (2.0 / flow.radius)  # 2A
        prev, cur = block, 0.5 * (double @ block)
        out += (2.0 * coeffs[1]) * cur
        for c in coeffs[2:]:
            nxt = double @ cur
            nxt += prev
            out += (2.0 * c) * nxt
            prev, cur = cur, nxt
    return out


def apply_cloning_fock_block(probes: Sequence[tuple[float, FockState]]) -> list[FockState]:
    """Send several 3-mode states, each with its own gamma, through the cloner.

    Both factors are real orthogonal, so the real and imaginary parts of
    every probe are real columns; a part that is all zeros is dropped and
    stays exactly zero.  The columns first cross the clone-idler squeeze,
    chi = gamma + ln(2)/2 per column, exactly on its chains over the box
    (`_squeeze`).  Both factors conserve the charge Q (see `_charge`), so for
    the gamma-independent factor a column needs only the box states of the Q
    sectors it occupies.  Columns that occupy the same sectors form a group;
    the groups' flows, each built on its sectors alone, are stacked as one
    block diagonal, built once per grouping and kept (`_fixed_flow`), and
    one recurrence carries every group, with group g's columns in slots
    0..k_g-1 of its own rows.  A column that occupies every sector evolves
    over the whole box.  An empty list of probes is refused,
    and so is a gamma that ``AsymSpec`` refuses: one that is not real and
    finite or has |gamma| > ``circuits.GAMMA_LIMIT``.
    """
    if not probes:
        raise ValueError("apply_cloning_fock_block needs at least one probe")
    space = probes[0][1].space
    if space.n_modes != 3:
        raise ValueError(f"the cloner acts on 3 modes, got {space.n_modes}")
    charge = _register(space).charge
    columns: list[tuple[int, int]] = []  # the (probe, imag) of each real column
    parts: list[np.ndarray] = []
    chis: list[float] = []
    groups: dict[tuple[int, ...], list[int]] = {}  # occupied sectors -> the columns in them
    # each distinct state's nonzero parts and their sectors, found once; an
    # entry holds its state, so no id is reused while the call runs
    occupied: dict[int, tuple[FockState, list[tuple[int, np.ndarray, tuple[int, ...]]]]] = {}
    for i, (gamma, state) in enumerate(probes):
        if state.space != space:
            raise ValueError(f"every probe needs the register {space}, got {state.space}")
        chi = AsymSpec(gamma).gamma + 0.5 * math.log(2.0)
        if id(state) not in occupied:
            occupied[id(state)] = (state, [
                (imag, part, tuple(np.unique(charge[part != 0]).tolist()))
                for imag, part in enumerate((state.amplitudes.real, state.amplitudes.imag))
                if part.any()])
        for imag, part, sectors in occupied[id(state)][1]:
            groups.setdefault(sectors, []).append(len(columns))
            columns.append((i, imag))
            parts.append(part)
            chis.append(chi)
    amps = [np.zeros(space.dim, dtype=complex) for _ in probes]
    if columns:
        squeezed = _squeeze(space, np.stack(parts, axis=1), chis)
        flow, bases = _fixed_flow(space, tuple(groups))
        starts = np.cumsum([0] + [basis.size for basis in bases]).tolist()
        block = np.zeros((starts[-1], max(map(len, groups.values()))))
        for start, basis, cols in zip(starts, bases, groups.values()):
            block[start:start + basis.size, :len(cols)] = squeezed[np.ix_(basis, cols)]
        block = _propagate(flow, block)
        for start, basis, cols in zip(starts, bases, groups.values()):
            for slot, col in enumerate(cols):
                i, imag = columns[col]
                out = amps[i].imag if imag else amps[i].real
                out[basis] = block[start:start + basis.size, slot]
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
    # the Kronecker product mode by mode, mode 0 slowest: vec (x) column is
    # the outer product laid flat, the products np.kron takes, in its order
    vec = np.ones(1, dtype=complex)
    for xi in amps:
        vec = (vec[:, None] * _coherent_column(space.levels, xi)).ravel()
    return FockState(space, vec, copy=False)


_COLUMNS = _BoxCache(DIMENSION_BUDGET)  # truncated coherent columns, each holding its levels


def _coherent_column(levels: int, xi: complex) -> np.ndarray:
    """exp(-|xi|^2/2) xi^n / sqrt(n!) for n < levels, read-only: built on
    the first call for (levels, xi) and kept in `_COLUMNS`, which holds at
    most DIMENSION_BUDGET levels in all, since every rung of a ladder reads
    the same few.  -0.0 == 0.0, but the sign of a zero part moves
    np.angle(xi) (by 2 pi when the real part is negative), so both signs
    are part of the key."""
    key = (levels, xi, math.copysign(1.0, xi.real), math.copysign(1.0, xi.imag))
    return _COLUMNS.get(key, lambda: (levels, _build_coherent_column(levels, xi)))


def _build_coherent_column(levels: int, xi: complex) -> np.ndarray:
    ns = np.arange(levels)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, levels)))))
    mags = np.exp(-abs(xi) ** 2 / 2.0 + ns * np.log(abs(xi)) - log_fact / 2.0) \
        if xi != 0 else np.concatenate(([1.0], np.zeros(levels - 1)))
    phases = np.exp(1j * ns * np.angle(xi)) if xi != 0 else np.ones(levels)
    column = mags * phases
    _read_only(column)
    return column


def fidelities_fock(reads: Sequence[tuple[FockState, int | ModeLabel, complex]]) -> list[float]:
    """Overlap <xi| rho_m |xi> of each (state, mode m, xi) read, with no rho formed.

    <xi| rho_m |xi> = ||(<xi|_m (x) I) psi||^2, and mode m's population on its
    top level is ||psi restricted to n_m = c||^2.  Each read takes both from
    a view of its state with one axis per mode: the top-level slice, and one
    contraction of mode m's axis against the target, so no state is copied.
    Each distinct xi's truncated |xi> is read once, from the columns kept
    for the process (`_coherent_column`).  The states must share one
    register.

    Refuses to answer when a truncated |xi> itself is too lossy (norm below
    1 - 1e-6) or when a read's mode has more than LEAKAGE_TOL of its
    population on the top Fock level: a silently truncated fidelity would
    look like a cloning result while actually measuring the box size.  Both
    gates fail closed: a NaN norm or population is refused, and so is a
    non-finite xi.
    """
    if not reads:
        raise ValueError("fidelities_fock needs at least one read")
    space = reads[0][0].space
    bras: dict[complex, np.ndarray] = {}  # <xi| of each distinct xi
    for state, _, xi in reads:
        if state.space != space:
            raise ValueError(f"every read needs the register {space}, got {state.space}")
        xi = complex(xi)
        if not cmath.isfinite(xi):
            raise ValueError(f"coherent amplitude must be finite, got {xi}")
        if xi not in bras:
            target = _coherent_column(space.levels, xi)
            norm2 = float(np.vdot(target, target).real)
            if not norm2 >= 1.0 - COHERENT_NORM_TOL:
                raise TruncationError(
                    f"coherent amplitude {xi} keeps only norm^2 = {norm2} below cutoff "
                    f"{space.cutoff}; raise the cutoff"
                )
            bras[xi] = target.conj()
    axes = list(range(space.n_modes))
    fidelities = []
    for state, mode, xi in reads:
        m = mode_index(mode, space.n_modes)
        psi = state.amplitudes.reshape((space.levels,) * space.n_modes)  # a view, mode k on axis k
        top = psi[(slice(None),) * m + (-1,)]
        leak = float((top.real ** 2 + top.imag ** 2).sum())
        if not leak <= LEAKAGE_TOL:
            raise TruncationError(
                f"top-level population {leak:.3e} exceeds {LEAKAGE_TOL}; "
                f"the cutoff is too small for this evolution"
            )
        overlap = np.einsum(psi, axes, bras[complex(xi)], [m])  # (<xi|_m (x) I) psi
        fidelities.append(float((overlap.real ** 2 + overlap.imag ** 2).sum()))
    return fidelities
