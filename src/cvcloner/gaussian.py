"""Linear bosonic-mode transformations and Gaussian states.

A circuit element acting on n modes is stored in the Heisenberg picture as a
pair of real matrices (A, B) with

    a_out[j] = sum_k A[j, k] a[k] + B[j, k] a[k]^dag .

Every element of these machines (beam splitter, NOPA) has real
coefficients.  Preservation of the commutation relations requires

    A A^T - B B^T = I     and     A B^T = B A^T ,

which everything downstream relies on.  With real (A, B) the quadratures
transform apart: x' = X x and p' = P p with X = A + B and P = A - B, and
both conditions together read X P^T = I, which :func:`check_symplectic`
measures with one product, and :func:`checked_transforms` with one batched
product over a stack of transforms built at once.  The clone readout works
from the clone rows of X and P as well; only the full output state forms
the interleaved 2n x 2n quadrature matrix S.

Quadrature conventions (hbar = 1):

    x = (a + a^dag)/sqrt(2),   p = (a - a^dag)/(i sqrt(2)),

so the vacuum variance is 1/2 and a coherent amplitude xi has mean
(sqrt(2) Re xi, sqrt(2) Im xi).  Quadratures are ordered interleaved,
(x1, p1, x2, p2, ...), which keeps single-mode reduction a contiguous
2x2 block.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

DEFAULT_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(arr: object) -> bool:
    """True for a float64 ndarray that is read-only, as is every array it
    views, down to the one that owns its data: no caller can write to it."""
    if type(arr) is not np.ndarray or arr.dtype != np.float64:
        return False
    while type(arr) is np.ndarray and not arr.flags.writeable:
        if arr.base is None:
            return True
        arr = arr.base
    return False


@dataclass(frozen=True)
class ModeLabel:
    """A mode index with an optional human-readable tag."""

    index: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"mode index must be >= 0, got {self.index}")


def mode_index(mode: int | ModeLabel, n_modes: int) -> int:
    """Position of a mode in an n_modes register, refused unless 0 <= k < n_modes."""
    k = mode.index if isinstance(mode, ModeLabel) else int(mode)
    if not 0 <= k < n_modes:
        raise ValueError(f"mode {k} out of range for {n_modes} modes")
    return k


@dataclass(frozen=True)
class BogoliubovTransform:
    """Heisenberg-picture linear mode map a_out = A a + B a^dag.

    A and B are real and stored as float64, read-only; a complex matrix is
    refused.  An array that a caller could still write to is copied.  One
    that no one can write through, read-only down to the array that owns
    its data (a fold's rows, a slice of a stack that ``checked_transforms``
    froze), is kept as it is.  A transform that ``checked_transforms`` made
    also keeps its ``SymplecticCheck``, which ``require_symplectic`` reads;
    every other transform, one made by ``dataclasses.replace`` included, is
    checked when it is required.
    """

    A: NDArray[np.float64]
    B: NDArray[np.float64]

    def __post_init__(self) -> None:
        A, B = self.A, self.B
        if not (_frozen(A) and _frozen(B)):
            A, B = np.asarray(A), np.asarray(B)
            if np.iscomplexobj(A) or np.iscomplexobj(B):
                raise ValueError(f"A and B must be real, got {A.dtype} and {B.dtype}")
            A, B = _readonly(np.array(A, dtype=float)), _readonly(np.array(B, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"A and B shapes differ: {A.shape} vs {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n_modes(self) -> int:
        return self.A.shape[0]

    def symplectic_matrix(self) -> NDArray[np.float64]:
        """Real 2n x 2n quadrature matrix S with r_out = S r_in.

        With real (A, B), x' = (A+B) x and p' = (A-B) p: the xxpp blocks
        [[A+B, 0], [0, A-B]] are written straight into the interleaved
        convention, where x rows and columns are the even indices and p the
        odd ones.  S Omega S^T = Omega holds exactly when (A, B) satisfy the
        commutation constraints; that property is enforced by tests rather
        than assumed here.  Only the full output state,
        ``analysis.clone_output_state``, forms S: the check and the clone
        readout work from A + B and A - B directly.
        """
        S = np.zeros((2 * self.n_modes, 2 * self.n_modes))
        S[0::2, 0::2] = self.A + self.B
        S[1::2, 1::2] = self.A - self.B
        return S


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of n modes: quadrature mean vector and covariance matrix."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must have even positive length, got {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        # mirrored NaNs and equal infs pass: inf - inf reads NaN, which no gap
        # exceeds, and a NaN must sit at the mirror image of a NaN
        with np.errstate(invalid="ignore"):
            gapped = (np.abs(cov - cov.T) > 1e-8).any()
        nan = np.isnan(cov)
        if gapped or not (nan == nan.T).all():
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def mode_amplitude(self, mode: int | ModeLabel) -> complex:
        """Coherent amplitude (x + i p)/sqrt(2) carried by one mode's mean."""
        k = mode_index(mode, self.n_modes)
        return complex(self.mean[2 * k] + 1j * self.mean[2 * k + 1]) / np.sqrt(2.0)


@dataclass(frozen=True)
class SymplecticCheck:
    """Deviations of the two commutation-preservation constraints."""

    commutation_dev: float  # max |A A^T - B B^T - I|
    symmetry_dev: float     # max |A B^T - B A^T|

    @property
    def max_dev(self) -> float:
        return worst_dev((self.commutation_dev, self.symmetry_dev))

    @property
    def passed(self) -> bool:
        return self.max_dev <= DEFAULT_TOL


def worst_dev(devs: Iterable[float] | NDArray[np.float64]) -> float:
    """Largest of some deviations, counting NaN as +inf (0.0 when empty).

    Python's max() keeps whichever argument came first when a NaN is
    compared, so a NaN deviation could vanish from a gate; here it fails it.
    An array is read in one reduction, whose maximum is NaN if any entry is.
    """
    if isinstance(devs, np.ndarray):
        worst = float(devs.max()) if devs.size else 0.0
        return math.inf if math.isnan(worst) else worst
    return max((math.inf if math.isnan(d) else float(d) for d in devs), default=0.0)


@dataclass(frozen=True)
class Passive:
    """2x2 passive block ((a, b), (c, d)) on the mode pair (p, q):

        a_p' = a a_p + b a_q,    a_q' = c a_p + d a_q.

    The block is stored as floats.  It is refused unless it is 2x2, real
    and finite.  Each entry must be a real number: a Python or numpy real
    scalar, or a real 0-d array.  A complex entry is refused even when its
    imaginary part is zero, since float() of a numpy complex only warns and
    drops that part, and so is a string or bytes entry, which float() would
    parse.  An entry that is no number at all reads as a malformed block.
    """

    block: tuple[tuple[float, float], tuple[float, float]]
    p: int
    q: int

    def __post_init__(self) -> None:
        _check_pair(self.p, self.q)
        try:
            (a, b), (c, d) = self.block
            # four Python floats, as the package's own gate lists carry, are kept as
            # they are; other floats and ints are real, and any other entry is
            # judged by its type
            real = exact = type(a) is type(b) is type(c) is type(d) is float
            if not exact:
                entries = (a, b, c, d)
                real = all(isinstance(x, (float, int)) or _is_real_number(x) for x in entries)
                # np.complex128 parses any number, complex or a numeric string
                # alike, and raises on anything else
                a, b, c, d = map(float if real else np.complex128, entries)
        except (TypeError, ValueError):
            raise ValueError(
                f"Passive gate on ({self.p}, {self.q}) needs a 2x2 block, got {self.block!r}"
            ) from None
        if not real:
            raise ValueError(
                f"Passive gate on ({self.p}, {self.q}) needs a real block, got {self.block!r}"
            )
        if not all(map(math.isfinite, (a, b, c, d))):
            raise ValueError(
                f"Passive gate on ({self.p}, {self.q}) has a non-finite block {self.block!r}"
            )
        object.__setattr__(self, "block", ((a, b), (c, d)))


@dataclass(frozen=True)
class NOPA:
    """Two-mode squeezer on the pair (p, q): a_p' = cosh r a_p - sinh r a_q^dag,
    and the same with p and q swapped.

    r is stored as a float; anything but a finite real number is refused.
    """

    r: float
    p: int
    q: int

    def __post_init__(self) -> None:
        _check_pair(self.p, self.q)
        if not isinstance(self.r, numbers.Real):
            raise ValueError(f"NOPA gate on ({self.p}, {self.q}) needs a real r, got {self.r!r}")
        if not math.isfinite(self.r):
            raise ValueError(f"NOPA gate on ({self.p}, {self.q}) needs a finite r, got {self.r}")
        object.__setattr__(self, "r", float(self.r))


Gate = Passive | NOPA


def _is_real_number(x: object) -> bool:
    """True for a numbers.Real (numpy's real scalars included) or a 0-d
    numpy array of bool, integer or float dtype."""
    return isinstance(x, numbers.Real) or (
        isinstance(x, np.ndarray) and x.ndim == 0 and x.dtype.kind in "biuf")


def _check_pair(p: int, q: int) -> None:
    if p == q or p < 0 or q < 0:
        raise ValueError(f"a gate needs two distinct modes >= 0, got ({p}, {q})")


@functools.lru_cache(maxsize=16)
def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Interleaved symplectic form Omega, [r_j, r_k] = i Omega_jk: one
    read-only array per n_modes, made on first use and shared while it is
    among the 16 sizes last asked for."""
    return _readonly(np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]])))


def fold_stack(gates: Iterable[Gate | tuple], n_modes: int,
               stack: tuple[int, ...] = ()) -> NDArray[np.float64]:
    """Rows of a stack of n_modes registers after the gates act in order,
    in an array of shape (n, 2, n, *stack): rows[j, 0] = A[j] and
    rows[j, 1] = B[j], register by register along the stack axes.

    stack is () for one register, with no register axis, or (k,) for k.
    A gate is a Passive or a NOPA, acting alike on every register, or the
    same gate written as a tuple, (block, p, q) with block ((a, b), (c, d))
    or (r, p, q), whose coefficients may each be an array of the stack's
    shape, one value per register.  ``fold_gates`` folds one register; the
    asymmetric machines of a sweep fold as one stack, with arrays of
    angles.  The register axis comes last, so that such an array
    broadcasts as it is and row j of every register is one block.

    Each gate rewrites only rows p and q of (A, B), so a gate costs O(n)
    where multiplying by the gate's dense n-mode transform costs O(n^3).
    Applying (A2, B2) after (A1, B1) gives A = A2 A1 + B2 B1 and
    B = A2 B1 + B2 A1; the row updates are those products with the gate's
    identity rows dropped.  Every gate is real, so the fold runs in float64,
    and each register of a stack reads bit for bit what it reads alone.

    A passive gate whose second wire q no earlier gate touched reads no
    partner row: row q is still e_q and column q is zero in every other
    row, so the gate writes row q as c times row p, scales row p by a, and
    sets A[p, q] = b and A[q, q] = d, all in place.  The collect and
    distribute splitters and the asymmetric machine's first beam splitter
    are such gates.  The values equal the two-row update's; only the sign
    of a zero entry can differ.
    """
    n = int(n_modes)
    if n < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    rows = np.zeros((n, 2, n, *stack))
    diagonal = np.arange(n)
    rows[diagonal, 0, diagonal] = 1.0
    wire = list(rows)  # wire[j] is rows[j], without indexing rows again per gate
    untouched = [True] * n
    for gate in gates:
        if isinstance(gate, tuple):
            coef, p, q = gate
        else:
            coef, p, q = (gate.block if isinstance(gate, Passive) else gate.r), gate.p, gate.q
        if p >= n or q >= n:
            raise ValueError(f"gate modes ({p}, {q}) out of range for {n} modes")
        passive = isinstance(coef, tuple)
        fresh, untouched[p], untouched[q] = untouched[q], False, False
        xp, xq = wire[p], wire[q]
        if fresh and passive:
            (a, b), (c, d) = coef
            np.multiply(xp, c, out=xq)
            xq[0, q] = d
            xp *= a
            xp[0, q] = b
            continue
        # row q is read in full before it is written, so only row p is copied
        xp = xp.copy()
        if passive:
            (a, b), (c, d) = coef
            rows[p] = a * xp + b * xq
            rows[q] = c * xp + d * xq
        else:
            # xq[::-1] is (B_q, A_q): the a^dag rows a NOPA feeds across the pair
            ch, sh = np.cosh(coef), np.sinh(coef)
            rows[p] = ch * xp - sh * xq[::-1]
            rows[q] = ch * xq - sh * xp[::-1]
    return rows


def fold_gates(gates: Iterable[Gate | tuple], n_modes: int) -> BogoliubovTransform:
    """Transform of an n_modes register after the gates act in order, by
    ``fold_stack``, unchecked.  The transform keeps the fold's rows, made
    read-only, without a copy."""
    rows = _readonly(fold_stack(gates, n_modes))
    return BogoliubovTransform(A=rows[:, 0], B=rows[:, 1])


def _deviations(A: NDArray[np.float64],
                B: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """commutation_dev and symmetry_dev of one transform's (A, B), or of
    each transform of a (k, n, n) stack of them, as arrays of 1 or k: the
    one check body, behind both ``check_symplectic`` and
    ``checked_transforms``."""
    with np.errstate(invalid="ignore"):  # inf - inf reads NaN, which fails
        # C order: each X P^T is then one gemm, and each diagonal one stride
        X, P = np.add(A, B, order="C"), np.subtract(A, B, order="C")
        G = X @ P.swapaxes(-1, -2)
        # X and P are spent, so their buffers take G + G^T - 2I and G - G^T
        Gt = G.swapaxes(-1, -2)
        sym, antisym = np.add(G, Gt, out=X), np.subtract(G, Gt, out=P)
        n = sym.shape[-1]
        sym, antisym = sym.reshape(-1, n * n), antisym.reshape(-1, n * n)
        sym[:, ::n + 1] -= 2.0
        commutation = 0.5 * np.abs(sym, out=sym).max(axis=1)
        symmetry = 0.5 * np.abs(antisym, out=antisym).max(axis=1)
    return commutation, symmetry


def check_symplectic(t: BogoliubovTransform) -> SymplecticCheck:
    """Measure how far (A, B) sits from a valid Bogoliubov transform.

    With real (A, B) the quadrature maps are X = A + B on x and P = A - B on
    p, and G = X P^T has symmetric part A A^T - B B^T and antisymmetric part
    B A^T - A B^T.  So one n x n product gives both constraints:
    commutation_dev = max|(G + G^T)/2 - I| and symmetry_dev = max|(G - G^T)/2|.
    A NaN or infinite entry of A or B reaches G and reads as a NaN or inf
    deviation, which ``SymplecticCheck.max_dev`` counts as inf.  The body
    that runs it checks a stack in ``checked_transforms``.
    """
    commutation, symmetry = _deviations(t.A, t.B)
    return SymplecticCheck(commutation_dev=float(commutation[0]),
                           symmetry_dev=float(symmetry[0]))


def checked_transforms(rows: NDArray[np.float64]) -> list[BogoliubovTransform]:
    """The transforms of a stack of rows, as ``fold_stack`` returns it (one
    for no register axis, k for (k,)), checked by one batched product
    X P^T over the stack.

    The stack is laid out register by register and made read-only, so each
    transform keeps its own slice of it without a copy, together with its
    ``SymplecticCheck``, which ``require_symplectic`` reads there.  A
    failing transform is returned too: it is refused where it is required.
    """
    n = rows.shape[0]
    # (k, n, 2, n): a copy unless k is 1, so rows is made read-only as well
    stack = _readonly(np.ascontiguousarray(
        _readonly(rows).reshape(n, 2, n, -1).transpose(3, 0, 1, 2)))
    A, B = stack[:, :, 0], stack[:, :, 1]
    commutation, symmetry = _deviations(A, B)
    transforms = []
    for a, b, c, s in zip(A, B, commutation.tolist(), symmetry.tolist(), strict=True):
        t = BogoliubovTransform(A=a, B=b)
        object.__setattr__(t, "_symplectic_check",
                           SymplecticCheck(commutation_dev=c, symmetry_dev=s))
        transforms.append(t)
    return transforms


def require_symplectic(t: BogoliubovTransform) -> SymplecticCheck:
    """The transform's ``SymplecticCheck`` at DEFAULT_TOL, raising ValueError
    unless it passes: the one ``checked_transforms`` left on it while its
    arrays are still read-only (a deep copy's are not), or else
    ``check_symplectic``."""
    diag = getattr(t, "_symplectic_check", None)
    if diag is None or not (_frozen(t.A) and _frozen(t.B)):
        diag = check_symplectic(t)
    if not diag.passed:
        raise ValueError(
            f"transform is not symplectic within tol={DEFAULT_TOL}: "
            f"commutation dev {diag.commutation_dev:.3e}, symmetry dev {diag.symmetry_dev:.3e}"
        )
    return diag


def coherent_means(amplitudes: list[complex] | tuple[complex, ...]) -> NDArray[np.float64]:
    """Interleaved quadrature means (sqrt(2) Re xi, sqrt(2) Im xi) per mode."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise ValueError(f"need one amplitude per mode and at least one mode, got {amplitudes!r}")
    mean = np.empty(2 * amps.size)
    mean[0::2] = np.sqrt(2.0) * amps.real
    mean[1::2] = np.sqrt(2.0) * amps.imag
    return mean


def uncertainty_defect(s: GaussianState) -> float:
    """How far cov + (i/2) Omega is from positive semidefinite (0 if valid).

    Returns max(0, -lambda_min); a physical state keeps this at numerical zero.
    A covariance with a NaN or infinite entry returns inf: it is no state.
    """
    if not np.isfinite(s.cov).all():
        return math.inf
    omega = symplectic_form(s.n_modes)
    eigs = np.linalg.eigvalsh(s.cov + 0.5j * omega)
    return float(max(0.0, -eigs.min()))
