"""Linear bosonic-mode transformations.

A circuit element acting on n modes is stored in the Heisenberg picture as a
pair of real matrices (A, B) with

    a_out[j] = sum_k A[j, k] a[k] + B[j, k] a[k]^dag .

Every element of these machines (beam splitter, NOPA) has real
coefficients.  Preservation of the commutation relations requires

    A A^T - B B^T = I     and     A B^T = B A^T ,

which everything downstream relies on.  With real (A, B) the quadratures
transform apart: x' = X x and p' = P p with X = A + B and P = A - B, and
both conditions together read X P^T = I, which :func:`checked_stack`
measures with one batched product over a stack of registers built at once.
:func:`fold_stack` writes that stack's rows from an ordered gate list, each
gate a tuple: (block, p, q) for a passive 2x2 block, or (r, p, q) for a NOPA
of squeeze parameter r, on the wires p and q.  The clone readout works
from the clone rows of X and P as well.  No quadrature matrix is formed:
the only 2n x 2n arrays here are the output covariances that
:func:`uncertainty_defect` diagonalises, a stack of them at once, each
written from the two n x n blocks (X/2) X^T and (P/2) P^T.

Quadrature conventions (hbar = 1):

    x = (a + a^dag)/sqrt(2),   p = (a - a^dag)/(i sqrt(2)),

so the vacuum variance is 1/2 and a coherent amplitude xi has mean
(sqrt(2) Re xi, sqrt(2) Im xi).  Quadratures are ordered interleaved,
(x1, p1, x2, p2, ...), which keeps single-mode reduction a contiguous
2x2 block.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

DEFAULT_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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


def fold_stack(gates: Iterable[tuple], n_modes: int,
               stack: tuple[int, ...] = ()) -> NDArray[np.float64]:
    """Rows of a stack of n_modes registers after the gates act in order,
    in an array of shape (n, 2, n, *stack): rows[j, 0] = A[j] and
    rows[j, 1] = B[j], register by register along the stack axes.

    stack is () for one register, with no register axis, or (k,) for k.
    A gate is a tuple on two distinct wires p and q in [0, n_modes): a
    passive gate (block, p, q) with block ((a, b), (c, d)), which acts as

        a_p' = a a_p + b a_q,    a_q' = c a_p + d a_q,

    or a NOPA (r, p, q), which acts as a_p' = cosh r a_p - sinh r a_q^dag
    and the same with p and q swapped.  Each coefficient is a real float,
    the same on every register, or an array of the stack's shape, one
    value per register.  The asymmetric machines of a sweep fold as one
    stack, with arrays of angles.  The register axis comes last, so that
    such an array broadcasts as it is and row j of every register is one
    block.  Any other pair of wires is refused with a ValueError.

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
    for coef, p, q in gates:
        if p == q or not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"a gate needs two distinct modes in [0, {n}), got ({p}, {q})")
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


def _deviations(A: NDArray[np.float64],
                B: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """commutation_dev and symmetry_dev of one transform's (A, B), or of
    each transform of a (k, n, n) stack of them, as arrays of 1 or k: the
    body of ``checked_stack``.

    With real (A, B), G = X P^T has symmetric part A A^T - B B^T and
    antisymmetric part B A^T - A B^T, so one product gives both constraints:
    commutation_dev = max|(G + G^T)/2 - I| and symmetry_dev = max|(G - G^T)/2|.
    A NaN or infinite entry of A or B reaches G and reads as a NaN or inf
    deviation.
    """
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


def checked_stack(rows: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """A stack of rows, as ``fold_stack`` returns it (one register for no
    register axis, k for (k,)), checked by one batched product X P^T.

    Returns the stack as a read-only (k, n, 2, n) array, laid out register
    by register (rows[i, :, 0] is register i's A and rows[i, :, 1] its B),
    and each register's deviation, the larger of its two ``_deviations``
    with NaN read as inf, as one array of k.  A stack with a register past
    DEFAULT_TOL is refused with a ValueError that gives the first such
    register's two deviations.
    """
    n = rows.shape[0]
    # (k, n, 2, n): a copy unless k is 1, so rows is made read-only as well
    stack = _readonly(np.ascontiguousarray(
        _readonly(rows).reshape(n, 2, n, -1).transpose(3, 0, 1, 2)))
    commutation, symmetry = _deviations(stack[:, :, 0], stack[:, :, 1])
    devs = np.maximum(commutation, symmetry)  # NaN if either is, which counts as inf
    devs[np.isnan(devs)] = math.inf
    failing = ~(devs <= DEFAULT_TOL)
    if failing.any():
        i = int(failing.argmax())
        raise ValueError(
            f"transform is not symplectic within tol={DEFAULT_TOL}: "
            f"commutation dev {float(commutation[i]):.3e}, "
            f"symmetry dev {float(symmetry[i]):.3e}")
    return stack, _readonly(devs)


def uncertainty_defect(A: NDArray[np.float64], B: NDArray[np.float64]) -> NDArray[np.float64]:
    """How far the output covariance of vacuum and coherent inputs, plus
    (i/2) Omega, is from positive semidefinite (0 for a physical state), for
    each transform of a (k, n, n) stack of (A, B), as an array of k: one
    transform is a stack of one.

    Every input has covariance I/2 and a real transform keeps x and p apart,
    so the output covariance is two n x n blocks, (X/2) X^T on x and
    (P/2) P^T on p, with X = A + B and P = A - B.  They are written into the
    interleaved x and p entries of one 2n x 2n Hermitian matrix, whose
    entries (2j, 2j+1) and (2j+1, 2j) carry Omega's +-i/2; every other entry
    is zero.  All k matrices are written at once, and one batched eigvalsh
    reads them, each as a call on it alone would; a transform's defect is
    max(0, -lambda_min) of its eigenvalues.  A transform with a NaN or
    infinite entry reads inf: its output is no state.
    """
    k, n = A.shape[0], A.shape[-1]
    h = np.zeros((k, 2 * n, 2 * n), dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 read NaN: inf is returned
        X, P = A + B, A - B
        h.real[:, 0::2, 0::2] = (0.5 * X) @ X.swapaxes(1, 2)
        h.real[:, 1::2, 1::2] = (0.5 * P) @ P.swapaxes(1, 2)
    finite = np.isfinite(h.real).all(axis=(1, 2))
    j = np.arange(n)
    h[:, 2 * j, 2 * j + 1] = complex(0.0, 0.5)
    # not -0.5j, whose real part is -0.0: the eigensolver reads a zero's sign
    h[:, 2 * j + 1, 2 * j] = complex(0.0, -0.5)
    defects = np.full(k, math.inf)
    eigs = np.linalg.eigvalsh(h if finite.all() else h[finite])
    defects[finite] = np.maximum(0.0, -eigs.min(axis=-1))
    return defects
