"""Independent references the tests compare the package against.

The package builds every transform by ``fold_stack``, checks it with one
product X P^T (one batched product over a stack) and reads every clone
from the clone rows of X = A + B and P = A - B; these are the dense,
two-row, four-product and single-mode routes that those results are
checked against, kept here because only tests need them.  A transform
here is a plain ``Transform``, the (A, B) pair of one register.  The Fock
oracle reads each clone by one contraction against its coherent target and
forms no density matrix; ``reduced_density_matrix`` is the partial trace
that reading is checked against.
``build_per_point`` builds one machine as the package built every machine
before it built a run of them as one stack: each transform folded (here by
the two-row fold) or written out, and checked by one product, on its own,
returned as a ``MachineStack`` of one.  The one-row readers take a
``Transform``, where the package reads a stack's clones through
``read_clones``; they call the same array helpers with one row.
``row_norm_report`` reads one register's clones with those helpers,
gathering that register's clone rows alone, as the package read them
before it read a stack of machines at once; ``clone_figures`` lays out a
read's arrays the same way, one tuple of FIGURES per clone, for the two to
be compared.  ``physics_violations`` is the CLI's invariant gate as it ran
before it compared arrays: one clone at a time.  ``unchecked`` and
``faulty`` make a stack of one from doctored arrays, past the build's
check, for the tests of what a refused read does.

The full-state route lives here too.  The package never forms the 2n x 2n
quadrature matrix S or a machine's full output state: its readout reads the
clone rows of X and P, and ``gaussian.uncertainty_defect`` writes the
output covariance from the n x n blocks (X/2) X^T and (P/2) P^T.
``clone_output_state`` is the route those are checked against: the mean
S mean_in and the covariance S (I/2) S^T of a ``GaussianState``, from
which ``reduce_mode`` takes one clone and ``state_uncertainty_defect`` reads
how far the whole state is from physical.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cvcloner.analysis import (
    _amplitudes,
    _chaotic_photons,
    _husimi,
    _isotropy,
    _phase_covariance_defects,
    _unit_gain,
    expected_chaotic_photons,
    expected_fidelities,
)
from cvcloner.circuits import AsymSpec, MachineStack, SymSpec
from cvcloner.elements import beam_splitter_block, collect_gates, distribute_gates
from cvcloner.fock import FockState
from cvcloner.gaussian import (
    NOPA,
    ModeLabel,
    Passive,
    checked_stack,
    fold_stack,
    mode_index,
    worst_dev,
)

# a read's figures of one clone, in the order the reference readers give them
FIGURES = ("n_chaotic", "n_chaotic_state", "n_chaotic_formula", "fidelity",
           "fidelity_formula", "q_peak", "phase_covariance_defect")


class Transform(NamedTuple):
    """One register's (A, B): a_out = A a + B a^dag."""

    A: np.ndarray
    B: np.ndarray


def as_transform(rows: np.ndarray) -> Transform:
    """The (A, B) of one register's ``fold_stack`` rows, as views."""
    return Transform(rows[:, 0], rows[:, 1])


def register(stack: MachineStack, i: int = 0) -> Transform:
    """Register i of a stack, as views of its read-only arrays."""
    return Transform(stack.A[i], stack.B[i])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Interleaved symplectic form Omega, [r_j, r_k] = i Omega_jk."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_matrix(t: Transform) -> np.ndarray:
    """Real 2n x 2n quadrature matrix S with r_out = S r_in.

    With real (A, B), x' = (A+B) x and p' = (A-B) p: the xxpp blocks
    [[A+B, 0], [0, A-B]] are written straight into the interleaved
    convention, where x rows and columns are the even indices and p the odd
    ones.
    """
    n = len(t.A)
    S = np.zeros((2 * n, 2 * n))
    S[0::2, 0::2] = t.A + t.B
    S[1::2, 1::2] = t.A - t.B
    return S


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of n modes: quadrature mean vector and covariance
    matrix, refused unless the covariance is symmetric."""

    mean: np.ndarray
    cov: np.ndarray

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
        mean.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def mode_amplitude(self, mode: int | ModeLabel) -> complex:
        """Coherent amplitude (x + i p)/sqrt(2) carried by one mode's mean."""
        k = mode_index(mode, self.n_modes)
        return complex(self.mean[2 * k] + 1j * self.mean[2 * k + 1]) / np.sqrt(2.0)


def coherent_means(amplitudes: list[complex] | tuple[complex, ...]) -> np.ndarray:
    """Interleaved quadrature means (sqrt(2) Re xi, sqrt(2) Im xi) per mode."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise ValueError(f"need one amplitude per mode and at least one mode, got {amplitudes!r}")
    mean = np.empty(2 * amps.size)
    mean[0::2] = np.sqrt(2.0) * amps.real
    mean[1::2] = np.sqrt(2.0) * amps.imag
    return mean


def input_amplitudes(stack: MachineStack, xi: complex) -> list[complex]:
    """Coherent amplitude per mode of a stack's registers: xi on every
    signal input, vacuum elsewhere."""
    amps = [0j] * stack.n_modes
    for m in stack.signal_modes:
        amps[m.index] = complex(xi)
    return amps


def clone_output_state(stack: MachineStack, xi: complex, i: int = 0) -> GaussianState:
    """Full multimode Gaussian state leaving register i of a stack for input
    amplitude xi.

    mean -> S mean and cov -> S (I/2) S^T = (S/2) S^T, one gemm, with no
    check: the stack was checked when it was built.  (S/2) S^T is bit for
    bit the two-product S (I/2) S^T; 0.5 (S S^T) is not, since numpy hands
    S S^T to a symmetric rank-k update.
    """
    mean = coherent_means(input_amplitudes(stack, xi))
    S = symplectic_matrix(register(stack, i))
    return GaussianState(mean=S @ mean, cov=(0.5 * S) @ S.T)


def state_uncertainty_defect(s: GaussianState) -> float:
    """How far cov + (i/2) Omega is from positive semidefinite (0 if valid),
    as max(0, -lambda_min); a covariance with a NaN or infinite entry
    returns inf."""
    if not np.isfinite(s.cov).all():
        return math.inf
    eigs = np.linalg.eigvalsh(s.cov + 0.5j * symplectic_form(s.n_modes))
    return float(max(0.0, -eigs.min()))


def beam_splitter_gate(theta: float, p: int, q: int) -> Passive:
    """Beam splitter of mixing angle theta on the ordered pair (p, q), as a gate."""
    return Passive(beam_splitter_block(theta), p, q)


def check_one_transform(t: Transform) -> tuple[float, float]:
    """The check on one transform, with no stack axis: the one product
    G = X P^T, then max|(G + G^T)/2 - I| and max|(G - G^T)/2|, as
    (commutation_dev, symmetry_dev)."""
    with np.errstate(invalid="ignore"):
        X, P = t.A + t.B, t.A - t.B
        G = X @ P.T
        sym, antisym = G + G.T, G - G.T
        sym[np.diag_indices(len(t.A))] -= 2.0
        commutation = 0.5 * np.abs(sym).max()
        symmetry = 0.5 * np.abs(antisym).max()
    return float(commutation), float(symmetry)


def asym_params_one(gamma: float) -> tuple[float, float, float]:
    """``asym_params`` at one gamma, every step on one scalar."""
    s = np.exp(2.0 * gamma)
    w = math.atan(s)
    u = -math.atan(math.sqrt(2.0) * math.sinh(gamma))
    root = math.sqrt(1.0 + s * s)
    v = 0.5 * math.log((1.0 + s + root) ** 2 / (2.0 * s))
    return u, v, w


def asym_direct_one(gamma: float) -> Transform:
    """The closed-form asymmetric 1->2 machine at one gamma, written out."""
    ep = np.exp(gamma) / np.sqrt(2.0)
    em = np.exp(-gamma) / np.sqrt(2.0)
    A = np.array([
        [ep, 0.0, 1.0],
        [0.0, np.sqrt(2.0) * np.cosh(gamma), 0.0],
        [-em, 0.0, 1.0],
    ])
    B = np.array([
        [0.0, -ep, 0.0],
        [-np.sqrt(2.0) * np.sinh(gamma), 0.0, -1.0],
        [0.0, -em, 0.0],
    ])
    return Transform(A, B)


def build_per_point(spec) -> MachineStack:
    """One machine, folded or written out and checked on its own, as a
    stack of one; it refuses nothing, so that a failing transform's
    deviation can be read."""
    if isinstance(spec, AsymSpec):
        angles = asym_params_one(spec.gamma)
        u, v, w = angles
        if spec.factorized:
            t = fold_two_rows((beam_splitter_gate(u, 0, 2), NOPA(v, 2, 1),
                               beam_splitter_gate(w, 0, 2)), 3)
        else:
            t = asym_direct_one(spec.gamma)
        signals = (ModeLabel(2, "in"),)
        clones = (ModeLabel(0, "clone_1"), ModeLabel(2, "clone_2"))
    elif isinstance(spec, SymSpec):
        angles = None
        N, M = spec.n, spec.m
        clone_wires = [0, *range(N + 1, N + M)]
        gates = (collect_gates(N) + (NOPA(math.acosh(math.sqrt(M / N)), 0, N),)
                 + distribute_gates(M, clone_wires))
        t = fold_two_rows(gates, N + M)
        signals = tuple(ModeLabel(k, f"in_{k + 1}") for k in range(N))
        clones = tuple(ModeLabel(w, f"clone_{j + 1}") for j, w in enumerate(clone_wires))
    else:
        raise TypeError(f"unknown cloner spec: {spec!r}")
    return MachineStack([spec], t.A[None], t.B[None],
                        np.array([worst_dev(check_one_transform(t))]),
                        None if angles is None else np.array([angles]), signals, clones)


def compose(second: Transform, first: Transform) -> Transform:
    """Transform equivalent to applying `first` and then `second`.

    Substituting first's input-output relations into second's gives
    A = A2 A1 + B2 B1 and B = A2 B1 + B2 A1.
    """
    if len(second.A) != len(first.A):
        raise ValueError(
            f"mode count mismatch: {len(second.A)} vs {len(first.A)}"
        )
    A2, B2 = second.A, second.B
    A1, B1 = first.A, first.B
    return Transform(A2 @ A1 + B2 @ B1, A2 @ B1 + B2 @ A1)


def embed(
    t: Transform,
    targets: list[int | ModeLabel] | tuple[int | ModeLabel, ...],
    total: int,
) -> Transform:
    """Place `t` on the listed modes of a `total`-mode register, identity elsewhere."""
    idx = [mode_index(m, total) for m in targets]
    if len(idx) != len(t.A):
        raise ValueError(f"expected {len(t.A)} target modes, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate target modes: {idx}")
    A = np.eye(total)
    B = np.zeros((total, total))
    A[np.ix_(idx, idx)] = t.A
    B[np.ix_(idx, idx)] = t.B
    return Transform(A, B)


def fold_two_rows(gates, n_modes: int) -> Transform:
    """One register's ``fold_stack`` with every gate read as a two-row
    update: rows p and q of (A, B) are both read, whether or not a wire is
    still untouched.  A gate is a Passive or a NOPA, or a ``fold_stack``
    tuple (block, p, q) or (r, p, q)."""
    rows = np.zeros((n_modes, 2, n_modes))  # rows[j] = (A[j], B[j])
    rows[:, 0] = np.eye(n_modes)
    for gate in gates:
        if isinstance(gate, tuple):
            coef, p, q = gate
        else:
            coef, p, q = (gate.block if isinstance(gate, Passive) else gate.r), gate.p, gate.q
        xp, xq = rows[p].copy(), rows[q].copy()
        if isinstance(coef, tuple):
            (a, b), (c, d) = coef
            rows[p] = a * xp + b * xq
            rows[q] = c * xp + d * xq
        else:
            # xq[::-1] is (B_q, A_q): the a^dag rows a NOPA feeds across the pair
            ch, sh = np.cosh(coef), np.sinh(coef)
            rows[p] = ch * xp - sh * xq[::-1]
            rows[q] = ch * xq - sh * xp[::-1]
    return as_transform(rows)


def check_symplectic_four_products(t: Transform) -> tuple[float, float]:
    """The two Bogoliubov conditions as written, from four n x n products:
    max|A A^T - B B^T - I| and max|A B^T - B A^T|, as (commutation_dev,
    symmetry_dev)."""
    A, B = t.A, t.B
    commutation = np.abs(A @ A.T - B @ B.T - np.eye(len(A))).max()
    symmetry = np.abs(A @ B.T - B @ A.T).max()
    return float(commutation), float(symmetry)


def reduce_mode(s: GaussianState, mode: int | ModeLabel) -> GaussianState:
    """Single-mode marginal: the mode's two means and its 2x2 covariance block."""
    k = 2 * mode_index(mode, s.n_modes)
    return GaussianState(mean=s.mean[k:k + 2], cov=s.cov[k:k + 2, k:k + 2])


def _mode_rows(state: FockState, mode: int | ModeLabel) -> np.ndarray:
    """Amplitudes as a (levels, rest) matrix whose row index is one mode's photon number."""
    space = state.space
    m = mode_index(mode, space.n_modes)
    d = space.levels
    psi = np.asarray(state.amplitudes).reshape((d,) * space.n_modes)
    return np.moveaxis(psi, m, 0).reshape(d, -1)


def mode_expectation(state: FockState, mode: int | ModeLabel) -> complex:
    """<a_mode> in the current state, for Heisenberg-picture cross-checks.

    Sum over k of sqrt(k) conj(psi[k-1]) psi[k] along the mode's axis.
    """
    psi = _mode_rows(state, mode)
    root_k = np.sqrt(np.arange(1, state.space.levels))
    return complex(np.vdot(psi[:-1], root_k[:, None] * psi[1:]))


def reduced_density_matrix(state: FockState, mode: int | ModeLabel) -> np.ndarray:
    """Density matrix of one mode, the rest traced out: the partial trace the
    oracle's readout (``fidelities_fock``) is checked against.  It is formed
    in the platform's long double, so that its own rounding (up to 5.6e-16
    in a fidelity read from it in float64) stays below the readout's."""
    psi = _mode_rows(state, mode).astype(np.clongdouble)
    return psi @ psi.conj().T


def apply_to_gaussian(t: Transform, s: GaussianState) -> GaussianState:
    """Evolve a Gaussian state: mean -> S mean, cov -> S cov S^T.

    Refuses a transform that the package's ``checked_stack`` refuses.
    """
    if len(t.A) != s.n_modes:
        raise ValueError(f"mode count mismatch: transform {len(t.A)}, state {s.n_modes}")
    checked_stack(np.stack((t.A, t.B), axis=1))
    S = symplectic_matrix(t)
    return GaussianState(mean=S @ s.mean, cov=S @ s.cov @ S.T)


def chaotic_photons(t: Transform, mode: int | ModeLabel) -> float:
    """Added chaotic photons on an output mode: the squared norm of its B row."""
    return float(_chaotic_photons(t.B[[mode_index(mode, len(t.A))]])[0])


def noise_product(t: Transform) -> float:
    """Product of the chaotic photon numbers on the 1->2 clone modes 0 and 2."""
    return chaotic_photons(t, 0) * chaotic_photons(t, 2)


def phase_covariance_defect(t: Transform, clone_mode: int | ModeLabel,
                            signal_modes: tuple[int | ModeLabel, ...]) -> float:
    """sum_k A_k B_k of a clone row over its non-signal inputs k: 0 when the
    noise the row adds is phase insensitive."""
    n = len(t.A)
    row = [mode_index(clone_mode, n)]
    return float(_phase_covariance_defects(
        t.A[row], t.B[row], [mode_index(m, n) for m in signal_modes])[0])


def coherent_vacuum_input(amplitudes: list[complex] | tuple[complex, ...]) -> GaussianState:
    """Product of coherent states (vacuum where the amplitude is zero)."""
    mean = coherent_means(amplitudes)
    return GaussianState(mean=mean, cov=0.5 * np.eye(mean.size))


def _photons(vxx: np.ndarray, vpp: np.ndarray, names: list[str],
             vxp: np.ndarray | float = 0.0) -> np.ndarray:
    """Chaotic photons (var(x) + var(p))/2 - 1/2 per clone, raising the
    package's isotropy refusal unless each clone is isotropic."""
    refusal = _isotropy(vxx, vpp, names, vxp)[1]
    if refusal is not None:
        raise ValueError(refusal)
    return (vxx + vpp) / 2.0 - 0.5


def _fidelities(amps: np.ndarray, xi: complex, n: np.ndarray, names: list[str]) -> np.ndarray:
    """1/(n + 1) per clone, raising the package's gain refusal unless each
    clone kept xi at unit gain."""
    refusal = _unit_gain(amps[None], (xi,), names)[1]
    if refusal is not None:
        raise ValueError(refusal)
    return 1.0 / (n + 1.0)


def _isotropic_photons(blocks: np.ndarray, names: list[str]) -> np.ndarray:
    """Chaotic photons (var(x) + var(p))/2 - 1/2 of stacked 2x2 covariances,
    refused by the package's isotropy gate unless each block is isotropic."""
    return _photons(blocks[:, 0, 0], blocks[:, 1, 1], names, blocks[:, 0, 1])


def row_norm_report(stack: MachineStack, xi: complex = 1.0 + 0.0j,
                    i: int = 0) -> list[tuple[float, ...]]:
    """Register i's clones read from its own clone rows of (A, B), X = A + B
    and P = A - B: clone j's variances |X_j|^2/2 and |P_j|^2/2, its means
    X_j x_in and P_j p_in; one tuple of FIGURES per clone."""
    xi = complex(xi)
    t, spec = register(stack, i), stack.specs[i]
    rows = [m.index for m in stack.clone_modes]
    names = [m.name for m in stack.clone_modes]
    a, b = t.A[rows], t.B[rows]
    b_photons = _chaotic_photons(b)
    means = coherent_means(input_amplitudes(stack, xi))
    quad = np.add(a, b)
    var_x, mean_x = 0.5 * np.einsum("ij,ij->i", quad, quad), quad @ means[0::2]
    np.subtract(a, b, out=quad)
    var_p, mean_p = 0.5 * np.einsum("ij,ij->i", quad, quad), quad @ means[1::2]
    amps = _amplitudes(mean_x, mean_p)
    n_state = _photons(var_x, var_p, names)
    return list(zip(
        b_photons.tolist(),
        n_state.tolist(),
        expected_chaotic_photons(spec),
        _fidelities(amps, xi, n_state, names).tolist(),
        expected_fidelities(spec),
        _husimi(amps, n_state, xi).tolist(),
        _phase_covariance_defects(a, b, [m.index for m in stack.signal_modes]).tolist(),
        strict=True,
    ))


def clone_figures(read, x: int = 0) -> list[list[tuple[float, ...]]]:
    """A read's figures at its amplitude x, machine by machine, as one tuple
    of FIGURES per clone, as ``row_norm_report`` gives them."""
    arrays = [getattr(read, name) for name in FIGURES]
    arrays = [(a[x] if a.ndim == 3 else a).tolist() for a in arrays]
    return [list(zip(*(a[i] for a in arrays), strict=True)) for i in range(len(arrays[0]))]


def physics_violations(stack: MachineStack, figures: list[tuple[float, ...]],
                       tol: float) -> list[str]:
    """The CLI's invariant gate over a stack of one and its clones' FIGURES,
    a clone at a time: its symplectic deviation, then each clone's
    F*(n+1) = 1, pi*Q(xi) = F, closed-form fidelity and phase-covariance
    checks, each in the form "not (dev <= tol)" so that NaN fails it."""
    problems = []
    dev = float(stack.symplectic_dev[0])
    if not dev <= tol:
        problems.append(f"symplectic deviation {dev:.3e} > {tol:.3e}")
    for mode, (_, n_state, _, fidelity, f_form, q_peak, defect) in zip(
            stack.clone_modes, figures, strict=True):
        if not abs(fidelity * (n_state + 1.0) - 1.0) <= tol:
            problems.append(f"{mode.name}: F*(n+1) != 1 beyond {tol:.3e}")
        if not abs(math.pi * q_peak - fidelity) <= tol:
            problems.append(f"{mode.name}: pi*Q(xi) != F beyond {tol:.3e}")
        if not abs(fidelity - f_form) <= tol:
            problems.append(
                f"{mode.name}: fidelity {fidelity!r} vs closed form "
                f"{f_form!r} beyond {tol:.3e}"
            )
        if not abs(defect) <= tol:
            problems.append(
                f"{mode.name}: phase covariance defect "
                f"{abs(defect):.3e} > {tol:.3e}"
            )
    return problems


def unchecked(stack: MachineStack, t: Transform, i: int = 0) -> MachineStack:
    """A stack of one: register i of a stack with another transform put in
    past the build's check, which it does not run again; it keeps the
    deviation the build measured.  The check refuses a NaN transform, so
    only this way does one reach the readout."""
    angles = None if stack.angles is None else stack.angles[i:i + 1]
    return MachineStack(stack.specs[i:i + 1], np.asarray(t.A)[None], np.asarray(t.B)[None],
                        stack.symplectic_dev[i:i + 1], angles,
                        stack.signal_modes, stack.clone_modes)


def faulty(stack: MachineStack, fault: str, i: int = 0) -> MachineStack:
    """A stack of one: register i of a stack with one clone broken, put in
    by ``unchecked``.  A pi beam splitter on the first or last clone's wire
    and wire 1, never a clone's, negates that clone (the machine stays
    symplectic, the gain is -1); a one-mode squeezer makes the first clone
    anisotropic; a NaN poisons the last clone's row of A."""
    t, n = register(stack, i), stack.n_modes
    first, last = stack.clone_modes[0].index, stack.clone_modes[-1].index
    if fault in ("gain_first", "gain_last"):
        wire = first if fault == "gain_first" else last
        pi = as_transform(fold_stack((beam_splitter_gate(math.pi, wire, 1),), n))
        return unchecked(stack, compose(pi, t), i)
    if fault == "squeezed_first":
        A, B = np.eye(n), np.zeros((n, n))
        A[first, first], B[first, first] = np.cosh(0.25), -np.sinh(0.25)
        return unchecked(stack, compose(Transform(A, B), t), i)
    A = t.A.copy()
    A[last, 1] = math.nan
    return unchecked(stack, Transform(A, t.B), i)
