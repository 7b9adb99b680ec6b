"""Independent references the tests compare the package against.

The package builds every transform by ``fold_stack``, checks it with one
product X P^T (one batched product over a stack) and reads every clone
from the clone rows of X = A + B and P = A - B; these are the dense,
two-row, four-product and single-mode routes that those results are
checked against, kept here because only tests need them.  The Fock
oracle reads each clone by one contraction against its coherent target and
forms no density matrix; ``reduced_density_matrix`` is the partial trace
that reading is checked against.
``build_per_point`` builds one machine as the package built every machine
before it built a run of them as one stack: each transform folded (here by
the two-row fold) or written out, and checked by one product, on its own.
The one-row readers take a bare transform, where the package reads a built
machine's clones through ``clone_reports``; they call the same array helpers
with one row.  ``row_norm_report`` reads one machine's clones with those
helpers, gathering that machine's clone rows alone, as the package read them
before it read a stack of machines at once.  ``faulty`` breaks one clone of a
built machine, for the tests of what a refused read does.

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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from cvcloner.analysis import (
    CloneReport,
    _amplitudes,
    _chaotic_photons,
    _husimi,
    _isotropy,
    _phase_covariance_defects,
    _unit_gain,
    expected_chaotic_photons,
    expected_fidelities,
)
from cvcloner.circuits import (
    AsymSpec,
    ClonerSpec,
    CloningMachine,
    FactorizationParams,
    SymSpec,
    asym_params,
)
from cvcloner.elements import beam_splitter_block, collect_gates, distribute_gates
from cvcloner.fock import FockState
from cvcloner.gaussian import (
    NOPA,
    BogoliubovTransform,
    ModeLabel,
    Passive,
    SymplecticCheck,
    fold_gates,
    mode_index,
    require_symplectic,
)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Interleaved symplectic form Omega, [r_j, r_k] = i Omega_jk."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_matrix(t: BogoliubovTransform) -> np.ndarray:
    """Real 2n x 2n quadrature matrix S with r_out = S r_in.

    With real (A, B), x' = (A+B) x and p' = (A-B) p: the xxpp blocks
    [[A+B, 0], [0, A-B]] are written straight into the interleaved
    convention, where x rows and columns are the even indices and p the odd
    ones.
    """
    S = np.zeros((2 * t.n_modes, 2 * t.n_modes))
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


def input_amplitudes(machine, xi: complex) -> list[complex]:
    """Coherent amplitude per mode of a machine: xi on every signal input,
    vacuum elsewhere."""
    amps = [0j] * machine.n_modes
    for m in machine.signal_modes:
        amps[m.index] = complex(xi)
    return amps


def clone_output_state(machine, xi: complex) -> GaussianState:
    """Full multimode Gaussian state leaving the machine for input amplitude xi.

    mean -> S mean and cov -> S (I/2) S^T = (S/2) S^T, one gemm, with no
    check: the machine's transform was checked when the machine was built.
    (S/2) S^T is bit for bit the two-product S (I/2) S^T; 0.5 (S S^T) is
    not, since numpy hands S S^T to a symmetric rank-k update.
    """
    mean = coherent_means(input_amplitudes(machine, xi))
    S = symplectic_matrix(machine.transform)
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


def check_one_transform(t: BogoliubovTransform) -> SymplecticCheck:
    """``check_symplectic`` on one transform, with no stack axis: the one
    product G = X P^T, then max|(G + G^T)/2 - I| and max|(G - G^T)/2|."""
    with np.errstate(invalid="ignore"):
        X, P = t.A + t.B, t.A - t.B
        G = X @ P.T
        sym, antisym = G + G.T, G - G.T
        sym[np.diag_indices(t.n_modes)] -= 2.0
        commutation = 0.5 * np.abs(sym).max()
        symmetry = 0.5 * np.abs(antisym).max()
    return SymplecticCheck(commutation_dev=float(commutation), symmetry_dev=float(symmetry))


def asym_direct_one(gamma: float) -> BogoliubovTransform:
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
    return BogoliubovTransform(A=A, B=B)


class PointMachine(NamedTuple):
    """A machine built on its own, with the figures a CloningMachine keeps."""

    spec: ClonerSpec
    transform: BogoliubovTransform
    symplectic_dev: float
    angles: FactorizationParams | None
    signal_modes: tuple[ModeLabel, ...]
    clone_modes: tuple[ModeLabel, ...]


def build_per_point(spec: ClonerSpec) -> PointMachine:
    """One machine, folded or written out and checked on its own; it refuses
    nothing, so that a failing transform's deviation can be read."""
    if isinstance(spec, AsymSpec):
        angles = asym_params(spec.gamma)
        if spec.factorized:
            t = fold_two_rows((beam_splitter_gate(angles.u, 0, 2), NOPA(angles.v, 2, 1),
                               beam_splitter_gate(angles.w, 0, 2)), 3)
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
    return PointMachine(spec, t, check_one_transform(t).max_dev, angles, signals, clones)


def compose(second: BogoliubovTransform, first: BogoliubovTransform) -> BogoliubovTransform:
    """Transform equivalent to applying `first` and then `second`.

    Substituting first's input-output relations into second's gives
    A = A2 A1 + B2 B1 and B = A2 B1 + B2 A1.
    """
    if second.n_modes != first.n_modes:
        raise ValueError(
            f"mode count mismatch: {second.n_modes} vs {first.n_modes}"
        )
    A2, B2 = second.A, second.B
    A1, B1 = first.A, first.B
    return BogoliubovTransform(
        A=A2 @ A1 + B2 @ B1,
        B=A2 @ B1 + B2 @ A1,
    )


def embed(
    t: BogoliubovTransform,
    targets: list[int | ModeLabel] | tuple[int | ModeLabel, ...],
    total: int,
) -> BogoliubovTransform:
    """Place `t` on the listed modes of a `total`-mode register, identity elsewhere."""
    idx = [mode_index(m, total) for m in targets]
    if len(idx) != t.n_modes:
        raise ValueError(f"expected {t.n_modes} target modes, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate target modes: {idx}")
    A = np.eye(total)
    B = np.zeros((total, total))
    A[np.ix_(idx, idx)] = t.A
    B[np.ix_(idx, idx)] = t.B
    return BogoliubovTransform(A=A, B=B)


def fold_two_rows(gates, n_modes: int) -> BogoliubovTransform:
    """``fold_gates`` with every gate read as a two-row update: rows p and q
    of (A, B) are both read, whether or not a wire is still untouched."""
    rows = np.zeros((n_modes, 2, n_modes))  # rows[j] = (A[j], B[j])
    rows[:, 0] = np.eye(n_modes)
    for gate in gates:
        p, q = gate.p, gate.q
        xp, xq = rows[p].copy(), rows[q].copy()
        if isinstance(gate, Passive):
            (a, b), (c, d) = gate.block
            rows[p] = a * xp + b * xq
            rows[q] = c * xp + d * xq
        else:
            # xq[::-1] is (B_q, A_q): the a^dag rows a NOPA feeds across the pair
            ch, sh = np.cosh(gate.r), np.sinh(gate.r)
            rows[p] = ch * xp - sh * xq[::-1]
            rows[q] = ch * xq - sh * xp[::-1]
    return BogoliubovTransform(A=rows[:, 0], B=rows[:, 1])


def check_symplectic_four_products(t: BogoliubovTransform) -> SymplecticCheck:
    """The two Bogoliubov conditions as written, from four n x n products:
    max|A A^T - B B^T - I| and max|A B^T - B A^T|."""
    A, B = t.A, t.B
    commutation = np.abs(A @ A.T - B @ B.T - np.eye(t.n_modes)).max()
    symmetry = np.abs(A @ B.T - B @ A.T).max()
    return SymplecticCheck(commutation_dev=float(commutation), symmetry_dev=float(symmetry))


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


def apply_to_gaussian(t: BogoliubovTransform, s: GaussianState) -> GaussianState:
    """Evolve a Gaussian state: mean -> S mean, cov -> S cov S^T.

    Refuses a transform that fails ``check_symplectic``.
    """
    if t.n_modes != s.n_modes:
        raise ValueError(f"mode count mismatch: transform {t.n_modes}, state {s.n_modes}")
    require_symplectic(t)
    S = symplectic_matrix(t)
    return GaussianState(mean=S @ s.mean, cov=S @ s.cov @ S.T)


def chaotic_photons(t: BogoliubovTransform, mode: int | ModeLabel) -> float:
    """Added chaotic photons on an output mode: the squared norm of its B row."""
    return float(_chaotic_photons(t.B[[mode_index(mode, t.n_modes)]])[0])


def noise_product(t: BogoliubovTransform) -> float:
    """Product of the chaotic photon numbers on the 1->2 clone modes 0 and 2."""
    return chaotic_photons(t, 0) * chaotic_photons(t, 2)


def phase_covariance_defect(t: BogoliubovTransform, clone_mode: int | ModeLabel,
                            signal_modes: tuple[int | ModeLabel, ...]) -> float:
    """sum_k A_k B_k of a clone row over its non-signal inputs k: 0 when the
    noise the row adds is phase insensitive."""
    row = [mode_index(clone_mode, t.n_modes)]
    return float(_phase_covariance_defects(
        t.A[row], t.B[row], [mode_index(m, t.n_modes) for m in signal_modes])[0])


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


def row_norm_report(machine: CloningMachine, xi: complex = 1.0 + 0.0j) -> list[CloneReport]:
    """One machine's clones read from its own clone rows of (A, B), X = A + B
    and P = A - B: clone j's variances |X_j|^2/2 and |P_j|^2/2, its means
    X_j x_in and P_j p_in."""
    xi = complex(xi)
    t = machine.transform
    rows = [m.index for m in machine.clone_modes]
    names = [m.name for m in machine.clone_modes]
    a, b = t.A[rows], t.B[rows]
    b_photons = _chaotic_photons(b)
    means = coherent_means(input_amplitudes(machine, xi))
    quad = np.add(a, b)
    var_x, mean_x = 0.5 * np.einsum("ij,ij->i", quad, quad), quad @ means[0::2]
    np.subtract(a, b, out=quad)
    var_p, mean_p = 0.5 * np.einsum("ij,ij->i", quad, quad), quad @ means[1::2]
    amps = _amplitudes(mean_x, mean_p)
    n_state = _photons(var_x, var_p, names)
    columns = zip(
        machine.clone_modes,
        b_photons.tolist(),
        n_state.tolist(),
        expected_chaotic_photons(machine.spec),
        _fidelities(amps, xi, n_state, names).tolist(),
        expected_fidelities(machine.spec),
        _husimi(amps, n_state, xi).tolist(),
        _phase_covariance_defects(a, b, [m.index for m in machine.signal_modes]).tolist(),
        strict=True,
    )
    return [
        CloneReport(
            clone_mode=mode,
            n_chaotic=n_rows,
            n_chaotic_state=n_cov,
            n_chaotic_formula=n_form,
            fidelity=fidelity,
            fidelity_formula=f_form,
            q_peak=q_peak,
            phase_covariance_defect=defect,
        )
        for mode, n_rows, n_cov, n_form, fidelity, f_form, q_peak, defect in columns
    ]


def unchecked(machine, transform):
    """The machine with another transform put in past the build's check: the
    check refuses a NaN transform, so only this way does one reach the readout."""
    doctored = replace(machine)
    object.__setattr__(doctored, "transform", transform)
    return doctored


def faulty(machine, fault):
    """The machine with one clone broken: a pi beam splitter on the first or
    last clone's wire and wire 1, never a clone's, negates that clone (the
    machine stays symplectic, the gain is -1); a one-mode squeezer makes the
    first clone anisotropic; a NaN poisons the last clone's row of A."""
    t, n = machine.transform, machine.n_modes
    first, last = machine.clone_modes[0].index, machine.clone_modes[-1].index
    if fault in ("gain_first", "gain_last"):
        wire = first if fault == "gain_first" else last
        pi = fold_gates((beam_splitter_gate(math.pi, wire, 1),), n)
        return replace(machine, transform=compose(pi, t))
    if fault == "squeezed_first":
        A, B = np.eye(n), np.zeros((n, n))
        A[first, first], B[first, first] = np.cosh(0.25), -np.sinh(0.25)
        return replace(machine, transform=compose(BogoliubovTransform(A=A, B=B), t))
    A = t.A.copy()
    A[last, 1] = math.nan
    return unchecked(machine, BogoliubovTransform(A=A, B=t.B))
