"""Clone quality figures: added noise, fidelity, Q function, covariance checks.

Every clone leaving one of these machines is a displaced thermal state: the
input amplitude survives with unit gain and the only degradation is n_ch
chaotic photons of isotropic added noise.  The overlap with the ideal
coherent state is then

    F = 1 / (n_ch + 1) = pi * Q(xi),

with Q the Husimi function of the clone evaluated at the target amplitude.
The functions here compute n_ch by two independent routes (the B block of
the transform, and the reduced output covariance) and F by three (1/(n+1)
from either n_ch route, and the Q-function peak), so agreement between them
is a real consistency check rather than one formula printed twice.

``clone_reports`` reads every clone of a list of built machines from the
clone rows of the two quadrature maps X = A + B (on x) and P = A - B (on
p), never forming the quadrature matrix S or the full output state.  Every
input is coherent or vacuum, with covariance I/2, and a real transform keeps
x and p apart, so clone j's 2x2 block is diag(|X_j|^2 / 2, |P_j|^2 / 2),
with a cross term of exactly zero, and its means are X_j and P_j times the
input x and p means.  The machines share one layout (register size, clone
and signal modes) and are read as one (k, M, n) stack of their clone rows
of (A, B): those variances and means go through array helpers that take
any leading axes, so each formula and each gate runs once per stack, not
once per machine, and each machine in a stack reads bit for bit what it
reads alone.  One read serves several amplitudes (``_reports_at``): the
variances, n_ch and phase defects do not depend on xi and are computed
once, and each amplitude's means, gain gate and Q are computed as a read
at that amplitude alone computes them, so every report is bit for bit the
same.  ``clone_reports`` is that read at one amplitude, ``clone_report`` is
``clone_reports`` on one machine, and a ``CloneReport`` carries every
figure a caller reads: there is no single-row reader beside it.  The gates
fail closed: a NaN variance or amplitude is refused, never passed, and the
refusal names the clone.
``clone_output_state`` is the independent full-state route, S (I/2) S^T,
for the suites that need every mode.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .circuits import AsymSpec, ClonerSpec, CloningMachine, SymSpec, build_cloner
from .gaussian import GaussianState, ModeLabel, coherent_means

ISOTROPY_TOL = 1e-8
GAIN_TOL = 1e-8


@dataclass(frozen=True)
class CloneReport:
    """Quality figures for one clone, numeric routes next to closed forms."""

    clone_mode: ModeLabel
    n_chaotic: float           # |B row|^2 of the transform
    n_chaotic_state: float     # from the clone's output covariance
    n_chaotic_formula: float   # closed form for this machine
    fidelity: float            # 1 / (n_chaotic_state + 1)
    fidelity_formula: float    # closed form for this machine
    q_peak: float              # Q(xi) of the reduced clone state; pi*q_peak = fidelity
    phase_covariance_defect: float


def _chaotic_photons(b_rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """|B row|^2 of each row: the noise an output row adds when every
    non-signal input is vacuum."""
    return np.sum(b_rows ** 2, axis=-1)


def _photons(vxx: NDArray[np.float64], vpp: NDArray[np.float64], names: list[str],
             vxp: NDArray[np.float64] | float = 0.0) -> NDArray[np.float64]:
    """Chaotic photons (var(x) + var(p))/2 - 1/2 per clone, over any leading
    axes, with clone j's name at names[j] along the last axis.

    Fails closed, NaN included, unless each clone has equal x and p variances
    and no cross term within ISOTROPY_TOL; a real transform's clones have no
    cross term, so it defaults to 0.
    """
    isotropic = (np.abs(vxx - vpp) <= ISOTROPY_TOL) & (np.abs(vxp) <= ISOTROPY_TOL)
    if not isotropic.all():
        i = np.unravel_index(np.argmin(isotropic), isotropic.shape)
        raise ValueError(
            f"{names[i[-1]]}: covariance is not isotropic: "
            f"var(x)={vxx[i]}, var(p)={vpp[i]}, cov(x,p)={np.broadcast_to(vxp, vxx.shape)[i]}"
        )
    return (vxx + vpp) / 2.0 - 0.5


def _amplitudes(x_means: NDArray[np.float64],
                p_means: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Coherent amplitudes (x + i p)/sqrt(2) of single-mode quadrature means."""
    root2 = math.sqrt(2.0)
    return x_means / root2 + 1j * (p_means / root2)


def _fidelities(amps: NDArray[np.complex128], xi: complex, n: NDArray[np.float64],
                names: list[str]) -> NDArray[np.float64]:
    """1/(n + 1) per clone, refused (NaN included) unless each clone kept xi
    at unit gain within GAIN_TOL: these machines preserve gain by
    construction, so a gain error is a fault, not a lower fidelity.  Leading
    axes and names as in ``_photons``."""
    unit_gain = np.abs(amps - xi) <= GAIN_TOL * max(1.0, abs(xi))
    if not unit_gain.all():
        i = np.unravel_index(np.argmin(unit_gain), unit_gain.shape)
        raise ValueError(
            f"{names[i[-1]]}: clone amplitude {complex(amps[i])} does not match "
            f"the target {xi}: non-unit gain"
        )
    return 1.0 / (n + 1.0)


def _husimi(amps: NDArray[np.complex128], n: NDArray[np.float64],
            alpha: complex) -> NDArray[np.float64]:
    """Q(alpha) = exp(-|alpha - xi|^2 / (n + 1)) / ((n + 1) pi) per clone."""
    return np.exp(-np.abs(alpha - amps) ** 2 / (n + 1.0)) / ((n + 1.0) * math.pi)


def _phase_covariance_defects(a_rows: NDArray[np.float64], b_rows: NDArray[np.float64],
                              signal_cols: list[int]) -> NDArray[np.float64]:
    """sum_k A[row, k] B[row, k] over the non-signal columns k, per row, over
    any leading axes.

    That sum is the <(delta a)^2> moment of the noise a row adds from its
    vacuum inputs; any nonzero value means squeezed (phase-sensitive) noise,
    which would make the clone quality depend on the phase of the input.
    The rows are gathered copies: the signal columns of a_rows are zeroed in
    place.
    """
    a_rows[..., signal_cols] = 0.0
    return np.einsum("...j,...j->...", a_rows, b_rows)


def expected_chaotic_photons(spec: ClonerSpec) -> tuple[float, ...]:
    """Closed-form added noise per clone, in clone order."""
    if isinstance(spec, AsymSpec):
        return (math.exp(2.0 * spec.gamma) / 2.0, math.exp(-2.0 * spec.gamma) / 2.0)
    if isinstance(spec, SymSpec):
        n_ch = (spec.m - spec.n) / (spec.m * spec.n)
        return (n_ch,) * spec.m
    raise TypeError(f"unknown cloner spec: {spec!r}")


def expected_fidelities(spec: ClonerSpec) -> tuple[float, ...]:
    """Closed-form clone fidelity per clone, in clone order."""
    if isinstance(spec, AsymSpec):
        return (
            2.0 / (math.exp(2.0 * spec.gamma) + 2.0),
            2.0 / (math.exp(-2.0 * spec.gamma) + 2.0),
        )
    if isinstance(spec, SymSpec):
        f = (spec.m * spec.n) / (spec.m * spec.n + spec.m - spec.n)
        return (f,) * spec.m
    raise TypeError(f"unknown cloner spec: {spec!r}")


def clone_output_state(machine: CloningMachine, xi: complex) -> GaussianState:
    """Full multimode Gaussian state leaving the machine for input amplitude xi.

    mean -> S mean and cov -> S (I/2) S^T = (S/2) S^T, one gemm, with no
    check: the machine's transform was checked when the machine was built.
    (S/2) S^T is bit for bit the two-product S (I/2) S^T; 0.5 (S S^T) is
    not, since numpy hands S S^T to a symmetric rank-k update.
    """
    mean = coherent_means(machine.input_amplitudes(xi))
    S = machine.transform.symplectic_matrix()
    return GaussianState(mean=S @ mean, cov=(0.5 * S) @ S.T)


def _layout(machine: CloningMachine) -> tuple:
    return machine.n_modes, machine.clone_modes, machine.signal_modes


def clone_reports(machines: Iterable[CloningMachine],
                  xi: complex = 1.0 + 0.0j) -> list[list[CloneReport]]:
    """Every clone's quality figures for each of some built machines of one
    layout (register size, clone and signal modes), in order.

    The machines are read as one stack: their clone rows of A and B are
    gathered, never their whole transforms, and each formula and gate runs
    once over the stack.  A list that mixes layouts is refused.  This is
    ``_reports_at`` at one amplitude.
    """
    return _reports_at(machines, (xi,))[0]


def _reports_at(machines: Iterable[CloningMachine],
                xis: Sequence[complex]) -> list[list[list[CloneReport]]]:
    """``clone_reports`` of the machines at each amplitude of xis, in order,
    from one read of their clone rows.

    The variances, n_ch and phase defects do not depend on the amplitude,
    so they are computed once; each amplitude's means are the same
    ``quad @ means`` products ``clone_reports`` takes at that amplitude
    alone, and the gain gate and Q run once per amplitude, in order.  So
    every report is bit for bit the one-amplitude read, and a refusal names
    the clone that the first refusing amplitude read alone would name.
    """
    machines = list(machines)
    xis = [complex(xi) for xi in xis]
    if not machines:
        return [[] for _ in xis]
    first = machines[0]
    layout = _layout(first)
    if any(_layout(m) != layout for m in machines):
        raise ValueError("clone_reports takes machines of one layout: "
                         "one register size, clone modes and signal modes")
    rows = np.array([m.index for m in first.clone_modes])
    names = [m.name for m in first.clone_modes]
    a = np.empty((len(machines), rows.size, first.n_modes))
    b = np.empty_like(a)
    for k, machine in enumerate(machines):  # one gathered temporary at a time
        a[k] = machine.transform.A[rows]
        b[k] = machine.transform.B[rows]
    b_photons = _chaotic_photons(b)  # its b**2 is freed before X's buffer exists
    means = [coherent_means(first.input_amplitudes(xi)) for xi in xis]
    # one buffer holds the clone rows of X, then those of P
    quad = np.add(a, b)
    var_x = 0.5 * np.einsum("...j,...j->...", quad, quad)
    mean_x = [quad @ mean[0::2] for mean in means]
    np.subtract(a, b, out=quad)
    var_p = 0.5 * np.einsum("...j,...j->...", quad, quad)
    mean_p = [quad @ mean[1::2] for mean in means]
    n_state = _photons(var_x, var_p, names)
    amplitude_free = [(n_rows, n_cov, expected_chaotic_photons(machine.spec),
              expected_fidelities(machine.spec), defect)
             for machine, n_rows, n_cov, defect in zip(
                 machines, b_photons.tolist(), n_state.tolist(),
                 _phase_covariance_defects(a, b, [m.index for m in first.signal_modes]).tolist(),
                 strict=True)]
    per_xi = []
    for xi, x_means, p_means in zip(xis, mean_x, mean_p, strict=True):
        amps = _amplitudes(x_means, p_means)
        per_machine = zip(amplitude_free, _fidelities(amps, xi, n_state, names).tolist(),
                          _husimi(amps, n_state, xi).tolist(), strict=True)
        # each zip yields a clone's figures in CloneReport's field order
        per_xi.append([
            [CloneReport(*fields) for fields in zip(
                first.clone_modes, n_rows, n_cov, n_form, fidelity, f_form, q_peak, defect,
                strict=True)]
            for (n_rows, n_cov, n_form, f_form, defect), fidelity, q_peak in per_machine
        ])
    return per_xi


def clone_report(machine: ClonerSpec | CloningMachine,
                 xi: complex = 1.0 + 0.0j) -> list[CloneReport]:
    """Run a cloner on |xi> inputs and report every clone's quality figures.

    Takes a spec, or a machine already built from one so that a caller who
    needs the machine too builds it only once.  Building a machine checked
    its transform, so none is checked here.  The machine is read by
    ``clone_reports`` as a stack of one: all clones at once from the clone
    rows of (A, B) and of X = A + B and P = A - B, clone j's variances being
    |X_j|^2/2 and |P_j|^2/2 and its means X_j x_in and P_j p_in.
    """
    if not isinstance(machine, CloningMachine):
        machine = build_cloner(machine)
    return clone_reports([machine], xi)[0]
