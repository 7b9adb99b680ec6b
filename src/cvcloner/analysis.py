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

``read_clones`` reads every clone of a list of built machines from the
clone rows of the two quadrature maps X = A + B (on x) and P = A - B (on
p); the package forms no full output state.  Every input is coherent or
vacuum, with covariance I/2, and a real transform keeps x and p apart, so
clone j's 2x2 block is diag(|X_j|^2 / 2, |P_j|^2 / 2), with a cross term
of exactly zero, and its means are X_j and P_j times the input x and p
means.  The machines share one layout (register size, clone
and signal modes) and are read as one (k, M, n) stack of their clone rows
of (A, B), at every amplitude of a list at once: the variances, n_ch and
phase defects do not depend on the amplitude and are computed once, the
input means of all X amplitudes are one array per quadrature, so the output
means are one stacked product per quadrature, and the gain gate and Q run
once over (X, k, M).  Each figure is bit for bit what a read of that
machine alone at that amplitude alone gives.  The read returns a
``Readout`` of arrays, each clone's amplitude among them, which the
verification suites compare as they are.
The gates fail closed: a NaN variance or amplitude is refused, never
passed, and the refusal names the clone; a ``Readout`` carries the
refusal and marks the refused machines.  ``clone`` and ``sweep`` print
from those arrays.  ``clone_reports`` is that read at one amplitude,
raising its refusal, as lists of ``CloneReport`` objects, one per clone;
``clone_report`` is ``clone_reports`` on one machine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .circuits import AsymSpec, ClonerSpec, CloningMachine, SymSpec, build_cloner

ISOTROPY_TOL = 1e-8
GAIN_TOL = 1e-8


@dataclass(frozen=True)
class CloneReport:
    """Quality figures for one clone, numeric routes next to closed forms.

    A machine's reports come in its clone order: report j is the clone on
    the machine's clone_modes[j].
    """

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


def _isotropy(vxx: NDArray[np.float64], vpp: NDArray[np.float64], names: list[str],
              vxp: NDArray[np.float64] | float = 0.0) -> tuple[NDArray[np.bool_], str | None]:
    """Whether each clone has equal x and p variances and no cross term
    within ISOTROPY_TOL (False for NaN), over any leading axes, with clone
    j's name at names[j] along the last axis; and the refusal that names the
    first clone without it, or None.  A real transform's clones have no
    cross term, so it defaults to 0."""
    isotropic = (np.abs(vxx - vpp) <= ISOTROPY_TOL) & (np.abs(vxp) <= ISOTROPY_TOL)
    if isotropic.all():
        return isotropic, None
    i = np.unravel_index(np.argmin(isotropic), isotropic.shape)
    return isotropic, (
        f"{names[i[-1]]}: covariance is not isotropic: "
        f"var(x)={vxx[i]}, var(p)={vpp[i]}, cov(x,p)={np.broadcast_to(vxp, vxx.shape)[i]}"
    )


def _amplitudes(x_means: NDArray[np.float64],
                p_means: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Coherent amplitudes (x + i p)/sqrt(2) of single-mode quadrature means."""
    root2 = math.sqrt(2.0)
    return x_means / root2 + 1j * (p_means / root2)


def _unit_gain(amps: NDArray[np.complex128], xis: Sequence[complex],
               names: list[str]) -> tuple[NDArray[np.bool_], str | None]:
    """Whether each clone kept its target at unit gain within
    GAIN_TOL * max(1, |xi|) (False for NaN), for amps of shape (X, ..., M)
    read at xis[x] along the first axis, with names as in ``_isotropy``; and
    the refusal that names the first such clone of the first amplitude that
    has one, or None.  These machines preserve gain by construction, so a
    gain error is a fault, not a lower fidelity."""
    shape = (len(xis),) + (1,) * (amps.ndim - 1)
    tol = np.array([GAIN_TOL * max(1.0, abs(xi)) for xi in xis]).reshape(shape)
    unit_gain = np.abs(amps - np.array(xis).reshape(shape)) <= tol
    if unit_gain.all():
        return unit_gain, None
    i = np.unravel_index(np.argmin(unit_gain), unit_gain.shape)
    return unit_gain, (
        f"{names[i[-1]]}: clone amplitude {complex(amps[i])} does not match "
        f"the target {xis[i[0]]}: non-unit gain"
    )


def _husimi(amps: NDArray[np.complex128], n: NDArray[np.float64],
            alpha: complex | NDArray[np.complex128]) -> NDArray[np.float64]:
    """Q(alpha) = exp(-|alpha - xi|^2 / (n + 1)) / ((n + 1) pi) per clone,
    with alpha one amplitude or an array that broadcasts against amps."""
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


def _layout(machine: CloningMachine) -> tuple:
    return machine.n_modes, machine.clone_modes, machine.signal_modes


@dataclass(frozen=True)
class Readout:
    """Every clone's figures for k machines of one layout read at X
    amplitudes, as arrays: clone j of machine i is [i, j] of a figure that
    does not depend on the amplitude, and [x, i, j] of one read at xis[x].

    The fields carry ``CloneReport``'s figures under its names, and
    ``amplitude``, each clone's coherent amplitude (x + i p)/sqrt(2) of its
    means, which the gain gate compares with xis[x].  ``refused``
    marks each machine that a gate refuses at some amplitude, and
    ``refusal`` is what the read raises when one is, or None: the isotropy
    gate's refusal before the gain gate's, each naming the clone that the
    first refusing amplitude read alone would name.  A refused machine's
    figures are computed all the same, and they are not to be trusted.
    """

    n_chaotic: NDArray[np.float64]                # (k, M)
    n_chaotic_state: NDArray[np.float64]          # (k, M)
    n_chaotic_formula: NDArray[np.float64]        # (k, M)
    fidelity_formula: NDArray[np.float64]         # (k, M)
    phase_covariance_defect: NDArray[np.float64]  # (k, M)
    fidelity: NDArray[np.float64]                 # (X, k, M)
    q_peak: NDArray[np.float64]                   # (X, k, M)
    amplitude: NDArray[np.complex128]             # (X, k, M)
    refused: NDArray[np.bool_]                    # (k,)
    refusal: str | None


def read_clones(machines: Sequence[CloningMachine], xis: Sequence[complex]) -> Readout:
    """Every clone of some built machines of one layout (register size,
    clone and signal modes) at each amplitude of xis, as one ``Readout``.

    The machines are read as one (k, M, n) stack of their clone rows of
    (A, B), never their whole transforms.  The variances, n_ch and phase
    defects do not depend on the amplitude and are computed once.  The
    input means of every amplitude are one (X, n, 1) array per quadrature,
    so each quadrature's output means are one stacked product whose every
    (x, i) core is the matrix-vector product a read at xis[x] alone takes
    (one matrix product over the amplitudes would round differently); the
    gain gate and Q then run once over (X, k, M).  So each figure is bit
    for bit the one a read of that machine alone, at that amplitude alone,
    gives.  An empty list, or one that mixes layouts, is refused.
    """
    xis = [complex(xi) for xi in xis]
    if not machines:
        raise ValueError("read_clones needs at least one machine")
    first = machines[0]
    layout = _layout(first)
    if any(_layout(m) != layout for m in machines):
        raise ValueError("read_clones takes machines of one layout: "
                         "one register size, clone modes and signal modes")
    rows = np.array([m.index for m in first.clone_modes])
    names = [m.name for m in first.clone_modes]
    # each machine's clone rows, then one stack of them
    a = np.array([machine.transform.A.take(rows, axis=0) for machine in machines])
    b = np.array([machine.transform.B.take(rows, axis=0) for machine in machines])
    b_photons = _chaotic_photons(b)  # its b**2 is freed before X's buffer exists
    # the input means of every amplitude, x means then p means: sqrt(2) Re xi
    # and sqrt(2) Im xi on each signal input, 0 on every other
    targets = np.array(xis, dtype=complex)
    means = np.zeros((2, len(xis), first.n_modes, 1))
    signal = [m.index for m in first.signal_modes]
    means[:, :, signal] = (np.sqrt(2.0) * targets.view(float).reshape(-1, 2).T)[..., None, None]
    # one buffer holds the clone rows of X, then those of P
    quad = np.add(a, b)
    var_x = 0.5 * np.einsum("...j,...j->...", quad, quad)
    mean_x = (quad @ means[0][:, None])[..., 0]
    np.subtract(a, b, out=quad)
    var_p = 0.5 * np.einsum("...j,...j->...", quad, quad)
    mean_p = (quad @ means[1][:, None])[..., 0]
    amps = _amplitudes(mean_x, mean_p)
    isotropic, refusal = _isotropy(var_x, var_p, names)
    unit_gain, gain_refusal = _unit_gain(amps, xis, names)
    n_state = (var_x + var_p) / 2.0 - 0.5
    fidelity = np.empty(amps.shape)  # 1/(n + 1) at every amplitude
    np.divide(1.0, n_state + 1.0, out=fidelity)
    if refusal is None and gain_refusal is None:
        refused = np.zeros(len(machines), dtype=bool)
    else:
        refused = ~(isotropic.all(axis=-1) & unit_gain.all(axis=(0, -1)))
    return Readout(
        n_chaotic=b_photons,
        n_chaotic_state=n_state,
        n_chaotic_formula=np.array([expected_chaotic_photons(m.spec) for m in machines]),
        fidelity_formula=np.array([expected_fidelities(m.spec) for m in machines]),
        phase_covariance_defect=_phase_covariance_defects(a, b, signal),
        fidelity=fidelity,
        q_peak=_husimi(amps, n_state, targets[:, None, None]),
        amplitude=amps,
        refused=refused,
        refusal=gain_refusal if refusal is None else refusal,
    )


def clone_reports(machines: Iterable[CloningMachine],
                  xi: complex = 1.0 + 0.0j) -> list[list[CloneReport]]:
    """Every clone's quality figures for each of some built machines of one
    layout (register size, clone and signal modes), in order.

    The machines are read as one stack by ``read_clones`` at xi, which
    raises its refusal, if any, before a ``CloneReport`` is built.  A list
    that mixes layouts is refused.
    """
    machines = list(machines)
    if not machines:
        return []
    read = read_clones(machines, (xi,))
    if read.refusal is not None:
        raise ValueError(read.refusal)
    # each zip yields a clone's figures in CloneReport's field order
    return [
        [CloneReport(*fields) for fields in zip(
            n_rows, n_cov, n_form, fidelity, f_form, q_peak, defect, strict=True)]
        for n_rows, n_cov, n_form, fidelity, f_form, q_peak, defect in zip(
            read.n_chaotic.tolist(), read.n_chaotic_state.tolist(),
            read.n_chaotic_formula.tolist(), read.fidelity[0].tolist(),
            read.fidelity_formula.tolist(), read.q_peak[0].tolist(),
            read.phase_covariance_defect.tolist(), strict=True)
    ]


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
