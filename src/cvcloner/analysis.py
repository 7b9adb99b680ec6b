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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import AsymSpec, ClonerSpec, CloningMachine, SymSpec, build_cloner
from .gaussian import (
    BogoliubovTransform,
    GaussianState,
    ModeLabel,
    SymplecticCheck,
    apply_to_gaussian,
    coherent_vacuum_input,
    mode_index,
    reduce_mode,
)

ISOTROPY_TOL = 1e-8
GAIN_TOL = 1e-8


@dataclass(frozen=True)
class CloneReport:
    """Quality figures for one clone, numeric routes next to closed forms."""

    clone_mode: ModeLabel
    signal_amplitude: complex
    n_chaotic: float           # |B row|^2 of the transform
    n_chaotic_state: float     # from the reduced output covariance
    n_chaotic_formula: float   # closed form for this machine
    fidelity: float            # 1 / (n_chaotic_state + 1)
    fidelity_formula: float    # closed form for this machine
    q_peak: float              # Q(xi) of the reduced clone state; pi*q_peak = fidelity
    phase_covariance_defect: complex
    symplectic_dev: float      # the machine's, from the check that cleared its transform


def chaotic_photons(t: BogoliubovTransform, mode: int | ModeLabel) -> float:
    """Added chaotic photons on an output mode, read off the transform.

    With vacuum on every non-signal input, the noise an output row adds is
    the squared norm of its a-dagger coefficients.
    """
    row = mode_index(mode)
    return float(np.sum(np.abs(t.B[row]) ** 2))


def chaotic_photons_from_state(state: GaussianState, *,
                               isotropy_tol: float = ISOTROPY_TOL) -> float:
    """Added chaotic photons of a single-mode clone, read off its covariance.

    Requires the noise to be phase insensitive: equal x and p variances and
    no cross correlation, within isotropy_tol.
    """
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    vxx, vxp, vpp = state.cov[0, 0], state.cov[0, 1], state.cov[1, 1]
    if abs(vxx - vpp) > isotropy_tol or abs(vxp) > isotropy_tol:
        raise ValueError(
            f"covariance is not isotropic: var(x)={vxx}, var(p)={vpp}, cov(x,p)={vxp}"
        )
    return float((vxx + vpp) / 2.0 - 0.5)


def noise_product(t: BogoliubovTransform,
                  clone_a: int | ModeLabel = 0,
                  clone_c: int | ModeLabel = 2) -> float:
    """Product of the chaotic photon numbers on two clone modes.

    For the asymmetric 1->2 machine this sits exactly at the 1/4 floor set
    by the no-cloning bound, for every noise split gamma.
    """
    return chaotic_photons(t, clone_a) * chaotic_photons(t, clone_c)


def phase_covariance_defect(
    t: BogoliubovTransform,
    clone_mode: int | ModeLabel,
    signal: int | ModeLabel | tuple[int | ModeLabel, ...],
) -> complex:
    """How far a clone's added noise is from phase insensitive.

    The noise operator on a clone row is sum_k (A_k a_k + B_k a_k^dag) over
    the vacuum inputs k, excluding the signal mode(s).  Its <(delta a)^2>
    moment is sum_k A_k B_k; any nonzero value means squeezed
    (phase-sensitive) noise, which would make the clone quality depend on
    the phase of the input.
    """
    row = mode_index(clone_mode)
    vacuum_a = t.A[row].copy()
    for m in signal if isinstance(signal, tuple) else (signal,):
        vacuum_a[mode_index(m)] = 0.0
    return complex(vacuum_a @ t.B[row])


def q_function(state: GaussianState, alpha: complex, *,
               isotropy_tol: float = ISOTROPY_TOL) -> float:
    """Husimi Q of a single-mode displaced thermal state at point alpha.

        Q(alpha) = exp(-|alpha - xi|^2 / (n + 1)) / ((n + 1) pi)

    where xi is the state's amplitude and n its chaotic photon number.
    Raises if the covariance is not isotropic, since the closed form only
    holds for phase-insensitive noise.
    """
    n = chaotic_photons_from_state(state, isotropy_tol=isotropy_tol)
    xi = state.mode_amplitude(0)
    return float(math.exp(-abs(complex(alpha) - xi) ** 2 / (n + 1.0)) / ((n + 1.0) * math.pi))


def fidelity_coherent(state: GaussianState, xi: complex, *,
                      gain_tol: float = GAIN_TOL) -> float:
    """Overlap of a single-mode clone with the ideal coherent state |xi>.

    Only defined when the clone kept the signal at unit gain; a mismatched
    amplitude is an error, not a lower fidelity, because these machines are
    supposed to be gain-preserving by construction.
    """
    amp = state.mode_amplitude(0)
    if abs(amp - complex(xi)) > gain_tol * max(1.0, abs(xi)):
        raise ValueError(
            f"clone amplitude {amp} does not match the target {xi}: non-unit gain"
        )
    n = chaotic_photons_from_state(state)
    return 1.0 / (n + 1.0)


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


def clone_output_state(
    machine: CloningMachine, xi: complex, *, return_check: bool = False,
) -> GaussianState | tuple[GaussianState, SymplecticCheck]:
    """Full multimode Gaussian state leaving the machine for input amplitude xi.

    With return_check, also the symplectic check that cleared the transform.
    """
    state_in = coherent_vacuum_input(machine.input_amplitudes(xi))
    return apply_to_gaussian(machine.transform, state_in, return_check=return_check)


def clone_report(machine: ClonerSpec | CloningMachine,
                 xi: complex = 1.0 + 0.0j) -> list[CloneReport]:
    """Run a cloner on |xi> inputs and report every clone's quality figures.

    Takes a spec, or a machine already built from one so that a caller who
    needs the machine too builds it only once.
    """
    if not isinstance(machine, CloningMachine):
        machine = build_cloner(machine)
    out, check = clone_output_state(machine, xi, return_check=True)
    n_forms = expected_chaotic_photons(machine.spec)
    f_forms = expected_fidelities(machine.spec)
    reports = []
    for mode, n_form, f_form in zip(machine.clone_modes, n_forms, f_forms, strict=True):
        reduced = reduce_mode(out, mode)
        n_state = chaotic_photons_from_state(reduced)
        reports.append(CloneReport(
            clone_mode=mode,
            signal_amplitude=complex(xi),
            n_chaotic=chaotic_photons(machine.transform, mode),
            n_chaotic_state=n_state,
            n_chaotic_formula=n_form,
            fidelity=fidelity_coherent(reduced, xi),
            fidelity_formula=f_form,
            q_peak=q_function(reduced, xi),
            phase_covariance_defect=phase_covariance_defect(
                machine.transform, mode, machine.signal_modes),
            symplectic_dev=check.max_dev,
        ))
    return reports
