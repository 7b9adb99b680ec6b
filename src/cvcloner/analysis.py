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

``clone_report`` reads every clone of a machine at once from the clone rows
S_r of the quadrature matrix S, never forming the full output state: every
input is coherent or vacuum, with covariance I/2, so the clones' 2x2 blocks
are the diagonal blocks of (S_r / 2) S_r^T and their means are S_r times the
input means.  Those blocks and means, and the transform's clone rows, go
through the same array helpers that the single-clone functions here call
with one row, so each formula and each gate exists once.  The gates fail
closed: a NaN variance or amplitude is refused, never passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .circuits import AsymSpec, ClonerSpec, CloningMachine, SymSpec, build_cloner
from .gaussian import (
    BogoliubovTransform,
    GaussianState,
    ModeLabel,
    apply_to_gaussian,
    coherent_means,
    coherent_vacuum_input,
    mode_index,
    require_symplectic,
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
    phase_covariance_defect: float
    symplectic_dev: float      # the machine's, from the check that cleared its transform


def _where(names: list[str] | None, i: int) -> str:
    return f"{names[i]}: " if names else ""


def _chaotic_photons(b_rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """|B row|^2 of each row: the noise an output row adds when every
    non-signal input is vacuum."""
    return np.sum(b_rows ** 2, axis=-1)


def _isotropic_photons(blocks: NDArray[np.float64],
                       names: list[str] | None = None) -> NDArray[np.float64]:
    """Chaotic photons (var(x) + var(p))/2 - 1/2 of stacked 2x2 covariances.

    Fails closed, NaN included, unless each block has equal x and p variances
    and no cross correlation within ISOTROPY_TOL.
    """
    vxx, vxp, vpp = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    isotropic = (np.abs(vxx - vpp) <= ISOTROPY_TOL) & (np.abs(vxp) <= ISOTROPY_TOL)
    if not isotropic.all():
        i = int(np.argmin(isotropic))
        raise ValueError(
            f"{_where(names, i)}covariance is not isotropic: "
            f"var(x)={vxx[i]}, var(p)={vpp[i]}, cov(x,p)={vxp[i]}"
        )
    return (vxx + vpp) / 2.0 - 0.5


def _state_photons(state: GaussianState) -> NDArray[np.float64]:
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    return _isotropic_photons(state.cov[None])


def _amplitudes(means: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Coherent amplitudes (x + i p)/sqrt(2) of stacked single-mode means."""
    xp = means / np.sqrt(2.0)
    return xp[:, 0] + 1j * xp[:, 1]


def _fidelities(amps: NDArray[np.complex128], xi: complex, n: NDArray[np.float64],
                names: list[str] | None = None) -> NDArray[np.float64]:
    """1/(n + 1) per clone, refused (NaN included) unless each clone kept xi
    at unit gain within GAIN_TOL."""
    unit_gain = np.abs(amps - xi) <= GAIN_TOL * max(1.0, abs(xi))
    if not unit_gain.all():
        i = int(np.argmin(unit_gain))
        raise ValueError(
            f"{_where(names, i)}clone amplitude {complex(amps[i])} does not match "
            f"the target {xi}: non-unit gain"
        )
    return 1.0 / (n + 1.0)


def _husimi(amps: NDArray[np.complex128], n: NDArray[np.float64],
            alpha: complex) -> NDArray[np.float64]:
    """Q(alpha) = exp(-|alpha - xi|^2 / (n + 1)) / ((n + 1) pi) per clone."""
    return np.exp(-np.abs(alpha - amps) ** 2 / (n + 1.0)) / ((n + 1.0) * math.pi)


def _phase_covariance_defects(t: BogoliubovTransform, rows: list[int],
                              signal_cols: list[int]) -> NDArray[np.float64]:
    """sum_k A[row, k] B[row, k] over the non-signal columns k, per row."""
    vacuum_a = t.A[rows]
    vacuum_a[:, signal_cols] = 0.0
    return np.einsum("ij,ij->i", vacuum_a, t.B[rows])


def chaotic_photons(t: BogoliubovTransform, mode: int | ModeLabel) -> float:
    """Added chaotic photons on an output mode, read off the transform.

    With vacuum on every non-signal input, the noise an output row adds is
    the squared norm of its a-dagger coefficients.
    """
    return float(_chaotic_photons(t.B[[mode_index(mode, t.n_modes)]])[0])


def chaotic_photons_from_state(state: GaussianState) -> float:
    """Added chaotic photons of a single-mode clone, read off its covariance.

    Requires the noise to be phase insensitive: equal x and p variances and
    no cross correlation, within ISOTROPY_TOL.
    """
    return float(_state_photons(state)[0])


def noise_product(t: BogoliubovTransform) -> float:
    """Product of the chaotic photon numbers on the clone modes 0 and 2.

    For the asymmetric 1->2 machine this sits exactly at the 1/4 floor set
    by the no-cloning bound, for every noise split gamma.
    """
    return chaotic_photons(t, 0) * chaotic_photons(t, 2)


def phase_covariance_defect(
    t: BogoliubovTransform,
    clone_mode: int | ModeLabel,
    signal_modes: tuple[int | ModeLabel, ...],
) -> float:
    """How far a clone's added noise is from phase insensitive.

    The noise operator on a clone row is sum_k (A_k a_k + B_k a_k^dag) over
    the vacuum inputs k, excluding the signal modes.  Its <(delta a)^2>
    moment is sum_k A_k B_k; any nonzero value means squeezed
    (phase-sensitive) noise, which would make the clone quality depend on
    the phase of the input.
    """
    return float(_phase_covariance_defects(
        t, [mode_index(clone_mode, t.n_modes)],
        [mode_index(m, t.n_modes) for m in signal_modes])[0])


def q_function(state: GaussianState, alpha: complex) -> float:
    """Husimi Q of a single-mode displaced thermal state at point alpha.

        Q(alpha) = exp(-|alpha - xi|^2 / (n + 1)) / ((n + 1) pi)

    where xi is the state's amplitude and n its chaotic photon number.
    Raises if the covariance is not isotropic, since the closed form only
    holds for phase-insensitive noise.
    """
    n = _state_photons(state)
    return float(_husimi(_amplitudes(state.mean[None]), n, complex(alpha))[0])


def fidelity_coherent(state: GaussianState, xi: complex) -> float:
    """Overlap of a single-mode clone with the ideal coherent state |xi>.

    Only defined when the clone kept the signal at unit gain; a mismatched
    amplitude is an error, not a lower fidelity, because these machines are
    supposed to be gain-preserving by construction.
    """
    n = _state_photons(state)
    return float(_fidelities(_amplitudes(state.mean[None]), complex(xi), n)[0])


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
    """Full multimode Gaussian state leaving the machine for input amplitude xi."""
    state_in = coherent_vacuum_input(machine.input_amplitudes(xi))
    return apply_to_gaussian(machine.transform, state_in)


def clone_report(machine: ClonerSpec | CloningMachine,
                 xi: complex = 1.0 + 0.0j) -> list[CloneReport]:
    """Run a cloner on |xi> inputs and report every clone's quality figures.

    Takes a spec, or a machine already built from one so that a caller who
    needs the machine too builds it only once.  The transform must pass
    ``check_symplectic``, as in ``clone_output_state``.  All clones are read
    at once from the clone rows of the quadrature matrix and of (A, B).
    """
    if not isinstance(machine, CloningMachine):
        machine = build_cloner(machine)
    xi = complex(xi)
    t = machine.transform
    check = require_symplectic(t)
    n, n_clones = t.n_modes, len(machine.clone_modes)
    rows = [m.index for m in machine.clone_modes]
    names = [m.name for m in machine.clone_modes]
    s_rows = t.symplectic_matrix().reshape(n, 2, 2 * n)[rows].reshape(2 * n_clones, 2 * n)
    # one product over all clone rows: the diagonal 2x2 blocks of
    # S_r (I/2) S_r^T, rounded exactly as the full S (I/2) S^T rounds them
    cov = (0.5 * s_rows) @ s_rows.T
    clones = np.arange(n_clones)
    blocks = cov.reshape(n_clones, 2, n_clones, 2)[clones, :, clones, :]
    means = s_rows @ coherent_means(machine.input_amplitudes(xi))
    amps = _amplitudes(means.reshape(n_clones, 2))
    n_state = _isotropic_photons(blocks, names)
    columns = zip(
        machine.clone_modes,
        _chaotic_photons(t.B[rows]).tolist(),
        n_state.tolist(),
        expected_chaotic_photons(machine.spec),
        _fidelities(amps, xi, n_state, names).tolist(),
        expected_fidelities(machine.spec),
        _husimi(amps, n_state, xi).tolist(),
        _phase_covariance_defects(t, rows, [m.index for m in machine.signal_modes]).tolist(),
        strict=True,
    )
    return [
        CloneReport(
            clone_mode=mode,
            signal_amplitude=xi,
            n_chaotic=n_rows,
            n_chaotic_state=n_cov,
            n_chaotic_formula=n_form,
            fidelity=fidelity,
            fidelity_formula=f_form,
            q_peak=q_peak,
            phase_covariance_defect=defect,
            symplectic_dev=check.max_dev,
        )
        for mode, n_rows, n_cov, n_form, fidelity, f_form, q_peak, defect in columns
    ]
