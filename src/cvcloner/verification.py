"""Named verification suites behind `cvcloner verify`.

Each suite exercises one falsifiable claim about the machines (closed-form
fidelities, noise-product saturation, factorization equivalence, and so on),
measures the worst deviation it can find, and compares that against a
tolerance; a NaN deviation reads as inf and fails.  The suites are plain
functions of the machines or arrays of clone figures they read, returning
SuiteResult, so they run under pytest, from the CLI, or interactively with
identical semantics.

Every machine the suites read is built and checked once per process, in one
cache, ``_shared``: each asymmetric form as one ``build_cloners`` stack over
GAMMA_GRID and the shared gammas off it, each SYM_CASES machine alone.
``standard_suites`` is the one place that chooses what each suite reads.
It reads the shared machines' clones once per layout for every amplitude
they are read at (the asymmetric ones as one stack, each symmetric one
alone, each at XI_PROBES, Q_PROBE and GAIN_PROBE), and the direct grid
machines at xi = 1 as one stack: 8 ``analysis.read_clones`` passes per
``verify``, whose arrays the readout suites compare as they are, with no
``CloneReport`` built.  No suite forms a machine's full output state:
unit_signal_gain reads the clone amplitudes the readout computes at
GAIN_PROBE, and uncertainty_preservation reads each shared machine's output
covariance from its x and p blocks (``gaussian.uncertainty_defect``).  A
read fails closed: a shared machine whose read is refused has every clone
figure NaN, so every suite that reads it fails with an infinite deviation,
and ``verify`` still prints every suite.

The oracle_agreement suite is the expensive one (truncated Fock evolution);
it is opt-in from the CLI and covers only the 1->2 machine, which is the
scope limit of the Fock module.  Its rungs read the registers the Fock
module keeps for the process, but every rung evolves its own probes and
every figure it reports is computed afresh; a rung reads each of its
twelve clone fidelities by one contraction, with no density matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.typing import NDArray

from .analysis import Readout, expected_fidelities, read_clones
from .circuits import AsymSpec, CloningMachine, SymSpec, asym_params, build_cloner, build_cloners
from .fock import (
    FockSpace,
    TruncationError,
    apply_cloning_fock_block,
    coherent_fock,
    fidelities_fock,
)
from .gaussian import uncertainty_defect, worst_dev

GAMMA_GRID = tuple(np.linspace(-1.0, 1.0, 41))
SYM_CASES = ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4), (1, 5))
XI_PROBES = (0j, 1 + 0j, 2j, -1.5 + 0.5j, 3 - 2j)
Q_PROBE = 0.7 - 0.2j  # the amplitude the shared machines' Q and phase suites read
GAIN_PROBE = 1.1 - 0.6j  # the amplitude unit_signal_gain reads the shared machines' clones at

Machines = Sequence[CloningMachine]
Pairs = Sequence[tuple[CloningMachine, CloningMachine]]  # (direct, factorized)
Figures = NDArray[np.float64]  # one figure of every clone read, on the last axis


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_dev: float
    tolerance: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tolerance  # False for a NaN deviation


@functools.cache
def _shared() -> tuple[Pairs, Machines, Machines]:
    """(grid, asym, sym): the (direct, factorized) machine at each GAMMA_GRID
    point, both forms at each shared gamma, and the SYM_CASES machines.

    Each asymmetric form is one stack over the grid and the shared gammas
    not on it, so a shared machine on the grid is the grid's own.  Sharing
    is safe: a machine is frozen and its transform's arrays are read-only.
    """
    shared = (-1.0, -0.5, 0.0, 0.3, 1.0)
    gammas = [*GAMMA_GRID, *(g for g in shared if g not in GAMMA_GRID)]
    built = {machine.spec: machine for f in (False, True)
             for machine in build_cloners([AsymSpec(g, factorized=f) for g in gammas])}
    grid = tuple((built[AsymSpec(g)], built[AsymSpec(g, factorized=True)]) for g in GAMMA_GRID)
    asym = tuple(built[AsymSpec(g, factorized=f)] for g in shared for f in (False, True))
    return grid, asym, tuple(build_cloner(SymSpec(n, m)) for n, m in SYM_CASES)


def _read(machines: Machines, xis: Sequence[complex]) -> Readout:
    """The machines' ``read_clones`` at xis, failing closed: every figure of
    a machine whose read is refused is NaN, so it reads as an infinite
    deviation in every suite that reads it."""
    read = read_clones(machines, xis)
    if not read.refused.any():
        return read
    refused = read.refused[:, None]  # broadcasts over each machine's clones
    return replace(read, **{f.name: np.where(refused, np.nan, getattr(read, f.name))
                            for f in fields(Readout) if f.name not in ("refused", "refusal")})


def _clones(reads: Sequence[Readout], figure: str) -> Figures:
    """One figure of every clone of some reads, clone by clone on the last
    axis, with a figure read per amplitude keeping its amplitude axis."""
    arrays = [getattr(read, figure) for read in reads]
    return np.concatenate([a.reshape(*a.shape[:-2], -1) for a in arrays], axis=-1)


def symplectic_invariants(machines: Machines) -> SuiteResult:
    """Every constructed transform satisfies the Bogoliubov conditions."""
    worst = worst_dev(np.array([machine.symplectic_dev for machine in machines]))
    return SuiteResult("symplectic_invariants", worst, 1e-10)


def factorization_equivalence(grid: Pairs) -> SuiteResult:
    """BS/NOPA/BS assembly matches the closed-form machine elementwise."""
    u0 = abs(asym_params(0.0).u)
    devs = [u0]
    if grid:
        # (pair, direct A and B then factorized A and B, n, n): one stack
        blocks = np.array([(d.transform.A, d.transform.B, f.transform.A, f.transform.B)
                           for d, f in grid])
        devs.append(worst_dev(np.abs(blocks[:, :2] - blocks[:, 2:])))
    return SuiteResult("factorization_equivalence", worst_dev(devs), 1e-9,
                       details={"u_at_gamma_zero": u0})


def fidelity_closed_forms(fidelity: Figures, formula: Figures) -> SuiteResult:
    """Pipeline fidelities reproduce the closed forms for every machine."""
    return SuiteResult("fidelity_closed_forms", worst_dev(np.abs(fidelity - formula)), 1e-10)


def chaotic_photon_forms(n_chaotic: Figures, formula: Figures) -> SuiteResult:
    """B-row photon counts reproduce the closed forms for every machine."""
    return SuiteResult("chaotic_photon_forms", worst_dev(np.abs(n_chaotic - formula)), 1e-10)


def noise_product_saturation(n_chaotic: Figures) -> SuiteResult:
    """The asymmetric family sits exactly on the 1/4 noise-product floor.

    Reads the B-row photon counts of 1->2 machines, one (clone 1, clone 2)
    row per machine, whose product is 1/4 for every noise split gamma.
    """
    worst = worst_dev(np.abs(n_chaotic[:, 0] * n_chaotic[:, 1] - 0.25))
    return SuiteResult("noise_product_saturation", worst, 1e-12)


def q_function_identity(q_peak: Figures, fidelity: Figures) -> SuiteResult:
    """pi * Q(xi) equals the fidelity for every clone of every machine."""
    return SuiteResult("q_function_identity", worst_dev(np.abs(np.pi * q_peak - fidelity)), 1e-10)


def fidelity_invariance(fidelity: Figures) -> SuiteResult:
    """Fidelity does not depend on the input amplitude.

    Reads every clone's fidelity at each XI_PROBES amplitude, one row per
    amplitude.  This comparison cannot fail: the readout computes each
    fidelity as 1/(n + 1) of the clone's variances, which do not depend on
    the amplitude, so every row is the same array, a broken machine's
    included.  Only a refused read, whose figures are NaN, fails it.
    """
    worst = worst_dev(fidelity.max(axis=0) - fidelity.min(axis=0))
    return SuiteResult("fidelity_invariance", worst, 1e-10)


def phase_covariance(defect: Figures) -> SuiteResult:
    """Added noise on every clone is phase insensitive."""
    return SuiteResult("phase_covariance", worst_dev(np.abs(defect)), 1e-10)


def uncertainty_preservation(machines: Machines) -> SuiteResult:
    """Output states of every machine remain physical Gaussian states.

    Reads each machine's output covariance for coherent inputs, from the x
    and p blocks of its transform; it does not depend on the amplitude.
    """
    worst = worst_dev([uncertainty_defect(machine.transform) for machine in machines])
    return SuiteResult("uncertainty_preservation", worst, 1e-10)


def unit_signal_gain(amplitude: NDArray[np.complex128]) -> SuiteResult:
    """Every clone keeps the input amplitude exactly.

    Reads every clone's amplitude at GAIN_PROBE, as the readout computes it
    for its gain gate, which passes a clone up to GAIN_TOL * |xi|; here the
    deviation |amplitude - xi| must stay within 1e-12.
    """
    return SuiteResult("unit_signal_gain", worst_dev(np.abs(amplitude - GAIN_PROBE)), 1e-12)


def _oracle_dev(cutoff: int) -> float:
    """Worst fidelity gap between the Fock oracle at one cutoff and the closed forms."""
    space = FockSpace(3, cutoff)
    probes = [(g, xi) for g in (-0.5, 0.0, 0.5) for xi in (0.0, 0.3)]
    states = {xi: coherent_fock(space, [0.0, 0.0, xi]) for xi in (0.0, 0.3)}  # frozen, shared
    outs = apply_cloning_fock_block([(g, states[xi]) for g, xi in probes])
    # clone a is mode 0 and clone c mode 2, in expected_fidelities' order
    fidelities = fidelities_fock([(out, mode, xi) for (_, xi), out in zip(probes, outs, strict=True)
                                  for mode in (0, 2)])
    forms = [form for g, _ in probes for form in expected_fidelities(AsymSpec(g))]
    return worst_dev(abs(f - form) for f, form in zip(fidelities, forms, strict=True))


def oracle_agreement(tol: float | None = None, *, cutoffs: tuple[int, ...]) -> SuiteResult:
    """Truncated-Fock fidelities converge to the Gaussian-pipeline values.

    Runs the 1->2 machine at gamma in {-0.5, 0, 0.5} and xi in {0, 0.3} for
    each cutoff.  Passes when the finest cutoff agrees within tolerance and
    the deviation shrinks as the cutoff grows.  A cutoff too small for the
    evolution (a TruncationError) reads as an infinite deviation and fails
    the suite.  An empty ladder is refused: it would pass having run nothing.
    """
    if not cutoffs:
        raise ValueError("oracle_agreement needs at least one cutoff")
    tol = 5e-3 if tol is None else tol
    per_cutoff: dict[str, float] = {}
    for cutoff in cutoffs:
        try:
            per_cutoff[f"cutoff_{cutoff}"] = _oracle_dev(cutoff)
        except TruncationError:
            per_cutoff[f"cutoff_{cutoff}"] = math.inf
    devs = list(per_cutoff.values())
    monotone_break = worst_dev(devs[i + 1] - devs[i] for i in range(len(devs) - 1))
    final = devs[-1]
    # a truncated rung, or a monotonicity violation, fails even if the final point fits
    if math.inf in devs:
        reported = math.inf
    elif monotone_break > 0:
        reported = worst_dev((final, tol * 2))
    else:
        reported = final
    per_cutoff["monotone_break"] = max(0.0, monotone_break)
    return SuiteResult("oracle_agreement", reported, tol, details=per_cutoff)


def standard_suites(tol: float | None = None) -> list[SuiteResult]:
    """The fast suites, in reporting order (everything except the oracle).

    A given tol replaces every suite's own tolerance; no suite's deviation
    depends on it.  The closed-form suites read the direct machine at each
    GAMMA_GRID point, as one stack, and the SYM_CASES machines, at xi = 1;
    fidelity_invariance reads every shared machine at each XI_PROBES
    amplitude, 1 included, the Q and phase suites read them at Q_PROBE, and
    unit_signal_gain reads their clone amplitudes at GAIN_PROBE.
    """
    grid, asym, sym = _shared()
    shared = asym + sym
    # one read of the asymmetric stack and one of each symmetric machine, at
    # every amplitude; the XI_PROBES rows first, then Q_PROBE's, then GAIN_PROBE's
    xis = (*XI_PROBES, Q_PROBE, GAIN_PROBE)
    reads = [_read(asym, xis)] + [_read([machine], xis) for machine in sym]
    on_grid = _read([direct for direct, _ in grid], (1,))
    one, probe, gain = XI_PROBES.index(1), len(XI_PROBES), len(XI_PROBES) + 1
    at_one = [on_grid] + reads[1:]  # the grid is read at 1 alone, the rest at XI_PROBES[one]
    fidelity = _clones(reads, "fidelity")
    suites = [
        symplectic_invariants([machine for pair in grid for machine in pair] + list(shared)),
        factorization_equivalence(grid),
        fidelity_closed_forms(
            np.concatenate([_clones([on_grid], "fidelity")[0],
                            _clones(reads[1:], "fidelity")[one]]),
            _clones(at_one, "fidelity_formula")),
        chaotic_photon_forms(_clones(at_one, "n_chaotic"), _clones(at_one, "n_chaotic_formula")),
        noise_product_saturation(on_grid.n_chaotic),
        q_function_identity(_clones(reads, "q_peak")[probe], fidelity[probe]),
        fidelity_invariance(fidelity[:probe]),
        phase_covariance(_clones(reads, "phase_covariance_defect")),
        uncertainty_preservation(shared),
        unit_signal_gain(np.concatenate([read.amplitude[gain].ravel() for read in reads])),
    ]
    return suites if tol is None else [replace(result, tolerance=tol) for result in suites]
