"""Named verification suites behind `cvcloner verify`.

Each suite exercises one falsifiable claim about the machines (closed-form
fidelities, noise-product saturation, factorization equivalence, and so on),
measures the worst deviation it can find, and compares that against a
tolerance; a NaN deviation reads as inf and fails.  The suites are plain
functions of the machine stacks or arrays of clone figures they read,
returning SuiteResult, so they run under pytest, from the CLI, or
interactively with identical semantics.

Every machine the suites read is built and checked once per process, in one
cache, ``_shared``, and kept as the ``MachineStack``s it was built as: each
asymmetric form is one ``build_cloners`` stack over GAMMA_GRID and the
shared gammas off it, whose arrays give the direct and factorized grid
stacks and the stack of the ten shared asymmetric machines, and each
SYM_CASES machine is a stack of one.  ``standard_suites`` is the one place
that chooses what each suite reads, and every suite reads the stacks'
arrays: symplectic_invariants their checks, factorization_equivalence the
grid stacks' A and B blocks, and the readout suites the arrays of
``analysis.read_clones``, with no object made per machine or per clone.
It reads the shared stacks' clones once per stack for every amplitude they
are read at (XI_PROBES, Q_PROBE and GAIN_PROBE), and the direct grid stack
at xi = 1: 8 ``read_clones`` passes per ``verify``, whose arrays the
readout suites compare as they are.  No suite forms a machine's full
output state: unit_signal_gain reads the clone amplitudes the readout
computes at GAIN_PROBE, and uncertainty_preservation reads each shared
machine's output covariance from its x and p blocks, one
``gaussian.uncertainty_defect`` call per stack.  A read fails closed: a
shared machine whose read is refused has every clone figure NaN, so every
suite that reads it fails with an infinite deviation, and ``verify`` still
prints every suite.

The oracle_agreement suite is the expensive one (truncated Fock evolution);
it is opt-in from the CLI and covers only the 1->2 machine, which is the
scope limit of the Fock module.  Its rungs read the registers, flows and
coherent columns the Fock module keeps for the process, but every rung
evolves its own probes and every figure it reports is computed afresh; a
rung reads each of its twelve clone fidelities by one contraction, with no
density matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .analysis import Readout, expected_fidelities, read_clones
from .circuits import AsymSpec, MachineStack, SymSpec, asym_params, build_cloners, join_stacks
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


class _Shared(NamedTuple):
    """The machines the suites read, as the stacks they were built as."""

    direct: MachineStack            # the direct machine at each GAMMA_GRID point
    factorized: MachineStack        # the factorized machine at each GAMMA_GRID point
    asym: MachineStack              # the direct then the factorized machine at each shared gamma
    sym: tuple[MachineStack, ...]   # each SYM_CASES machine, a stack of one


@functools.cache
def _shared() -> _Shared:
    """The stacks the suites read, built and checked once per process.

    Each asymmetric form is one build over the grid and the shared gammas
    not on it, so a shared machine on the grid is the grid's own; the grid
    and shared stacks take their registers' arrays from those builds.
    Sharing is safe: every array of a stack is read-only.
    """
    shared = (-1.0, -0.5, 0.0, 0.3, 1.0)
    gammas = [*GAMMA_GRID, *(g for g in shared if g not in GAMMA_GRID)]
    direct, factorized = (build_cloners([AsymSpec(g, factorized=f) for g in gammas])
                          for f in (False, True))
    grid, at = range(len(GAMMA_GRID)), [gammas.index(g) for g in shared]
    return _Shared(direct.take(grid), factorized.take(grid),
                   join_stacks([direct.take(at), factorized.take(at)]),
                   tuple(build_cloners([SymSpec(n, m)]) for n, m in SYM_CASES))


def _read(stack: MachineStack, xis: Sequence[complex]) -> Readout:
    """The stack's ``read_clones`` at xis, failing closed: every figure of
    a machine whose read is refused is NaN, so it reads as an infinite
    deviation in every suite that reads it."""
    read = read_clones(stack, xis)
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


def symplectic_invariants(stacks: Sequence[MachineStack]) -> SuiteResult:
    """Every constructed transform satisfies the Bogoliubov conditions.

    Reads the check each stack's build measured for each register.
    """
    worst = worst_dev(np.concatenate([stack.symplectic_dev for stack in stacks]))
    return SuiteResult("symplectic_invariants", worst, 1e-10)


def factorization_equivalence(direct: MachineStack, factorized: MachineStack) -> SuiteResult:
    """BS/NOPA/BS assembly matches the closed-form machine elementwise.

    Compares the two stacks' A and B blocks, register by register.
    """
    u0 = abs(asym_params(0.0)[0])
    devs = [u0, worst_dev(np.abs(direct.A - factorized.A)),
            worst_dev(np.abs(direct.B - factorized.B))]
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


def uncertainty_preservation(stacks: Sequence[MachineStack]) -> SuiteResult:
    """Output states of every machine remain physical Gaussian states.

    Reads each machine's output covariance for coherent inputs, from the x
    and p blocks of its transform; it does not depend on the amplitude.
    Each stack's machines are read by one ``uncertainty_defect`` call.
    """
    worst = worst_dev(np.concatenate([uncertainty_defect(stack.A, stack.B) for stack in stacks]))
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
    stacks = _shared()
    direct, factorized, shared = stacks.direct, stacks.factorized, [stacks.asym, *stacks.sym]
    # one read of the asymmetric stack and one of each symmetric machine, at
    # every amplitude; the XI_PROBES rows first, then Q_PROBE's, then GAIN_PROBE's
    xis = (*XI_PROBES, Q_PROBE, GAIN_PROBE)
    reads = [_read(stack, xis) for stack in shared]
    on_grid = _read(direct, (1,))
    one, probe, gain = XI_PROBES.index(1), len(XI_PROBES), len(XI_PROBES) + 1
    at_one = [on_grid] + reads[1:]  # the grid is read at 1 alone, the rest at XI_PROBES[one]
    fidelity = _clones(reads, "fidelity")
    suites = [
        symplectic_invariants([direct, factorized, *shared]),
        factorization_equivalence(direct, factorized),
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
