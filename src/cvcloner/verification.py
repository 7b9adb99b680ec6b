"""Named verification suites behind `cvcloner verify`.

Each suite exercises one falsifiable claim about the machines (closed-form
fidelities, noise-product saturation, factorization equivalence, and so on),
measures the worst deviation it can find, and compares that against a
tolerance.  The suites are plain functions returning SuiteResult so they can
run under pytest, from the CLI, or interactively with identical semantics.
Every machine the suites read, the (direct, factorized) pair at each
GAMMA_GRID point included, is built and checked once per process and shared;
no suite checks a machine again.  ``standard_suites`` reads each machine's
clones once per amplitude, by ``clone_report``, and hands the same reports
to every suite that reads those figures.

The oracle_agreement suite is the expensive one (truncated Fock evolution);
it is opt-in from the CLI and covers only the 1->2 machine, which is the
scope limit of the Fock module.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import CloneReport, clone_output_state, clone_report, expected_fidelities
from .circuits import (
    AsymSpec,
    ClonerSpec,
    CloningMachine,
    SymSpec,
    asym_params,
    build_cloner,
)
from .fock import (
    FockSpace,
    TruncationError,
    apply_cloning_fock_block,
    coherent_fock,
    fidelity_fock,
)
from .gaussian import uncertainty_defect, worst_dev

GAMMA_GRID = tuple(np.linspace(-1.0, 1.0, 41))
SYM_CASES = ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4), (1, 5))
XI_PROBES = (0j, 1 + 0j, 2j, -1.5 + 0.5j, 3 - 2j)
Q_PROBE = 0.7 - 0.2j  # the amplitude the shared machines' Q and phase suites read

Reports = Sequence[list[CloneReport]]  # one clone_report per machine


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
def _build(spec: ClonerSpec) -> CloningMachine:
    # sharing is safe: a machine is frozen and its transform's arrays are read-only
    return build_cloner(spec)


@functools.cache
def _machines() -> tuple[CloningMachine, ...]:
    """The machines the per-machine suites share; the symmetric ones are SYM_CASES, in order."""
    specs = [AsymSpec(g, factorized=f) for g in (-1.0, -0.5, 0.0, 0.3, 1.0)
             for f in (False, True)]
    specs += [SymSpec(n, m) for n, m in SYM_CASES]
    return tuple(map(_build, specs))


@functools.cache
def _grid() -> tuple[tuple[CloningMachine, CloningMachine], ...]:
    """The (direct, factorized) machine at each GAMMA_GRID point."""
    return tuple((_build(AsymSpec(float(g))), _build(AsymSpec(float(g), factorized=True)))
                 for g in GAMMA_GRID)


def symplectic_invariants() -> SuiteResult:
    """Every constructed transform satisfies the Bogoliubov conditions."""
    machines = [machine for pair in _grid() for machine in pair] + list(_machines())
    worst = worst_dev(machine.symplectic_dev for machine in machines)
    return SuiteResult("symplectic_invariants", worst, 1e-10)


def factorization_equivalence() -> SuiteResult:
    """BS/NOPA/BS assembly matches the closed-form machine elementwise."""
    devs = []
    for direct, factorized in _grid():
        d, f = direct.transform, factorized.transform
        devs += [float(np.abs(d.A - f.A).max()), float(np.abs(d.B - f.B).max())]
    u0 = abs(asym_params(0.0).u)
    return SuiteResult("factorization_equivalence", worst_dev(devs + [u0]), 1e-9,
                       details={"u_at_gamma_zero": u0})


def fidelity_closed_forms(reports: Reports) -> SuiteResult:
    """Pipeline fidelities reproduce the closed forms for every machine."""
    worst = worst_dev(abs(r.fidelity - r.fidelity_formula) for rs in reports for r in rs)
    return SuiteResult("fidelity_closed_forms", worst, 1e-10)


def chaotic_photon_forms(reports: Reports) -> SuiteResult:
    """B-row photon counts reproduce the closed forms for every machine."""
    worst = worst_dev(abs(r.n_chaotic - r.n_chaotic_formula) for rs in reports for r in rs)
    return SuiteResult("chaotic_photon_forms", worst, 1e-10)


def noise_product_saturation(reports: Reports) -> SuiteResult:
    """The asymmetric family sits exactly on the 1/4 noise-product floor.

    Reads the reports of the 1->2 machines, whose two clones' added noise
    multiplies to 1/4 for every noise split gamma.
    """
    worst = worst_dev(abs(r1.n_chaotic * r2.n_chaotic - 0.25) for r1, r2 in reports)
    return SuiteResult("noise_product_saturation", worst, 1e-12)


def q_function_identity(reports: Reports) -> SuiteResult:
    """pi * Q(xi) equals the fidelity for every clone of every machine."""
    worst = worst_dev(abs(np.pi * r.q_peak - r.fidelity) for rs in reports for r in rs)
    return SuiteResult("q_function_identity", worst, 1e-10)


def fidelity_invariance(at_one: Mapping[ClonerSpec, list[CloneReport]]) -> SuiteResult:
    """Fidelity does not depend on the input amplitude.

    Reads every shared machine at each XI_PROBES amplitude; a machine whose
    report at xi = 1 is in `at_one` (keyed by spec) is not read there again.
    """
    devs = []
    for machine in _machines():
        known = at_one.get(machine.spec)
        reads = [known if xi == 1 and known is not None else clone_report(machine, xi)
                 for xi in XI_PROBES]
        arr = np.asarray([[r.fidelity for r in reports] for reports in reads])
        devs += list(arr.max(axis=0) - arr.min(axis=0))
    return SuiteResult("fidelity_invariance", worst_dev(devs), 1e-10)


def phase_covariance(reports: Reports) -> SuiteResult:
    """Added noise on every clone is phase insensitive."""
    worst = worst_dev(abs(r.phase_covariance_defect) for rs in reports for r in rs)
    return SuiteResult("phase_covariance", worst, 1e-10)


def uncertainty_preservation() -> SuiteResult:
    """Output states of every machine remain physical Gaussian states."""
    worst = worst_dev(uncertainty_defect(clone_output_state(machine, 0.8 + 0.3j))
                      for machine in _machines())
    return SuiteResult("uncertainty_preservation", worst, 1e-10)


def unit_signal_gain() -> SuiteResult:
    """Every clone keeps the input amplitude exactly."""
    xi = 1.1 - 0.6j
    devs = []
    for machine in _machines():
        out = clone_output_state(machine, xi)
        devs += [abs(out.mode_amplitude(mode) - xi) for mode in machine.clone_modes]
    return SuiteResult("unit_signal_gain", worst_dev(devs), 1e-12)


def _oracle_dev(cutoff: int) -> float:
    """Worst fidelity gap between the Fock oracle at one cutoff and the closed forms."""
    space = FockSpace(3, cutoff)
    probes = [(g, xi) for g in (-0.5, 0.0, 0.5) for xi in (0.0, 0.3)]
    outs = apply_cloning_fock_block([(g, coherent_fock(space, [0.0, 0.0, xi]))
                                     for g, xi in probes])
    devs = []
    for (g, xi), out in zip(probes, outs, strict=True):
        fa_form, fc_form = expected_fidelities(AsymSpec(g))
        devs += [abs(fidelity_fock(out, 0, xi) - fa_form),
                 abs(fidelity_fock(out, 2, xi) - fc_form)]
    return worst_dev(devs)


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
    depends on it.  The closed-form suites share the reports at xi = 1 of
    the direct machine at each GAMMA_GRID point and of the SYM_CASES
    machines; the Q and phase suites share those of every shared machine at
    Q_PROBE.  fidelity_invariance reuses the reports at xi = 1 too, so each
    (machine, xi) pair is read once.
    """
    grid = [direct for direct, _ in _grid()]
    sym = [machine for machine in _machines() if isinstance(machine.spec, SymSpec)]
    at_one = {machine.spec: clone_report(machine) for machine in grid + sym}
    at_probe = [clone_report(machine, Q_PROBE) for machine in _machines()]
    suites = [
        symplectic_invariants(),
        factorization_equivalence(),
        fidelity_closed_forms(list(at_one.values())),
        chaotic_photon_forms(list(at_one.values())),
        noise_product_saturation([at_one[direct.spec] for direct in grid]),
        q_function_identity(at_probe),
        fidelity_invariance(at_one),
        phase_covariance(at_probe),
        uncertainty_preservation(),
        unit_signal_gain(),
    ]
    return suites if tol is None else [replace(result, tolerance=tol) for result in suites]
