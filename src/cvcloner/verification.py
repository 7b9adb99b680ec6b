"""Named verification suites behind `cvcloner verify`.

Each suite exercises one falsifiable claim about the machines (closed-form
fidelities, noise-product saturation, factorization equivalence, and so on),
measures the worst deviation it can find, and compares that against a
tolerance.  The suites are plain functions of the machines or reports they
read, returning SuiteResult, so they run under pytest, from the CLI, or
interactively with identical semantics.

Every machine the suites read is built and checked once per process, in one
cache, ``_shared``: each asymmetric form as one ``build_cloners`` stack over
GAMMA_GRID and the shared gammas off it, each SYM_CASES machine alone.
``standard_suites`` is the one place that chooses what each suite reads.
It reads the shared machines once per layout for every amplitude they are
read at (the asymmetric ones as one stack, each symmetric one alone, each
at XI_PROBES and Q_PROBE), and the direct grid machines at xi = 1 as one
stack: 8 readout passes per ``verify``.  It hands the same reports to every
suite that reads those figures.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    CloneReport,
    _reports_at,
    clone_output_state,
    clone_reports,
    expected_fidelities,
)
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

Machines = Sequence[CloningMachine]
Pairs = Sequence[tuple[CloningMachine, CloningMachine]]  # (direct, factorized)
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


def _read(asym: Machines, sym: Machines, xis: Sequence[complex]) -> list[list[list[CloneReport]]]:
    """Each shared machine's reports at each amplitude of xis: one read of
    the asymmetric stack and one of each symmetric machine, for all of xis."""
    reads = [_reports_at(asym, xis)] + [_reports_at([machine], xis) for machine in sym]
    return [[reports for read in reads for reports in read[i]] for i in range(len(xis))]


def symplectic_invariants(machines: Machines) -> SuiteResult:
    """Every constructed transform satisfies the Bogoliubov conditions."""
    worst = worst_dev(machine.symplectic_dev for machine in machines)
    return SuiteResult("symplectic_invariants", worst, 1e-10)


def factorization_equivalence(grid: Pairs) -> SuiteResult:
    """BS/NOPA/BS assembly matches the closed-form machine elementwise."""
    devs = []
    for direct, factorized in grid:
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


def fidelity_invariance(per_xi: Sequence[Reports]) -> SuiteResult:
    """Fidelity does not depend on the input amplitude.

    Reads, at each XI_PROBES amplitude, one report per machine in one order.
    """
    devs = []
    for reads in zip(*per_xi, strict=True):  # one machine at every amplitude
        arr = np.asarray([[r.fidelity for r in reports] for reports in reads])
        devs += list(arr.max(axis=0) - arr.min(axis=0))
    return SuiteResult("fidelity_invariance", worst_dev(devs), 1e-10)


def phase_covariance(reports: Reports) -> SuiteResult:
    """Added noise on every clone is phase insensitive."""
    worst = worst_dev(abs(r.phase_covariance_defect) for rs in reports for r in rs)
    return SuiteResult("phase_covariance", worst, 1e-10)


def uncertainty_preservation(machines: Machines) -> SuiteResult:
    """Output states of every machine remain physical Gaussian states."""
    worst = worst_dev(uncertainty_defect(clone_output_state(machine, 0.8 + 0.3j))
                      for machine in machines)
    return SuiteResult("uncertainty_preservation", worst, 1e-10)


def unit_signal_gain(machines: Machines) -> SuiteResult:
    """Every clone keeps the input amplitude exactly."""
    xi = 1.1 - 0.6j
    devs = []
    for machine in machines:
        out = clone_output_state(machine, xi)
        devs += [abs(out.mode_amplitude(mode) - xi) for mode in machine.clone_modes]
    return SuiteResult("unit_signal_gain", worst_dev(devs), 1e-12)


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
    depends on it.  The closed-form suites share the reports at xi = 1 of
    the direct machine at each GAMMA_GRID point, read as one stack, and of
    the SYM_CASES machines; fidelity_invariance reads every shared machine
    at each XI_PROBES amplitude, 1 included, and the Q and phase suites
    read them at Q_PROBE.
    """
    grid, asym, sym = _shared()
    shared = asym + sym
    *per_xi, at_probe = _read(asym, sym, (*XI_PROBES, Q_PROBE))
    on_grid = clone_reports([direct for direct, _ in grid])
    at_one = on_grid + per_xi[XI_PROBES.index(1)][len(asym):]
    suites = [
        symplectic_invariants([machine for pair in grid for machine in pair] + list(shared)),
        factorization_equivalence(grid),
        fidelity_closed_forms(at_one),
        chaotic_photon_forms(at_one),
        noise_product_saturation(on_grid),
        q_function_identity(at_probe),
        fidelity_invariance(per_xi),
        phase_covariance(at_probe),
        uncertainty_preservation(shared),
        unit_signal_gain(shared),
    ]
    return suites if tol is None else [replace(result, tolerance=tol) for result in suites]
