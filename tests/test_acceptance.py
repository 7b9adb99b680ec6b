"""Acceptance gate: the headline numerical claims, one printed line each.

Every test measures the worst deviation it can find for one claim and prints
a single PASS/FAIL line with the deviation and tolerance, so a plain pytest
run doubles as a verification report.
"""

import math
import time

import numpy as np

from cvcloner.analysis import (
    _amplitudes,
    _husimi,
    clone_output_state,
    clone_report,
)
from cvcloner.circuits import (
    AsymSpec,
    SymSpec,
    asym_direct,
    asym_factorized,
    asym_params,
    build_cloner,
)
from cvcloner.elements import collect_gates, distribute_gates
from cvcloner.fock import FockSpace, apply_cloning_fock_block, coherent_fock, fidelities_fock
from cvcloner.gaussian import (
    NOPA,
    check_symplectic,
    fold_gates,
    uncertainty_defect,
    worst_dev,
)
from reference import (
    _isotropic_photons,
    apply_to_gaussian,
    beam_splitter_gate,
    coherent_vacuum_input,
    reduce_mode,
)

GAMMA_GRID = np.linspace(-1.0, 1.0, 41)
XI_SET = (0j, 1 + 0j, 2j, -1.5 + 0.5j, 3 - 2j)
MACHINES = (AsymSpec(0.0), AsymSpec(0.5), AsymSpec(-0.5, factorized=True),
            SymSpec(1, 2), SymSpec(2, 3), SymSpec(3, 5), SymSpec(2, 5), SymSpec(4, 4))


def report(num, label, dev, tol, *, elapsed=None, budget=None):
    ok = dev <= tol
    timing = ""
    if elapsed is not None:
        ok = ok and elapsed < budget
        timing = f", {elapsed:.3f}s of {budget}s"
    print(f"\ncriterion {num:>2}: {'PASS' if ok else 'FAIL'}  {label} "
          f"(max dev {dev:.3e}, tol {tol:.1e}{timing})")
    assert ok, f"criterion {num} failed: {label}: dev {dev} tol {tol} {timing}"


def test_criterion_01_symmetric_fidelity_two_thirds():
    start = time.perf_counter()
    reports = clone_report(AsymSpec(0.0), 1 + 0j)
    elapsed = time.perf_counter() - start
    dev = worst_dev(abs(r.fidelity - 2 / 3) for r in reports)
    report(1, "symmetric 1->2 point: both clone fidelities equal 2/3",
           dev, 1e-10, elapsed=elapsed, budget=0.1)


def test_criterion_02_asymmetric_fidelity_curves():
    dev = 0.0
    for g in GAMMA_GRID:
        ra, rc = clone_report(AsymSpec(float(g)))
        dev = worst_dev((dev,
                         abs(ra.fidelity - 2 / (math.exp(2 * g) + 2)),
                         abs(rc.fidelity - 2 / (math.exp(-2 * g) + 2))))
    report(2, "asymmetric fidelity curves over 41 gamma points", dev, 1e-10)


def test_criterion_03_chaotic_photons_and_noise_product():
    dev_n = 0.0
    dev_prod = 0.0
    for g in GAMMA_GRID:
        ra, rc = clone_report(AsymSpec(float(g)))
        dev_n = worst_dev((dev_n,
                           abs(ra.n_chaotic - math.exp(2 * g) / 2),
                           abs(rc.n_chaotic - math.exp(-2 * g) / 2)))
        dev_prod = worst_dev((dev_prod, abs(ra.n_chaotic * rc.n_chaotic - 0.25)))
    report(3, "chaotic photon curves", dev_n, 1e-10)
    report(3, "noise product pinned at 1/4", dev_prod, 1e-12)


def test_criterion_04_factorization_equivalence():
    dev = 0.0
    for g in GAMMA_GRID:
        d, f = asym_direct(float(g)), asym_factorized(asym_params(float(g)))
        dev = worst_dev((dev, float(np.abs(d.A - f.A).max()), float(np.abs(d.B - f.B).max())))
    dev = worst_dev((dev, abs(asym_params(0.0).u)))
    report(4, "BS/NOPA/BS factorization equals the closed form, u(0)=0", dev, 1e-9)


def test_criterion_05_one_to_m_fidelity():
    dev = 0.0
    for m in range(2, 7):
        for r in clone_report(SymSpec(1, m)):
            dev = worst_dev((dev, abs(r.fidelity - m / (2 * m - 1))))
    report(5, "1->M fidelity hits M/(2M-1) for M=2..6", dev, 1e-10)


def test_criterion_06_n_to_m_fidelity_and_noise():
    dev = 0.0
    for n, m in ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4)):
        for r in clone_report(SymSpec(n, m)):
            dev = worst_dev((dev, abs(r.fidelity - (m * n) / (m * n + m - n)),
                             abs(r.n_chaotic - (m - n) / (m * n))))
    report(6, "N->M fidelity and added noise hit the optimal forms", dev, 1e-10)


def test_criterion_07_signal_collection():
    dev = 0.0
    xi = 0.8 - 0.6j
    for n in (2, 3, 4):
        state = apply_to_gaussian(fold_gates(collect_gates(n), n),
                                  coherent_vacuum_input([xi] * n))
        dev = worst_dev((dev, abs(state.mode_amplitude(0) - math.sqrt(n) * xi)))
        for k in range(1, n):
            dev = worst_dev((dev, abs(state.mode_amplitude(k))))
        dev = worst_dev((dev, float(np.abs(state.cov - np.eye(2 * n) / 2).max())))
    report(7, "collect cascade concentrates sqrt(N) xi, leaves vacuum behind", dev, 1e-12)


def test_criterion_08_fidelity_invariance_over_inputs():
    dev = 0.0
    for spec in MACHINES:
        table = np.array([[r.fidelity for r in clone_report(spec, xi)] for xi in XI_SET])
        dev = worst_dev((dev, float((table.max(axis=0) - table.min(axis=0)).max())))
    report(8, "fidelity identical across five input amplitudes", dev, 1e-10)


def test_criterion_09_q_function_identity():
    dev = 0.0
    xi = 1.2 - 0.4j
    for spec in MACHINES:
        machine = build_cloner(spec)
        out = clone_output_state(machine, xi)
        for mode, r in zip(machine.clone_modes, clone_report(spec, xi), strict=True):
            clone = reduce_mode(out, mode)
            n = _isotropic_photons(clone.cov[None], [mode.name])
            q = _husimi(_amplitudes(clone.mean[0::2], clone.mean[1::2]), n, xi)
            dev = worst_dev((dev, abs(math.pi * q[0] - r.fidelity)))
    report(9, "pi Q(xi) equals the fidelity on every clone", dev, 1e-10)


def test_criterion_10_fock_oracle_agreement():
    start = time.perf_counter()
    per_cutoff = []
    for cutoff in (10, 12, 14):
        space = FockSpace(3, cutoff)
        dev = 0.0
        for g in (-0.5, 0.0, 0.5):
            fa = 2 / (math.exp(2 * g) + 2)
            fc = 2 / (math.exp(-2 * g) + 2)
            for xi in (0.0, 0.3):
                out = apply_cloning_fock_block([(g, coherent_fock(space, [0j, 0j, xi]))])[0]
                got_a, got_c = fidelities_fock([(out, 0, xi), (out, 2, xi)])
                dev = worst_dev((dev, abs(got_a - fa), abs(got_c - fc)))
        per_cutoff.append(dev)
    elapsed = time.perf_counter() - start
    monotone = all(a > b for a, b in zip(per_cutoff[:-1], per_cutoff[1:]))
    final = per_cutoff[-1] if monotone else float("inf")
    report(10, f"Fock oracle matches (devs by cutoff: "
               f"{', '.join(f'{d:.1e}' for d in per_cutoff)})",
           final, 5e-3, elapsed=elapsed, budget=60.0)


def test_criterion_11_property_suite():
    dev_symp = 0.0
    transforms = [fold_gates((beam_splitter_gate(0.7, 0, 1),), 2),
                  fold_gates((NOPA(0.9, 0, 1),), 2),
                  fold_gates(collect_gates(4), 4),
                  fold_gates(distribute_gates(5, list(range(5))), 5)]
    transforms += [asym_direct(float(g)) for g in GAMMA_GRID]
    transforms += [asym_factorized(asym_params(float(g))) for g in GAMMA_GRID]
    machines = [build_cloner(spec) for spec in MACHINES]
    transforms += [m.transform for m in machines]
    for t in transforms:
        dev_symp = worst_dev((dev_symp, check_symplectic(t).max_dev))
    report(11, "every constructed transform is symplectic", dev_symp, 1e-10)

    dev_defect = 0.0
    dev_unc = 0.0
    for machine in machines:
        out = clone_output_state(machine, 0.9 + 0.2j)
        dev_unc = worst_dev((dev_unc, uncertainty_defect(out)))
        for r in clone_report(machine, 0.9 + 0.2j):
            dev_defect = worst_dev((dev_defect, abs(r.phase_covariance_defect)))
    report(11, "phase-covariance defect vanishes on every clone", dev_defect, 1e-10)
    report(11, "uncertainty relations preserved by every application", dev_unc, 1e-10)
