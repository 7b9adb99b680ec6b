"""Acceptance gate: the headline numerical claims, one printed line each.

Every test measures the worst deviation it can find for one claim and prints
a single PASS/FAIL line with the deviation and tolerance, so a plain pytest
run doubles as a verification report.
"""

import math
import time

import numpy as np

from cvcloner.analysis import _amplitudes, _husimi, read_clones
from cvcloner.circuits import AsymSpec, SymSpec, asym_params, build_cloners
from cvcloner.elements import collect_gates, distribute_gates
from cvcloner.fock import FockSpace, apply_cloning_fock_block, coherent_fock, fidelities_fock
from cvcloner.gaussian import (
    NOPA,
    _deviations,
    fold_stack,
    uncertainty_defect,
    worst_dev,
)
from reference import (
    _isotropic_photons,
    apply_to_gaussian,
    as_transform,
    beam_splitter_gate,
    clone_output_state,
    coherent_vacuum_input,
    reduce_mode,
    state_uncertainty_defect,
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


def read(specs, xis=(1,)):
    """The read of one stack of specs at xis, which no gate refuses."""
    result = read_clones(build_cloners(specs), xis)
    assert result.refusal is None, result.refusal
    return result


def asym_grid(factorized=False):
    """The asymmetric machines over GAMMA_GRID, in one form, as one stack."""
    return [AsymSpec(float(g), factorized=factorized) for g in GAMMA_GRID]


def test_criterion_01_symmetric_fidelity_two_thirds():
    start = time.perf_counter()
    fidelity = read([AsymSpec(0.0)]).fidelity
    elapsed = time.perf_counter() - start
    dev = worst_dev(np.abs(fidelity - 2 / 3))
    report(1, "symmetric 1->2 point: both clone fidelities equal 2/3",
           dev, 1e-10, elapsed=elapsed, budget=0.1)


def test_criterion_02_asymmetric_fidelity_curves():
    fa, fc = read(asym_grid()).fidelity[0].T
    dev = worst_dev(np.concatenate((np.abs(fa - 2 / (np.exp(2 * GAMMA_GRID) + 2)),
                                    np.abs(fc - 2 / (np.exp(-2 * GAMMA_GRID) + 2)))))
    report(2, "asymmetric fidelity curves over 41 gamma points", dev, 1e-10)


def test_criterion_03_chaotic_photons_and_noise_product():
    na, nc = read(asym_grid()).n_chaotic.T
    dev_n = worst_dev(np.concatenate((np.abs(na - np.exp(2 * GAMMA_GRID) / 2),
                                      np.abs(nc - np.exp(-2 * GAMMA_GRID) / 2))))
    dev_prod = worst_dev(np.abs(na * nc - 0.25))
    report(3, "chaotic photon curves", dev_n, 1e-10)
    report(3, "noise product pinned at 1/4", dev_prod, 1e-12)


def test_criterion_04_factorization_equivalence():
    d, f = build_cloners(asym_grid()), build_cloners(asym_grid(factorized=True))
    dev = worst_dev((worst_dev(np.abs(d.A - f.A)), worst_dev(np.abs(d.B - f.B)),
                     abs(asym_params(0.0)[0])))
    report(4, "BS/NOPA/BS factorization equals the closed form, u(0)=0", dev, 1e-9)


def test_criterion_05_one_to_m_fidelity():
    dev = 0.0
    for m in range(2, 7):
        dev = worst_dev((dev, worst_dev(np.abs(read([SymSpec(1, m)]).fidelity - m / (2 * m - 1)))))
    report(5, "1->M fidelity hits M/(2M-1) for M=2..6", dev, 1e-10)


def test_criterion_06_n_to_m_fidelity_and_noise():
    dev = 0.0
    for n, m in ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4)):
        clones = read([SymSpec(n, m)])
        dev = worst_dev((dev, worst_dev(np.abs(clones.fidelity - (m * n) / (m * n + m - n))),
                         worst_dev(np.abs(clones.n_chaotic - (m - n) / (m * n)))))
    report(6, "N->M fidelity and added noise hit the optimal forms", dev, 1e-10)


def test_criterion_07_signal_collection():
    dev = 0.0
    xi = 0.8 - 0.6j
    for n in (2, 3, 4):
        state = apply_to_gaussian(as_transform(fold_stack(collect_gates(n), n)),
                                  coherent_vacuum_input([xi] * n))
        dev = worst_dev((dev, abs(state.mode_amplitude(0) - math.sqrt(n) * xi)))
        for k in range(1, n):
            dev = worst_dev((dev, abs(state.mode_amplitude(k))))
        dev = worst_dev((dev, float(np.abs(state.cov - np.eye(2 * n) / 2).max())))
    report(7, "collect cascade concentrates sqrt(N) xi, leaves vacuum behind", dev, 1e-12)


def test_criterion_08_fidelity_invariance_over_inputs():
    dev = 0.0
    for spec in MACHINES:
        table = read([spec], XI_SET).fidelity  # one row per amplitude
        dev = worst_dev((dev, float((table.max(axis=0) - table.min(axis=0)).max())))
    report(8, "fidelity identical across five input amplitudes", dev, 1e-10)


def test_criterion_09_q_function_identity():
    dev = 0.0
    xi = 1.2 - 0.4j
    for spec in MACHINES:
        stack = build_cloners([spec])
        out = clone_output_state(stack, xi)
        fidelity = read([spec], (xi,)).fidelity[0, 0]
        for mode, f in zip(stack.clone_modes, fidelity.tolist(), strict=True):
            clone = reduce_mode(out, mode)
            n = _isotropic_photons(clone.cov[None], [mode.name])
            q = _husimi(_amplitudes(clone.mean[0::2], clone.mean[1::2]), n, xi)
            dev = worst_dev((dev, abs(math.pi * q[0] - f)))
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
    # each fold's rows as a stack of one register, then the built stacks
    folds = [fold_stack((beam_splitter_gate(0.7, 0, 1),), 2),
             fold_stack((NOPA(0.9, 0, 1),), 2),
             fold_stack(collect_gates(4), 4),
             fold_stack(distribute_gates(5, list(range(5))), 5)]
    machines = [build_cloners([spec]) for spec in MACHINES]
    stacks = [(rows[None, :, 0], rows[None, :, 1]) for rows in folds]
    stacks += [(s.A, s.B) for s in (build_cloners(asym_grid()),
                                    build_cloners(asym_grid(factorized=True)), *machines)]
    dev_symp = worst_dev(np.concatenate([np.concatenate(_deviations(A, B)) for A, B in stacks]))
    report(11, "every constructed transform is symplectic", dev_symp, 1e-10)

    dev_defect = 0.0
    dev_unc = 0.0
    for machine in machines:
        # the reference's full state, and the package's covariance from X and P
        out = clone_output_state(machine, 0.9 + 0.2j)
        dev_unc = worst_dev((dev_unc, state_uncertainty_defect(out),
                             *uncertainty_defect(machine.A, machine.B)))
        defect = read(machine.specs, (0.9 + 0.2j,)).phase_covariance_defect
        dev_defect = worst_dev((dev_defect, worst_dev(np.abs(defect))))
    report(11, "phase-covariance defect vanishes on every clone", dev_defect, 1e-10)
    report(11, "uncertainty relations preserved by every application", dev_unc, 1e-10)
