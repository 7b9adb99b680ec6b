"""Verification suites fail closed on non-finite deviations."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from cvcloner import circuits, gaussian, verification
from cvcloner.circuits import AsymSpec
from cvcloner.gaussian import BogoliubovTransform
from cvcloner.verification import GAIN_PROBE, Q_PROBE, XI_PROBES
from reference import clone_output_state, faulty, symplectic_form, unchecked


def _machines():
    _, asym, sym = verification._shared()
    return asym + sym


def _noise_products():
    # noise_product_saturation reads the direct grid machines' B-row counts
    grid, _, _ = verification._shared()
    return verification._read([direct for direct, _ in grid], (1,)).n_chaotic


def _defects():
    # phase_covariance reads every shared machine's clones
    _, asym, sym = verification._shared()
    reads = [verification._read(machines, (Q_PROBE,)) for machines in (asym, *([m] for m in sym))]
    return verification._clones(reads, "phase_covariance_defect")


READ_XI = (*XI_PROBES, Q_PROBE, GAIN_PROBE)  # what standard_suites reads the shared machines at
Q, GAIN = len(XI_PROBES), len(XI_PROBES) + 1  # the rows of READ_XI after the XI_PROBES rows

# figure -> the array of it that its suite reads
FIGURES = {"noise_product": _noise_products, "phase_covariance_defect": _defects}


@pytest.mark.parametrize("suite, figure", [
    (verification.noise_product_saturation, "noise_product"),
    (verification.uncertainty_preservation, "uncertainty_defect"),
    (verification.phase_covariance, "phase_covariance_defect"),
])
def test_a_nan_deviation_fails_the_suite(monkeypatch, suite, figure):
    if figure in FIGURES:
        # the suite reads an array of figures: hand it one clone's figure as NaN
        figures = FIGURES[figure]()
        assert suite(figures).passed
        figures = figures.copy()
        figures.flat[0] = math.nan
        result = suite(figures)
    else:
        machines = _machines()
        assert suite(machines).passed
        monkeypatch.setattr(verification, figure, lambda *args, **kwargs: math.nan)
        result = suite(machines)
    assert not result.passed
    assert result.max_dev == math.inf


def _array_suites():
    """Each suite that reads arrays of figures, with clean arguments of the
    shapes standard_suites gives it."""
    _, asym, sym = verification._shared()
    reads = [verification._read(m, READ_XI) for m in (asym, *([s] for s in sym))]
    fidelity = verification._clones(reads, "fidelity")
    n_chaotic = verification._clones(reads, "n_chaotic")
    return [
        (verification.fidelity_closed_forms,
         (fidelity[1], verification._clones(reads, "fidelity_formula"))),
        (verification.chaotic_photon_forms,
         (n_chaotic, verification._clones(reads, "n_chaotic_formula"))),
        (verification.noise_product_saturation, (_noise_products(),)),
        (verification.q_function_identity, (verification._clones(reads, "q_peak")[Q],
                                            fidelity[Q])),
        (verification.fidelity_invariance, (fidelity[:Q],)),
        (verification.phase_covariance, (_defects(),)),
        (verification.unit_signal_gain, (verification._clones(reads, "amplitude")[GAIN],)),
    ]


def test_a_nan_in_any_figure_a_suite_reads_fails_it_with_inf():
    for suite, args in _array_suites():
        assert suite(*args).passed, suite.__name__
        for k in range(len(args)):
            poisoned = [a.copy() for a in args]
            poisoned[k][..., -1] = math.nan
            result = suite(*poisoned)
            assert result.max_dev == math.inf and not result.passed, (suite.__name__, k)
    machines = list(_machines())
    last = machines[-1]
    A = last.transform.A.copy()
    A[last.clone_modes[-1].index, 1] = math.nan
    machines[-1] = unchecked(last, BogoliubovTransform(A=A, B=last.transform.B))
    assert verification.uncertainty_preservation(_machines()).passed
    assert verification.uncertainty_preservation(machines).max_dev == math.inf
    grid = list(verification._shared()[0])
    direct, factorized = grid[7]
    A = factorized.transform.A.copy()
    A[0, 0] = math.nan
    grid[7] = (direct, unchecked(factorized, BogoliubovTransform(A=A, B=factorized.transform.B)))
    assert verification.factorization_equivalence(grid).max_dev == math.inf


def test_a_refused_machine_reads_nan_and_the_rest_of_its_stack_as_alone():
    _, asym, _ = verification._shared()
    broken = [asym[0], faulty(asym[1], "gain_first"), asym[2], faulty(asym[3], "squeezed_first")]
    read = verification._read(broken, READ_XI)
    assert read.refused.tolist() == [False, True, False, True]
    for field in ("n_chaotic", "n_chaotic_state", "n_chaotic_formula", "fidelity_formula",
                  "phase_covariance_defect", "fidelity", "q_peak", "amplitude"):
        figure = getattr(read, field)
        assert np.isnan(figure[..., 1, :]).all() and np.isnan(figure[..., 3, :]).all(), field
        for k in (0, 2):
            alone = getattr(verification._read([broken[k]], READ_XI), field)
            assert np.array_equal(figure[..., k, :], alone[..., 0, :]), field
    clean = verification._read(asym, READ_XI)
    assert clean.refusal is None and not clean.refused.any()


def test_the_covariance_uncertainty_defect_reads_is_the_full_state_s_bit_for_bit(monkeypatch):
    # the x and p blocks (X/2) X^T and (P/2) P^T, with Omega's +-i/2 written
    # in place, are byte for byte the reference's (S/2) S^T + (i/2) Omega at
    # every amplitude, so the defect is the one the full state gave
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(h):
        seen.append(h.copy())
        return eigvalsh(h)

    monkeypatch.setattr(gaussian.np.linalg, "eigvalsh", recording)
    for machine in _machines():
        gaussian.uncertainty_defect(machine.transform)
        h = seen.pop()
        assert h.shape == (2 * machine.n_modes,) * 2
        for xi in (0j, 0.8 + 0.3j, *READ_XI):
            cov = clone_output_state(machine, xi).cov
            assert h.tobytes() == (cov + 0.5j * symplectic_form(machine.n_modes)).tobytes()


def test_the_amplitudes_unit_signal_gain_reads_are_the_full_state_s_within_two_ulp():
    # the readout's X_j x_in against the full state's S mean_in: the two
    # products round apart, by at most one ulp in each part (measured worst
    # |difference| 2.5e-16, one ulp of 1.1 and one of 0.6), so within two
    # ulp of |xi|
    _, asym, sym = verification._shared()
    for machines in (asym, *([m] for m in sym)):
        amplitude = verification._read(machines, READ_XI).amplitude[GAIN]
        for machine, amps in zip(machines, amplitude, strict=True):
            state = clone_output_state(machine, GAIN_PROBE)
            for mode, amp in zip(machine.clone_modes, amps, strict=True):
                ref = state.mode_amplitude(mode)
                assert abs(amp - ref) <= 2 * np.spacing(abs(GAIN_PROBE)), (machine.spec, mode)


def test_suites_share_one_build_of_each_machine(monkeypatch):
    built = Counter()
    # every cvcloner binding of the stacked builder, counting each spec a
    # call covers, and of either asymmetric form's maker, counting each
    # register it covers, so no suite builds one aside
    covers = {circuits.build_cloners: Counter,
              circuits._asym_direct_rows: lambda gamma: Counter(_asym_direct_rows=np.size(gamma)),
              circuits._asym_gates: lambda u, v, w: Counter(_asym_gates=np.size(u))}
    for fn, covered in covers.items():
        def counting(*args, fn=fn, covered=covered):
            built.update(covered(*args))
            return fn(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cvcloner" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    verification._shared.cache_clear()
    try:
        first = verification.standard_suites()
        cold = built.copy()
        built.clear()
        assert verification.standard_suites() == first
        grid, asym, sym = verification._shared()
        shared = [machine.spec for machine in asym + sym]
        grid = [(d.spec, f.spec) for d, f in grid]
    finally:
        verification._shared.cache_clear()
    assert built == Counter()
    assert grid == [(AsymSpec(float(g)), AsymSpec(float(g), factorized=True))
                    for g in verification.GAMMA_GRID]
    specs = set(shared) | {spec for pair in grid for spec in pair}
    assert len(shared) == 16 and len(grid) == 41 and len(specs) == 90
    asym = [spec for spec in specs if isinstance(spec, AsymSpec)]
    assert cold == Counter(specs) + Counter(
        _asym_direct_rows=sum(not spec.factorized for spec in asym),
        _asym_gates=sum(spec.factorized for spec in asym))


def test_a_given_tolerance_replaces_each_suite_tolerance_and_no_deviation():
    default = verification.standard_suites()
    tight = verification.standard_suites(1e-30)
    assert [r.name for r in tight] == [r.name for r in default]
    assert [r.max_dev for r in tight] == [r.max_dev for r in default]
    assert all(r.tolerance == 1e-30 for r in tight)


def test_oracle_agreement_refuses_an_empty_ladder():
    # a ladder with no rung would read max_dev 0.0 and pass having run nothing
    with pytest.raises(ValueError, match="at least one cutoff"):
        verification.oracle_agreement(cutoffs=())


def test_a_rung_builds_each_probe_state_once(monkeypatch):
    # two coherent states, xi = 0 and xi = 0.3, each sent at the three gammas
    built, sent = [], []
    coherent, block = verification.coherent_fock, verification.apply_cloning_fock_block

    def counting(space, amplitudes):
        built.append(amplitudes[-1])
        return coherent(space, amplitudes)

    def sending(probes):
        sent.extend(probes)
        return block(probes)

    monkeypatch.setattr(verification, "coherent_fock", counting)
    monkeypatch.setattr(verification, "apply_cloning_fock_block", sending)
    verification._oracle_dev(10)
    assert built == [0.0, 0.3]
    assert [gamma for gamma, _ in sent] == [-0.5, -0.5, 0.0, 0.0, 0.5, 0.5]
    vacuum, signal = sent[0][1], sent[1][1]
    assert vacuum is not signal
    assert all(state is (vacuum, signal)[i % 2] for i, (_, state) in enumerate(sent))
    assert not vacuum.amplitudes.flags.writeable
