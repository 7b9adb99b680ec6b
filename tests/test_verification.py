"""Verification suites fail closed on non-finite deviations."""

import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cvcloner import circuits, verification
from cvcloner.analysis import clone_report
from cvcloner.circuits import AsymSpec


def _machines():
    _, asym, sym = verification._shared()
    return asym + sym


def _on_grid():
    grid, _, _ = verification._shared()
    return [clone_report(direct) for direct, _ in grid]


def _at_probe():
    return [clone_report(m, verification.Q_PROBE) for m in _machines()]


# figure -> (the report field that carries it, the reports its suite reads)
REPORT_FIGURES = {"noise_product": ("n_chaotic", _on_grid),
                  "phase_covariance_defect": ("phase_covariance_defect", _at_probe)}


@pytest.mark.parametrize("suite, figure", [
    (verification.noise_product_saturation, "noise_product"),
    (verification.uncertainty_preservation, "uncertainty_defect"),
    (verification.phase_covariance, "phase_covariance_defect"),
])
def test_a_nan_deviation_fails_the_suite(monkeypatch, suite, figure):
    if figure in REPORT_FIGURES:
        # the suite reads its reports: hand it one clone's figure as NaN
        field, reports_for = REPORT_FIGURES[figure]
        reports = reports_for()
        assert suite(reports).passed
        first, *rest = reports
        result = suite([[replace(first[0], **{field: math.nan}), *first[1:]], *rest])
    else:
        machines = _machines()
        assert suite(machines).passed
        monkeypatch.setattr(verification, figure, lambda *args, **kwargs: math.nan)
        result = suite(machines)
    assert not result.passed
    assert result.max_dev == math.inf


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
