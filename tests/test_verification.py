"""Verification suites fail closed on non-finite deviations."""

import math
import sys
from collections import Counter

import pytest

from cvcloner import circuits, verification
from cvcloner.circuits import AsymSpec


@pytest.mark.parametrize("suite, figure", [
    (verification.noise_product_saturation, "noise_product"),
    (verification.uncertainty_preservation, "uncertainty_defect"),
    (verification.phase_covariance, "phase_covariance_defect"),
])
def test_a_nan_deviation_fails_the_suite(monkeypatch, suite, figure):
    assert suite().passed
    monkeypatch.setattr(verification, figure, lambda *args, **kwargs: math.nan)
    result = suite()
    assert not result.passed
    assert result.max_dev == math.inf


def test_suites_share_one_build_of_each_machine(monkeypatch):
    built = Counter()
    real = verification.build_cloner

    def counting(spec):
        built[spec] += 1
        return real(spec)

    monkeypatch.setattr(verification, "build_cloner", counting)
    # every cvcloner binding of either asymmetric form, so no suite builds one aside
    for fn in (circuits.asym_direct, circuits.asym_factorized):
        def counting_form(*args, fn=fn):
            built[fn.__name__] += 1
            return fn(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cvcloner" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting_form)
    caches = (verification._build, verification._machines, verification._grid)
    for cache in caches:
        cache.cache_clear()
    try:
        first = verification.standard_suites()
        cold = built.copy()
        built.clear()
        assert verification.standard_suites() == first
        shared = [machine.spec for machine in verification._machines()]
        grid = [(d.spec, f.spec) for d, f in verification._grid()]
    finally:
        for cache in caches:
            cache.cache_clear()
    assert built == Counter()
    assert grid == [(AsymSpec(float(g)), AsymSpec(float(g), factorized=True))
                    for g in verification.GAMMA_GRID]
    specs = set(shared) | {spec for pair in grid for spec in pair}
    assert len(shared) == 16 and len(grid) == 41 and len(specs) == 90
    asym = [spec for spec in specs if isinstance(spec, AsymSpec)]
    assert cold == Counter(specs) + Counter(
        asym_direct=sum(not spec.factorized for spec in asym),
        asym_factorized=sum(spec.factorized for spec in asym))


def test_a_given_tolerance_replaces_each_suite_tolerance_and_no_deviation():
    default = verification.standard_suites()
    tight = verification.standard_suites(1e-30)
    assert [r.name for r in tight] == [r.name for r in default]
    assert [r.max_dev for r in tight] == [r.max_dev for r in default]
    assert all(r.tolerance == 1e-30 for r in tight)
