"""Verification suites fail closed on non-finite deviations."""

import math
from collections import Counter

import pytest

from cvcloner import verification


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
    verification._machines.cache_clear()
    try:
        first = verification.standard_suites()
        assert verification.standard_suites() == first
        shared = [machine.spec for machine in verification._machines()]
    finally:
        verification._machines.cache_clear()
    assert built == Counter(shared)
    assert len(shared) == 16
