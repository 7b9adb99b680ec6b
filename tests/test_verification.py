"""Verification suites fail closed on non-finite deviations."""

import math

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
