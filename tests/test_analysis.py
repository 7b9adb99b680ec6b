"""Figures of merit: chaotic photons, fidelity, Q function, noise products."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from cvcloner.analysis import (
    CloneReport,
    chaotic_photons,
    chaotic_photons_from_state,
    clone_output_state,
    clone_report,
    expected_chaotic_photons,
    expected_fidelities,
    fidelity_coherent,
    noise_product,
    phase_covariance_defect,
    q_function,
)
from cvcloner.circuits import AsymSpec, SymSpec, asym_direct, build_cloner
from cvcloner.elements import nopa
from cvcloner import gaussian
from cvcloner.gaussian import (
    BogoliubovTransform,
    GaussianState,
    SymplecticCheck,
    apply_to_gaussian,
    check_symplectic,
    coherent_vacuum_input,
    compose,
    embed,
    reduce_mode,
)
from cvcloner.verification import GAMMA_GRID, SYM_CASES


def test_chaotic_photons_closed_forms_asym():
    for g in (-1.0, -0.2, 0.0, 0.6, 1.4):
        t = asym_direct(g)
        assert np.isclose(chaotic_photons(t, 0), math.exp(2 * g) / 2, atol=1e-13)
        assert np.isclose(chaotic_photons(t, 2), math.exp(-2 * g) / 2, atol=1e-13)


def test_chaotic_photons_closed_forms_sym():
    for n, m in ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4)):
        machine = build_cloner(SymSpec(n, m))
        for mode in machine.clone_modes:
            assert np.isclose(chaotic_photons(machine.transform, mode),
                              (m - n) / (m * n), atol=1e-13)


def test_state_route_agrees_with_transform_route():
    machine = build_cloner(AsymSpec(0.45))
    out = clone_output_state(machine, 1.0 + 0.5j)
    for mode in machine.clone_modes:
        n_state = chaotic_photons_from_state(reduce_mode(out, mode))
        n_rows = chaotic_photons(machine.transform, mode)
        assert abs(n_state - n_rows) < 1e-12


def test_chaotic_photons_from_state_rejects_anisotropic_noise():
    # a squeezed single-mode covariance is not a thermalized coherent state
    cov = np.diag([0.9, 0.5 * 0.5 / 0.9])
    squeezed = GaussianState(mean=np.zeros(2), cov=cov)
    with pytest.raises(ValueError):
        chaotic_photons_from_state(squeezed)
    with pytest.raises(ValueError):
        q_function(squeezed, 0j)


def test_noise_product_saturates_for_the_asymmetric_family():
    for g in np.linspace(-2, 2, 17):
        assert abs(noise_product(asym_direct(g)) - 0.25) < 1e-13


def test_extra_amplifier_pushes_noise_product_above_the_floor():
    # park a fourth mode, amplify clone a against it: more noise, same signal
    base = embed(asym_direct(0.0), [0, 1, 2], 4)
    noisier = compose(embed(nopa(0.3), [0, 3], 4), base)
    assert noise_product(noisier) > 0.25 + 1e-3


def test_phase_covariance_defect_vanishes_for_all_machines():
    for spec in (AsymSpec(-0.7), AsymSpec(0.3), SymSpec(2, 3), SymSpec(3, 5)):
        machine = build_cloner(spec)
        for mode in machine.clone_modes:
            d = phase_covariance_defect(machine.transform, mode, machine.signal_modes)
            assert abs(d) < 1e-12


def test_phase_covariance_defect_matches_the_column_loop():
    # reference: sum A[row, k] B[row, k] over the non-signal columns, one at a time;
    # the vectorised sum may round in another order, so compare to a few ulps
    rng = np.random.default_rng(7)
    n = 9
    t = BogoliubovTransform(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, n)))
    for row, signal in ((0, (2,)), (4, (0, 1, 5)), (8, (3,)), (2, ())):
        terms = [t.A[row, k] * t.B[row, k] for k in range(n) if k not in signal]
        scale = sum(abs(x) for x in terms)
        assert abs(phase_covariance_defect(t, row, signal) - sum(terms)) <= 1e-15 * scale


def test_single_mode_squeezer_has_nonzero_defect():
    r = 0.25
    squeezer = BogoliubovTransform(
        A=np.array([[np.cosh(r)]]),
        B=np.array([[np.sinh(r)]]),
    )
    d = phase_covariance_defect(squeezer, 0, ())
    assert abs(d - np.cosh(r) * np.sinh(r)) < 1e-14


def test_squeezing_a_clone_output_breaks_phase_covariance():
    r = 0.25
    squeezer = BogoliubovTransform(
        A=np.array([[np.cosh(r)]]),
        B=np.array([[np.sinh(r)]]),
    )
    doctored = compose(embed(squeezer, [0], 3), asym_direct(0.1))
    d = phase_covariance_defect(doctored, 0, (2,))
    assert abs(d) > 1e-3


def test_q_function_of_pure_coherent_state_peaks_at_one_over_pi():
    xi = 0.3 - 1.1j
    state = GaussianState(
        mean=np.array([np.sqrt(2) * xi.real, np.sqrt(2) * xi.imag]),
        cov=np.eye(2) / 2,
    )
    assert np.isclose(q_function(state, xi), 1 / math.pi)


def test_q_function_width_is_set_by_the_added_noise():
    machine = build_cloner(AsymSpec(0.0))
    out = clone_output_state(machine, 0.5 + 0j)
    clone = reduce_mode(out, machine.clone_modes[0])
    peak = q_function(clone, 0.5 + 0j)
    # n_ch + 1 = 3/2, so moving |alpha - xi|^2 = 3/2 drops Q by a factor e
    away = q_function(clone, 0.5 + math.sqrt(1.5))
    assert np.isclose(peak / away, math.e, rtol=1e-12)


def test_fidelity_coherent_rejects_wrong_amplitude():
    state = GaussianState(mean=np.array([1.0, 0.0]), cov=np.eye(2))
    with pytest.raises(ValueError, match="gain"):
        fidelity_coherent(state, 5.0 + 0j)


def test_clone_report_symmetric_point():
    reports = clone_report(AsymSpec(0.0), 1 + 0j)
    assert len(reports) == 2
    for r in reports:
        assert abs(r.fidelity - 2 / 3) < 1e-12
        assert abs(r.n_chaotic - 0.5) < 1e-12
        assert abs(math.pi * r.q_peak - r.fidelity) < 1e-12
        assert abs(r.fidelity * (r.n_chaotic_state + 1) - 1) < 1e-12


def test_clone_report_three_to_five():
    reports = clone_report(SymSpec(3, 5), 2 - 1j)
    assert len(reports) == 5
    for r in reports:
        assert abs(r.fidelity - 15 / 17) < 1e-12


def test_clone_report_trivial_machine():
    (r,) = clone_report(SymSpec(1, 1), 0.3 + 0j)
    assert r.fidelity == 1.0
    assert r.n_chaotic < 1e-15


def test_expected_fidelity_swap_symmetry_and_monotonicity():
    gammas = np.linspace(-1, 1, 21)
    fa = [expected_fidelities(AsymSpec(g))[0] for g in gammas]
    fc = [expected_fidelities(AsymSpec(g))[1] for g in gammas]
    fa_rev = [expected_fidelities(AsymSpec(-g))[0] for g in gammas]
    assert np.allclose(fc, fa_rev)
    assert all(a > b for a, b in zip(fa[:-1], fa[1:]))  # F_a strictly falls
    assert all(a < b for a, b in zip(fc[:-1], fc[1:]))  # F_c strictly rises


def test_expected_values_are_consistent_with_each_other():
    for spec in (AsymSpec(0.8), SymSpec(2, 5)):
        for n, f in zip(expected_chaotic_photons(spec), expected_fidelities(spec)):
            assert np.isclose(f, 1 / (n + 1), atol=1e-14)


def _per_clone_route(machine, xi):
    """Reference readout: one reduced single-mode state per clone, read
    through the public single-clone functions."""
    out, check = clone_output_state(machine, xi), check_symplectic(machine.transform)
    reports = []
    for mode, n_form, f_form in zip(machine.clone_modes,
                                    expected_chaotic_photons(machine.spec),
                                    expected_fidelities(machine.spec), strict=True):
        reduced = reduce_mode(out, mode)
        reports.append(CloneReport(
            clone_mode=mode,
            signal_amplitude=complex(xi),
            n_chaotic=chaotic_photons(machine.transform, mode),
            n_chaotic_state=chaotic_photons_from_state(reduced),
            n_chaotic_formula=n_form,
            fidelity=fidelity_coherent(reduced, xi),
            fidelity_formula=f_form,
            q_peak=q_function(reduced, xi),
            phase_covariance_defect=phase_covariance_defect(
                machine.transform, mode, machine.signal_modes),
            symplectic_dev=check.max_dev,
        ))
    return reports


READOUT_SPECS = ([SymSpec(n, m) for n, m in SYM_CASES] + [SymSpec(16, 128)]
                 + [AsymSpec(float(g), factorized=f) for f in (False, True) for g in GAMMA_GRID])


@pytest.mark.parametrize("xi", [0j, 0.7 - 0.2j, 3 - 2j])
def test_clone_report_equals_the_per_clone_route(xi):
    # exact equality: the array readout must gather the same blocks and rows
    for spec in READOUT_SPECS:
        machine = build_cloner(spec)
        assert clone_report(machine, xi) == _per_clone_route(machine, xi), spec


def test_clone_report_refuses_a_squeezed_clone():
    # a one-mode squeezer on clone a keeps the machine symplectic but makes
    # that clone's noise phase sensitive
    r = 0.25
    squeezer = BogoliubovTransform(A=np.diag([np.cosh(r), 1.0, 1.0]),
                                   B=np.diag([-np.sinh(r), 0.0, 0.0]))
    machine = build_cloner(AsymSpec(0.3))
    doctored = replace(machine, transform=compose(squeezer, machine.transform))
    cov = reduce_mode(clone_output_state(doctored, 0j), 0).cov
    message = (f"clone_1: covariance is not isotropic: "
               f"var(x)={cov[0, 0]}, var(p)={cov[1, 1]}, cov(x,p)={cov[0, 1]}")
    with pytest.raises(ValueError) as err:
        clone_report(doctored, 0j)
    assert str(err.value) == message


def test_fidelity_refuses_a_nan_amplitude():
    state = GaussianState(mean=[math.nan, 0.0], cov=0.5 * np.eye(2))
    with pytest.raises(ValueError, match="gain"):
        fidelity_coherent(state, 1.0)


@pytest.mark.parametrize("cov", [
    [[math.nan, 0.0], [0.0, 0.5]],
    [[0.5, 0.0], [0.0, math.nan]],
    [[0.5, math.nan], [math.nan, 0.5]],
])
def test_chaotic_photons_from_state_refuses_a_nan_covariance(cov):
    state = GaussianState(mean=np.zeros(2), cov=cov)
    with pytest.raises(ValueError, match="not isotropic"):
        chaotic_photons_from_state(state)


def test_clone_report_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="gain"):
        clone_report(AsymSpec(0.3), complex(math.nan, 0.0))


def _patch_everywhere(monkeypatch, fn, replacement):
    """Route every cvcloner module's binding of fn to replacement."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cvcloner" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


@pytest.mark.parametrize("spec", [SymSpec(3, 7), AsymSpec(0.4), AsymSpec(-0.2, factorized=True)])
def test_clone_report_reads_the_clone_rows_without_the_output_state(monkeypatch, spec):
    machine = build_cloner(spec)
    calls = {"apply_to_gaussian": 0, "coherent_vacuum_input": 0, "check_symplectic": 0}
    for fn in (gaussian.apply_to_gaussian, gaussian.coherent_vacuum_input,
               gaussian.check_symplectic):
        def counting(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        _patch_everywhere(monkeypatch, fn, counting)
    clone_report(machine, 0.4 - 0.9j)
    assert calls == {"apply_to_gaussian": 0, "coherent_vacuum_input": 0, "check_symplectic": 1}


def test_clone_report_refuses_a_non_symplectic_transform_as_the_state_route_does():
    machine = build_cloner(SymSpec(2, 3))
    t = machine.transform
    broken = replace(machine, transform=BogoliubovTransform(A=1.01 * t.A, B=t.B))
    with pytest.raises(ValueError) as state_route:
        apply_to_gaussian(broken.transform, coherent_vacuum_input(broken.input_amplitudes(1.0)))
    with pytest.raises(ValueError) as rows_route:
        clone_report(broken, 1.0)
    assert str(rows_route.value) == str(state_route.value)
    assert str(rows_route.value).startswith("transform is not symplectic")


def test_state_route_tracks_the_a_row_that_the_b_route_ignores(monkeypatch):
    # with the check patched to pass, scale clone_1's row of A by 1 + eps:
    # the covariance route reads (|A_j|^2 + |B_j|^2)/2 - 1/2 and must move by
    # |A_j|^2 ((1 + eps)^2 - 1)/2, while the |B row|^2 route must not move;
    # a readout that took n_chaotic_state from |B row|^2 fails here
    _patch_everywhere(monkeypatch, gaussian.check_symplectic,
                      lambda t: SymplecticCheck(0.0, 0.0))
    eps = 1e-3
    machine = build_cloner(SymSpec(2, 5))
    row = machine.clone_modes[0].index
    A = machine.transform.A.copy()
    A[row] *= 1.0 + eps
    scaled = replace(machine, transform=BogoliubovTransform(A=A, B=machine.transform.B))
    base, moved = clone_report(machine, 0j)[0], clone_report(scaled, 0j)[0]
    a_norm2 = float(np.sum(machine.transform.A[row] ** 2))
    expected = a_norm2 * ((1.0 + eps) ** 2 - 1.0) / 2.0
    assert moved.n_chaotic == base.n_chaotic
    assert moved.n_chaotic_state - base.n_chaotic_state == pytest.approx(expected, rel=1e-9)
    others = zip(clone_report(machine, 0j)[1:], clone_report(scaled, 0j)[1:], strict=True)
    assert all(a.n_chaotic_state == b.n_chaotic_state for a, b in others)
