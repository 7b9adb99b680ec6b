"""Figures of merit: chaotic photons, fidelity, Q function, noise products."""

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from cvcloner.analysis import (
    _amplitudes,
    _husimi,
    expected_chaotic_photons,
    expected_fidelities,
    read_clones,
)
from cvcloner.circuits import AsymSpec, SymSpec, build_cloners, join_stacks
from cvcloner import analysis, circuits, gaussian
from cvcloner.gaussian import NOPA, fold_stack
from cvcloner.verification import GAMMA_GRID, Q_PROBE, SYM_CASES, XI_PROBES
from reference import (
    FIGURES,
    GaussianState,
    Transform,
    _fidelities,
    _isotropic_photons,
    apply_to_gaussian,
    as_transform,
    chaotic_photons,
    clone_figures,
    clone_output_state,
    coherent_means,
    coherent_vacuum_input,
    compose,
    embed,
    faulty,
    input_amplitudes,
    noise_product,
    phase_covariance_defect,
    reduce_mode,
    register,
    row_norm_report,
    unchecked,
)

ONE = ["clone"]  # the name a one-clone readout gives its clone in a refusal


def _one(spec):
    """The machine a spec describes, as a stack of one."""
    return build_cloners([spec])


def _read(stack, xi=1.0 + 0.0j):
    """A stack's read at xi, raising its refusal, as the CLI reads it."""
    read = read_clones(stack, (xi,))
    if read.refusal is not None:
        raise ValueError(read.refusal)
    return read


def test_chaotic_photons_closed_forms_asym():
    for g in (-1.0, -0.2, 0.0, 0.6, 1.4):
        t = register(_one(AsymSpec(g)))
        assert np.isclose(chaotic_photons(t, 0), math.exp(2 * g) / 2, atol=1e-13)
        assert np.isclose(chaotic_photons(t, 2), math.exp(-2 * g) / 2, atol=1e-13)


def test_chaotic_photons_closed_forms_sym():
    for n, m in ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4)):
        n_chaotic = _read(_one(SymSpec(n, m))).n_chaotic
        assert np.allclose(n_chaotic, (m - n) / (m * n), atol=1e-13)


def test_state_route_agrees_with_transform_route():
    machine = _one(AsymSpec(0.45))
    out = clone_output_state(machine, 1.0 + 0.5j)
    for mode in machine.clone_modes:
        n_state = float(_isotropic_photons(reduce_mode(out, mode).cov[None], ONE)[0])
        n_rows = chaotic_photons(register(machine), mode)
        assert abs(n_state - n_rows) < 1e-12


def test_chaotic_photons_from_state_rejects_anisotropic_noise():
    # a squeezed single-mode covariance is not a thermalized coherent state
    cov = np.diag([0.9, 0.5 * 0.5 / 0.9])
    squeezed = GaussianState(mean=np.zeros(2), cov=cov)
    with pytest.raises(ValueError, match="not isotropic"):
        _isotropic_photons(squeezed.cov[None], ONE)


def test_noise_product_saturates_for_the_asymmetric_family():
    for g in np.linspace(-2, 2, 17):
        assert abs(noise_product(register(_one(AsymSpec(g)))) - 0.25) < 1e-13


def test_extra_amplifier_pushes_noise_product_above_the_floor():
    # park a fourth mode, amplify clone a against it: more noise, same signal
    base = embed(register(_one(AsymSpec(0.0))), [0, 1, 2], 4)
    noisier = compose(as_transform(fold_stack((NOPA(0.3, 0, 3),), 4)), base)
    assert noise_product(noisier) > 0.25 + 1e-3


def test_phase_covariance_defect_vanishes_for_all_machines():
    for spec in (AsymSpec(-0.7), AsymSpec(0.3), SymSpec(2, 3), SymSpec(3, 5)):
        assert (np.abs(_read(_one(spec)).phase_covariance_defect) < 1e-12).all()


def test_phase_covariance_defect_matches_the_column_loop():
    # reference: sum A[row, k] B[row, k] over the non-signal columns, one at a time;
    # the vectorised sum may round in another order, so compare to a few ulps
    rng = np.random.default_rng(7)
    n = 9
    t = Transform(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
    for row, signal in ((0, (2,)), (4, (0, 1, 5)), (8, (3,)), (2, ())):
        terms = [t.A[row, k] * t.B[row, k] for k in range(n) if k not in signal]
        scale = sum(abs(x) for x in terms)
        assert abs(phase_covariance_defect(t, row, signal) - sum(terms)) <= 1e-15 * scale


def test_single_mode_squeezer_has_nonzero_defect():
    r = 0.25
    squeezer = Transform(np.array([[np.cosh(r)]]), np.array([[np.sinh(r)]]))
    d = phase_covariance_defect(squeezer, 0, ())
    assert abs(d - np.cosh(r) * np.sinh(r)) < 1e-14


def test_squeezing_a_clone_output_breaks_phase_covariance():
    r = 0.25
    squeezer = Transform(np.array([[np.cosh(r)]]), np.array([[np.sinh(r)]]))
    doctored = compose(embed(squeezer, [0], 3), register(_one(AsymSpec(0.1))))
    d = phase_covariance_defect(doctored, 0, (2,))
    assert abs(d) > 1e-3


def test_q_function_of_pure_coherent_state_peaks_at_one_over_pi():
    xi = 0.3 - 1.1j
    state = GaussianState(
        mean=np.array([np.sqrt(2) * xi.real, np.sqrt(2) * xi.imag]),
        cov=np.eye(2) / 2,
    )
    q = _husimi(_amplitudes(state.mean[0::2], state.mean[1::2]),
                _isotropic_photons(state.cov[None], ONE), xi)
    assert np.isclose(q[0], 1 / math.pi)


def test_q_function_width_is_set_by_the_added_noise():
    machine = _one(AsymSpec(0.0))
    out = clone_output_state(machine, 0.5 + 0j)
    clone = reduce_mode(out, machine.clone_modes[0])
    amp = _amplitudes(clone.mean[0::2], clone.mean[1::2])
    n = _isotropic_photons(clone.cov[None], ONE)
    peak = _husimi(amp, n, 0.5 + 0j)[0]
    # n_ch + 1 = 3/2, so moving |alpha - xi|^2 = 3/2 drops Q by a factor e
    away = _husimi(amp, n, 0.5 + math.sqrt(1.5))[0]
    assert np.isclose(peak / away, math.e, rtol=1e-12)


def test_fidelity_coherent_rejects_wrong_amplitude():
    state = GaussianState(mean=np.array([1.0, 0.0]), cov=np.eye(2))
    with pytest.raises(ValueError, match="gain"):
        _fidelities(_amplitudes(state.mean[0::2], state.mean[1::2]), 5.0 + 0j,
                    _isotropic_photons(state.cov[None], ONE), ONE)


def test_clone_report_symmetric_point():
    read = _read(_one(AsymSpec(0.0)), 1 + 0j)
    assert read.fidelity.shape == (1, 1, 2)
    fidelity, n_state = read.fidelity[0, 0], read.n_chaotic_state[0]
    assert (np.abs(fidelity - 2 / 3) < 1e-12).all()
    assert (np.abs(read.n_chaotic - 0.5) < 1e-12).all()
    assert (np.abs(math.pi * read.q_peak[0, 0] - fidelity) < 1e-12).all()
    assert (np.abs(fidelity * (n_state + 1) - 1) < 1e-12).all()


def test_clone_report_three_to_five():
    fidelity = _read(_one(SymSpec(3, 5)), 2 - 1j).fidelity
    assert fidelity.shape == (1, 1, 5)
    assert (np.abs(fidelity - 15 / 17) < 1e-12).all()


def test_clone_report_trivial_machine():
    read = _read(_one(SymSpec(1, 1)), 0.3 + 0j)
    assert read.fidelity.tolist() == [[[1.0]]]
    assert read.n_chaotic[0, 0] < 1e-15


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
    """Reference readout of a stack of one: each clone's rows X_j = A_j + B_j
    and P_j = A_j - B_j gathered on their own and read through the array
    helpers one row at a time, one tuple of FIGURES per clone."""
    t, spec = register(machine), machine.specs[0]
    means = coherent_means(input_amplitudes(machine, xi))
    reports = []
    for mode, n_form, f_form in zip(machine.clone_modes,
                                    expected_chaotic_photons(spec),
                                    expected_fidelities(spec), strict=True):
        row, name = [mode.index], [mode.name]
        x_row, p_row = t.A[row] + t.B[row], t.A[row] - t.B[row]
        block = np.zeros((1, 2, 2))
        block[0, 0, 0] = 0.5 * np.einsum("ij,ij->i", x_row, x_row)[0]
        block[0, 1, 1] = 0.5 * np.einsum("ij,ij->i", p_row, p_row)[0]
        n_state = _isotropic_photons(block, name)
        amp = _amplitudes(x_row @ means[0::2], p_row @ means[1::2])
        reports.append((
            chaotic_photons(t, mode),
            float(n_state[0]),
            n_form,
            float(_fidelities(amp, complex(xi), n_state, name)[0]),
            f_form,
            float(_husimi(amp, n_state, complex(xi))[0]),
            phase_covariance_defect(t, mode, machine.signal_modes),
        ))
    return reports


def _full_state_route(machine, xi):
    """Independent readout: the reduced single-mode states of the full output
    state S (I/2) S^T, each clone's covariance block as it stands."""
    out = clone_output_state(machine, xi)
    reports = []
    for mode in machine.clone_modes:
        reduced, name = reduce_mode(out, mode), [mode.name]
        n_state = _isotropic_photons(reduced.cov[None], name)
        amp = _amplitudes(reduced.mean[0::2], reduced.mean[1::2])
        reports.append((reduced.cov, float(n_state[0]),
                        float(_fidelities(amp, complex(xi), n_state, name)[0]),
                        float(_husimi(amp, n_state, complex(xi))[0])))
    return reports


READOUT_SPECS = ([SymSpec(n, m) for n, m in SYM_CASES] + [SymSpec(16, 128)]
                 + [AsymSpec(float(g), factorized=f) for f in (False, True) for g in GAMMA_GRID])
LARGE_SPECS = [SymSpec(16, 1008), SymSpec(1, 1023)]
READOUT_XI = [0j, 0.7 - 0.2j, 3 - 2j]
EPS = np.finfo(float).eps


@pytest.mark.parametrize("xi", READOUT_XI)
def test_clone_report_equals_the_per_clone_route(xi):
    # exact equality: the array readout must gather the same rows and means
    for spec in READOUT_SPECS + LARGE_SPECS:
        machine = _one(spec)
        assert clone_figures(_read(machine, xi)) == [_per_clone_route(machine, xi)], spec


@pytest.mark.parametrize("xi", READOUT_XI)
def test_clone_report_agrees_with_the_full_state_route(xi):
    # the row norms |X_j|^2/2 and |P_j|^2/2 round differently from the diagonal
    # of the full product S (I/2) S^T, so the figures read from the covariance
    # agree to a few ulp (measured worst: 2.0 eps (n + 1) for n_chaotic_state,
    # 2.1 and 2.5 ulp for fidelity and q_peak); everything else is equal, and
    # the full state's cross term is exactly the zero the readout assumes
    specs = READOUT_SPECS + (LARGE_SPECS if xi == READOUT_XI[-1] else [])
    # the figures read from the covariance: n_chaotic_state, fidelity, q_peak
    from_cov = [FIGURES.index(name) for name in ("n_chaotic_state", "fidelity", "q_peak")]

    def others(figures):
        return [f for k, f in enumerate(figures) if k not in from_cov]

    for spec in specs:
        machine = _one(spec)
        reference = _per_clone_route(machine, xi)
        (read,) = clone_figures(_read(machine, xi))
        for report, ref, (cov, n_state, fidelity, q_peak) in zip(
                read, reference, _full_state_route(machine, xi), strict=True):
            assert others(report) == others(ref), spec
            assert cov[0, 1] == cov[1, 0] == 0.0, spec
            n_read, f_read, q_read = (report[k] for k in from_cov)
            assert abs(n_read - n_state) <= 4 * EPS * (n_state + 1), spec
            assert abs(f_read - fidelity) <= 4 * EPS * fidelity, spec
            assert abs(q_read - q_peak) <= 4 * EPS * q_peak, spec


def test_the_readout_holds_no_full_size_array():
    # at 16->1008 the clone rows of A, B and X (then P) are 8.3 MB each; a
    # readout through S, its clone rows S_r and (S_r/2) S_r^T peaks at 98.6 MB
    machine = _one(SymSpec(16, 1008))
    tracemalloc.start()
    try:
        _read(machine, 0.7 - 0.2j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_clone_report_refuses_a_squeezed_clone():
    # a one-mode squeezer on clone a keeps the machine symplectic but makes
    # that clone's noise phase sensitive
    r = 0.25
    squeezer = Transform(np.diag([np.cosh(r), 1.0, 1.0]), np.diag([-np.sinh(r), 0.0, 0.0]))
    machine = _one(AsymSpec(0.3))
    doctored = unchecked(machine, compose(squeezer, register(machine)))
    cov = reduce_mode(clone_output_state(doctored, 0j), 0).cov
    message = (f"clone_1: covariance is not isotropic: "
               f"var(x)={cov[0, 0]}, var(p)={cov[1, 1]}, cov(x,p)={cov[0, 1]}")
    with pytest.raises(ValueError) as err:
        _read(doctored, 0j)
    assert str(err.value) == message


def test_fidelity_refuses_a_nan_amplitude():
    state = GaussianState(mean=[math.nan, 0.0], cov=0.5 * np.eye(2))
    with pytest.raises(ValueError, match="gain"):
        _fidelities(_amplitudes(state.mean[0::2], state.mean[1::2]), 1.0,
                    _isotropic_photons(state.cov[None], ONE), ONE)


@pytest.mark.parametrize("cov", [
    [[math.nan, 0.0], [0.0, 0.5]],
    [[0.5, 0.0], [0.0, math.nan]],
    [[0.5, math.nan], [math.nan, 0.5]],
])
def test_chaotic_photons_from_state_refuses_a_nan_covariance(cov):
    state = GaussianState(mean=np.zeros(2), cov=cov)
    with pytest.raises(ValueError, match="not isotropic"):
        _isotropic_photons(state.cov[None], ONE)


def test_clone_report_refuses_a_nan_amplitude():
    with pytest.raises(ValueError, match="gain"):
        _read(_one(AsymSpec(0.3)), complex(math.nan, 0.0))


def _patch_everywhere(monkeypatch, fn, replacement):
    """Route every cvcloner module's binding of fn to replacement."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cvcloner" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


@pytest.mark.parametrize("spec", [SymSpec(3, 7), AsymSpec(0.4), AsymSpec(-0.2, factorized=True)])
def test_clone_report_reads_the_clone_rows_without_the_output_state(monkeypatch, spec):
    # the output covariance that uncertainty_defect writes is the only 2n x 2n
    # array the package forms
    machine = _one(spec)
    calls = {"uncertainty_defect": 0, "_deviations": 0}
    for fn in (gaussian.uncertainty_defect, gaussian._deviations):
        def counting(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        _patch_everywhere(monkeypatch, fn, counting)
    _read(machine, 0.4 - 0.9j)
    # the machine's transform was checked when it was built
    assert calls == {"uncertainty_defect": 0, "_deviations": 0}


def test_clone_report_refuses_a_non_symplectic_transform_as_the_state_route_does(monkeypatch):
    # no stack, and so no read, holds a transform that fails the check: it
    # is refused when the machine is built, as the state route refuses it
    machine = _one(SymSpec(2, 3))
    t = register(machine)
    broken = Transform(1.01 * t.A, t.B)
    with pytest.raises(ValueError) as state_route:
        apply_to_gaussian(broken, coherent_vacuum_input(input_amplitudes(machine, 1.0)))
    real = circuits.fold_stack  # scale every A row of the fold by 1.01
    monkeypatch.setattr(circuits, "fold_stack",
                        lambda *args: real(*args) * np.array([1.01, 1.0])[:, None])
    with pytest.raises(ValueError) as built:
        build_cloners([SymSpec(2, 3)])
    assert str(built.value) == str(state_route.value)
    assert str(built.value).startswith("transform is not symplectic")


def test_state_route_tracks_the_a_row_that_the_b_route_ignores():
    # past the build's check, scale clone_1's row of A by 1 + eps: the
    # covariance route reads (|A_j|^2 + |B_j|^2)/2 - 1/2 and must move by
    # |A_j|^2 ((1 + eps)^2 - 1)/2, while the |B row|^2 route must not move;
    # a readout that took n_chaotic_state from |B row|^2 fails here
    eps = 1e-3
    machine = _one(SymSpec(2, 5))
    row = machine.clone_modes[0].index
    A = machine.A[0].copy()
    A[row] *= 1.0 + eps
    scaled = unchecked(machine, Transform(A, machine.B[0]))
    base, moved = (_read(stack, 0j) for stack in (machine, scaled))
    a_norm2 = float(np.sum(machine.A[0, row] ** 2))
    expected = a_norm2 * ((1.0 + eps) ** 2 - 1.0) / 2.0
    assert moved.n_chaotic[0, 0] == base.n_chaotic[0, 0]
    assert (moved.n_chaotic_state[0, 0] - base.n_chaotic_state[0, 0]
            == pytest.approx(expected, rel=1e-9))
    assert moved.n_chaotic_state[0, 1:].tolist() == base.n_chaotic_state[0, 1:].tolist()


STACK_XI = [1 + 0j, 0.7 - 0.2j, 3 - 2j]


@pytest.mark.parametrize("xi", STACK_XI)
def test_clone_reports_equal_the_per_machine_reader(xi):
    # exact equality: a stack is read row by row with the formulas that read
    # each machine alone, and its figures come back in register order
    direct = build_cloners([AsymSpec(float(g)) for g in GAMMA_GRID])
    factorized = build_cloners([AsymSpec(float(g), factorized=True) for g in GAMMA_GRID])
    sym = [_one(SymSpec(n, m)) for n, m in SYM_CASES]
    big = _one(SymSpec(16, 128))
    # the direct and factorized machines share a layout; each sym machine has its own
    shuffled = join_stacks([stack.take([i]) for k in range(14)
                            for stack, i in ((direct, 3 * k % 41), (factorized, k))])
    duplicates = [join_stacks([big] * 3), direct.take([5, 5]), join_stacks([sym[2]] * 2)]
    for stack in (direct, factorized, shuffled, *duplicates, big, factorized.take([7]), *sym):
        assert clone_figures(_read(stack, xi)) == [
            row_norm_report(stack, xi, i) for i in range(len(stack))]


def test_a_list_of_mixed_layouts_is_refused():
    # one stack has one layout: a machine is not read in another's clone rows
    asym, sym = _one(AsymSpec(0.2)), _one(SymSpec(2, 3))
    one_two = _one(SymSpec(1, 2))  # three modes, as asym, on other clone wires
    for stacks in ([asym, sym], [sym, asym, asym], [asym, one_two]):
        with pytest.raises(ValueError, match="^join_stacks takes stacks of one layout"):
            join_stacks(stacks)
    with pytest.raises(ValueError, match="^build_cloners takes specs of one form"):
        build_cloners([AsymSpec(0.2), SymSpec(2, 3)])


@pytest.mark.parametrize("specs, xis, refusal", [
    ([], (1.0,), "machine"),
    ([AsymSpec(float(g)) for g in GAMMA_GRID], (), "amplitude"),
], ids=["no-machine", "no-amplitude"])
def test_a_read_refuses_no_machine_and_no_amplitude(specs, xis, refusal):
    # an empty stack or an empty list of amplitudes reads nothing, and would
    # pass every gate having read nothing: both are refused
    with pytest.raises(ValueError, match=f"^read_clones needs at least one {refusal}$"):
        read_clones(build_cloners(specs), xis)


def _refusals(stacks, xi):
    """What reading each stack of one alone raises, for those refused."""
    refusals = []
    for stack in stacks:
        try:
            row_norm_report(stack, xi)
        except ValueError as exc:
            refusals.append(str(exc))
    return refusals


def test_a_refused_stack_raises_a_refusal_a_loop_would_raise():
    # each gate runs over the whole stack in turn, so the stack may raise a
    # later machine's refusal; which one a sweep names is cmd_sweep's rule
    built = build_cloners([AsymSpec(g) for g in (-0.6, 0.1, 0.4, 0.9)])
    asym = [built.take([i]) for i in range(len(built))]
    sym = [_one(SymSpec(2, 3)) for _ in range(3)]
    xi = 0.7 - 0.2j
    crafted = [
        # a gain fault before an anisotropic clone
        [asym[0], faulty(asym[1], "gain_first"), faulty(asym[2], "squeezed_first")],
        [sym[0], faulty(sym[2], "gain_last"), faulty(sym[1], "squeezed_first")],
        # one machine with a gain fault on clone 1 and a NaN on clone 2
        [asym[0], faulty(faulty(asym[3], "gain_first"), "nan_last")],
    ]
    pool = asym + [faulty(asym[k], fault) for k, fault in enumerate(
        ("gain_first", "gain_last", "squeezed_first", "nan_last"))]
    shuffled = [random.Random(seed).sample(pool, len(pool)) for seed in range(12)]
    for stacks in crafted + shuffled:
        refusals = _refusals(stacks, xi)
        with pytest.raises(ValueError) as err:
            _read(join_stacks(stacks), xi)
        assert str(err.value) in refusals
    assert "non-unit gain" in _refusals(crafted[0], xi)[0]
    assert _refusals(crafted[2], xi)[0].startswith("clone_2: covariance is not isotropic")


READ_XI = (*XI_PROBES, Q_PROBE)  # what verify reads each shared machine at; 0 comes first


def test_one_read_at_several_amplitudes_equals_a_read_at_each():
    # exact equality: the amplitude-free figures are computed once, and each
    # amplitude's means by the matrix-vector product a one-amplitude read takes
    direct = build_cloners([AsymSpec(float(g)) for g in GAMMA_GRID])
    factorized = build_cloners([AsymSpec(float(g), factorized=True) for g in GAMMA_GRID])
    sym = [_one(SymSpec(n, m)) for n, m in SYM_CASES]
    for stack in (direct, factorized, _one(SymSpec(16, 128)), *sym):
        read = read_clones(stack, READ_XI)
        assert read.refusal is None and not read.refused.any()
        assert [clone_figures(read, x) for x in range(len(READ_XI))] == [
            clone_figures(_read(stack, xi)) for xi in READ_XI]


def test_a_stack_reads_as_a_list_of_its_machines():
    # one read body: a stack joined from its registers, each taken as a stack
    # of one, reads field for field what the stack build_cloners returns reads
    stacks = [circuits.build_cloners([AsymSpec(float(g), factorized=f) for g in GAMMA_GRID])
              for f in (False, True)]
    stacks += [circuits.build_cloners([SymSpec(n, m)]) for n, m in SYM_CASES]
    stacks.append(circuits.build_cloners([SymSpec(3, 5)] * 2))
    for stack in stacks:
        as_list = join_stacks([stack.take([i]) for i in range(len(stack))])
        assert as_list.specs == stack.specs
        assert not any(a.flags.writeable for a in (as_list.A, as_list.B, as_list.symplectic_dev))
        from_stack, from_list = (read_clones(s, READ_XI) for s in (stack, as_list))
        for name in (*FIGURES, "amplitude", "refused"):
            assert np.array_equal(getattr(from_stack, name), getattr(from_list, name)), name
        assert from_stack.refusal is from_list.refusal is None


def test_a_read_at_several_amplitudes_names_the_clone_the_first_refusing_one_names():
    # a gain of -1 keeps xi = 0, so the first amplitude passes and xi = 1 refuses
    built = build_cloners([AsymSpec(g) for g in (-0.6, 0.1, 0.4)])
    asym = [built.take([i]) for i in range(len(built))]
    sym = _one(SymSpec(2, 3))
    named = []
    for stacks, refused in (([asym[0], faulty(asym[1], "gain_first"), asym[2]], [1]),
                            ([faulty(asym[2], "gain_last"), faulty(asym[0], "gain_first")],
                             [0, 1]),
                            ([faulty(sym, "gain_last")], [0]),
                            ([asym[1], faulty(asym[0], "squeezed_first")], [1])):
        stack = join_stacks(stacks)
        read = read_clones(stack, READ_XI)
        refusals = []
        for xi in READ_XI:
            try:
                _read(stack, xi)
            except ValueError as exc:
                refusals.append(str(exc))
        assert read.refusal == refusals[0]
        assert np.flatnonzero(read.refused).tolist() == refused
        named.append(read.refusal.split(":")[0])
    assert named == ["clone_1", "clone_2", "clone_3", "clone_1"]


def test_clone_output_state_is_the_reference_evolution_bit_for_bit():
    # S (I/2) S^T formed as (S/2) S^T in one gemm: S (I/2) is S/2 exactly
    for spec in READOUT_SPECS:
        machine = _one(spec)
        for xi in (0j, 0.7 - 0.2j):
            out = clone_output_state(machine, xi)
            ref = apply_to_gaussian(register(machine),
                                    coherent_vacuum_input(input_amplitudes(machine, xi)))
            assert np.array_equal(out.mean, ref.mean), spec
            assert np.array_equal(out.cov, ref.cov), spec


@pytest.mark.parametrize("specs", [
    [AsymSpec(float(g)) for g in GAMMA_GRID],
    [AsymSpec(float(g), factorized=True) for g in GAMMA_GRID],
    [AsymSpec(g) for g in np.linspace(-6.0, 6.0, 2001).tolist()],
    *([SymSpec(n, m)] for n, m in SYM_CASES),
], ids=["grid-direct", "grid-factorized", "2001-points", *(f"sym-{n}-{m}" for n, m in SYM_CASES)])
def test_a_read_takes_each_spec_s_closed_forms_bit_for_bit(specs):
    # the asymmetric forms are taken in one pass over the stack's gammas,
    # and equal the per-spec closed forms, float for float
    read = analysis.read_clones(circuits.build_cloners(specs), (1,))
    assert read.n_chaotic_formula.tolist() == [list(expected_chaotic_photons(s)) for s in specs]
    assert read.fidelity_formula.tolist() == [list(expected_fidelities(s)) for s in specs]
    assert read.n_chaotic_formula.tobytes() == np.array(
        [expected_chaotic_photons(s) for s in specs]).tobytes()
    assert read.fidelity_formula.tobytes() == np.array(
        [expected_fidelities(s) for s in specs]).tobytes()
