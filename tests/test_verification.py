"""Verification suites fail closed on non-finite deviations."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from cvcloner import circuits, gaussian, verification
from cvcloner.circuits import AsymSpec, SymSpec, join_stacks
from cvcloner.verification import GAIN_PROBE, Q_PROBE, XI_PROBES
from reference import Transform, clone_output_state, faulty, symplectic_form, unchecked


def _stacks():
    # the shared machines: the asymmetric stack, then each symmetric stack of one
    shared = verification._shared()
    return [shared.asym, *shared.sym]


def _noise_products():
    # noise_product_saturation reads the direct grid machines' B-row counts
    return verification._read(verification._shared().direct, (1,)).n_chaotic


def _defects():
    # phase_covariance reads every shared machine's clones
    reads = [verification._read(stack, (Q_PROBE,)) for stack in _stacks()]
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
        # the suite reads stacks: every machine's figure reads NaN
        stacks = _stacks()
        assert suite(stacks).passed
        monkeypatch.setattr(verification, figure, lambda A, B: np.full(len(A), math.nan))
        result = suite(stacks)
    assert not result.passed
    assert result.max_dev == math.inf


def _array_suites():
    """Each suite that reads arrays of figures, with clean arguments of the
    shapes standard_suites gives it."""
    reads = [verification._read(stack, READ_XI) for stack in _stacks()]
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
    stacks = _stacks()
    last = stacks[-1]
    A = last.A[0].copy()
    A[last.clone_modes[-1].index, 1] = math.nan
    stacks[-1] = unchecked(last, Transform(A, last.B[0]))
    assert verification.uncertainty_preservation(_stacks()).passed
    assert verification.uncertainty_preservation(stacks).max_dev == math.inf
    shared = verification._shared()
    factorized = shared.factorized
    A = factorized.A[7].copy()
    A[0, 0] = math.nan
    k = len(factorized)
    poisoned = join_stacks([factorized.take(range(7)),
                            unchecked(factorized, Transform(A, factorized.B[7]), 7),
                            factorized.take(range(8, k))])
    assert verification.factorization_equivalence(shared.direct, shared.factorized).passed
    assert verification.factorization_equivalence(
        shared.direct, poisoned).max_dev == math.inf


def test_a_refused_machine_reads_nan_and_the_rest_of_its_stack_as_alone():
    asym = verification._shared().asym
    broken = join_stacks([asym.take([0]), faulty(asym, "gain_first", 1), asym.take([2]),
                          faulty(asym, "squeezed_first", 3)])
    read = verification._read(broken, READ_XI)
    assert read.refused.tolist() == [False, True, False, True]
    for field in ("n_chaotic", "n_chaotic_state", "n_chaotic_formula", "fidelity_formula",
                  "phase_covariance_defect", "fidelity", "q_peak", "amplitude"):
        figure = getattr(read, field)
        assert np.isnan(figure[..., 1, :]).all() and np.isnan(figure[..., 3, :]).all(), field
        for k in (0, 2):
            alone = getattr(verification._read(broken.take([k]), READ_XI), field)
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
    for stack in _stacks():
        # one batched call per stack, one Hermitian matrix per machine
        gaussian.uncertainty_defect(stack.A, stack.B)
        hs = seen.pop()
        assert hs.shape == (len(stack), *(2 * stack.n_modes,) * 2)
        for i, h in enumerate(hs):
            for xi in (0j, 0.8 + 0.3j, *READ_XI):
                cov = clone_output_state(stack, xi, i).cov
                assert h.tobytes() == (cov + 0.5j * symplectic_form(stack.n_modes)).tobytes()
    assert seen == []


def test_the_amplitudes_unit_signal_gain_reads_are_the_full_state_s_within_two_ulp():
    # the readout's X_j x_in against the full state's S mean_in: the two
    # products round apart, by at most one ulp in each part (measured worst
    # |difference| 2.5e-16, one ulp of 1.1 and one of 0.6), so within two
    # ulp of |xi|
    for stack in _stacks():
        amplitude = verification._read(stack, READ_XI).amplitude[GAIN]
        for i, amps in enumerate(amplitude):
            state = clone_output_state(stack, GAIN_PROBE, i)
            for mode, amp in zip(stack.clone_modes, amps, strict=True):
                ref = state.mode_amplitude(mode)
                assert abs(amp - ref) <= 2 * np.spacing(abs(GAIN_PROBE)), (stack.specs[i], mode)


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
        stacks = verification._shared()
        shared = [spec for stack in (stacks.asym, *stacks.sym) for spec in stack.specs]
        grid = list(zip(stacks.direct.specs, stacks.factorized.specs, strict=True))
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


def test_a_stacked_uncertainty_defect_is_each_transform_s_alone_bit_for_bit():
    # one batched eigvalsh reads each matrix as a call on it alone does, for
    # every shared machine, the grid stacks and a stack of 16->128 copies
    shared = verification._shared()
    stacks = [*_stacks(), shared.direct, shared.factorized,
              circuits.build_cloners([SymSpec(16, 128)] * 3)]
    for stack in stacks:
        batched = gaussian.uncertainty_defect(stack.A, stack.B)
        alone = [gaussian.uncertainty_defect(stack.A[i:i + 1], stack.B[i:i + 1])
                 for i in range(len(stack))]
        assert batched.shape == (len(stack),)
        assert batched.tobytes() == np.concatenate(alone).tobytes()
        assert (batched < 1e-10).all()


def test_a_non_finite_transform_reads_inf_and_leaves_the_rest_of_its_stack_alone():
    asym = verification._shared().asym
    clean = gaussian.uncertainty_defect(asym.A, asym.B)
    for value in (math.nan, math.inf):
        A = asym.A.copy()
        A[3, 1, 2] = value
        defects = gaussian.uncertainty_defect(A, asym.B)
        assert defects[3] == math.inf
        assert np.delete(defects, 3).tobytes() == np.delete(clean, 3).tobytes()


def test_a_warm_standard_suites_makes_no_machine_and_no_stack_from_a_list(monkeypatch):
    # the suites read the cached stacks as they are: a warm call makes no
    # stack at all, by a build, a take or a join
    first = verification.standard_suites()  # builds the shared stacks if no test has

    def refuse(*args, **kwargs):
        raise AssertionError("a stack was made")

    monkeypatch.setattr(circuits.MachineStack, "__init__", refuse)
    assert verification.standard_suites() == first
    # the patch bites: a stack taken from a cached one raises
    with pytest.raises(AssertionError, match="a stack was made"):
        verification._shared().asym.take([0])


def test_the_shared_stacks_hold_the_machines_each_build_makes():
    shared = verification._shared()
    assert shared.direct.specs == tuple(AsymSpec(float(g)) for g in verification.GAMMA_GRID)
    assert shared.factorized.specs == tuple(AsymSpec(float(g), factorized=True)
                                            for g in verification.GAMMA_GRID)
    gammas = (-1.0, -0.5, 0.0, 0.3, 1.0)
    assert shared.asym.specs == tuple(AsymSpec(g, factorized=f)
                                      for f in (False, True) for g in gammas)
    assert [stack.specs for stack in shared.sym] == [(SymSpec(n, m),)
                                                     for n, m in verification.SYM_CASES]
    for stack in (shared.direct, shared.factorized, shared.asym, *shared.sym):
        assert not any(a.flags.writeable for a in (stack.A, stack.B, stack.symplectic_dev))
        assert stack.angles is None or not stack.angles.flags.writeable
        for i, spec in enumerate(stack.specs):
            alone = circuits.build_cloners([spec])
            assert stack.A[i].tobytes() == alone.A[0].tobytes()
            assert stack.B[i].tobytes() == alone.B[0].tobytes()
            assert stack.symplectic_dev[i] == alone.symplectic_dev[0]
            if stack.angles is None:
                assert alone.angles is None
            else:
                assert stack.angles[i].tolist() == alone.angles[0].tolist()
            assert (stack.signal_modes, stack.clone_modes) == (alone.signal_modes,
                                                               alone.clone_modes)


def test_an_oracle_ladder_run_twice_in_one_process_reads_the_same_details():
    # the rungs read the kept registers, flows and coherent columns the
    # second time, and recompute every figure they report
    first = verification.oracle_agreement(cutoffs=(10, 12))
    second = verification.oracle_agreement(cutoffs=(10, 12))
    assert first == second
    assert [d.hex() for d in first.details.values()] == [d.hex() for d in second.details.values()]
    assert first.passed and set(first.details) == {"cutoff_10", "cutoff_12", "monotone_break"}
