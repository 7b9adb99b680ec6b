"""Cloning machine constructions: closed form, factorized, symmetric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcloner import circuits, cli, gaussian
from cvcloner.analysis import read_clones
from cvcloner.circuits import AsymSpec, SymSpec, asym_params, build_cloners, join_stacks
from cvcloner.elements import distribute_gates
from cvcloner.gaussian import DEFAULT_TOL, NOPA, fold_stack
from cvcloner.verification import GAMMA_GRID, SYM_CASES
from reference import (
    as_transform,
    asym_params_one,
    build_per_point,
    compose,
    embed,
    input_amplitudes,
)

GAMMAS = np.linspace(-1.5, 1.5, 31)


def _direct(gammas):
    """The closed-form machines at some gammas, as one stack."""
    return build_cloners([AsymSpec(float(g)) for g in gammas])


def test_asym_direct_matrix_at_gamma_zero():
    stack = _direct([0.0])
    rt2 = np.sqrt(2.0)
    assert np.allclose(stack.A[0], [[1 / rt2, 0, 1], [0, rt2, 0], [-1 / rt2, 0, 1]])
    assert np.allclose(stack.B[0], [[0, -1 / rt2, 0], [0, 0, -1], [0, -1 / rt2, 0]])


def test_asym_direct_signal_coefficient_is_always_one():
    stack = _direct(GAMMAS)
    assert (stack.A[:, 0, 2] == 1.0).all() and (stack.A[:, 2, 2] == 1.0).all()
    assert (stack.B[:, 0, 2] == 0.0).all() and (stack.B[:, 2, 2] == 0.0).all()


def test_asym_direct_is_symplectic_across_gamma():
    assert (_direct(GAMMAS).symplectic_dev < 1e-12).all()


def test_asym_params_special_values_at_gamma_zero():
    u, v, w = asym_params(0.0)
    assert u == 0.0
    assert np.isclose(w, np.pi / 4)
    # sinh(v) = sqrt(cosh(0)) = 1, so v = arcsinh(1) = ln(1 + sqrt 2)
    assert np.isclose(v, math.log(1 + math.sqrt(2)))


def test_asym_params_internal_identities():
    for g in (-1.2, -0.3, 0.0, 0.4, 1.7):
        _, v, w = asym_params(g)
        assert np.isclose(math.sinh(v), math.sqrt(math.cosh(2 * g)), atol=1e-12)
        assert np.isclose(math.cosh(v), math.sqrt(2) * math.cosh(g), atol=1e-12)
        assert np.isclose(math.tan(w), math.exp(2 * g), atol=1e-12)


def test_asym_params_agree_with_direct_artanh_form():
    for g in (-2.0, -0.5, 0.1, 1.0, 3.0):
        v = asym_params(g)[1]
        naive = math.atanh(math.sqrt(1 + math.exp(4 * g)) / (1 + math.exp(2 * g)))
        assert np.isclose(v, naive, rtol=1e-12)


def test_asym_params_stable_at_large_gamma():
    # at the edge of the domain the artanh argument rounds toward 1
    for g in (6.0, -6.0):
        angles = asym_params(g)
        assert all(map(math.isfinite, angles))
        assert np.isclose(math.sinh(angles[1]) ** 2, math.cosh(2 * g), rtol=1e-10)


def test_factorized_equals_direct_elementwise():
    d = _direct(GAMMAS)
    f = build_cloners([AsymSpec(float(g), factorized=True) for g in GAMMAS])
    assert np.abs(d.A - f.A).max() < 1e-12
    assert np.abs(d.B - f.B).max() < 1e-12


def test_gamma_domain_is_enforced():
    with pytest.raises(ValueError):
        AsymSpec(20.5)
    with pytest.raises(ValueError):
        asym_params(-21.0)
    with pytest.raises(ValueError):
        AsymSpec(6.5)
    with pytest.raises(ValueError):
        asym_params(-6.5)
    with pytest.raises(ValueError):
        AsymSpec(float("nan"))
    with pytest.raises(ValueError):
        AsymSpec(25.0)


def test_gamma_limit_sits_below_the_first_failing_check(monkeypatch):
    # GAMMA_LIMIT's comment: rounding first pushes an asymmetric machine past
    # checked_stack at |gamma| = 6.59 on a 0.01 grid, and at |gamma| <= 6
    # the worst deviation (3.2e-11) stays well inside DEFAULT_TOL; each form
    # is folded as a build of one folds it, and measured unrefused
    monkeypatch.setattr(circuits, "GAMMA_LIMIT", 7.0)

    def direct(g):
        return circuits._asym_direct_rows(np.array(g))

    def factorized(g):
        return fold_stack(circuits._asym_gates(*asym_params(g)), 3)

    def worst(g):
        devs = [gaussian._deviations(rows[:, 0], rows[:, 1])
                for build in (direct, factorized) for rows in (build(g), build(-g))]
        return max(float(dev[0]) for pair in devs for dev in pair)

    assert max(worst(k / 100) for k in range(601)) <= DEFAULT_TOL / 2
    first = next(k / 100 for k in range(601, 701) if worst(k / 100) > DEFAULT_TOL)
    assert first == 6.59


def test_sym_spec_validation():
    with pytest.raises(ValueError):
        SymSpec(0, 2)
    with pytest.raises(ValueError):
        SymSpec(3, 2)
    SymSpec(2, 2)  # boundary is allowed


@pytest.mark.parametrize("gamma", [np.complex128(0.3 + 0.1j), 0.3 + 0j, "0.3"],
                         ids=["numpy-complex", "python-complex", "string"])
def test_asym_spec_refuses_a_gamma_that_is_not_real(gamma):
    with pytest.raises(ValueError, match="gamma must be a real number"):
        AsymSpec(gamma)


def test_asym_spec_keeps_the_float_it_checked():
    for gamma in (1, np.float32(0.25), np.float64(-0.5)):
        spec = AsymSpec(gamma)
        assert type(spec.gamma) is float and spec.gamma == float(gamma)


@pytest.mark.parametrize("n, m", [(2.5, 5), (2, 5.0), (2.0, 5), ("2", 5)])
def test_sym_spec_refuses_counts_that_are_not_integers(n, m):
    with pytest.raises(ValueError, match="n and m must be integers"):
        SymSpec(n, m)


def test_sym_spec_takes_numpy_integers_as_ints():
    spec = SymSpec(np.int64(2), np.int32(5))
    assert (type(spec.n), type(spec.m)) == (int, int)
    assert spec == SymSpec(2, 5)
    assert np.array_equal(build_cloners([spec]).A, build_cloners([SymSpec(2, 5)]).A)


def test_sym_one_input_is_nopa_then_split():
    # dense reference: NOPA(acosh sqrt M) on (signal, idler), then the split
    for m in (1, 2, 4):
        total = m + 1
        amp = embed(as_transform(fold_stack((NOPA(math.acosh(math.sqrt(m)), 0, 1),), 2)),
                    [0, 1], total)
        split = embed(as_transform(fold_stack(distribute_gates(m, list(range(m))), m)),
                      [0, *range(2, total)], total)
        a, b = compose(split, amp), build_cloners([SymSpec(1, m)])
        assert np.allclose(a.A, b.A[0], atol=1e-14)
        assert np.allclose(a.B, b.B[0], atol=1e-14)


def test_sym_n_to_m_mode_count_and_symplectic():
    for n, m in ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4)):
        stack = build_cloners([SymSpec(n, m)])
        assert stack.n_modes == n + m and stack.A.shape == (1, n + m, n + m)
        assert stack.symplectic_dev[0] < 1e-12


def test_sym_n_to_m_rejects_shrinking():
    with pytest.raises(ValueError):
        build_cloners([SymSpec(3, 2)])
    with pytest.raises(ValueError):
        SymSpec(1, 0)


def _idle_modes(stack):
    """The modes that are neither a signal nor a clone: the NOPA idler alone."""
    return set(range(stack.n_modes)) - {m.index for m in stack.signal_modes
                                        + stack.clone_modes}


def test_build_cloner_asym_wiring():
    machine = build_cloners([AsymSpec(0.2)])
    assert machine.n_modes == 3
    assert [m.index for m in machine.clone_modes] == [0, 2]
    assert machine.signal_modes[0].index == 2
    assert _idle_modes(machine) == {1}
    amps = input_amplitudes(machine, 0.5j)
    assert amps == [0j, 0j, 0.5j]


def test_build_cloner_respects_factorized_flag():
    direct = build_cloners([AsymSpec(0.4)])
    fact = build_cloners([AsymSpec(0.4, factorized=True)])
    assert np.abs(direct.A - fact.A).max() < 1e-12
    # both go through distinct code paths; spot a genuinely different array
    assert direct.A.base is not fact.A.base
    # the closed form keeps the angles that only the factorized build folds
    assert direct.angles.tolist() == fact.angles.tolist()


def test_build_cloner_sym_wiring():
    machine = build_cloners([SymSpec(2, 4)])
    assert machine.n_modes == 6
    assert [m.index for m in machine.signal_modes] == [0, 1]
    assert _idle_modes(machine) == {2}
    assert [m.index for m in machine.clone_modes] == [0, 3, 4, 5]
    amps = input_amplitudes(machine, 1 + 1j)
    assert amps[0] == amps[1] == 1 + 1j
    assert all(a == 0j for a in amps[2:])


def _assert_built_one_by_one(specs):
    """build_cloners(specs), for specs of one form, holds, register by
    register, what each spec built on its own, folded or written out and
    checked alone, holds, in read-only arrays."""
    stack = build_cloners(specs)
    assert stack.specs == tuple(specs) and len(stack) == len(specs)
    arrays = [stack.A, stack.B, stack.symplectic_dev, stack.angles]
    assert not specs or not any(a.flags.writeable for a in arrays if a is not None)
    for i, spec in enumerate(stack.specs):
        alone = build_per_point(spec)
        assert np.array_equal(stack.A[i], alone.A[0])
        assert np.array_equal(stack.B[i], alone.B[0])
        assert stack.symplectic_dev[i] == alone.symplectic_dev[0]
        if alone.angles is None:
            assert stack.angles is None
        else:
            assert stack.angles[i].tolist() == alone.angles[0].tolist()
        assert stack.signal_modes == alone.signal_modes
        assert stack.clone_modes == alone.clone_modes


def _assert_each_form_built_one_by_one(specs):
    """_assert_built_one_by_one on each form's specs, in their order."""
    forms = {}
    for spec in specs:
        forms.setdefault(circuits._form(spec), []).append(spec)
    assert len(forms) > 1
    for same_form in forms.values():
        _assert_built_one_by_one(same_form)


@pytest.mark.parametrize("factorized", [False, True], ids=["direct", "factorized"])
@pytest.mark.parametrize("gammas", [GAMMA_GRID, np.linspace(-6.0, 6.0, 1201)],
                         ids=["grid-41", "grid-1201"])
def test_a_stack_of_asymmetric_machines_equals_them_built_one_by_one(gammas, factorized):
    _assert_built_one_by_one([AsymSpec(float(g), factorized=factorized) for g in gammas])


MIXED_SPECS = [AsymSpec(-0.7), SymSpec(1, 2), AsymSpec(0.3, factorized=True),
               AsymSpec(0.4, factorized=True), AsymSpec(0.4),
               *(SymSpec(n, m) for n, m in SYM_CASES), SymSpec(16, 128),
               AsymSpec(1.0), AsymSpec(-1.0), AsymSpec(1.0, factorized=True)]


def test_interleaved_specs_build_as_one_by_one():
    _assert_each_form_built_one_by_one(MIXED_SPECS)


def test_duplicate_specs_build_as_one_by_one():
    _assert_each_form_built_one_by_one(
        [AsymSpec(0.2)] * 3 + [SymSpec(3, 5)] * 2 + [SymSpec(16, 128)] * 2
        + [AsymSpec(0.2, factorized=True)] * 2 + [AsymSpec(0.2)])


@pytest.mark.parametrize("spec", MIXED_SPECS, ids=str)
def test_a_list_of_one_builds_as_one_by_one(spec):
    _assert_built_one_by_one([spec])
    assert len(build_cloners([])) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-6.0, max_value=6.0), st.booleans()),
                min_size=1, max_size=40))
def test_random_gamma_lists_of_mixed_forms_build_as_one_by_one(points):
    for factorized in (False, True):
        _assert_built_one_by_one([AsymSpec(g, factorized=f) for g, f in points
                                  if f is factorized])


@pytest.mark.parametrize("specs", [
    [AsymSpec(0.2), AsymSpec(0.2, factorized=True)],
    [AsymSpec(0.2), SymSpec(1, 2)],
    [SymSpec(1, 2), SymSpec(1, 2), SymSpec(1, 3)],
], ids=["two-asym-forms", "asym-and-sym", "two-sym-machines"])
def test_a_list_of_mixed_forms_is_refused(specs):
    # one stack has one form: the list is not built in its first spec's form
    with pytest.raises(ValueError, match="specs of one form"):
        build_cloners(specs)
    assert len(build_cloners([])) == 0


def _assert_same_register(stack, i, alone):
    """Register i of a stack holds what a stack of one holds, bit for bit."""
    assert stack.specs[i] == alone.specs[0]
    for field in ("A", "B", "symplectic_dev"):
        assert getattr(stack, field)[i].tobytes() == getattr(alone, field)[0].tobytes(), field
    if alone.angles is None:
        assert stack.angles is None
    else:
        assert stack.angles[i].tobytes() == alone.angles[0].tobytes()
    assert (stack.signal_modes, stack.clone_modes) == (alone.signal_modes, alone.clone_modes)


@pytest.mark.parametrize("specs", [
    [AsymSpec(float(g)) for g in GAMMA_GRID],
    [AsymSpec(float(g), factorized=True) for g in GAMMA_GRID],
    *([SymSpec(n, m)] for n, m in SYM_CASES),
    [SymSpec(2, 3)] * 3,
], ids=["grid-direct", "grid-factorized", *(f"sym-{n}-{m}" for n, m in SYM_CASES),
        "sym-2-3-copies"])
def test_a_stack_makes_each_machine_as_build_cloner_does(monkeypatch, specs):
    # a stack of k specs is checked by one batched product, and holds,
    # register by register, what a build of each spec alone holds
    alone = [build_cloners([spec]) for spec in specs]
    checks = []
    real = gaussian._deviations
    monkeypatch.setattr(gaussian, "_deviations", lambda A, B: checks.append(len(A)) or real(A, B))
    stack = build_cloners(specs)
    assert checks == [len(specs)] and len(stack) == len(specs)
    assert stack.specs == tuple(specs)
    assert not (stack.A.flags.writeable or stack.B.flags.writeable
                or stack.symplectic_dev.flags.writeable)
    assert stack.angles is None or not stack.angles.flags.writeable
    for i, one in enumerate(alone):
        _assert_same_register(stack, i, one)


def test_a_taken_or_joined_stack_holds_its_registers_bit_for_bit(monkeypatch):
    # take and join_stacks gather registers from the stacks' arrays: none is
    # checked again, and every array is read-only
    direct = build_cloners([AsymSpec(g) for g in (-1.0, 0.3, 2.0)])
    factorized = build_cloners([AsymSpec(g, factorized=True) for g in (0.5, -0.25)])
    origin = [(direct, 2), (direct, 0), (factorized, 0), (factorized, 1)]
    alone = [build_cloners([stack.specs[i]]) for stack, i in origin]
    checks = []
    real = gaussian._deviations
    monkeypatch.setattr(gaussian, "_deviations", lambda A, B: checks.append(len(A)) or real(A, B))
    taken = direct.take([2, 0])
    joined = join_stacks([taken, factorized])
    assert checks == []
    assert joined.specs == (direct.specs[2], direct.specs[0], *factorized.specs)
    for field in ("A", "B", "symplectic_dev", "angles"):
        array = getattr(joined, field)
        assert not array.flags.writeable, field
        assert array.tobytes() == np.stack([getattr(s, field)[i] for s, i in origin]).tobytes()
    assert (joined.signal_modes, joined.clone_modes) == (direct.signal_modes, direct.clone_modes)
    for i, one in enumerate(alone):
        _assert_same_register(joined, i, one)
    # a symmetric stack has no angles, and a join keeps none of it
    sym = build_cloners([SymSpec(1, 2)] * 2)
    assert sym.take([1]).angles is None and join_stacks([sym, sym]).angles is None


def test_join_stacks_refuses_no_stack_and_mixed_layouts():
    with pytest.raises(ValueError, match="at least one stack"):
        join_stacks([])
    # the 1->2 machines share a register size and clone modes, not signal modes
    with pytest.raises(ValueError, match="one layout"):
        join_stacks([build_cloners([AsymSpec(0.3)]), build_cloners([SymSpec(1, 2)])])


def test_a_machine_evaluates_its_check_once(monkeypatch):
    # the build runs the check body once; reading the machine, and the
    # CLI's gate over the read, read its deviation and run it never again
    calls = []
    real = gaussian._deviations
    monkeypatch.setattr(gaussian, "_deviations", lambda A, B: calls.append(len(A)) or real(A, B))
    machine = build_cloners([SymSpec(2, 3)])
    read = read_clones(machine, (1.0, 0.3j))
    names = [m.name for m in machine.clone_modes]
    assert cli._physics_violations(machine.symplectic_dev, read, names, DEFAULT_TOL) == []
    assert calls == [1]


def test_a_stack_takes_the_angles_asym_params_takes_without_checking_again(monkeypatch):
    # the angles of a stack, taken over its array of gammas, are the floats
    # of one gamma at a time, and its specs' gammas are not checked again
    gammas = [*np.linspace(-6.0, 6.0, 1201).tolist(),
              *np.random.default_rng(29).uniform(-6.0, 6.0, 2000).tolist()]
    specs = [AsymSpec(g, factorized=True) for g in gammas]
    checked = []
    real = circuits._check_gamma
    monkeypatch.setattr(circuits, "_check_gamma", lambda g: checked.append(g) or real(g))
    stack = build_cloners(specs)
    assert checked == []
    one_by_one = [asym_params_one(g) for g in gammas]
    assert [tuple(row) for row in stack.angles.tolist()] == one_by_one
    assert [asym_params(g) for g in gammas] == one_by_one


@pytest.mark.parametrize("factorized", [False, True], ids=["direct", "factorized"])
def test_a_stack_refuses_the_first_spec_a_loop_would_refuse(monkeypatch, factorized):
    # past GAMMA_LIMIT rounding fails the check for real, at some points
    # and not at others; the stack raises the first one's refusal
    monkeypatch.setattr(circuits, "GAMMA_LIMIT", 7.0)
    specs = [AsymSpec(float(g), factorized=factorized) for g in np.linspace(6.0, 7.0, 21)]
    alone = [build_per_point(spec) for spec in specs]
    failing = [j for j, one in enumerate(alone) if not one.symplectic_dev[0] <= DEFAULT_TOL]
    assert 0 < failing[0] < failing[-1]
    with pytest.raises(ValueError) as first:
        build_cloners([specs[failing[0]]])
    with pytest.raises(ValueError) as refused:
        build_cloners(specs)
    assert str(refused.value) == str(first.value)
