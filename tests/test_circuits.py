"""Cloning machine constructions: closed form, factorized, symmetric."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcloner import circuits
from cvcloner.circuits import (
    AsymSpec,
    SymSpec,
    asym_direct,
    asym_factorized,
    asym_params,
    build_cloner,
    build_cloners,
)
from cvcloner.elements import distribute_gates
from cvcloner.gaussian import (
    DEFAULT_TOL,
    NOPA,
    BogoliubovTransform,
    check_symplectic,
    fold_gates,
    require_symplectic,
)
from cvcloner.verification import GAMMA_GRID, SYM_CASES
from reference import build_per_point, compose, embed, input_amplitudes

GAMMAS = np.linspace(-1.5, 1.5, 31)


def test_asym_direct_matrix_at_gamma_zero():
    t = asym_direct(0.0)
    rt2 = np.sqrt(2.0)
    assert np.allclose(t.A, [[1 / rt2, 0, 1], [0, rt2, 0], [-1 / rt2, 0, 1]])
    assert np.allclose(t.B, [[0, -1 / rt2, 0], [0, 0, -1], [0, -1 / rt2, 0]])


def test_asym_direct_signal_coefficient_is_always_one():
    for g in GAMMAS:
        t = asym_direct(g)
        assert t.A[0, 2] == 1.0 and t.A[2, 2] == 1.0
        assert t.B[0, 2] == 0.0 and t.B[2, 2] == 0.0


def test_asym_direct_is_symplectic_across_gamma():
    for g in GAMMAS:
        assert check_symplectic(asym_direct(g)).max_dev < 1e-12


def test_asym_params_special_values_at_gamma_zero():
    p = asym_params(0.0)
    assert p.u == 0.0
    assert np.isclose(p.w, np.pi / 4)
    # sinh(v) = sqrt(cosh(0)) = 1, so v = arcsinh(1) = ln(1 + sqrt 2)
    assert np.isclose(p.v, math.log(1 + math.sqrt(2)))


def test_asym_params_internal_identities():
    for g in (-1.2, -0.3, 0.0, 0.4, 1.7):
        p = asym_params(g)
        assert np.isclose(math.sinh(p.v), math.sqrt(math.cosh(2 * g)), atol=1e-12)
        assert np.isclose(math.cosh(p.v), math.sqrt(2) * math.cosh(g), atol=1e-12)
        assert np.isclose(math.tan(p.w), math.exp(2 * g), atol=1e-12)


def test_asym_params_agree_with_direct_artanh_form():
    for g in (-2.0, -0.5, 0.1, 1.0, 3.0):
        p = asym_params(g)
        naive = math.atanh(math.sqrt(1 + math.exp(4 * g)) / (1 + math.exp(2 * g)))
        assert np.isclose(p.v, naive, rtol=1e-12)


def test_asym_params_stable_at_large_gamma():
    # at the edge of the domain the artanh argument rounds toward 1
    for g in (6.0, -6.0):
        p = asym_params(g)
        assert math.isfinite(p.u) and math.isfinite(p.v) and math.isfinite(p.w)
        assert np.isclose(math.sinh(p.v) ** 2, math.cosh(2 * g), rtol=1e-10)


def test_factorized_equals_direct_elementwise():
    for g in GAMMAS:
        d, f = asym_direct(g), asym_factorized(asym_params(g))
        assert np.abs(d.A - f.A).max() < 1e-12
        assert np.abs(d.B - f.B).max() < 1e-12


def test_gamma_domain_is_enforced():
    with pytest.raises(ValueError):
        asym_direct(20.5)
    with pytest.raises(ValueError):
        asym_params(-21.0)
    with pytest.raises(ValueError):
        asym_direct(6.5)
    with pytest.raises(ValueError):
        asym_params(-6.5)
    with pytest.raises(ValueError):
        AsymSpec(float("nan"))
    with pytest.raises(ValueError):
        AsymSpec(25.0)


def test_gamma_limit_sits_below_the_first_failing_check(monkeypatch):
    # GAMMA_LIMIT's comment: rounding first pushes an asymmetric machine past
    # check_symplectic at |gamma| = 6.59 on a 0.01 grid, and at |gamma| <= 6
    # the worst deviation (3.2e-11) stays well inside DEFAULT_TOL
    monkeypatch.setattr(circuits, "GAMMA_LIMIT", 7.0)

    def factorized(g):
        return asym_factorized(asym_params(g))

    def worst(g):
        return max(check_symplectic(build(s * g)).max_dev
                   for build in (asym_direct, factorized) for s in (1.0, -1.0))

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
    assert np.array_equal(build_cloner(spec).transform.A, build_cloner(SymSpec(2, 5)).transform.A)


def test_sym_one_input_is_nopa_then_split():
    # dense reference: NOPA(acosh sqrt M) on (signal, idler), then the split
    for m in (1, 2, 4):
        total = m + 1
        amp = embed(fold_gates((NOPA(math.acosh(math.sqrt(m)), 0, 1),), 2), [0, 1], total)
        split = embed(fold_gates(distribute_gates(m, list(range(m))), m),
                      [0, *range(2, total)], total)
        a, b = compose(split, amp), build_cloner(SymSpec(1, m)).transform
        assert np.allclose(a.A, b.A, atol=1e-14)
        assert np.allclose(a.B, b.B, atol=1e-14)


def test_sym_n_to_m_mode_count_and_symplectic():
    for n, m in ((1, 2), (2, 3), (3, 5), (2, 5), (4, 4)):
        t = build_cloner(SymSpec(n, m)).transform
        assert t.n_modes == n + m
        assert check_symplectic(t).max_dev < 1e-12


def test_sym_n_to_m_rejects_shrinking():
    with pytest.raises(ValueError):
        build_cloner(SymSpec(3, 2))
    with pytest.raises(ValueError):
        SymSpec(1, 0)


def _idle_modes(machine):
    """The modes that are neither a signal nor a clone: the NOPA idler alone."""
    return set(range(machine.n_modes)) - {m.index for m in machine.signal_modes
                                          + machine.clone_modes}


def test_build_cloner_asym_wiring():
    machine = build_cloner(AsymSpec(0.2))
    assert machine.n_modes == 3
    assert [m.index for m in machine.clone_modes] == [0, 2]
    assert machine.signal_modes[0].index == 2
    assert _idle_modes(machine) == {1}
    amps = input_amplitudes(machine, 0.5j)
    assert amps == [0j, 0j, 0.5j]


def test_build_cloner_respects_factorized_flag():
    direct = build_cloner(AsymSpec(0.4)).transform
    fact = build_cloner(AsymSpec(0.4, factorized=True)).transform
    assert np.abs(direct.A - fact.A).max() < 1e-12
    # both go through distinct code paths; spot a genuinely different object
    assert direct is not fact


def test_build_cloner_sym_wiring():
    machine = build_cloner(SymSpec(2, 4))
    assert machine.n_modes == 6
    assert [m.index for m in machine.signal_modes] == [0, 1]
    assert _idle_modes(machine) == {2}
    assert [m.index for m in machine.clone_modes] == [0, 3, 4, 5]
    amps = input_amplitudes(machine, 1 + 1j)
    assert amps[0] == amps[1] == 1 + 1j
    assert all(a == 0j for a in amps[2:])


def _assert_built_one_by_one(specs):
    """build_cloners(specs), for specs of one form, holds, machine by
    machine, what each spec built on its own, folded or written out and
    checked alone, holds."""
    machines = build_cloners(specs)
    assert [m.spec for m in machines] == list(specs)
    for machine in machines:
        alone = build_per_point(machine.spec)
        assert np.array_equal(machine.transform.A, alone.transform.A)
        assert np.array_equal(machine.transform.B, alone.transform.B)
        assert machine.symplectic_dev == alone.symplectic_dev
        assert machine.angles == alone.angles
        assert machine.signal_modes == alone.signal_modes
        assert machine.clone_modes == alone.clone_modes


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
    assert build_cloners([]) == []


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
    assert build_cloners([]) == []


def test_a_machine_built_in_a_stack_refuses_a_replaced_transform():
    # a stacked machine's check stays with its own transform: any other one,
    # made by hand or by replace, is checked again
    machines = build_cloners([AsymSpec(g) for g in (-0.5, 0.0, 0.5)])
    t = machines[1].transform
    for scaled in (BogoliubovTransform(A=1.01 * t.A, B=t.B), replace(t, A=1.01 * t.A)):
        with pytest.raises(ValueError, match="not symplectic"):
            replace(machines[1], transform=scaled)
    assert replace(machines[1], transform=t) == machines[1]
    # a deep copy's arrays can be written to, so its check is run again
    copied = copy.deepcopy(t)
    copied.A[0, 0] *= 1.01
    with pytest.raises(ValueError, match="not symplectic"):
        replace(machines[1], transform=copied)


@pytest.mark.parametrize("factorized", [False, True], ids=["direct", "factorized"])
def test_a_stack_refuses_the_first_spec_a_loop_would_refuse(monkeypatch, factorized):
    # past GAMMA_LIMIT rounding fails the check for real, at some points
    # and not at others; the stack raises the first one's refusal
    monkeypatch.setattr(circuits, "GAMMA_LIMIT", 7.0)
    specs = [AsymSpec(float(g), factorized=factorized) for g in np.linspace(6.0, 7.0, 21)]
    alone = [build_per_point(spec) for spec in specs]
    failing = [j for j, machine in enumerate(alone) if not machine.symplectic_dev <= DEFAULT_TOL]
    assert 0 < failing[0] < failing[-1]
    with pytest.raises(ValueError) as first:
        require_symplectic(alone[failing[0]].transform)
    with pytest.raises(ValueError) as refused:
        build_cloners(specs)
    assert str(refused.value) == str(first.value)
