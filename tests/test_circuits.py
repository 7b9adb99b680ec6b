"""Cloning machine constructions: closed form, factorized, symmetric."""

import math

import numpy as np
import pytest

from cvcloner.circuits import (
    AsymSpec,
    SymSpec,
    asym_direct,
    asym_factorized,
    asym_params,
    build_cloner,
)
from cvcloner.elements import distribute_chain, nopa
from cvcloner.gaussian import check_symplectic, compose, embed

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
    # the textbook artanh form overflows around |gamma| ~ 18
    for g in (18.5, -18.5, 19.9):
        p = asym_params(g)
        assert math.isfinite(p.u) and math.isfinite(p.v) and math.isfinite(p.w)
        assert np.isclose(math.sinh(p.v) ** 2, math.cosh(2 * g), rtol=1e-10)


def test_factorized_equals_direct_elementwise():
    for g in GAMMAS:
        d, f = asym_direct(g), asym_factorized(g)
        assert np.abs(d.A - f.A).max() < 1e-12
        assert np.abs(d.B - f.B).max() < 1e-12


def test_gamma_domain_is_enforced():
    with pytest.raises(ValueError):
        asym_direct(20.5)
    with pytest.raises(ValueError):
        asym_params(-21.0)
    with pytest.raises(ValueError):
        AsymSpec(float("nan"))
    with pytest.raises(ValueError):
        AsymSpec(25.0)


def test_sym_spec_validation():
    with pytest.raises(ValueError):
        SymSpec(0, 2)
    with pytest.raises(ValueError):
        SymSpec(3, 2)
    SymSpec(2, 2)  # boundary is allowed


def test_sym_one_input_is_nopa_then_split():
    # dense reference: NOPA(acosh sqrt M) on (signal, idler), then the split
    for m in (1, 2, 4):
        total = m + 1
        amp = embed(nopa(math.acosh(math.sqrt(m))), [0, 1], total)
        split = embed(distribute_chain(m), [0, *range(2, total)], total)
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


def test_build_cloner_asym_wiring():
    machine = build_cloner(AsymSpec(0.2))
    assert machine.n_modes == 3
    assert [m.index for m in machine.clone_modes] == [0, 2]
    assert machine.signal_modes[0].index == 2
    assert machine.idler_mode.index == 1
    amps = machine.input_amplitudes(0.5j)
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
    assert machine.idler_mode.index == 2
    assert [m.index for m in machine.clone_modes] == [0, 3, 4, 5]
    amps = machine.input_amplitudes(1 + 1j)
    assert amps[0] == amps[1] == 1 + 1j
    assert all(a == 0j for a in amps[2:])
