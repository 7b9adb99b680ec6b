"""Property-based checks over randomly drawn machines and inputs.

gamma is drawn from [-5, 5]: beyond that the exp(2 gamma) entries push
float64 cancellation in the symplectic residual past any fixed tolerance,
which is a floating-point artifact rather than a physics statement.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcloner.analysis import (
    chaotic_photons,
    clone_output_state,
    clone_report,
    noise_product,
)
from cvcloner.circuits import AsymSpec, SymSpec, asym_direct, asym_factorized, build_cloner
from cvcloner.elements import beam_splitter, nopa
from cvcloner.gaussian import (
    NOPA,
    BogoliubovTransform,
    Passive,
    apply_to_gaussian,
    check_symplectic,
    coherent_vacuum_input,
    compose,
    embed,
    fold_gates,
    identity_transform,
    uncertainty_defect,
)

gammas = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
squeezes = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
amplitudes = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@given(gammas)
def test_asym_machines_are_symplectic(g):
    assert check_symplectic(asym_direct(g)).max_dev <= 1e-10
    assert check_symplectic(asym_factorized(g)).max_dev <= 1e-9


@given(gammas)
def test_factorization_matches_direct(g):
    d, f = asym_direct(g), asym_factorized(g)
    scale = max(1.0, np.abs(d.A).max())
    assert np.abs(d.A - f.A).max() / scale < 1e-9
    assert np.abs(d.B - f.B).max() / scale < 1e-9


@given(gammas)
def test_noise_product_pinned_at_quarter(g):
    assert abs(noise_product(asym_direct(g)) - 0.25) < 1e-9 * max(1.0, np.exp(2 * abs(g)) * 1e-4)


@given(gammas)
def test_clone_photon_counts_scale_as_advertised(g):
    t = asym_direct(g)
    assert np.isclose(chaotic_photons(t, 0), np.exp(2 * g) / 2, rtol=1e-12)
    assert np.isclose(chaotic_photons(t, 2), np.exp(-2 * g) / 2, rtol=1e-12)


@given(angles, squeezes, angles)
def test_random_circuits_stay_symplectic(theta, r, phi):
    circuit = compose(
        embed(beam_splitter(phi), [1, 2], 3),
        compose(embed(nopa(r), [0, 2], 3), embed(beam_splitter(theta), [0, 1], 3)),
    )
    assert check_symplectic(circuit).max_dev <= 1e-10


@given(angles, squeezes, amplitudes)
def test_compose_equals_sequential_application(theta, r, xi):
    first = embed(beam_splitter(theta), [0, 1], 3)
    second = embed(nopa(r), [1, 2], 3)
    state = coherent_vacuum_input([xi, 0.5 * xi, 0j])
    fused = apply_to_gaussian(compose(second, first), state)
    stepped = apply_to_gaussian(second, apply_to_gaussian(first, state))
    assert np.allclose(fused.mean, stepped.mean, atol=1e-9)
    assert np.allclose(fused.cov, stepped.cov, atol=1e-9)


@settings(max_examples=40)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), amplitudes)
def test_fidelity_ignores_the_input_amplitude(g, xi):
    base = clone_report(AsymSpec(g), 0j)
    moved = clone_report(AsymSpec(g), xi)
    for a, b in zip(base, moved):
        assert abs(a.fidelity - b.fidelity) < 1e-10


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4),
       amplitudes)
def test_symmetric_machines_hit_the_closed_forms(n, extra, xi):
    m = n + extra
    machine = build_cloner(SymSpec(n, m))
    assert check_symplectic(machine.transform).max_dev <= 1e-10
    for r in clone_report(SymSpec(n, m), xi):
        assert abs(r.fidelity - (m * n) / (m * n + m - n)) < 1e-10
        assert abs(r.phase_covariance_defect) < 1e-10


@settings(max_examples=40)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), amplitudes)
def test_outputs_remain_physical_states(g, xi):
    machine = build_cloner(AsymSpec(g))
    out = clone_output_state(machine, xi)
    assert uncertainty_defect(out) < 1e-10


def _gate_on(n):
    """A random real passive block (not necessarily orthogonal) or NOPA on a
    random pair."""
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    passive = st.builds(lambda b, pq: Passive(((b[0], b[1]), (b[2], b[3])), *pq),
                        st.lists(entry, min_size=4, max_size=4), pair)
    squeeze = st.builds(lambda r, pq: NOPA(r, *pq),
                        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), pair)
    return st.one_of(passive, squeeze)


@st.composite
def registers_and_gates(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    return n, draw(st.lists(_gate_on(n), max_size=12))


@given(registers_and_gates())
def test_fold_equals_composing_the_embedded_gates(case):
    n, gates = case
    dense = identity_transform(n)
    for g in gates:
        if isinstance(g, Passive):
            two = BogoliubovTransform(A=np.array(g.block), B=np.zeros((2, 2)))
        else:
            # the NOPA's closed form, independent of the fold under test
            two = BogoliubovTransform(A=np.cosh(g.r) * np.eye(2),
                                      B=-np.sinh(g.r) * np.array([[0.0, 1.0], [1.0, 0.0]]))
        dense = compose(embed(two, [g.p, g.q], n), dense)
    folded = fold_gates(gates, n)
    scale = max(1.0, np.abs(dense.A).max(), np.abs(dense.B).max())
    assert np.abs(folded.A - dense.A).max() <= 1e-12 * scale
    assert np.abs(folded.B - dense.B).max() <= 1e-12 * scale


@st.composite
def real_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    entries = st.lists(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
                       min_size=n * n, max_size=n * n)
    return (np.array(draw(entries)).reshape(n, n),
            np.array(draw(entries)).reshape(n, n))


@given(real_pairs())
def test_symplectic_matrix_is_the_permuted_block_matrix(pair):
    A, B = pair
    n = A.shape[0]
    zero = np.zeros((n, n))
    blocks = np.block([[A + B, zero], [zero, A - B]])
    perm = np.arange(2 * n).reshape(2, n).T.reshape(-1)  # xxpp -> interleaved
    expected = blocks[np.ix_(perm, perm)]
    assert np.array_equal(BogoliubovTransform(A=A, B=B).symplectic_matrix(), expected)


def test_a_failing_property_is_reported_with_its_example(tmp_path):
    # run under this repository's pytest settings, warnings-as-errors included,
    # from tmp_path so that hypothesis keeps its database there
    root = Path(__file__).resolve().parents[1]
    case = tmp_path / "test_failing_property.py"
    case.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(root), "-p", "no:cacheprovider", str(case)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
