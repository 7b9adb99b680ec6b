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

from cvcloner import circuits
from cvcloner.analysis import read_clones
from cvcloner.circuits import AsymSpec, SymSpec, build_cloners
from cvcloner.gaussian import (
    DEFAULT_TOL,
    _deviations,
    fold_stack,
    uncertainty_defect,
    worst_dev,
)
from cvcloner.verification import GAMMA_GRID, SYM_CASES
from reference import (
    Transform,
    apply_to_gaussian,
    as_transform,
    beam_splitter_gate,
    check_symplectic_four_products,
    clone_output_state,
    coherent_vacuum_input,
    compose,
    embed,
    fold_two_rows,
    state_uncertainty_defect,
    symplectic_matrix,
)

gammas = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
squeezes = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
amplitudes = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def _max_dev(A, B):
    """The larger of one transform's two ``_deviations``, NaN read as inf."""
    return worst_dev(np.concatenate(_deviations(A, B)))


@given(gammas)
def test_asym_machines_are_symplectic(g):
    assert build_cloners([AsymSpec(g)]).symplectic_dev[0] <= 1e-10
    assert build_cloners([AsymSpec(g, factorized=True)]).symplectic_dev[0] <= 1e-9


@given(gammas)
def test_factorization_matches_direct(g):
    d, f = build_cloners([AsymSpec(g)]), build_cloners([AsymSpec(g, factorized=True)])
    scale = max(1.0, np.abs(d.A).max())
    assert np.abs(d.A - f.A).max() / scale < 1e-9
    assert np.abs(d.B - f.B).max() / scale < 1e-9


def _n_chaotic(spec):
    """Each clone's |B row|^2, read at xi = 1."""
    return read_clones(build_cloners([spec]), (1,)).n_chaotic[0]


@given(gammas)
def test_noise_product_pinned_at_quarter(g):
    na, nc = _n_chaotic(AsymSpec(g))
    assert abs(na * nc - 0.25) < 1e-9 * max(1.0, np.exp(2 * abs(g)) * 1e-4)


@given(gammas)
def test_clone_photon_counts_scale_as_advertised(g):
    na, nc = _n_chaotic(AsymSpec(g))
    assert np.isclose(na, np.exp(2 * g) / 2, rtol=1e-12)
    assert np.isclose(nc, np.exp(-2 * g) / 2, rtol=1e-12)


@given(angles, squeezes, angles)
def test_random_circuits_stay_symplectic(theta, r, phi):
    circuit = as_transform(fold_stack((
        beam_splitter_gate(theta, 0, 1),
        (r, 0, 2),
        beam_splitter_gate(phi, 1, 2),
    ), 3))
    assert _max_dev(*circuit) <= 1e-10


@given(angles, squeezes, amplitudes)
def test_compose_equals_sequential_application(theta, r, xi):
    first, second = beam_splitter_gate(theta, 0, 1), (r, 1, 2)
    state = coherent_vacuum_input([xi, 0.5 * xi, 0j])

    def fold(*gates):
        return as_transform(fold_stack(gates, 3))

    fused = apply_to_gaussian(fold(first, second), state)
    stepped = apply_to_gaussian(fold(second), apply_to_gaussian(fold(first), state))
    assert np.allclose(fused.mean, stepped.mean, atol=1e-9)
    assert np.allclose(fused.cov, stepped.cov, atol=1e-9)


@settings(max_examples=40)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), amplitudes)
def test_fidelity_ignores_the_input_amplitude(g, xi):
    read = read_clones(build_cloners([AsymSpec(g)]), (0j, xi))
    base, moved = read.fidelity[:, 0]
    assert (np.abs(base - moved) < 1e-10).all()


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=4),
       amplitudes)
def test_symmetric_machines_hit_the_closed_forms(n, extra, xi):
    m = n + extra
    stack = build_cloners([SymSpec(n, m)])
    assert stack.symplectic_dev[0] <= 1e-10
    read = read_clones(stack, (xi,))
    assert read.refusal is None
    assert (np.abs(read.fidelity[0, 0] - (m * n) / (m * n + m - n)) < 1e-10).all()
    assert (np.abs(read.phase_covariance_defect[0]) < 1e-10).all()


@settings(max_examples=40)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), amplitudes)
def test_outputs_remain_physical_states(g, xi):
    stack = build_cloners([AsymSpec(g)])
    assert uncertainty_defect(stack.A, stack.B)[0] < 1e-10
    assert state_uncertainty_defect(clone_output_state(stack, xi)) < 1e-10


def _gate_on(n):
    """A random real passive block (not necessarily orthogonal) or NOPA on a
    random pair, as a ``fold_stack`` tuple."""
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    passive = st.builds(lambda b, pq: (((b[0], b[1]), (b[2], b[3])), *pq),
                        st.lists(entry, min_size=4, max_size=4), pair)
    squeeze = st.builds(lambda r, pq: (r, *pq),
                        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), pair)
    return st.one_of(passive, squeeze)


@st.composite
def registers_and_gates(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    return n, draw(st.lists(_gate_on(n), max_size=12))


@given(registers_and_gates())
def test_fold_equals_composing_the_embedded_gates(case):
    n, gates = case
    dense = Transform(np.eye(n), np.zeros((n, n)))
    for coef, p, q in gates:
        if isinstance(coef, tuple):
            two = Transform(np.array(coef), np.zeros((2, 2)))
        else:
            # the NOPA's closed form, independent of the fold under test
            two = Transform(np.cosh(coef) * np.eye(2),
                            -np.sinh(coef) * np.array([[0.0, 1.0], [1.0, 0.0]]))
        dense = compose(embed(two, [p, q], n), dense)
    folded = as_transform(fold_stack(gates, n))
    scale = max(1.0, np.abs(dense.A).max(), np.abs(dense.B).max())
    assert np.abs(folded.A - dense.A).max() <= 1e-12 * scale
    assert np.abs(folded.B - dense.B).max() <= 1e-12 * scale


def _assert_fold_equals_the_two_row_fold(gates, n):
    # np.array_equal ignores the sign of a zero, the one thing the
    # untouched-wire update may change
    folded, two_row = as_transform(fold_stack(gates, n)), fold_two_rows(gates, n)
    assert np.array_equal(folded.A, two_row.A)
    assert np.array_equal(folded.B, two_row.B)


@given(registers_and_gates())
def test_fold_equals_the_two_row_fold(case):
    n, gates = case
    _assert_fold_equals_the_two_row_fold(gates, n)


def _register_gates(gates, i):
    """The gates register i of a stack folded: each gate's coefficients
    read at i where they are arrays, as floats."""
    def at(x):
        return float(x[i]) if isinstance(x, np.ndarray) else x

    out = []
    for coef, p, q in gates:
        if isinstance(coef, tuple):
            (a, b), (c, d) = coef
            out.append((((at(a), at(b)), (at(c), at(d))), p, q))
        else:
            out.append((at(coef), p, q))
    return out


def test_machine_folds_equal_the_two_row_fold(monkeypatch):
    # every register of every fold a build makes, alone or in a stack
    folds = []

    def recording(gates, n, stack=()):
        gates = tuple(gates)
        rows = fold_stack(gates, n, stack)
        folds.append((gates, n, rows.reshape(n, 2, n, -1)))
        return rows

    monkeypatch.setattr(circuits, "fold_stack", recording)
    specs = ([SymSpec(n, m) for n, m in SYM_CASES] + [SymSpec(16, 128)]
             + [AsymSpec(float(g), factorized=True) for g in GAMMA_GRID])
    for spec in specs:
        build_cloners([spec])
    build_cloners(specs[-len(GAMMA_GRID):])
    assert [rows.shape[-1] for _, _, rows in folds] == [1] * len(specs) + [len(GAMMA_GRID)]
    for gates, n, rows in folds:
        for i in range(rows.shape[-1]):
            # np.array_equal ignores the sign of a zero, the one thing the
            # untouched-wire update may change
            two_row = fold_two_rows(_register_gates(gates, i), n)
            assert np.array_equal(rows[:, 0, :, i], two_row.A)
            assert np.array_equal(rows[:, 1, :, i], two_row.B)


PERTURBED_SPECS = ([SymSpec(n, m) for n, m in SYM_CASES if m > n]
                   + [AsymSpec(g, factorized=f)
                      for f in (False, True) for g in (-6.0, 0.0, 0.5, 6.0)])


@settings(max_examples=200)
@given(st.sampled_from(PERTURBED_SPECS), st.sampled_from("AB"), st.data(),
       st.floats(min_value=1e-8, max_value=1e-2), st.sampled_from([1.0, -1.0]))
def test_both_checks_fail_a_perturbed_entry(spec, block, data, delta, sign):
    # every input of these machines reaches two outputs or more through A or B,
    # so moving one entry by delta moves X P^T by delta times an O(1) entry
    stack = build_cloners([spec])
    n = stack.n_modes
    i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    arrays = {"A": stack.A[0].copy(), "B": stack.B[0].copy()}
    arrays[block][i, k] += sign * delta
    perturbed = Transform(**arrays)
    assert _max_dev(*perturbed) > DEFAULT_TOL
    assert worst_dev(check_symplectic_four_products(perturbed)) > DEFAULT_TOL


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
    assert np.array_equal(symplectic_matrix(Transform(A, B)), expected)


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
