"""Independent references the tests compare the package against.

The package builds every transform by ``fold_gates`` and reads every clone
from the clone rows of S; these are the dense and single-mode routes that
those results are checked against, kept here because only tests need them.
"""

import numpy as np

from cvcloner.fock import FockState, _mode_rows
from cvcloner.gaussian import BogoliubovTransform, GaussianState, ModeLabel, mode_index


def compose(second: BogoliubovTransform, first: BogoliubovTransform) -> BogoliubovTransform:
    """Transform equivalent to applying `first` and then `second`.

    Substituting first's input-output relations into second's gives
    A = A2 A1 + B2 B1 and B = A2 B1 + B2 A1.
    """
    if second.n_modes != first.n_modes:
        raise ValueError(
            f"mode count mismatch: {second.n_modes} vs {first.n_modes}"
        )
    A2, B2 = second.A, second.B
    A1, B1 = first.A, first.B
    return BogoliubovTransform(
        A=A2 @ A1 + B2 @ B1,
        B=A2 @ B1 + B2 @ A1,
    )


def embed(
    t: BogoliubovTransform,
    targets: list[int | ModeLabel] | tuple[int | ModeLabel, ...],
    total: int,
) -> BogoliubovTransform:
    """Place `t` on the listed modes of a `total`-mode register, identity elsewhere."""
    idx = [mode_index(m, total) for m in targets]
    if len(idx) != t.n_modes:
        raise ValueError(f"expected {t.n_modes} target modes, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate target modes: {idx}")
    A = np.eye(total)
    B = np.zeros((total, total))
    A[np.ix_(idx, idx)] = t.A
    B[np.ix_(idx, idx)] = t.B
    return BogoliubovTransform(A=A, B=B)


def reduce_mode(s: GaussianState, mode: int | ModeLabel) -> GaussianState:
    """Single-mode marginal: the mode's two means and its 2x2 covariance block."""
    k = 2 * mode_index(mode, s.n_modes)
    return GaussianState(mean=s.mean[k:k + 2], cov=s.cov[k:k + 2, k:k + 2])


def mode_expectation(state: FockState, mode: int | ModeLabel) -> complex:
    """<a_mode> in the current state, for Heisenberg-picture cross-checks.

    Sum over k of sqrt(k) conj(psi[k-1]) psi[k] along the mode's axis.
    """
    psi = _mode_rows(state, mode)
    root_k = np.sqrt(np.arange(1, state.space.levels))
    return complex(np.vdot(psi[:-1], root_k[:, None] * psi[1:]))
