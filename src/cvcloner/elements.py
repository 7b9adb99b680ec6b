"""Constructors for the physical circuit elements.

All elements are real-coefficient Bogoliubov transforms:

* beam splitter with mixing angle theta on an ordered pair (m1, m2):
      m1' =  cos(theta) m1 + sin(theta) m2
      m2' = -sin(theta) m1 + cos(theta) m2
* non-degenerate parametric amplifier (NOPA, two-mode squeezer) with
  squeeze parameter r:
      m1' = cosh(r) m1 - sinh(r) m2^dag
      m2' = cosh(r) m2 - sinh(r) m1^dag
* the collect/distribute beam-splitter cascades that concentrate N identical
  inputs into one mode and split one mode evenly over M outputs.

Every constructor here lists its two-mode gates in physical order and hands
the list to ``fold_gates``, mirroring the table-top layout; the cascade gate
lists are public so the machines in ``circuits`` can splice them together.
"""

from __future__ import annotations

import numpy as np

from .gaussian import NOPA, BogoliubovTransform, Passive, fold_gates, mode_index


def beam_splitter_gate(theta: float, p: int, q: int) -> Passive:
    """Beam splitter of mixing angle theta on the ordered pair (p, q)."""
    c, s = np.cos(theta), np.sin(theta)
    return Passive(((c, s), (-s, c)), p, q)


def beam_splitter(theta: float, modes=(0, 1)) -> BogoliubovTransform:
    """Two-mode beam splitter; passive (B = 0), orthogonal on the pair."""
    m1, m2 = (mode_index(m) for m in modes)
    return fold_gates((beam_splitter_gate(theta, m1, m2),), max(m1, m2) + 1)


def nopa(r: float, modes=(0, 1)) -> BogoliubovTransform:
    """Two-mode squeezer with amplitude gain cosh(r) on both modes."""
    m1, m2 = (mode_index(m) for m in modes)
    return fold_gates((NOPA(r, m1, m2),), max(m1, m2) + 1)


def _wires(size: int, modes) -> list[int]:
    if size < 1:
        raise ValueError(f"need at least one mode, got {size}")
    idx = list(range(size)) if modes is None else [mode_index(m) for m in modes]
    if len(idx) != size or len(set(idx)) != size:
        raise ValueError(f"need {size} distinct modes, got {idx}")
    return idx


def collect_gates(N: int, modes=None) -> tuple[Passive, ...]:
    """Gates of ``collect_chain(N, modes)``, in the order they act."""
    idx = _wires(N, modes)
    gates = []
    for j in range(1, N):
        keep = np.sqrt(j / (j + 1.0))
        leak = np.sqrt(1.0 / (j + 1.0))
        gates.append(Passive(((keep, leak), (leak, -keep)), idx[0], idx[j]))
    return tuple(gates)


def distribute_gates(M: int, modes=None) -> tuple[Passive, ...]:
    """Gates of ``distribute_chain(M, modes)``, in the order they act."""
    idx = _wires(M, modes)
    gates = []
    for j in range(1, M):
        tap = np.sqrt(1.0 / (M - j + 1.0))
        keep = np.sqrt((M - j) / (M - j + 1.0))
        gates.append(Passive(((keep, -tap), (tap, keep)), idx[0], idx[j]))
    return tuple(gates)


def collect_chain(N: int, modes=None) -> BogoliubovTransform:
    """Cascade of N-1 beam splitters concentrating N equal inputs into one mode.

    Step j (1-based) mixes the running collected mode d_j with input j+1:

        d_{j+1}  = sqrt(j/(j+1)) d_j + sqrt(1/(j+1)) c_{j+1}
        out_{j+1} = sqrt(1/(j+1)) d_j - sqrt(j/(j+1)) c_{j+1}

    so N identical coherent amplitudes xi leave sqrt(N) xi on the first listed
    mode and vacuum on the rest.  The collected signal stays on modes[0].
    """
    idx = _wires(N, modes)
    return fold_gates(collect_gates(N, idx), max(idx) + 1)


def distribute_chain(M: int, modes=None) -> BogoliubovTransform:
    """Cascade of M-1 beam splitters splitting modes[0] evenly over M outputs.

    Step j taps the running signal e_j into fresh mode j:

        out_j   = sqrt(1/(M-j+1)) e_j + sqrt((M-j)/(M-j+1)) a_j
        e_{j+1} = sqrt((M-j)/(M-j+1)) e_j - sqrt(1/(M-j+1)) a_j

    Every output acquires signal coefficient 1/sqrt(M); the last split signal
    e_M stays on modes[0].
    """
    idx = _wires(M, modes)
    return fold_gates(distribute_gates(M, idx), max(idx) + 1)
