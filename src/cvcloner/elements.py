"""Gate lists of the physical circuit elements.

All elements are real-coefficient two-mode gates:

* beam splitter with mixing angle theta on an ordered pair (m1, m2):
      m1' =  cos(theta) m1 + sin(theta) m2
      m2' = -sin(theta) m1 + cos(theta) m2
* non-degenerate parametric amplifier (NOPA, two-mode squeezer) with
  squeeze parameter r, the ``gaussian.NOPA`` gate:
      m1' = cosh(r) m1 - sinh(r) m2^dag
      m2' = cosh(r) m2 - sinh(r) m1^dag
* the collect/distribute beam-splitter cascades that concentrate N identical
  inputs into one mode and split one mode evenly over M outputs.

Each cascade is an ordered list of gates, mirroring the table-top layout;
``circuits.build_cloners`` splices the lists into the N->M machine and hands
them to ``fold_stack``, which builds every machine's transform.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import Passive


def beam_splitter_block(theta: float | np.ndarray) -> tuple:
    """The block ((cos theta, sin theta), (-sin theta, cos theta)) of a beam
    splitter, for an angle or, entry by entry, an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    return (c, s), (-s, c)


def collect_gates(N: int) -> tuple[Passive, ...]:
    """N-1 beam splitters concentrating N equal inputs on modes 0..N-1 into mode 0.

    Step j (1-based) mixes the running collected mode d_j with input j+1:

        d_{j+1}  = sqrt(j/(j+1)) d_j + sqrt(1/(j+1)) c_{j+1}
        out_{j+1} = sqrt(1/(j+1)) d_j - sqrt(j/(j+1)) c_{j+1}

    so N identical coherent amplitudes xi leave sqrt(N) xi on mode 0 and
    vacuum on the rest.
    """
    if N < 1:
        raise ValueError(f"need at least one mode, got {N}")
    gates = []
    for j in range(1, N):
        keep = math.sqrt(j / (j + 1.0))
        leak = math.sqrt(1.0 / (j + 1.0))
        gates.append(Passive(((keep, leak), (leak, -keep)), 0, j))
    return tuple(gates)


def distribute_gates(M: int, modes: list[int]) -> tuple[Passive, ...]:
    """M-1 beam splitters splitting the first wire in modes evenly over all M wires.

    Step j taps the running signal e_j into fresh wire j:

        out_j   = sqrt(1/(M-j+1)) e_j + sqrt((M-j)/(M-j+1)) a_j
        e_{j+1} = sqrt((M-j)/(M-j+1)) e_j - sqrt(1/(M-j+1)) a_j

    Every output acquires signal coefficient 1/sqrt(M); the last split signal
    e_M stays on the first wire.
    """
    if M < 1:
        raise ValueError(f"need at least one mode, got {M}")
    if len(modes) != M or len(set(modes)) != M:
        raise ValueError(f"need {M} distinct modes, got {modes}")
    gates = []
    for j in range(1, M):
        tap = math.sqrt(1.0 / (M - j + 1.0))
        keep = math.sqrt((M - j) / (M - j + 1.0))
        gates.append(Passive(((keep, -tap), (tap, keep)), modes[0], modes[j]))
    return tuple(gates)
