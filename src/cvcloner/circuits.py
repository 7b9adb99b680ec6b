"""The cloning machines, built as Bogoliubov transforms.

Three constructions:

* ``asym_direct(gamma)`` -- the asymmetric 1->2 cloner as a closed-form
  3-mode matrix (mode order: clone a, ancilla b, signal c).  gamma tunes the
  noise split between the two clones; gamma = 0 is the symmetric machine.
* ``asym_factorized(gamma)`` -- the same machine assembled from hardware:
  beam splitter BS1(u) on (a, c), a NOPA(v) on (c, b), beam splitter
  BS2(w) on (a, c), with the three angles given by ``asym_params``.  It is a
  Mach-Zehnder interferometer with an amplifier in one arm.
* the symmetric N->M machine, built by ``build_cloner(SymSpec(N, M))``:
  collect N identical inputs into one mode, amplify by sqrt(M/N) in a
  single NOPA, and split the result evenly over M output modes (N = 1 is
  the 1->M machine).

The factorized and symmetric machines are ordered lists of two-mode gates,
folded into (A, B) by ``fold_gates``; ``build_cloner`` lays out the
symmetric machine's wires and gates in one place.

Mode ordering for the symmetric machines: N signal modes, then the NOPA
idler, then the M-1 distribution ancillas.  The M clones come out on the
collected mode plus the ancilla modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import beam_splitter_gate, collect_gates, distribute_gates
from .gaussian import NOPA, BogoliubovTransform, ModeLabel, fold_gates

GAMMA_LIMIT = 20.0  # widest gamma asym_params and asym_direct evaluate
# widest gamma an AsymSpec may describe: beyond it rounding can push either
# built form past check_symplectic at DEFAULT_TOL (first at |gamma| = 6.59)
SPEC_GAMMA_LIMIT = 6.0
MODE_LIMIT = 1024  # largest register N + M a SymSpec may describe


def _check_gamma(gamma: float, limit: float = GAMMA_LIMIT) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if abs(gamma) > limit:
        raise ValueError(f"|gamma| > {limit} exceeds the supported range")
    return gamma


@dataclass(frozen=True)
class AsymSpec:
    """Asymmetric 1->2 machine with noise-split parameter gamma."""

    gamma: float
    factorized: bool = False  # build from BS/NOPA/BS instead of the closed form

    def __post_init__(self) -> None:
        _check_gamma(self.gamma, SPEC_GAMMA_LIMIT)


@dataclass(frozen=True)
class SymSpec:
    """Symmetric N->M machine (N input copies, M output clones)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.m < self.n:
            raise ValueError(f"need m >= n, got n={self.n}, m={self.m}")
        if self.n + self.m > MODE_LIMIT:
            raise ValueError(
                f"n + m = {self.n + self.m} modes exceeds the supported {MODE_LIMIT}"
            )


ClonerSpec = AsymSpec | SymSpec


@dataclass(frozen=True)
class FactorizationParams:
    """Angles of the BS1 / NOPA / BS2 decomposition of the asymmetric cloner."""

    u: float  # first beam splitter, in [-pi/2, pi/2]
    v: float  # NOPA squeeze parameter, >= 0
    w: float  # second beam splitter, in [0, pi/2]


@dataclass(frozen=True)
class CloningMachine:
    """A built cloner plus the mode bookkeeping needed to read out clones."""

    spec: ClonerSpec
    transform: BogoliubovTransform
    signal_modes: tuple[ModeLabel, ...]
    idler_mode: ModeLabel
    clone_modes: tuple[ModeLabel, ...]

    @property
    def n_modes(self) -> int:
        return self.transform.n_modes

    def input_amplitudes(self, xi: complex) -> list[complex]:
        """Coherent amplitude per mode: xi on every signal input, vacuum elsewhere."""
        amps = [0j] * self.n_modes
        for m in self.signal_modes:
            amps[m.index] = complex(xi)
        return amps


def asym_direct(gamma: float) -> BogoliubovTransform:
    """Asymmetric 1->2 cloner as an explicit 3-mode matrix (modes a, b, c).

    Both clone rows carry the signal c with coefficient exactly 1; the added
    noise lands on clone a as exp(2 gamma)/2 chaotic photons and on clone c
    as exp(-2 gamma)/2, so the noise product stays at the 1/4 floor.
    """
    g = _check_gamma(gamma)
    ep = np.exp(g) / np.sqrt(2.0)
    em = np.exp(-g) / np.sqrt(2.0)
    A = np.array([
        [ep, 0.0, 1.0],
        [0.0, np.sqrt(2.0) * np.cosh(g), 0.0],
        [-em, 0.0, 1.0],
    ])
    B = np.array([
        [0.0, -ep, 0.0],
        [-np.sqrt(2.0) * np.sinh(g), 0.0, -1.0],
        [0.0, -em, 0.0],
    ])
    return BogoliubovTransform(A=A, B=B)


def asym_params(gamma: float) -> FactorizationParams:
    """Angles (u, v, w) that factor the asymmetric cloner into BS/NOPA/BS.

        w = arctan(exp(2 gamma))
        v = artanh( sqrt(1 + exp(4 gamma)) / (1 + exp(2 gamma)) )
        u = -arctan(sqrt(2) sinh(gamma))

    v is evaluated through 0.5*log(((1+s) + sqrt(1+s^2))^2 / (2 s)) with
    s = exp(2 gamma), which is the same function but keeps precision where
    the artanh argument rounds to 1.
    """
    g = _check_gamma(gamma)
    s = np.exp(2.0 * g)
    w = math.atan(s)
    u = -math.atan(math.sqrt(2.0) * math.sinh(g))
    root = math.sqrt(1.0 + s * s)
    v = 0.5 * math.log((1.0 + s + root) ** 2 / (2.0 * s))
    return FactorizationParams(u=u, v=v, w=w)


def asym_factorized(gamma: float) -> BogoliubovTransform:
    """Asymmetric 1->2 cloner assembled from two beam splitters and one NOPA.

    Physical order: BS1(u) mixes (a, c), the NOPA(v) squeezes (c, b), BS2(w)
    recombines (a, c).  Equals ``asym_direct(gamma)`` elementwise.
    """
    p = asym_params(gamma)
    return fold_gates((
        beam_splitter_gate(p.u, 0, 2),   # BS1 on (a, c)
        NOPA(p.v, 2, 1),                 # amplifier on (c, b)
        beam_splitter_gate(p.w, 0, 2),   # BS2 on (a, c)
    ), 3)


def build_cloner(spec: ClonerSpec) -> CloningMachine:
    """Build the machine a spec describes, with labeled signal/clone modes."""
    if isinstance(spec, AsymSpec):
        t = asym_factorized(spec.gamma) if spec.factorized else asym_direct(spec.gamma)
        return CloningMachine(
            spec=spec,
            transform=t,
            signal_modes=(ModeLabel(2, "in"),),
            idler_mode=ModeLabel(1, "idler"),
            clone_modes=(ModeLabel(0, "clone_1"), ModeLabel(2, "clone_2")),
        )
    if isinstance(spec, SymSpec):
        # collect the N copies on mode 0, amplify it by sqrt(M/N) against the
        # idler (mode N), and split it over mode 0 plus the M-1 ancillas
        N, M = spec.n, spec.m
        clone_wires = [0, *range(N + 1, N + M)]
        gates = (
            collect_gates(N)
            + (NOPA(math.acosh(math.sqrt(M / N)), 0, N),)
            + distribute_gates(M, clone_wires)
        )
        signals = tuple(ModeLabel(k, f"in_{k + 1}") for k in range(N))
        clones = tuple(ModeLabel(w, f"clone_{j + 1}") for j, w in enumerate(clone_wires))
        return CloningMachine(
            spec=spec,
            transform=fold_gates(gates, N + M),
            signal_modes=signals,
            idler_mode=ModeLabel(N, "idler"),
            clone_modes=clones,
        )
    raise TypeError(f"unknown cloner spec: {spec!r}")
