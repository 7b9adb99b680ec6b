"""The cloning machines, built as Bogoliubov transforms.

Three constructions:

* ``asym_direct(gamma)`` -- the asymmetric 1->2 cloner as a closed-form
  3-mode matrix (mode order: clone a, ancilla b, signal c).  gamma tunes the
  noise split between the two clones; gamma = 0 is the symmetric machine.
* ``asym_factorized(asym_params(gamma))`` -- the same machine assembled
  from hardware: beam splitter BS1(u) on (a, c), a NOPA(v) on (c, b), beam
  splitter BS2(w) on (a, c), with the three angles given by ``asym_params``.
  It is a Mach-Zehnder interferometer with an amplifier in one arm.
* the symmetric N->M machine, built by ``build_cloner(SymSpec(N, M))``:
  collect N identical inputs into one mode, amplify by sqrt(M/N) in a
  single NOPA, and split the result evenly over M output modes (N = 1 is
  the 1->M machine).

The factorized and symmetric machines are ordered lists of two-mode gates,
folded into (A, B) by ``gaussian.fold_stack``; ``build_cloners`` lays out
every machine's wires and gates in one place.  It builds specs of one form
(a sweep's asymmetric machines, in one form) as one stack: the closed
form's entries over an array of gammas, or one fold of the gate list with
arrays of angles, and one batched check.  Each machine is still a
``CloningMachine`` that requires its transform's check;
``build_cloner(spec)`` is ``build_cloners([spec])[0]``.

Mode ordering for the symmetric machines: N signal modes, then the NOPA
idler, then the M-1 distribution ancillas.  The M clones come out on the
collected mode plus the ancilla modes.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .elements import beam_splitter_block, collect_gates, distribute_gates
from .gaussian import (
    NOPA,
    BogoliubovTransform,
    ModeLabel,
    checked_transforms,
    fold_gates,
    fold_stack,
    require_symplectic,
)

# widest gamma either asymmetric form is built for: beyond it rounding can push
# one past check_symplectic at DEFAULT_TOL (first at |gamma| = 6.59)
GAMMA_LIMIT = 6.0
MODE_LIMIT = 1024  # largest register N + M a SymSpec may describe


def _check_gamma(gamma: float) -> float:
    # float() would take a string, and would only warn as it dropped the
    # imaginary part of a numpy complex
    if not isinstance(gamma, numbers.Real):
        raise ValueError(f"gamma must be a real number, got {gamma!r}")
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if abs(gamma) > GAMMA_LIMIT:
        raise ValueError(f"|gamma| > {GAMMA_LIMIT} exceeds the supported range")
    return gamma


@dataclass(frozen=True)
class AsymSpec:
    """Asymmetric 1->2 machine with noise-split parameter gamma."""

    gamma: float
    factorized: bool = False  # build from BS/NOPA/BS instead of the closed form

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))


@dataclass(frozen=True)
class SymSpec:
    """Symmetric N->M machine (N input copies, M output clones)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "m", operator.index(self.m))
        except TypeError:
            raise ValueError(f"n and m must be integers, got n={self.n!r}, m={self.m!r}") from None
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
    """Angles of the BS1 / NOPA / BS2 factorization of the asymmetric cloner."""

    u: float  # first beam splitter, in [-pi/2, pi/2]
    v: float  # NOPA squeeze parameter, >= 0
    w: float  # second beam splitter, in [0, pi/2]


@dataclass(frozen=True)
class CloningMachine:
    """A built cloner plus the mode bookkeeping needed to read out clones.

    Building one requires its transform's check, by ``require_symplectic``,
    and keeps the deviation as ``symplectic_dev``; a failing transform is
    refused.  A transform from ``checked_transforms`` carries the check its
    stack ran; any other is checked here, once.
    An asymmetric machine keeps its BS1 / NOPA / BS2 angles, whichever form
    built it; a symmetric one has none.
    """

    spec: ClonerSpec
    transform: BogoliubovTransform
    signal_modes: tuple[ModeLabel, ...]
    clone_modes: tuple[ModeLabel, ...]
    angles: FactorizationParams | None = None
    symplectic_dev: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symplectic_dev", require_symplectic(self.transform).max_dev)

    @property
    def n_modes(self) -> int:
        return self.transform.n_modes

    def input_amplitudes(self, xi: complex) -> list[complex]:
        """Coherent amplitude per mode: xi on every signal input, vacuum elsewhere."""
        amps = [0j] * self.n_modes
        for m in self.signal_modes:
            amps[m.index] = complex(xi)
        return amps


def _asym_direct_rows(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """``fold_stack`` rows of the closed-form machine at each gamma of an
    array, shape (3, 2, 3, *gamma.shape): ``asym_direct``'s entries,
    evaluated over the array."""
    ep = np.exp(gamma) / np.sqrt(2.0)
    em = np.exp(-gamma) / np.sqrt(2.0)
    rows = np.zeros((3, 2, 3, *gamma.shape))
    A, B = rows[:, 0], rows[:, 1]
    A[0, 0], A[0, 2] = ep, 1.0
    A[1, 1] = np.sqrt(2.0) * np.cosh(gamma)
    A[2, 0], A[2, 2] = -em, 1.0
    B[0, 1] = -ep
    B[1, 0], B[1, 2] = -np.sqrt(2.0) * np.sinh(gamma), -1.0
    B[2, 1] = -em
    return rows


def asym_direct(gamma: float) -> BogoliubovTransform:
    """Asymmetric 1->2 cloner as an explicit 3-mode matrix (modes a, b, c).

    Both clone rows carry the signal c with coefficient exactly 1; the added
    noise lands on clone a as exp(2 gamma)/2 chaotic photons and on clone c
    as exp(-2 gamma)/2, so the noise product stays at the 1/4 floor.
    """
    rows = _asym_direct_rows(np.array(_check_gamma(gamma)))
    return BogoliubovTransform(A=rows[:, 0], B=rows[:, 1])


def asym_params(gamma: float) -> FactorizationParams:
    """Angles (u, v, w) that factor the asymmetric cloner into BS/NOPA/BS.

        w = arctan(exp(2 gamma))
        v = artanh( sqrt(1 + exp(4 gamma)) / (1 + exp(2 gamma)) )
        u = -arctan(sqrt(2) sinh(gamma))

    v is evaluated through 0.5*log(((1+s) + sqrt(1+s^2))^2 / (2 s)) with
    s = exp(2 gamma), the same function without artanh's cancellation near 1:
    at |gamma| = 6 it keeps sinh(v)^2 = cosh(2 gamma) to 4e-16, artanh to 2e-11.
    It takes one gamma at a time: numpy's atan, sinh and log differ from
    math's in the last bit for some gammas, which would move the angles a
    sweep prints.
    """
    g = _check_gamma(gamma)
    s = np.exp(2.0 * g)
    w = math.atan(s)
    u = -math.atan(math.sqrt(2.0) * math.sinh(g))
    root = math.sqrt(1.0 + s * s)
    v = 0.5 * math.log((1.0 + s + root) ** 2 / (2.0 * s))
    return FactorizationParams(u=u, v=v, w=w)


def _asym_gates(u, v, w) -> tuple:
    """BS1(u) on (a, c), the NOPA(v) on (c, b) and BS2(w) on (a, c), as
    ``fold_stack`` tuples; each angle is a float or an array of angles."""
    return ((beam_splitter_block(u), 0, 2),   # BS1 on (a, c)
            (v, 2, 1),                        # amplifier on (c, b)
            (beam_splitter_block(w), 0, 2))   # BS2 on (a, c)


def asym_factorized(p: FactorizationParams) -> BogoliubovTransform:
    """Asymmetric 1->2 cloner assembled from two beam splitters and one NOPA.

    Physical order: BS1(u) mixes (a, c), the NOPA(v) squeezes (c, b), BS2(w)
    recombines (a, c).  With p = ``asym_params(gamma)`` it equals
    ``asym_direct(gamma)`` elementwise.
    """
    return fold_gates(_asym_gates(p.u, p.v, p.w), 3)


_ASYM_SIGNALS = (ModeLabel(2, "in"),)
_ASYM_CLONES = (ModeLabel(0, "clone_1"), ModeLabel(2, "clone_2"))


def _form(spec: ClonerSpec) -> object:
    # specs of one form build as one stack: asymmetric machines built the
    # same way, or copies of one symmetric machine
    return ("asym", spec.factorized) if isinstance(spec, AsymSpec) else spec


def build_cloners(specs: Iterable[ClonerSpec]) -> list[CloningMachine]:
    """Build the machines some specs of one form describe, in order, with
    labeled signal/clone modes.

    The specs are asymmetric in one form, or copies of one symmetric
    machine; a list that mixes forms is refused.  They are built as one
    stack of k registers, by ``fold_stack`` or, for the closed form, over an
    array of gammas, and checked by one batched product in
    ``checked_transforms``.  Every machine is still a ``CloningMachine``
    that requires its own check, so a refusal is the first failing spec's.
    """
    specs = list(specs)
    if not specs:
        return []
    first, k = specs[0], len(specs)
    form = _form(first)
    if any(_form(s) != form for s in specs):
        raise ValueError("build_cloners takes specs of one form: asymmetric machines "
                         "in one form, or copies of one symmetric machine")
    # one machine folds with no register axis, which the fold indexes faster
    stack = (k,) if k > 1 else ()
    if isinstance(first, AsymSpec):
        angles: list[FactorizationParams | None] = [asym_params(s.gamma) for s in specs]
        if first.factorized:
            u, v, w = np.array([(p.u, p.v, p.w) for p in angles]).T.reshape(3, *stack)
            rows = fold_stack(_asym_gates(u, v, w), 3, stack)
        else:
            rows = _asym_direct_rows(np.array([s.gamma for s in specs]).reshape(stack))
        signals, clones = _ASYM_SIGNALS, _ASYM_CLONES
    elif isinstance(first, SymSpec):
        # collect the N copies on mode 0, amplify it by sqrt(M/N) against the
        # idler (mode N), and split it over mode 0 plus the M-1 ancillas
        N, M = first.n, first.m
        clone_wires = [0, *range(N + 1, N + M)]
        gates = (
            collect_gates(N)
            + (NOPA(math.acosh(math.sqrt(M / N)), 0, N),)
            + distribute_gates(M, clone_wires)
        )
        rows = fold_stack(gates, N + M, stack)
        angles = [None] * k
        signals = tuple(ModeLabel(j, f"in_{j + 1}") for j in range(N))
        clones = tuple(ModeLabel(w, f"clone_{j + 1}") for j, w in enumerate(clone_wires))
    else:
        raise TypeError(f"unknown cloner spec: {first!r}")
    return [CloningMachine(spec=spec, transform=transform, signal_modes=signals,
                           clone_modes=clones, angles=p)
            for spec, transform, p in zip(specs, checked_transforms(rows), angles, strict=True)]


def build_cloner(spec: ClonerSpec) -> CloningMachine:
    """Build the machine a spec describes: ``build_cloners`` on one spec."""
    return build_cloners([spec])[0]
