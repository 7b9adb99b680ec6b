"""The cloning machines, built as Bogoliubov transforms.

Three constructions, each built by ``build_cloners``:

* the asymmetric 1->2 cloner in closed form, ``AsymSpec(gamma)``: an
  explicit 3-mode matrix (mode order: clone a, ancilla b, signal c), whose
  entries ``_asym_direct_rows`` writes over an array of gammas.  gamma tunes
  the noise split between the two clones; gamma = 0 is the symmetric
  machine.  Both clone rows carry the signal c with coefficient exactly 1;
  the added noise lands on clone a as exp(2 gamma)/2 chaotic photons and on
  clone c as exp(-2 gamma)/2, so the noise product stays at the 1/4 floor.
* the same machine assembled from hardware, ``AsymSpec(gamma,
  factorized=True)``: beam splitter BS1(u) on (a, c), a NOPA(v) on (c, b),
  beam splitter BS2(w) on (a, c), with the three angles given by
  ``asym_params``.  It is a Mach-Zehnder interferometer with an amplifier
  in one arm, and equals the closed form elementwise.
* the symmetric N->M machine, ``SymSpec(N, M)``: collect N identical
  inputs into one mode, amplify by sqrt(M/N) in a single NOPA, and split
  the result evenly over M output modes (N = 1 is the 1->M machine).

The factorized and symmetric machines are ordered lists of two-mode gates,
folded into (A, B) by ``gaussian.fold_stack``; ``build_cloners`` lays out
every machine's wires and gates in one place.  It builds specs of one form
(a sweep's asymmetric machines, in one form) as one stack: the closed
form's entries over an array of gammas, or one fold of the gate list with
arrays of angles, and one batched check, and returns them as one
``MachineStack`` of arrays: the specs, the A and B blocks, each register's
check and the angles.  The stack is the package's one machine type; a
machine is a stack of one.

Mode ordering for the symmetric machines: N signal modes, then the NOPA
idler, then the M-1 distribution ancillas.  The M clones come out on the
collected mode plus the ancilla modes.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .elements import beam_splitter_block, collect_gates, distribute_gates
from .gaussian import ModeLabel, checked_stack, fold_stack

# widest gamma either asymmetric form is built for: beyond it rounding can push
# one past checked_stack at DEFAULT_TOL (first at |gamma| = 6.59)
GAMMA_LIMIT = 6.0
MODE_LIMIT = 1024  # largest register N + M a SymSpec may describe


def _check_gamma(gamma: float) -> float:
    # float() would take a string, and would only warn as it dropped the
    # imaginary part of a numpy complex; a float, as a sweep's grid gives,
    # needs neither the ABC check nor the conversion
    if type(gamma) is not float:
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


class MachineStack:
    """k built machines of one layout, as arrays: what ``build_cloners``
    returns, and what ``analysis.read_clones`` reads.

    * ``specs``: the k specs, in order;
    * ``A`` and ``B``: read-only, shape (k, n, n), machine i's at [i]; a
      build's are the two views of its one (k, n, 2, n) array of rows;
    * ``symplectic_dev``: each register's check, read-only, shape (k,);
    * ``angles``: each asymmetric machine's (u, v, w), read-only, shape
      (k, 3), or None for symmetric machines;
    * ``signal_modes`` and ``clone_modes``: the layout every register shares.

    A machine is a stack of one.  ``take`` and ``join_stacks`` make a stack
    of some stacks' registers from their arrays alone.
    """

    def __init__(self, specs: Sequence[ClonerSpec], A: NDArray[np.float64],
                 B: NDArray[np.float64], symplectic_dev: NDArray[np.float64],
                 angles: NDArray[np.float64] | None, signal_modes: tuple[ModeLabel, ...],
                 clone_modes: tuple[ModeLabel, ...]) -> None:
        self.specs = tuple(specs)
        self.A, self.B = A, B
        self.symplectic_dev = symplectic_dev
        self.angles = angles
        self.signal_modes = signal_modes
        self.clone_modes = clone_modes

    @property
    def n_modes(self) -> int:
        return self.A.shape[1]

    def __len__(self) -> int:
        return len(self.specs)

    def take(self, indices: Sequence[int]) -> MachineStack:
        """The stack of this one's registers at indices, in that order: each
        array gathered once, read-only, and no register checked again."""
        indices = list(indices)
        arrays = [None if a is None else a.take(indices, axis=0)
                  for a in (self.A, self.B, self.symplectic_dev, self.angles)]
        for array in arrays:
            if array is not None:
                array.flags.writeable = False
        return MachineStack([self.specs[i] for i in indices], *arrays,
                            self.signal_modes, self.clone_modes)


def join_stacks(stacks: Sequence[MachineStack]) -> MachineStack:
    """One stack of the registers of some stacks of one layout (register
    size, signal and clone modes), stack by stack: each array joined once,
    read-only, and no register checked again.  The angles are kept if every
    stack has them.  No stack, or stacks that mix layouts, are refused."""
    if not stacks:
        raise ValueError("join_stacks needs at least one stack")
    first = stacks[0]
    layout = (first.n_modes, first.signal_modes, first.clone_modes)
    if any((s.n_modes, s.signal_modes, s.clone_modes) != layout for s in stacks):
        raise ValueError("join_stacks takes stacks of one layout: "
                         "one register size, signal modes and clone modes")
    angles = [s.angles for s in stacks]
    arrays = [np.concatenate([s.A for s in stacks]), np.concatenate([s.B for s in stacks]),
              np.concatenate([s.symplectic_dev for s in stacks]),
              None if any(a is None for a in angles) else np.concatenate(angles)]
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return MachineStack([spec for s in stacks for spec in s.specs], *arrays,
                        first.signal_modes, first.clone_modes)


def _asym_direct_rows(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """``fold_stack`` rows of the closed-form machine at each gamma of an
    array, shape (3, 2, 3, *gamma.shape)."""
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


def _asym_angles(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """``asym_params``' (u, v, w) at each checked gamma of a 1-d array, as
    a (k, 3) array.

    Only exp(2 gamma) is taken over the array, which numpy rounds as it
    rounds one gamma; atan, sinh and log are math's, one gamma at a time:
    numpy's differ from math's in the last bit for some gammas, which would
    move the angles a sweep prints.
    """
    angles = []
    for g, s in zip(gamma.tolist(), np.exp(2.0 * gamma).tolist(), strict=True):
        root = math.sqrt(1.0 + s * s)
        angles.append((-math.atan(math.sqrt(2.0) * math.sinh(g)),
                       0.5 * math.log((1.0 + s + root) ** 2 / (2.0 * s)),
                       math.atan(s)))
    return np.array(angles).reshape(-1, 3)


def asym_params(gamma: float) -> tuple[float, float, float]:
    """Angles (u, v, w) that factor the asymmetric cloner into BS/NOPA/BS.

        w = arctan(exp(2 gamma))
        v = artanh( sqrt(1 + exp(4 gamma)) / (1 + exp(2 gamma)) )
        u = -arctan(sqrt(2) sinh(gamma))

    v is evaluated through 0.5*log(((1+s) + sqrt(1+s^2))^2 / (2 s)) with
    s = exp(2 gamma), the same function without artanh's cancellation near 1:
    at |gamma| = 6 it keeps sinh(v)^2 = cosh(2 gamma) to 4e-16, artanh to 2e-11.
    The gamma is checked here; a build takes the same floats for its
    already checked specs.
    """
    u, v, w = _asym_angles(np.array([_check_gamma(gamma)]))[0].tolist()
    return u, v, w


def _asym_gates(u, v, w) -> tuple:
    """BS1(u) on (a, c), the NOPA(v) on (c, b) and BS2(w) on (a, c), as
    ``fold_stack`` tuples; each angle is a float or an array of angles."""
    return ((beam_splitter_block(u), 0, 2),   # BS1 on (a, c)
            (v, 2, 1),                        # amplifier on (c, b)
            (beam_splitter_block(w), 0, 2))   # BS2 on (a, c)


_ASYM_SIGNALS = (ModeLabel(2, "in"),)
_ASYM_CLONES = (ModeLabel(0, "clone_1"), ModeLabel(2, "clone_2"))


def _form(spec: ClonerSpec) -> object:
    # specs of one form build as one stack: asymmetric machines built the
    # same way, or copies of one symmetric machine
    return ("asym", spec.factorized) if isinstance(spec, AsymSpec) else spec


def build_cloners(specs: Iterable[ClonerSpec]) -> MachineStack:
    """Build the machines some specs of one form describe, in order, with
    labeled signal/clone modes, as one ``MachineStack``.

    The specs are asymmetric in one form, or copies of one symmetric
    machine; a list that mixes forms is refused.  They are built as one
    stack of k registers, by ``fold_stack`` or, for the closed form, over an
    array of gammas, and checked by one batched product in
    ``checked_stack``, which refuses a failing stack with its first failing
    spec's refusal.
    """
    specs = tuple(specs)
    if not specs:
        empty = np.zeros((0, 0, 0))
        return MachineStack((), empty, empty, np.zeros(0), None, (), ())
    first, k = specs[0], len(specs)
    form = _form(first)
    if any(_form(s) != form for s in specs):
        raise ValueError("build_cloners takes specs of one form: asymmetric machines "
                         "in one form, or copies of one symmetric machine")
    # one machine folds with no register axis, which the fold indexes faster
    stack = (k,) if k > 1 else ()
    angles = None
    if isinstance(first, AsymSpec):
        gammas = np.array([s.gamma for s in specs])
        angles = _asym_angles(gammas)
        angles.flags.writeable = False
        if first.factorized:
            u, v, w = angles.T.reshape(3, *stack)
            rows = fold_stack(_asym_gates(u, v, w), 3, stack)
        else:
            rows = _asym_direct_rows(gammas.reshape(stack))
        signals, clones = _ASYM_SIGNALS, _ASYM_CLONES
    elif isinstance(first, SymSpec):
        # collect the N copies on mode 0, amplify it by sqrt(M/N) against the
        # idler (mode N), and split it over mode 0 plus the M-1 ancillas
        N, M = first.n, first.m
        clone_wires = [0, *range(N + 1, N + M)]
        gates = (
            collect_gates(N)
            + ((math.acosh(math.sqrt(M / N)), 0, N),)
            + distribute_gates(M, clone_wires)
        )
        rows = fold_stack(gates, N + M, stack)
        signals = tuple(ModeLabel(j, f"in_{j + 1}") for j in range(N))
        clones = tuple(ModeLabel(w, f"clone_{j + 1}") for j, w in enumerate(clone_wires))
    else:
        raise TypeError(f"unknown cloner spec: {first!r}")
    rows, devs = checked_stack(rows)
    return MachineStack(specs, rows[:, :, 0], rows[:, :, 1], devs, angles, signals, clones)
