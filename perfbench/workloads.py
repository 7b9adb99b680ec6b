"""Seeded op generators for the three benchmark workloads.

An op is one argument vector for ``cvcloner.cli.main`` plus the inputs the
checker needs to recompute its closed forms.  Ops come in blocks.  Each block
draws its inputs by stratified sampling: every block holds one op from each
stratum of the size distribution, in a seeded order, with seeded jitter
inside each stratum.  A timed run always ends on a block boundary, so two
seeds give runs with the same mix of op sizes and differ only by that
jitter.  Without this, the share of 128-clone machines (or of cutoff-16
oracles) in a 20-second run would swing the median and the tail from seed to
seed by more than any change worth measuring.

``sym_clone`` draws two sizes per op, M and N, and its cost grows as
(N+M)^4.  Which N a block pairs with its largest M, and where in its stratum
each M falls, still moved the median and the tail of a 21-block run, so its
blocks come in groups of SYM_BLOCK: over a group every M stratum meets every
N stratum once (a seeded Latin square), and each M stratum is hit once in
each of SYM_BLOCK equal sub-strata.  Over 100 seeds this cut the spread (IQR
over median) of the median and the tail of a cost model fitted to measured
latencies from 0.05 and 0.06 to 0.02 and 0.03.

Why each workload exists (and what it is the control for):

* ``asym_sweep`` -- 41 three-mode machines per op.  The cost is per-call
  Python overhead in ``cli`` (argparse plus JSON), ``analysis`` and
  ``gaussian``; ``elements`` barely runs and ``fock`` never does.  It is the
  control for a cascade fold: such a change should leave it unchanged.
* ``sym_clone`` -- registers of 17 to 144 modes.  ``build_cloner`` and the
  dense ``compose`` cascade dominate, so a cascade fold or a dropped second
  build shows here first, and the largest machines set the tail.
* ``verify_oracle`` -- the truncated-Fock oracle (``expm_multiply`` over
  state vectors of up to 17**3 entries) plus the ten fast suites, which
  rebuild the same small machines many times.  It is the only workload that
  runs ``fock``, and the only one with repeated inputs, so a build cache or
  a generator cache helps here and not elsewhere.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

WORKLOADS = ("asym_sweep", "sym_clone", "verify_oracle")

SWEEP_STEPS = 41
GAMMA_END_RANGE = (0.05, 1.5)   # a in -[0.05, 1.5], b in [0.05, 1.5]
XI_RANGE = 2.0                  # Re xi and Im xi uniform in [-2, 2]
ASYM_BLOCK = 8                  # half of each block runs --factorized
M_RANGE = (16, 128)             # sym_clone: M log-uniform over this range
N_MAX = 16                      # sym_clone: N uniform in [1, min(N_MAX, M)]
SYM_BLOCK = 16
CUTOFFS = tuple(range(10, 17))  # verify_oracle: one op per cutoff per block


@dataclass(frozen=True)
class Op:
    """One CLI call and the inputs behind it."""

    workload: str
    argv: tuple[str, ...]
    params: dict = field(compare=False)

    def label(self) -> str:
        return " ".join(self.argv)


def _xi(rng: random.Random) -> tuple[float, float]:
    return (rng.uniform(-XI_RANGE, XI_RANGE), rng.uniform(-XI_RANGE, XI_RANGE))


def _xi_flag(xi: tuple[float, float]) -> str:
    # "--xi=re,im" in one token: argparse would read a leading "-0.5,..." as a flag
    return f"--xi={xi[0]!r},{xi[1]!r}"


def _asym_block(rng: random.Random) -> list[Op]:
    flags = [True] * (ASYM_BLOCK // 2) + [False] * (ASYM_BLOCK - ASYM_BLOCK // 2)
    rng.shuffle(flags)
    ops = []
    for factorized in flags:
        a = -rng.uniform(*GAMMA_END_RANGE)
        b = rng.uniform(*GAMMA_END_RANGE)
        xi = _xi(rng)
        argv = ["sweep", "--asym", "--gamma-range", repr(a), repr(b), str(SWEEP_STEPS),
                _xi_flag(xi)]
        if factorized:
            argv.append("--factorized")
        ops.append(Op("asym_sweep", tuple(argv),
                      {"a": a, "b": b, "steps": SWEEP_STEPS, "xi": xi,
                       "factorized": factorized}))
    return ops


def _permutation(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def _sym_group(rng: random.Random) -> list[list[Op]]:
    lo, hi = M_RANGE
    shift = _permutation(rng, SYM_BLOCK)  # block k pairs M stratum i with N stratum i + shift[k]
    sub = [_permutation(rng, SYM_BLOCK) for _ in range(SYM_BLOCK)]  # [i][k]: sub-stratum of M
    group = []
    for k in range(SYM_BLOCK):
        ops = []
        for i in _permutation(rng, SYM_BLOCK):
            j = (i + shift[k]) % SYM_BLOCK
            u = (i + (sub[i][k] + rng.random()) / SYM_BLOCK) / SYM_BLOCK
            m = min(max(round(lo * (hi / lo) ** u), lo), hi)
            n_top = min(N_MAX, m)
            n = 1 + min(n_top - 1, int((j + rng.random()) * n_top / SYM_BLOCK))
            xi = _xi(rng)
            argv = ("clone", "--sym", "--n", str(n), "--m", str(m), _xi_flag(xi))
            ops.append(Op("sym_clone", argv, {"n": n, "m": m, "xi": xi}))
        group.append(ops)
    return group


def _verify_block(rng: random.Random) -> list[Op]:
    cutoffs = list(CUTOFFS)
    rng.shuffle(cutoffs)
    return [Op("verify_oracle", ("verify", "--oracle", "--cutoff", str(c)), {"cutoff": c})
            for c in cutoffs]


_GROUPS = {"asym_sweep": lambda rng: [_asym_block(rng)], "sym_clone": _sym_group,
           "verify_oracle": lambda rng: [_verify_block(rng)]}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of op blocks; the same (workload, seed) gives the same stream."""
    make = _GROUPS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield from make(rng)


# A fixed, seed-independent op per workload for the untimed warm-up, so that
# setup_s does not move with the seed.
WARMUP = {
    "asym_sweep": Op("asym_sweep",
                     ("sweep", "--asym", "--gamma-range", "-0.5", "0.5", str(SWEEP_STEPS),
                      "--xi=1.0,0.0"),
                     {"a": -0.5, "b": 0.5, "steps": SWEEP_STEPS, "xi": (1.0, 0.0),
                      "factorized": False}),
    "sym_clone": Op("sym_clone", ("clone", "--sym", "--n", "4", "--m", "32", "--xi=1.0,0.0"),
                    {"n": 4, "m": 32, "xi": (1.0, 0.0)}),
    "verify_oracle": Op("verify_oracle", ("verify", "--oracle", "--cutoff", "10"),
                        {"cutoff": 10}),
}
