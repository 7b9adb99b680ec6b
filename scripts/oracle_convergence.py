#!/usr/bin/env python3
"""Convergence study of the truncated-Fock oracle against the Gaussian pipeline.

For each cutoff, evolves coherent inputs through the 1->2 cloner in the
number basis and reports the worst fidelity disagreement with the closed
forms.  The column should shrink steadily with the cutoff: that decay is the
evidence that the two independent simulations describe the same machine.

    python3 scripts/oracle_convergence.py --max-cutoff 16
"""

import argparse
import time

from cvcloner.analysis import expected_fidelities
from cvcloner.circuits import AsymSpec
from cvcloner.fock import (
    FockSpace,
    TruncationError,
    apply_cloning_fock_block,
    coherent_fock,
    fidelity_fock,
)
from cvcloner.gaussian import worst_dev

GAMMAS = (-0.5, 0.0, 0.5)
AMPLITUDES = (0.0, 0.3, 0.5)


def worst_deviation(cutoff: int) -> float:
    space = FockSpace(3, cutoff)
    probes = [(gamma, xi) for gamma in GAMMAS for xi in AMPLITUDES]
    outs = apply_cloning_fock_block([(gamma, coherent_fock(space, [0j, 0j, xi]))
                                     for gamma, xi in probes])
    dev = 0.0
    for (gamma, xi), out in zip(probes, outs, strict=True):
        fa, fc = expected_fidelities(AsymSpec(gamma))
        dev = worst_dev((dev,
                         abs(fidelity_fock(out, 0, xi) - fa),
                         abs(fidelity_fock(out, 2, xi) - fc)))
    return dev


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-cutoff", type=int, default=6)
    parser.add_argument("--max-cutoff", type=int, default=16)
    args = parser.parse_args()

    print(f"{'cutoff':>6}  {'dim':>6}  {'max |F_fock - F_gauss|':>24}  {'seconds':>8}")
    previous = None
    for cutoff in range(args.min_cutoff, args.max_cutoff + 1, 2):
        t0 = time.perf_counter()
        try:
            dev = worst_deviation(cutoff)
        except TruncationError:
            # the leakage gate refuses to report a fidelity at this cutoff
            print(f"{cutoff:>6}  {(cutoff + 1) ** 3:>6}  "
                  f"{'refused (leakage gate)':>24}  {'-':>8}")
            continue
        dt = time.perf_counter() - t0
        trend = "" if previous is None else ("  (down)" if dev < previous else "  (UP)")
        print(f"{cutoff:>6}  {(cutoff + 1) ** 3:>6}  {dev:>24.3e}  {dt:>8.2f}{trend}")
        previous = dev
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
