#!/usr/bin/env python3
"""Where the time of a benchmark op goes, stage by stage, in-process.

Runs the first N ops of one workload's seed-901 stream, read from the
``perfbench/workloads.py`` next to this script, through
``cvcloner.cli.main`` in this process, after that workload's warm-up op,
and prints each stage's median and mean ms per op over the ops (each op's
figure being its median over PASSES passes).  A stage is the time spent
inside the package functions it names, wrapped for the run wherever a
``cvcloner`` module binds them:

* ``clone`` and ``sweep`` ops: argparse (the parser's ``parse_args``),
  build (``build_cloners``), read (``read_clones``), gate
  (``_physics_violations``) and writer (``_emit``, which makes and writes
  the table's text);
* ``verify`` ops: suites (``standard_suites``), and the oracle's squeeze
  (``fock._squeeze``), propagate (``fock._propagate``) and readout
  (``fock.fidelities_fock``).

``main`` is the whole op and ``other`` what no stage covers.  Nothing is
changed but the names the wrappers rebind, and they are put back before
the script exits.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS is
set, as in the benchmark:

    PYTHONPATH=src python3 scripts/op_split.py --workload verify_oracle --ops 64
"""

import argparse
import os
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import chain, islice
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WARMUP, WORKLOADS, blocks  # noqa: E402

from cvcloner import cli, fock, verification  # noqa: E402

SEED = 901
PASSES = 3
# stage -> (module, name) of each function whose calls it covers
STAGES = {
    "asym_sweep": {"argparse": (None, "parse_args"), "build": (cli, "build_cloners"),
                   "read": (cli, "read_clones"), "gate": (cli, "_physics_violations"),
                   "writer": (cli, "_emit")},
    "verify_oracle": {"suites": (verification, "standard_suites"),
                      "squeeze": (fock, "_squeeze"), "propagate": (fock, "_propagate"),
                      "readout": (fock, "fidelities_fock")},
}
STAGES["sym_clone"] = STAGES["asym_sweep"]


def _timed(fn, spent: dict, stage: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
    return wrapper


def split(workload: str, n_ops: int) -> dict[str, list[float]]:
    """Each stage's ms in each of the first n_ops ops, the median over passes."""
    stages = STAGES[workload]
    ops = list(islice(chain.from_iterable(blocks(workload, SEED)), n_ops))
    spent = dict.fromkeys(stages, 0.0)
    parser = cli._parser()  # the one parser main() uses
    restore = []
    for stage, (module, name) in stages.items():
        if module is None:
            parser.parse_args = _timed(parser.parse_args, spent, stage)
            continue
        # every cvcloner module's binding of the function: a name imported
        # with "from .fock import ..." is called through the importer's own
        fn = getattr(module, name)
        wrapper = _timed(fn, spent, stage)
        for owner in list(sys.modules.values()):
            if owner.__name__.split(".")[0] == "cvcloner" and getattr(owner, name, None) is fn:
                restore.append((owner, name, fn))
                setattr(owner, name, wrapper)
    figures: dict[str, list[float]] = {stage: [] for stage in (*stages, "main", "other")}
    try:
        for op in [WARMUP[workload]] + ops * PASSES:
            spent.update(dict.fromkeys(stages, 0.0))
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                start = time.perf_counter()
                cli.main(list(op.argv))
                total = time.perf_counter() - start
            for stage, seconds in (*spent.items(), ("main", total),
                                   ("other", total - sum(spent.values()))):
                figures[stage].append(seconds * 1e3)
    finally:
        vars(parser).pop("parse_args", None)  # the parser's own method shows through again
        for owner, name, fn in restore:
            setattr(owner, name, fn)
    # drop the warm-up, then take each op's median over the passes
    return {stage: [statistics.median(per_op[1:][k::n_ops]) for k in range(n_ops)]
            for stage, per_op in figures.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--ops", type=int, default=64, help="ops from the stream's start")
    args = parser.parse_args()
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    figures = split(args.workload, args.ops)
    print(f"{args.workload}: first {args.ops} ops of seed {SEED}, {PASSES} passes, ms per op")
    print(f"{'stage':<10}  {'median':>8}  {'mean':>8}")
    for stage, per_op in figures.items():
        print(f"{stage:<10}  {statistics.median(per_op):>8.3f}  {statistics.fmean(per_op):>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
