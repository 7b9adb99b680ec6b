#!/usr/bin/env python3
"""Hash what cvcloner prints for a fixed corpus of command lines.

Each entry is one argv, run in-process through ``cvcloner.cli.main``, and
prints one line, ``sha256  argv``, whose hash covers the exit code, stdout
and stderr.  The corpus is the 29 argvs of ``BENCH_19.json``, ``verify
--oracle --cutoff c`` for c in 5, 10..16, 18 and 20, the first 256 ops
of the ``asym_sweep`` and ``sym_clone`` workloads for seed 901, read from
the ``perfbench/workloads.py`` next to this script, and three symmetric
runs that take the table writer's other paths: invariant violations on
stderr, and a clone table of more than one chunk.

cvcloner is imported from wherever Python finds it, so that one copy of
the script hashes two trees' packages and a diff shows the argvs whose
bytes changed:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_corpus.py > new.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=../old/src python3 scripts/output_corpus.py > old.txt
"""

import hashlib
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import blocks  # noqa: E402

from cvcloner.cli import main  # noqa: E402

BENCH_19_ARGVS = (
    "clone --asym --gamma -6 --factorized",
    "clone --asym --gamma 0.3",
    "clone --asym --gamma 0.3 --factorized --xi 0.5,-0.25",
    "clone --asym --gamma 0.3 --tolerance 0",
    "clone --asym --gamma 0.5 --xi 1,0",
    "clone --sym --n 0 --m 5",
    "clone --sym --n 1 --m 1",
    "clone --sym --n 16 --m 1008",
    "clone --sym --n 16 --m 128",
    "clone --sym --n 2 --m 3 --format csv",
    "clone --sym --n 3 --m 5 --xi 1000000,0",
    "sweep --asym --gamma-range -1 1 41",
    "sweep --asym --gamma-range -1 1 41 --factorized",
    "sweep --asym --gamma-range -1 1 41 --factorized --xi=0.3,-1.2",
    "sweep --asym --gamma-range -1 1 41 --format csv",
    "sweep --asym --gamma-range -2 2 81 --format csv",
    "sweep --asym --gamma-range -6 6 10000",
    "sweep --asym --gamma-range -6 6 10000 --factorized",
    "sweep --asym --gamma-range -6 6 10000 --factorized --format csv",
    "sweep --asym --gamma-range -6 6 10000 --format csv",
    "sweep --asym --gamma-range -6 6 300 --tolerance 0",
    "sweep --asym --gamma-range -6 6 300 --tolerance 0 --factorized",
    "sweep --asym --gamma-range -6 6 7 --factorized --tolerance 0",
    "sweep --sym --n 1 --m-range 2 6",
    "sweep --sym --n 1 --m-range 2 6 --format csv",
    "sweep --sym --n 2 --m-range 2 9",
    "sweep --sym --n 3 --m-range 3 20 --xi=0.7,-0.2 --format csv",
    "verify",
    "verify --oracle --cutoff 14",
)
ORACLE_CUTOFFS = (5, *range(10, 17), 18, 20)
WRITER_ARGVS = (
    "clone --sym --n 3 --m 5 --tolerance 0",
    "sweep --sym --n 2 --m-range 2 9 --tolerance 0",
    "clone --sym --n 16 --m 300",
)
STREAM_SEED = 901
STREAM_OPS = 256


def corpus() -> list[list[str]]:
    """Every argv of the corpus, in the order it is hashed."""
    argvs = [argv.split() for argv in BENCH_19_ARGVS]
    argvs += [["verify", "--oracle", "--cutoff", str(c)] for c in ORACLE_CUTOFFS]
    for workload in ("asym_sweep", "sym_clone"):
        ops = itertools.chain.from_iterable(blocks(workload, STREAM_SEED))
        argvs += [list(op.argv) for op in itertools.islice(ops, STREAM_OPS)]
    argvs += [argv.split() for argv in WRITER_ARGVS]
    return argvs


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    payload = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main_corpus() -> int:
    for argv in corpus():
        print(f"{digest(argv)}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_corpus())
