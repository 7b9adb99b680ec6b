"""Command-line front end: build cloners, run sweeps, run the verification suites.

Three subcommands:

    cvcloner clone  --asym --gamma 0.3 --xi 1,0 --format json
    cvcloner sweep  --asym --gamma-range -1 1 41 --format csv
    cvcloner verify --oracle --cutoff 14

Exit codes: 0 success, 1 a physics invariant or verification suite failed,
2 usage error, which includes every flag the run would not read: one of the
other machine family (see _FAMILY_FLAGS), one the subcommand does not
declare or that is abbreviated, and --cutoff without --oracle.  JSON output
is deterministic (sorted keys, shortest round-trip floats); CSV carries 10
significant digits.  The default tolerance is 1e-10, overridable per run
with --tolerance or globally with the CVCLONER_TOLERANCE environment
variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain

import numpy as np

from .analysis import CloneReport, clone_report, clone_reports
from .circuits import (
    AsymSpec,
    ClonerSpec,
    CloningMachine,
    SymSpec,
    asym_direct,
    asym_factorized,
    build_cloner,
    build_cloners,
)
from .fock import FockSpace, TruncationError
from .gaussian import DEFAULT_TOL
from .verification import oracle_agreement, standard_suites

SCHEMA_VERSION = 1
SWEEP_STEPS_LIMIT = 10_000
# the most asym sweep points built and read as one stack, so that the
# machines held at once stay few whatever the step count
SWEEP_STACK_LIMIT = 256
# largest |xi|: near 1e12 rounding in the output mean alone breaks pi*Q(xi) = F
XI_LIMIT = 1e6
# the flags each machine family owns: the other family's are refused, and
# each valued one of its own that the subcommand declares is required
_FAMILY_FLAGS = {"asym": ("gamma", "gamma_range", "factorized"),
                 "sym": ("n", "m", "m_range")}


def _parse_xi(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        xi = complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"amplitude must be 're,im', for example '1,0'; got {text!r}"
        ) from None
    if not abs(xi) <= XI_LIMIT:  # false for a NaN part too
        raise argparse.ArgumentTypeError(
            f"amplitude must be finite with |xi| <= {XI_LIMIT:g}, got {text!r}")
    return xi


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a float, got {text!r}") from None
    if not 0.0 <= value < math.inf:  # false for NaN too
        raise argparse.ArgumentTypeError(f"expected a finite float >= 0, got {text!r}")
    return value


def _tolerance_override(args: argparse.Namespace,
                        parser: argparse.ArgumentParser) -> float | None:
    if args.tolerance is not None:
        return args.tolerance
    env = os.environ.get("CVCLONER_TOLERANCE")
    if env is None:
        return None
    try:
        return _tolerance(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"CVCLONER_TOLERANCE: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcloner",
        description="Gaussian cloning machines for coherent states: simulate, sweep, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: sweep's --gamma-range must not answer to --gamma
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_family_flags(p: argparse.ArgumentParser) -> None:
        family = p.add_mutually_exclusive_group(required=True)
        family.add_argument("--asym", action="store_true", help="asymmetric 1->2 machine")
        family.add_argument("--sym", action="store_true", help="symmetric N->M machine")
        p.add_argument("--factorized", action="store_true",
                       help="build the asymmetric machine from BS/NOPA/BS instead of the closed form")
        p.add_argument("--n", type=int, default=None, help="number of input copies")

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--xi", type=_parse_xi, default=complex(1.0, 0.0),
                       help="input coherent amplitude as 're,im' (default 1,0); "
                            "write a negative real part as --xi=-1,0")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       dest="output_format", help="report format (default json)")
        p.add_argument("--output", default=None,
                       help="write the report to this file instead of standard output")
        p.add_argument("--tolerance", type=_tolerance, default=None,
                       help="override the physics tolerance (default 1e-10 or CVCLONER_TOLERANCE)")

    p_clone = add_parser("clone", help="run one machine and report every clone")
    add_family_flags(p_clone)
    p_clone.add_argument("--gamma", type=float, default=None,
                         help="noise-split parameter of the asymmetric machine")
    p_clone.add_argument("--m", type=int, default=None, help="number of output clones")
    add_io_flags(p_clone)

    p_sweep = add_parser("sweep", help="tabulate clone figures over gamma or M")
    add_family_flags(p_sweep)
    p_sweep.add_argument("--gamma-range", nargs=3, metavar=("START", "STOP", "STEPS"),
                         default=None, help="asymmetric sweep: gamma grid")
    p_sweep.add_argument("--m-range", nargs=2, type=int, metavar=("START", "STOP"),
                         default=None, help="symmetric sweep: inclusive M range")
    add_io_flags(p_sweep)

    p_verify = add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--oracle", action="store_true",
                          help="also run the truncated-Fock oracle cross-check")
    p_verify.add_argument("--cutoff", type=int, default=None,
                          help="largest Fock cutoff for the oracle ladder (default 14)")
    p_verify.add_argument("--tolerance", type=_tolerance, default=None,
                          help="override every suite tolerance (diagnostic use)")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves every main()
    return build_parser()


def _check_family_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    family = "asym" if args.asym else "sym"
    for owner, dests in _FAMILY_FLAGS.items():
        for dest in dests:
            if not hasattr(args, dest):  # the subcommand does not declare it
                continue
            value, flag = getattr(args, dest), "--" + dest.replace("_", "-")
            if owner == family and value is None:
                parser.error(f"{args.command} --{family} requires {flag}")
            if owner != family and value is not None and value is not False:
                parser.error(f"{flag} only applies to --{owner}")


def _spec_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ClonerSpec:
    try:
        if args.asym:
            return AsymSpec(args.gamma, factorized=args.factorized)
        return SymSpec(args.n, args.m)
    except ValueError as exc:
        parser.error(str(exc))


def _spec_echo(spec: ClonerSpec, xi: complex) -> dict:
    if isinstance(spec, AsymSpec):
        echo: dict = {"kind": "asym", "gamma": spec.gamma, "factorized": spec.factorized}
    else:
        echo = {"kind": "sym", "n": spec.n, "m": spec.m}
    echo["xi"] = [xi.real, xi.imag]
    return echo


def _clone_rows(reports: list[CloneReport]) -> list[dict]:
    rows = []
    for r in reports:
        rows.append({
            "mode": r.clone_mode.index,
            "name": r.clone_mode.name,
            "n_chaotic": r.n_chaotic,
            "n_chaotic_formula": r.n_chaotic_formula,
            "fidelity": r.fidelity,
            "fidelity_formula": r.fidelity_formula,
            "q_peak": r.q_peak,
            "defect": abs(r.phase_covariance_defect),
        })
    return rows


def _factorization_dev(machine: CloningMachine) -> float | None:
    # compare the built transform against the other form of the same machine
    spec = machine.spec
    if not isinstance(spec, AsymSpec):
        return None
    built = machine.transform
    other = asym_direct(spec.gamma) if spec.factorized else asym_factorized(machine.angles)
    return float(max(np.abs(built.A - other.A).max(), np.abs(built.B - other.B).max()))


def _physics_violations(symplectic_dev: float, reports: list[CloneReport], tol: float) -> list[str]:
    # every gate reads "not (dev <= tol)" so that a NaN deviation fails it
    problems = []
    if not symplectic_dev <= tol:
        problems.append(f"symplectic deviation {symplectic_dev:.3e} > {tol:.3e}")
    for r in reports:
        if not abs(r.fidelity * (r.n_chaotic_state + 1.0) - 1.0) <= tol:
            problems.append(f"{r.clone_mode.name}: F*(n+1) != 1 beyond {tol:.3e}")
        if not abs(math.pi * r.q_peak - r.fidelity) <= tol:
            problems.append(f"{r.clone_mode.name}: pi*Q(xi) != F beyond {tol:.3e}")
        if not abs(r.fidelity - r.fidelity_formula) <= tol:
            problems.append(
                f"{r.clone_mode.name}: fidelity {r.fidelity!r} vs closed form "
                f"{r.fidelity_formula!r} beyond {tol:.3e}"
            )
        if not abs(r.phase_covariance_defect) <= tol:
            problems.append(
                f"{r.clone_mode.name}: phase covariance defect "
                f"{abs(r.phase_covariance_defect):.3e} > {tol:.3e}"
            )
    return problems


# indent=None lets json run its C encoder; this item separator puts each key
# of a row in a top-level list on its own line, at the depth indent=2 gives it
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False,
                                separators=(",\n      ", ": "))
_ROW_BOUNDARY = "\n    },\n    {\n      "  # between two rows, as indent=2 writes it
# rows per encoder call: a long table's text is made a slice at a time, and
# a table this short or shorter (every clone table, a 41-point sweep) in one call
JSON_ROWS = 256
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _flat_rows(value: object) -> bool:
    """True for a non-empty list of non-empty dicts that hold only scalars.

    Types are matched exactly, so that the test runs at C speed; a subclass
    of a scalar type only sends the list down the general path.
    """
    return (type(value) is list and set(map(type, value)) == {dict} and all(value)
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, value)))))


def _json(document: dict) -> list[str]:
    """The text of json.dumps(document, sort_keys=True, indent=2,
    allow_nan=False) plus a newline, for a non-empty dict with string keys,
    as pieces to write in order.

    A list of flat rows (the clones, the sweep rows) is encoded by the C
    encoder, JSON_ROWS rows a call, and re-indented by rewriting its row
    boundaries.  That is exact because a JSON string never holds a raw
    newline, so every newline the encoder writes is a separator.  The pieces
    are the text once over, never joined: a long sweep is held once, not
    once per rewrite.  allow_nan=False: a non-finite figure is an error,
    never a bare NaN token, and it is raised before any piece is written.
    """
    pieces = ["{\n"]
    for key in sorted(document):
        value = document[key]
        pieces.append(f"  {json.dumps(key)}: ")
        if _flat_rows(value):
            pieces.append("[\n    {\n      ")
            for start in range(0, len(value), JSON_ROWS):
                if start:
                    pieces.append(_ROW_BOUNDARY)
                rows = _ROW_ENCODER.encode(value[start:start + JSON_ROWS])[2:-2]  # strip "[{" and "}]"
                pieces.append(rows.replace("},\n      {", _ROW_BOUNDARY))
            pieces.append("\n    }\n  ]")
        else:
            pieces.append(json.dumps(value, sort_keys=True, indent=2,
                                     allow_nan=False).replace("\n", "\n  "))
        pieces.append(",\n")
    pieces[-1] = "\n}\n"
    return pieces


def _emit(pieces: list[str], output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _csv_table(header: list[str], rows: list[list[object]]) -> list[str]:
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = [f"{v:.10g}" if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells) + "\n")
    return lines


def cmd_clone(spec: ClonerSpec, xi: complex, output_format: str,
              output_path: str | None, tolerance: float) -> int:
    machine = build_cloner(spec)
    reports = clone_report(machine, xi)
    document = {
        "schema_version": SCHEMA_VERSION,
        "spec": _spec_echo(spec, xi),
        "clones": _clone_rows(reports),
        "diagnostics": {
            "symplectic_dev": machine.symplectic_dev,
            "factorization_dev": _factorization_dev(machine),
        },
    }
    if output_format == "json":
        _emit(_json(document), output_path)
    else:
        header = ["mode", "name", "n_chaotic", "n_chaotic_formula",
                  "fidelity", "fidelity_formula", "q_peak", "defect"]
        rows = [[c[k] for k in header] for c in document["clones"]]
        _emit(_csv_table(header, rows), output_path)
    problems = _physics_violations(machine.symplectic_dev, reports, tolerance)
    for p in problems:
        print(f"invariant violation: {p}", file=sys.stderr)
    return 1 if problems else 0


def _sweep_row(machine: CloningMachine, reports: list[CloneReport]) -> list[object]:
    spec = machine.spec
    if isinstance(spec, SymSpec):
        return [spec.n, spec.m, reports[0].n_chaotic, reports[0].fidelity]
    angles = machine.angles
    r1, r2 = reports
    return [spec.gamma, angles.u, angles.v, angles.w, r1.n_chaotic, r2.n_chaotic,
            r1.fidelity, r2.fidelity, r1.n_chaotic * r2.n_chaotic]


def cmd_sweep(grid: tuple, xi: complex, output_format: str, output_path: str | None,
              tolerance: float, *, factorized: bool = False, n: int | None = None) -> int:
    """Sweep gamma over grid = (START, STOP, STEPS), in the factorized form if
    asked, or, given n input copies, M over the inclusive grid = (START, STOP).

    An asym sweep's points share one form and one layout: each chunk of up
    to SWEEP_STACK_LIMIT of them is built and checked as one stack by one
    ``build_cloners`` call and read by one ``clone_reports`` call.  Every
    sym point is a layout of its own, built, read and dropped before the
    next is built.  A refused chunk is run again one point at a time, so
    that the refusal named, with its point, is the first one a loop over
    the points would meet.
    """
    if n is None:
        header = ["gamma", "u", "v", "w", "n_chaotic_1", "n_chaotic_2",
                  "fidelity_1", "fidelity_2", "noise_product"]
        echo: dict = {"kind": "asym_sweep", "gamma_range": list(grid)}
        points = [(f"gamma={g}", AsymSpec(float(g), factorized=factorized))
                  for g in np.linspace(*grid)]
    else:
        header = ["n", "m", "n_chaotic", "fidelity"]
        echo = {"kind": "sym_sweep", "n": n, "m_range": list(grid)}
        points = [(f"m={m}", SymSpec(n, m)) for m in range(grid[0], grid[1] + 1)]
    echo["xi"] = [xi.real, xi.imag]
    rows: list = []  # each in the form the chosen output writes: a dict for JSON
    problems: list[str] = []
    batch_size = SWEEP_STACK_LIMIT if n is None else 1
    for start in range(0, len(points), batch_size):
        chunk = points[start:start + batch_size]
        try:
            machines = build_cloners([spec for _, spec in chunk])
            reads = clone_reports(machines, xi)
        except ValueError:
            # a stack runs each gate over all its points in turn, so a later
            # point's refusal can come first
            for where, spec in chunk:
                try:
                    clone_report(build_cloner(spec), xi)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
            raise
        for (where, _), machine, reports in zip(chunk, machines, reads, strict=True):
            violations = _physics_violations(machine.symplectic_dev, reports, tolerance)
            problems.extend(f"{where}: {p}" for p in violations)
            row = _sweep_row(machine, reports)
            rows.append(dict(zip(header, row, strict=True)) if output_format == "json" else row)
    if output_format == "json":
        document = {"schema_version": SCHEMA_VERSION, "spec": echo, "rows": rows}
        _emit(_json(document), output_path)
    else:
        _emit(_csv_table(header, rows), output_path)
    for p in problems:
        print(f"invariant violation: {p}", file=sys.stderr)
    return 1 if problems else 0


def _oracle_ladder(top: int) -> tuple[int, ...]:
    # step down from the requested cutoff in 2s, but not below 10
    rungs = []
    c = top
    while c >= 10 and len(rungs) < 3:
        rungs.append(c)
        c -= 2
    return tuple(reversed(rungs)) or (top,)


def cmd_verify(tolerance: float | None, oracle_cutoff: int | None) -> int:
    """Run the fast suites, and the oracle up to oracle_cutoff unless it is None.

    A tolerance of None keeps each suite's own default.
    """
    results = standard_suites(tolerance)
    if oracle_cutoff is not None:
        results.append(oracle_agreement(tolerance, cutoffs=_oracle_ladder(oracle_cutoff)))
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  max_dev={r.max_dev:.3e}  tol={r.tolerance:.1e}  {status}"
        if r.details:
            extras = ", ".join(f"{k}={v:.3e}" for k, v in r.details.items())
            line += f"  [{extras}]"
        print(line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def _sweep_from_args(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> functools.partial:
    if args.asym:
        flag, spec_at = "--gamma-range", AsymSpec
        try:
            start, stop = float(args.gamma_range[0]), float(args.gamma_range[1])
            grid: tuple = (start, stop, int(args.gamma_range[2]))
        except ValueError:
            parser.error("--gamma-range takes two floats and an integer step count")
        if grid[2] < 1:
            parser.error("--gamma-range needs at least one step")
        if grid[2] > SWEEP_STEPS_LIMIT:
            parser.error(f"--gamma-range allows at most {SWEEP_STEPS_LIMIT} steps")
        run = functools.partial(cmd_sweep, grid, factorized=args.factorized)
    else:
        flag, spec_at = "--m-range", functools.partial(SymSpec, args.n)
        grid = tuple(args.m_range)
        run = functools.partial(cmd_sweep, grid, n=args.n)
    if grid[1] < grid[0]:
        parser.error(f"{flag} needs STOP >= START")
    # the grid runs from START to STOP, so the machines at its ends bound every point
    for end in grid[:2]:
        try:
            spec_at(end)
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")
    return run


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    override = _tolerance_override(args, parser)

    if args.command == "verify":
        if args.cutoff is not None and not args.oracle:
            parser.error("--cutoff only applies with --oracle")
        cutoff = 14 if args.cutoff is None else args.cutoff
        if args.oracle:
            try:
                FockSpace(3, cutoff)  # the oracle's 1->2 register at its finest rung
            except ValueError as exc:
                parser.error(f"--cutoff: {exc}")
        run = functools.partial(cmd_verify, override, cutoff if args.oracle else None)
    else:
        _check_family_flags(parser, args)
        if args.command == "sweep":
            run = _sweep_from_args(parser, args)
        else:
            run = functools.partial(cmd_clone, _spec_from_args(parser, args))
        run = functools.partial(run, args.xi, args.output_format, args.output,
                                override if override is not None else DEFAULT_TOL)
    try:
        return run()
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # verify declares no --output
        if getattr(args, "output", None) is None:
            raise
        parser.error(f"--output: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
