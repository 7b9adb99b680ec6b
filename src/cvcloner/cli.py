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

import numpy as np

from .analysis import CloneReport, clone_report
from .circuits import (
    AsymSpec,
    ClonerSpec,
    CloningMachine,
    SymSpec,
    asym_direct,
    asym_factorized,
    asym_params,
    build_cloner,
)
from .fock import FockSpace, TruncationError
from .gaussian import DEFAULT_TOL
from .verification import oracle_agreement, standard_suites

SCHEMA_VERSION = 1
SWEEP_STEPS_LIMIT = 10_000
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
    other = asym_direct(spec.gamma) if spec.factorized else asym_factorized(spec.gamma)
    return float(max(np.abs(built.A - other.A).max(), np.abs(built.B - other.B).max()))


def _physics_violations(reports: list[CloneReport], tol: float) -> list[str]:
    # every gate reads "not (dev <= tol)" so that a NaN deviation fails it
    problems = []
    symplectic_dev = reports[0].symplectic_dev
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


def _json(document: dict) -> str:
    # allow_nan=False: a non-finite figure is an error, never a bare NaN token
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_table(header: list[str], rows: list[list[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [f"{v:.10g}" if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_clone(spec: ClonerSpec, xi: complex, output_format: str,
              output_path: str | None, tolerance: float) -> int:
    machine = build_cloner(spec)
    reports = clone_report(machine, xi)
    document = {
        "schema_version": SCHEMA_VERSION,
        "spec": _spec_echo(spec, xi),
        "clones": _clone_rows(reports),
        "diagnostics": {
            "symplectic_dev": reports[0].symplectic_dev,
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
    problems = _physics_violations(reports, tolerance)
    for p in problems:
        print(f"invariant violation: {p}", file=sys.stderr)
    return 1 if problems else 0


def _sweep_row(spec: ClonerSpec, reports: list[CloneReport]) -> list[object]:
    if isinstance(spec, SymSpec):
        return [spec.n, spec.m, reports[0].n_chaotic, reports[0].fidelity]
    params = asym_params(spec.gamma)
    r1, r2 = reports
    return [spec.gamma, params.u, params.v, params.w, r1.n_chaotic, r2.n_chaotic,
            r1.fidelity, r2.fidelity, r1.n_chaotic * r2.n_chaotic]


def cmd_sweep(grid: tuple, xi: complex, output_format: str, output_path: str | None,
              tolerance: float, *, factorized: bool = False, n: int | None = None) -> int:
    """Sweep gamma over grid = (START, STOP, STEPS), in the factorized form if
    asked, or, given n input copies, M over the inclusive grid = (START, STOP)."""
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
    rows: list[list[object]] = []
    problems: list[str] = []
    for where, spec in points:
        reports = clone_report(spec, xi)
        problems += [f"{where}: {p}" for p in _physics_violations(reports, tolerance)]
        rows.append(_sweep_row(spec, reports))
    if output_format == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "spec": echo,
            "rows": [dict(zip(header, row, strict=True)) for row in rows],
        }
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
        return cmd_verify(override, cutoff if args.oracle else None)

    _check_family_flags(parser, args)
    if args.command == "sweep":
        run = _sweep_from_args(parser, args)
    else:
        run = functools.partial(cmd_clone, _spec_from_args(parser, args))
    try:
        return run(args.xi, args.output_format, args.output,
                   override if override is not None else DEFAULT_TOL)
    except (ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if args.output is None:
            raise
        parser.error(f"--output: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
