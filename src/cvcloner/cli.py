"""Command-line front end: build cloners, run sweeps, run the verification suites.

Three subcommands:

    cvcloner clone  --asym --gamma 0.3 --xi 1,0 --format json
    cvcloner sweep  --asym --gamma-range -1 1 41 --format csv
    cvcloner verify --oracle --cutoff 14

Exit codes: 0 success, 1 a physics invariant or verification suite failed,
2 usage error, which includes every flag the run would not read: one of the
other machine family (see _FAMILY_FLAGS), one the subcommand does not
declare or that is abbreviated, and --cutoff without --oracle.  JSON output
is deterministic (sorted keys, shortest round-trip floats), the bytes of
json.dumps with indent=2; CSV carries 10 significant digits.  The default
tolerance is 1e-10, overridable per run with --tolerance or globally with
the CVCLONER_TOLERANCE environment variable.

clone and sweep build their machines with ``circuits.build_cloners``,
read each ``MachineStack`` with ``analysis.read_clones``, and print from
the stack's arrays (the checks and angles) and the read's: the invariant
gate is a few array comparisons, and a table is written from its columns,
a chunk of JSON_ROWS rows at a time, each distinct nonzero float of a
chunk formatted once.

``verification`` and ``fock`` are imported on the verify path alone, so a
clone or sweep process never loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .analysis import Readout, read_clones
from .circuits import AsymSpec, ClonerSpec, MachineStack, SymSpec, build_cloners
from .gaussian import DEFAULT_TOL

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


def _factorization_dev(stack: MachineStack) -> float | None:
    # compare the built transform against the other form of the same machine
    spec = stack.specs[0]
    if not isinstance(spec, AsymSpec):
        return None
    other = build_cloners([AsymSpec(spec.gamma, factorized=not spec.factorized)])
    return float(max(np.abs(stack.A[0] - other.A[0]).max(),
                     np.abs(stack.B[0] - other.B[0]).max()))


def _read(stack: MachineStack, xi: complex) -> Readout:
    """The stack's ``read_clones`` at xi, raising its refusal."""
    read = read_clones(stack, (xi,))
    if read.refusal is not None:
        raise ValueError(read.refusal)
    return read


def _physics_violations(symplectic_devs: Sequence[float], read: Readout, names: list[str],
                        tol: float) -> list[tuple[int, str]]:
    """The invariant violations of each machine of a one-amplitude read, as
    (machine, message) pairs: machine i's symplectic deviation, then each of
    its clones' four checks, clone by clone, with clone j named names[j].

    The checks are array comparisons over the read that a NaN deviation
    fails: the largest deviation against tol (NaN if any deviation is), and
    only when that fails, "not (dev <= tol)" check by check.  A message is
    formatted only for a failing check, from its own entries.
    """
    fidelity = read.fidelity[0]
    devs = np.concatenate((fidelity * (read.n_chaotic_state + 1.0) - 1.0,
                           math.pi * read.q_peak[0] - fidelity,
                           fidelity - read.fidelity_formula,
                           read.phase_covariance_defect))
    np.abs(devs, out=devs)
    symplectic_devs = np.asarray(symplectic_devs)
    if devs.max() <= tol and (symplectic_devs <= tol).all():
        return []
    devs = devs.reshape(4, *fidelity.shape).transpose(1, 2, 0)  # (k, M, check)
    problems = []
    for i, failed in enumerate(~(devs <= tol)):
        if not symplectic_devs[i] <= tol:
            problems.append((i, f"symplectic deviation {symplectic_devs[i]:.3e} > {tol:.3e}"))
        for j, check in zip(*np.nonzero(failed)):
            name = names[j]
            problems.append((i, (
                f"{name}: F*(n+1) != 1 beyond {tol:.3e}",
                f"{name}: pi*Q(xi) != F beyond {tol:.3e}",
                f"{name}: fidelity {float(fidelity[i, j])!r} vs closed form "
                f"{float(read.fidelity_formula[i, j])!r} beyond {tol:.3e}",
                f"{name}: phase covariance defect {devs[i, j, 3]:.3e} > {tol:.3e}",
            )[check]))
    return problems


class _Table(NamedTuple):
    """A table as columns under its header, with at least one column, all
    of one length: each column a float array, or an array or list of ints,
    or a list of strings.  The writers print it from the columns, with no
    object per row.
    """

    header: tuple[str, ...]
    columns: tuple


# rows per chunk of a written table: a long table's text is made and
# written a chunk at a time, and a table this short or shorter (every clone
# table, a 41-point sweep) in one piece
JSON_ROWS = 256
# each cell's text, by the type of its value, as json.dumps writes it and as CSV does
_JSON_TEXT = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}
_CSV_TEXT = {float: "{:.10g}".format, int: str, str: str}


def _texts(values: list, text_of: dict[type, Callable[[object], str]]) -> list[str]:
    """The text of each value, by text_of its type; for floats, made once
    for each distinct nonzero value.

    Zeros are never memoized: -0.0 == 0.0, so one entry would print both
    zeros alike; each zero is written by its own call.
    """
    kind = type(values[0])  # a column holds values of one type
    text = text_of[kind]
    if kind is not float:
        return list(map(text, values))
    distinct = set(values)
    if len(distinct) == len(values):  # no value repeats
        return list(map(text, values))
    memo = dict(zip(distinct, map(text, distinct)))
    if 0 not in memo:
        return list(map(memo.__getitem__, values))
    del memo[0]
    return [memo[v] if v else text(v) for v in values]


def _chunks(columns: Sequence, text_of: dict) -> Iterator[list[list[str]]]:
    """The texts of each column's cells, JSON_ROWS rows at a time."""
    for start in range(0, len(columns[0]), JSON_ROWS):
        cells = []
        for column in columns:
            values = column[start:start + JSON_ROWS]
            if isinstance(values, np.ndarray):
                values = values.tolist()
            cells.append(_texts(values, text_of))
        yield cells


def _json_rows(table: _Table) -> Iterator[str]:
    """The text of a table's rows as a list of objects, as json.dumps(...,
    sort_keys=True, indent=2) writes it as the value of a top-level key."""
    if not len(table.columns[0]):
        yield "[]"
        return
    order = sorted(range(len(table.header)), key=table.header.__getitem__)
    # the row template, cut before each cell: its opening and the cell's key
    keys = [encode_basestring_ascii(table.header[c]) for c in order]
    heads = [f"    {{\n      {keys[0]}: "] + [f",\n      {key}: " for key in keys[1:]]
    tail = "\n    }"
    opening = "[\n"
    for cells in _chunks([table.columns[c] for c in order], _JSON_TEXT):
        interleaved = chain.from_iterable(zip(map(repeat, heads), cells))
        yield opening + (tail + ",\n").join(map("".join, zip(*interleaved))) + tail
        opening = ",\n"
    yield "\n  ]"


def _json(document: dict) -> Iterator[str]:
    """The text of json.dumps(document, sort_keys=True, indent=2,
    allow_nan=False) plus a newline, for a non-empty dict with string keys
    whose values are JSON values or ``_Table``s, the tables standing for
    their lists of rows, as pieces to write in order.

    A table is written from its columns by one row template, JSON_ROWS rows
    a piece, and each distinct nonzero float of a chunk is repr'd once.
    allow_nan=False: a non-finite figure is an error, never a bare NaN
    token, and it is raised here, before any piece is made.
    """
    items = []
    for key in sorted(document):
        value = document[key]
        if isinstance(value, _Table):
            for column in value.columns:
                if isinstance(column, np.ndarray) and not np.isfinite(column).all():
                    # raises json's own error for the first non-finite figure
                    json.dumps(column[~np.isfinite(column)][0].item(), allow_nan=False)
        else:
            value = json.dumps(value, sort_keys=True, indent=2,
                               allow_nan=False).replace("\n", "\n  ")
        items.append((f"  {encode_basestring_ascii(key)}: ", value))
    return _json_pieces(items)


def _json_pieces(items: list[tuple[str, str | _Table]]) -> Iterator[str]:
    yield "{\n"
    for i, (head, value) in enumerate(items):
        yield (",\n" if i else "") + head
        if isinstance(value, _Table):
            yield from _json_rows(value)
        else:
            yield value
    yield "\n}\n"


def _csv(table: _Table) -> Iterator[str]:
    """A table as CSV, its floats at 10 significant digits, JSON_ROWS rows a piece."""
    yield ",".join(table.header) + "\n"
    for cells in _chunks(table.columns, _CSV_TEXT):
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _emit(pieces: Iterable[str], output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def cmd_clone(spec: ClonerSpec, xi: complex, output_format: str,
              output_path: str | None, tolerance: float) -> int:
    stack = build_cloners([spec])
    read = _read(stack, xi)
    names = [m.name for m in stack.clone_modes]
    header = ("mode", "name", "n_chaotic", "n_chaotic_formula",
              "fidelity", "fidelity_formula", "q_peak", "defect")
    table = _Table(header, (
        [m.index for m in stack.clone_modes], names,
        read.n_chaotic[0], read.n_chaotic_formula[0], read.fidelity[0, 0],
        read.fidelity_formula[0], read.q_peak[0, 0], np.abs(read.phase_covariance_defect[0])))
    if output_format == "json":
        _emit(_json({
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_echo(spec, xi),
            "clones": table,
            "diagnostics": {
                "symplectic_dev": float(stack.symplectic_dev[0]),
                "factorization_dev": _factorization_dev(stack),
            },
        }), output_path)
    else:
        _emit(_csv(table), output_path)
    problems = _physics_violations(stack.symplectic_dev, read, names, tolerance)
    for _, p in problems:
        print(f"invariant violation: {p}", file=sys.stderr)
    return 1 if problems else 0


def _sweep_columns(stack: MachineStack, read: Readout, points: Sequence) -> list:
    """The sweep table's columns over one stack of points, built at the
    grid points given."""
    spec = stack.specs[0]
    if isinstance(spec, SymSpec):
        # copies: a view of clone 1 would keep the point's whole read alive
        return [[spec.n], [spec.m], read.n_chaotic[:, 0].copy(), read.fidelity[0, :, 0].copy()]
    n_1, n_2 = read.n_chaotic.T
    return [points, *stack.angles.T, n_1, n_2, *read.fidelity[0].T, n_1 * n_2]


def cmd_sweep(grid: tuple, xi: complex, output_format: str, output_path: str | None,
              tolerance: float, *, factorized: bool = False, n: int | None = None) -> int:
    """Sweep gamma over grid = (START, STOP, STEPS), in the factorized form if
    asked, or, given n input copies, M over the inclusive grid = (START, STOP).

    An asym sweep's points share one form and one layout: each chunk of up
    to SWEEP_STACK_LIMIT of them is built and checked as one stack by one
    ``build_cloners`` call and read by one ``read_clones`` call, and its
    columns and checks are the stack's arrays.  Every sym point is a layout
    of its own, built, read and dropped before the next is built.  A refused
    chunk is built and read again one point at a time, each a stack of one,
    so that the refusal named, with its point, is the first one a loop over
    the points would meet.  The table is kept as columns, one array or list
    per column and chunk, and written from them.
    """
    if n is None:
        header = ("gamma", "u", "v", "w", "n_chaotic_1", "n_chaotic_2",
                  "fidelity_1", "fidelity_2", "noise_product")
        echo: dict = {"kind": "asym_sweep", "gamma_range": list(grid)}
        label, grid_points = "gamma", np.linspace(*grid)
        specs = [AsymSpec(g, factorized=factorized) for g in grid_points.tolist()]
    else:
        header = ("n", "m", "n_chaotic", "fidelity")
        echo = {"kind": "sym_sweep", "n": n, "m_range": list(grid)}
        label, grid_points = "m", range(grid[0], grid[1] + 1)
        specs = [SymSpec(n, m) for m in grid_points]
    echo["xi"] = [xi.real, xi.imag]
    parts: list[list] = []  # each chunk's columns
    problems: list[str] = []
    batch_size = SWEEP_STACK_LIMIT if n is None else 1
    for start in range(0, len(specs), batch_size):
        chunk = specs[start:start + batch_size]
        try:
            stack = build_cloners(chunk)
            read = _read(stack, xi)
        except ValueError:
            # a stack runs each gate over all its points in turn, so a later
            # point's refusal can come first
            for i, spec in enumerate(chunk, start):
                try:
                    _read(build_cloners([spec]), xi)
                except ValueError as exc:
                    raise ValueError(f"{label}={grid_points[i]}: {exc}") from None
            raise
        names = [m.name for m in stack.clone_modes]
        violations = _physics_violations(stack.symplectic_dev, read, names, tolerance)
        problems.extend(f"{label}={grid_points[start + i]}: {p}" for i, p in violations)
        parts.append(_sweep_columns(stack, read, grid_points[start:start + batch_size]))
    table = _Table(header, tuple(
        np.concatenate(column) if isinstance(column[0], np.ndarray) else [*chain(*column)]
        for column in zip(*parts)))
    if output_format == "json":
        _emit(_json({"schema_version": SCHEMA_VERSION, "spec": echo, "rows": table}),
              output_path)
    else:
        _emit(_csv(table), output_path)
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
    from .verification import oracle_agreement, standard_suites

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
    errors: tuple[type[Exception], ...] = (ValueError,)

    if args.command == "verify":
        from .fock import FockSpace, TruncationError

        errors = (ValueError, TruncationError)
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
    except errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # verify declares no --output
        if getattr(args, "output", None) is None:
            raise
        parser.error(f"--output: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
