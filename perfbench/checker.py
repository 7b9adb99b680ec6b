"""Independent checker for the output of every benchmark op.

It imports nothing from ``cvcloner`` and recomputes every figure from the
closed forms of the source paper:

* asymmetric 1->2 machine: F = 2 / (e^{+-2 gamma} + 2), n_ch = e^{+-2 gamma} / 2,
  the noise product n_1 n_2 = 1/4, and the BS/NOPA/BS angles
  u = -atan(sqrt(2) sinh gamma), w = atan(e^{2 gamma}),
  v = artanh(sqrt(1 + e^{4 gamma}) / (1 + e^{2 gamma}));
* symmetric N->M machine: F = MN / (MN + M - N), n_ch = (M - N) / (MN),
  and pi * Q(xi) = F for every clone;
* ``verify``: every suite line reads PASS with a finite max_dev within its
  tolerance, the oracle ran exactly the cutoff ladder the CLI documents, and
  the summary reads ``k/k suites passed``.

JSON is parsed strictly: NaN, Infinity and numbers that overflow to
infinity are failures, as are a non-zero exit code and any missing or extra
field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from workloads import Op

GATE = 1e-9  # allowed |reported - closed form| / max(1, |closed form|)

STANDARD_SUITES = (
    "symplectic_invariants",
    "factorization_equivalence",
    "fidelity_closed_forms",
    "chaotic_photon_forms",
    "noise_product_saturation",
    "q_function_identity",
    "fidelity_invariance",
    "phase_covariance",
    "uncertainty_preservation",
    "unit_signal_gain",
)
ORACLE_SUITE = "oracle_agreement"

_SWEEP_FIELDS = {"gamma", "u", "v", "w", "n_chaotic_1", "n_chaotic_2",
                 "fidelity_1", "fidelity_2", "noise_product"}
_CLONE_FIELDS = {"mode", "name", "n_chaotic", "n_chaotic_formula", "fidelity",
                 "fidelity_formula", "q_peak", "defect"}
_SUITE_LINE = re.compile(
    r"^(\w+)\s+max_dev=(\S+)\s+tol=(\S+)\s+(PASS|FAIL)(?:\s+\[(.*)\])?$")


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one op."""

    ok: bool
    reason: str     # why the op failed; empty when ok
    max_dev: float  # worst deviation from a closed form seen in the op
    where: str      # the figure and input behind max_dev


class CheckFailure(Exception):
    """The op's output is wrong; the message says how."""


class _Worst:
    """Tracks the worst scaled deviation of one op and enforces the gate."""

    def __init__(self) -> None:
        self.dev = 0.0
        self.where = ""

    def note(self, dev: float, where: str) -> None:
        if not dev <= self.dev:  # NaN lands here too, and is kept
            self.dev, self.where = dev, where

    def close(self, got: object, want: float, where: str) -> None:
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            raise CheckFailure(f"{where}: expected a number, got {got!r}")
        dev = abs(got - want) / max(1.0, abs(want))
        self.note(dev, where)
        if not dev <= GATE:
            raise CheckFailure(f"{where}: {got!r} is off its closed form {want!r}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _reject_constant(name: str) -> None:
    raise CheckFailure(f"non-finite JSON constant {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckFailure(f"JSON number {text} is not finite")
    return value


def strict_json(text: str) -> object:
    """Parse JSON, refusing NaN, Infinity and overflowing numbers."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


def _field(doc: object, key: str) -> object:
    _expect(isinstance(doc, dict) and key in doc, f"missing field {key!r}")
    return doc[key]  # type: ignore[index]


def _check_asym_sweep(op: Op, stdout: str, worst: _Worst) -> None:
    p = op.params
    a, b, steps = p["a"], p["b"], p["steps"]
    doc = strict_json(stdout)
    _expect(_field(doc, "schema_version") == 1, "schema_version is not 1")
    echo = {"kind": "asym_sweep", "gamma_range": [a, b, steps], "xi": list(p["xi"])}
    _expect(_field(doc, "spec") == echo, f"spec echo {doc['spec']!r} != {echo!r}")
    rows = _field(doc, "rows")
    _expect(isinstance(rows, list) and len(rows) == steps,
            f"expected {steps} rows, got {len(rows) if isinstance(rows, list) else rows!r}")
    for i, row in enumerate(rows):
        _expect(isinstance(row, dict) and set(row) == _SWEEP_FIELDS,
                f"row {i} has fields {sorted(row) if isinstance(row, dict) else row!r}")
        g = a + (b - a) * i / (steps - 1) if steps > 1 else a
        at = f"gamma={g:.6g}"
        worst.close(row["gamma"], g, f"gamma grid[{i}]")
        e = math.exp(2.0 * g)
        worst.close(row["fidelity_1"], 2.0 / (e + 2.0), f"fidelity_1 at {at}")
        worst.close(row["fidelity_2"], 2.0 / (1.0 / e + 2.0), f"fidelity_2 at {at}")
        worst.close(row["n_chaotic_1"], e / 2.0, f"n_chaotic_1 at {at}")
        worst.close(row["n_chaotic_2"], 1.0 / (2.0 * e), f"n_chaotic_2 at {at}")
        worst.close(row["noise_product"], 0.25, f"noise_product at {at}")
        worst.close(row["u"], -math.atan(math.sqrt(2.0) * math.sinh(g)), f"u at {at}")
        worst.close(row["v"], math.atanh(math.sqrt(1.0 + e * e) / (1.0 + e)), f"v at {at}")
        worst.close(row["w"], math.atan(e), f"w at {at}")


def _check_sym_clone(op: Op, stdout: str, worst: _Worst) -> None:
    n, m, xi = op.params["n"], op.params["m"], op.params["xi"]
    doc = strict_json(stdout)
    _expect(_field(doc, "schema_version") == 1, "schema_version is not 1")
    echo = {"kind": "sym", "n": n, "m": m, "xi": list(xi)}
    _expect(_field(doc, "spec") == echo, f"spec echo {doc['spec']!r} != {echo!r}")
    fidelity = m * n / (m * n + m - n)
    n_chaotic = (m - n) / (m * n)
    clones = _field(doc, "clones")
    _expect(isinstance(clones, list) and len(clones) == m,
            f"expected {m} clones, got {len(clones) if isinstance(clones, list) else clones!r}")
    # clones sit on the collected mode 0 and the M-1 distribution ancillas
    wires = [0] + list(range(n + 1, n + m))
    for j, (clone, wire) in enumerate(zip(clones, wires)):
        _expect(isinstance(clone, dict) and set(clone) == _CLONE_FIELDS,
                f"clone {j} has fields {sorted(clone) if isinstance(clone, dict) else clone!r}")
        _expect(clone["mode"] == wire and clone["name"] == f"clone_{j + 1}",
                f"clone {j} is {clone['name']!r} on mode {clone['mode']!r}")
        at = f"clone_{j + 1}"
        worst.close(clone["fidelity"], fidelity, f"fidelity of {at}")
        worst.close(clone["fidelity_formula"], fidelity, f"fidelity_formula of {at}")
        worst.close(clone["n_chaotic"], n_chaotic, f"n_chaotic of {at}")
        worst.close(clone["n_chaotic_formula"], n_chaotic, f"n_chaotic_formula of {at}")
        q_peak = clone["q_peak"]
        _expect(isinstance(q_peak, float), f"q_peak of {at} is {q_peak!r}")
        worst.close(math.pi * q_peak, fidelity, f"pi*Q(xi) of {at}")
        worst.close(clone["defect"], 0.0, f"phase covariance defect of {at}")
    diagnostics = _field(doc, "diagnostics")
    worst.close(_field(diagnostics, "symplectic_dev"), 0.0, "symplectic_dev")
    _expect(_field(diagnostics, "factorization_dev") is None,
            "factorization_dev is set for a symmetric machine")


def oracle_ladder(top: int) -> list[int]:
    """Cutoffs `verify --oracle --cutoff top` runs: down in 2s, not below 10, at most 3."""
    rungs = list(range(top, 9, -2))[:3]
    return sorted(rungs) or [top]


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailure(f"{where}: {text!r} is not a number") from None
    _expect(math.isfinite(value), f"{where}: {text} is not finite")
    return value


def _check_verify(op: Op, stdout: str, worst: _Worst) -> None:
    lines = stdout.splitlines()
    _expect(len(lines) >= 2, f"verify printed {len(lines)} lines")
    suites = STANDARD_SUITES + (ORACLE_SUITE,)
    body, summary = lines[:-1], lines[-1]
    _expect(len(body) == len(suites), f"expected {len(suites)} suite lines, got {len(body)}")
    for line, name in zip(body, suites, strict=True):
        match = _SUITE_LINE.match(line)
        _expect(match is not None, f"unreadable suite line {line!r}")
        got, dev_text, tol_text, status, extras = match.groups()
        _expect(got == name, f"expected suite {name}, got {got}")
        dev = _finite(dev_text, f"{name} max_dev")
        tol = _finite(tol_text, f"{name} tol")
        worst.note(dev, f"suite {name}")
        _expect(status == "PASS" and dev <= tol, f"suite {name} reads {status} at {dev_text}")
        if name == ORACLE_SUITE:
            _check_oracle_details(op.params["cutoff"], extras or "", tol, worst)
    k = len(suites)
    _expect(summary == f"{k}/{k} suites passed", f"summary reads {summary!r}")


def _check_oracle_details(top: int, extras: str, tol: float, worst: _Worst) -> None:
    details = {}
    for item in extras.split(", "):
        key, _, value = item.partition("=")
        details[key] = _finite(value, f"oracle detail {key}")
    ladder = oracle_ladder(top)
    expected = {f"cutoff_{c}" for c in ladder} | {"monotone_break"}
    _expect(set(details) == expected, f"oracle details {sorted(details)} != {sorted(expected)}")
    for c in ladder:
        worst.note(details[f"cutoff_{c}"], f"oracle fidelity at cutoff {c}")
    _expect(details["monotone_break"] <= 0.0, "oracle deviation grows with the cutoff")
    _expect(details[f"cutoff_{ladder[-1]}"] <= tol, "oracle misses its tolerance")


_CHECKS = {"asym_sweep": _check_asym_sweep, "sym_clone": _check_sym_clone,
           "verify_oracle": _check_verify}


def check_op(op: Op, exit_code: int | None, stdout: str) -> Verdict:
    """Judge one op from its exit code and standard output."""
    worst = _Worst()
    try:
        _expect(exit_code == 0, f"exit code {exit_code}")
        _CHECKS[op.workload](op, stdout, worst)
    except CheckFailure as exc:
        return Verdict(False, str(exc), worst.dev, worst.where)
    return Verdict(True, "", worst.dev, worst.where)
