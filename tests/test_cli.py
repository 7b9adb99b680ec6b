"""Command-line interface: flags, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import sys
import tempfile
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cvcloner import analysis, circuits, cli, gaussian, verification
from cvcloner.analysis import clone_report, clone_reports
from cvcloner.circuits import AsymSpec, SymSpec, build_cloner
from cvcloner.cli import main
from cvcloner.elements import collect_gates, distribute_gates
from cvcloner.gaussian import NOPA, BogoliubovTransform, Passive, fold_gates
from reference import beam_splitter_gate, build_per_point, compose, faulty, physics_violations


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clone_asym_symmetric_point(capsys):
    code, out, _ = run(capsys, ["clone", "--asym", "--gamma", "0", "--xi", "1,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["spec"]["kind"] == "asym"
    assert len(doc["clones"]) == 2
    for clone in doc["clones"]:
        assert f"{clone['fidelity']:.10f}" == "0.6666666667"
        assert clone["defect"] <= 1e-12
    assert doc["diagnostics"]["symplectic_dev"] <= 1e-12
    assert doc["diagnostics"]["factorization_dev"] <= 1e-9


def test_clone_sym_two_to_three(capsys):
    code, out, _ = run(capsys, ["clone", "--sym", "--n", "2", "--m", "3",
                                "--xi", "0,0"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["clones"]) == 3
    for clone in doc["clones"]:
        assert abs(clone["fidelity"] - 6 / 7) < 1e-10
    assert doc["diagnostics"]["factorization_dev"] is None


def test_clone_reads_a_negative_real_part_in_the_one_token_form(capsys):
    # "--xi -1,0.5" would be read as a flag; "--xi=-1,0.5" is one token
    code, out, _ = run(capsys, ["clone", "--asym", "--gamma", "0", "--xi=-1,0.5"])
    assert code == 0
    assert json.loads(out)["spec"]["xi"] == [-1.0, 0.5]


def test_clone_trivial_machine(capsys):
    code, out, _ = run(capsys, ["clone", "--sym", "--n", "1", "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["clones"][0]["fidelity"] == 1.0


def test_clone_csv_has_ten_significant_digits(capsys):
    code, out, _ = run(capsys, ["clone", "--asym", "--gamma", "0.3",
                                "--format", "csv"])
    assert code == 0
    header, first, _second = out.strip().split("\n")
    assert header.split(",")[:2] == ["mode", "name"]
    fidelity_cell = first.split(",")[4]
    assert len(fidelity_cell.replace(".", "").lstrip("0")) == 10


def test_clone_json_is_deterministic(capsys):
    argv = ["clone", "--asym", "--gamma", "0.37", "--xi", "0.5,-0.25"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def _indent_2(document):
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _rows(table):
    """A table's rows, as the list of dicts it stands for in a report."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.columns]
    return [dict(zip(table.header, row, strict=True)) for row in zip(*columns, strict=True)]


def _plain(document):
    """A report document with each of its tables as its list of rows."""
    return {key: _rows(value) if isinstance(value, cli._Table) else value
            for key, value in document.items()}


@pytest.mark.parametrize("argv", [
    ["clone", "--asym", "--gamma", "0.3"],
    ["clone", "--sym", "--n", "1", "--m", "1"],
    ["clone", "--sym", "--n", "16", "--m", "128"],
    ["sweep", "--asym", "--gamma-range", "-1", "1", "41"],
    ["sweep", "--sym", "--n", "2", "--m-range", "2", "9"],
], ids=["clone-asym", "clone-sym-1-1", "clone-sym-16-128", "sweep-asym", "sweep-sym"])
def test_json_writes_the_indent_2_bytes_of_a_report(monkeypatch, capsys, argv):
    documents, real = [], cli._json

    def recording(document):
        documents.append(document)
        return real(document)

    monkeypatch.setattr(cli, "_json", recording)
    code, out, _ = run(capsys, argv)
    assert code == 0
    (document,) = documents
    assert out == _indent_2(_plain(document))
    # the table is written from its columns, not by the general encoder
    assert isinstance(document["clones" if argv[0] == "clone" else "rows"], cli._Table)


# a quote, a backslash, a newline, a row boundary as _json writes it, non-ASCII
_AWKWARD = 'q" b\\ nl\n },\n      { \u00e9 \u2603 \U0001f600'
_ODD_ROW = {"s": _AWKWARD, _AWKWARD: 1, "none": None, "yes": True, "no": False,
            "int": -7, "tiny": 5e-324, "big": 1e16, "zero": -0.0}


@pytest.mark.parametrize("document", [
    {"rows": [_ODD_ROW]},
    {"rows": [_ODD_ROW, {"a": 0.1}, _ODD_ROW], _AWKWARD: _AWKWARD, "n": None},
    {"empty": [], "empty_rows": [{}], "mixed": [{"a": 1}, 2], "scalars": [5e-324, 1e16, -0.0]},
    {"nested": [{"a": [1, {"b": _AWKWARD}]}, {"a": []}], "deep": [{"a": {"b": None}}],
     "spec": {"z": [True, False], "a": -0.0}},
    # past two encoder calls' rows: the calls' texts meet at row boundaries
    {"rows": [_ODD_ROW if i % cli.JSON_ROWS in (0, cli.JSON_ROWS - 1) else {"i": i}
              for i in range(2 * cli.JSON_ROWS + 1)], "z": [{"i": -1}]},
], ids=["one-row", "rows-and-scalars", "lists-off-the-row-path", "nested-rows",
        "rows-past-two-calls"])
def test_json_writes_the_indent_2_bytes_of_odd_documents(document):
    assert "".join(cli._json(document)) == _indent_2(document)


def test_a_table_is_written_as_json_dumps_writes_its_rows(capsys):
    # floats that repeat, both zeros in one column, the smallest subnormal
    # and a float past 2**53; ints; strings and a key json must escape; and
    # more rows than three chunks
    n = 2 * cli.JSON_ROWS + 3
    table = cli._Table(("x", "zeros", 'key "100%" \\ \u00e9', "name", "i", "j"), (
        np.resize([-0.0, 0.1, 0.0, 5e-324, 1e16, -2.5, 0.1, 1e16], n),
        np.resize([0.0, -0.0, -0.0], n),
        np.resize([3.0, 7.0], n),
        [f"{_AWKWARD} {i % 3}" for i in range(n)],
        list(range(-3, n - 3)),
        np.arange(n) % 5))
    document = {"rows": table, "spec": {"a": -0.0, "s": _AWKWARD}, "schema_version": 1}
    assert "".join(cli._json(document)) == _indent_2(_plain(document))
    # CSV: floats at 10 significant digits, everything else as str()
    rows = _rows(table)
    assert "".join(cli._csv(table)) == "".join(
        [",".join(table.header) + "\n"]
        + [",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row.values()) + "\n"
           for row in rows])
    # a non-finite figure, even in the last chunk, is refused before any piece is written
    for bad in (math.nan, math.inf, -math.inf):
        column = np.ones(n)
        column[-1] = bad
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit(cli._json({"rows": cli._Table(("x",), (column,))}), None)
        assert capsys.readouterr().out == ""


def test_clone_factorized_flag(capsys):
    code, out, _ = run(capsys, ["clone", "--asym", "--gamma", "0.8",
                                "--factorized"])
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["factorized"] is True
    assert abs(doc["clones"][0]["fidelity"] - doc["clones"][0]["fidelity_formula"]) < 1e-10


def test_sweep_sym_fidelity_column(capsys):
    code, out, _ = run(capsys, ["sweep", "--sym", "--n", "1",
                                "--m-range", "2", "6", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,n_chaotic,fidelity"
    fidelities = [float(line.split(",")[3]) for line in lines[1:]]
    expected = [m / (2 * m - 1) for m in range(2, 7)]
    assert all(abs(a - b) < 1e-9 for a, b in zip(fidelities, expected))


def test_sweep_asym_noise_product_column(capsys):
    code, out, _ = run(capsys, ["sweep", "--asym",
                                "--gamma-range", "-1", "1", "41",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 42
    products = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(abs(p - 0.25) < 1e-12 for p in products)


def test_sweep_single_step_yields_single_row(capsys):
    code, out, _ = run(capsys, ["sweep", "--asym",
                                "--gamma-range", "0.5", "0.5", "1",
                                "--format", "csv"])
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_sweep_json_rows(capsys):
    code, out, _ = run(capsys, ["sweep", "--sym", "--n", "2",
                                "--m-range", "2", "4"])
    assert code == 0
    doc = json.loads(out)
    assert [row["m"] for row in doc["rows"]] == [2, 3, 4]


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["clone", "--asym", "--gamma", "0",
                                "--output", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["spec"]["gamma"] == 0.0


def test_verify_passes_by_default(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert "10/10 suites passed" in out


def test_verify_with_unattainable_tolerance_fails(capsys):
    code, out, _ = run(capsys, ["verify", "--tolerance", "1e-30"])
    assert code == 1
    assert "FAIL" in out


def test_verify_oracle_small_cutoff(capsys):
    code, out, _ = run(capsys, ["verify", "--oracle", "--cutoff", "10"])
    assert code == 0
    assert "oracle_agreement" in out


# the oracle_agreement line of `verify --oracle --cutoff c`, byte for byte: a
# change of propagator may change how the fidelities round, never what prints
ORACLE_LINES = {
    5: ("max_dev=inf  tol=5.0e-03  FAIL  [cutoff_5=inf, monotone_break=0.000e+00]", 1),
    10: ("max_dev=4.004e-03  tol=5.0e-03  PASS  [cutoff_10=4.004e-03, "
         "monotone_break=0.000e+00]", 0),
    13: ("max_dev=8.686e-04  tol=5.0e-03  PASS  [cutoff_11=2.420e-03, cutoff_13=8.686e-04, "
         "monotone_break=0.000e+00]", 0),
    16: ("max_dev=1.817e-04  tol=5.0e-03  PASS  [cutoff_12=1.454e-03, cutoff_14=5.171e-04, "
         "cutoff_16=1.817e-04, monotone_break=0.000e+00]", 0),
}


@pytest.mark.parametrize("cutoff", sorted(ORACLE_LINES))
def test_verify_oracle_prints_the_same_agreement_line(capsys, cutoff):
    code, out, _ = run(capsys, ["verify", "--oracle", "--cutoff", str(cutoff)])
    line, want_code = ORACLE_LINES[cutoff]
    assert code == want_code
    assert f"oracle_agreement           {line}" in out.splitlines()


# the ten fast-suite lines and the summary of plain `verify`, byte for byte: a
# change in how the suites build or read their machines never changes them
VERIFY_LINES = (
    "symplectic_invariants      max_dev=1.110e-15  tol=1.0e-10  PASS",
    "factorization_equivalence  max_dev=4.441e-16  tol=1.0e-09  PASS  "
    "[u_at_gamma_zero=0.000e+00]",
    "fidelity_closed_forms      max_dev=2.220e-16  tol=1.0e-10  PASS",
    "chaotic_photon_forms       max_dev=1.332e-15  tol=1.0e-10  PASS",
    "noise_product_saturation   max_dev=1.665e-16  tol=1.0e-12  PASS",
    "q_function_identity        max_dev=1.110e-16  tol=1.0e-10  PASS",
    "fidelity_invariance        max_dev=0.000e+00  tol=1.0e-10  PASS",
    "phase_covariance           max_dev=0.000e+00  tol=1.0e-10  PASS",
    "uncertainty_preservation   max_dev=2.000e-15  tol=1.0e-10  PASS",
    "unit_signal_gain           max_dev=4.578e-16  tol=1.0e-12  PASS",
    "10/10 suites passed",
)


def test_verify_prints_the_same_suite_lines(capsys):
    assert run(capsys, ["verify"]) == (0, "".join(f"{line}\n" for line in VERIFY_LINES), "")


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["clone", "--asym"],                      # missing --gamma
        ["clone", "--sym", "--n", "2"],           # missing --m
        ["clone", "--asym", "--gamma", "0", "--n", "2"],
        ["clone", "--sym", "--n", "3", "--m", "2"],
        ["clone", "--asym", "--gamma", "0", "--xi", "nonsense"],
        ["sweep", "--asym"],                      # missing range
        ["sweep", "--asym", "--gamma-range", "1", "-1", "5"],
        ["sweep", "--sym", "--n", "2", "--m-range", "5", "3"],
        ["bogus"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_gamma_out_of_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["clone", "--asym", "--gamma", "25"])
    assert err.value.code == 2
    capsys.readouterr()


def test_tolerance_env_var(monkeypatch, capsys):
    monkeypatch.setenv("CVCLONER_TOLERANCE", "1e-30")
    code, _, err = run(capsys, ["clone", "--asym", "--gamma", "0.1"])
    assert code == 1
    assert "invariant violation" in err


def test_tolerance_flag_beats_env_var(monkeypatch, capsys):
    monkeypatch.setenv("CVCLONER_TOLERANCE", "1e-30")
    code, _, _ = run(capsys, ["clone", "--asym", "--gamma", "0.1",
                              "--tolerance", "1e-10"])
    assert code == 0


def test_zero_tolerance_is_not_a_usage_error(monkeypatch, capsys):
    # the trivial 1->1 machine is exact, so it meets a zero bound
    argv = ["clone", "--sym", "--n", "1", "--m", "1"]
    assert run(capsys, argv + ["--tolerance", "0"])[0] == 0
    monkeypatch.setenv("CVCLONER_TOLERANCE", "0")
    assert run(capsys, argv)[0] == 0


@pytest.mark.parametrize("argv, env", [
    (["clone", "--asym", "--gamma", "0.1", "--xi", "nan,0"], None),
    (["sweep", "--sym", "--n", "1", "--m-range", "2", "3", "--xi", "inf,0"], None),
    (["clone", "--sym", "--n", "2", "--m", "3", "--tolerance", "nan"], None),
    (["clone", "--asym", "--gamma", "0.1"], "nan"),
    (["sweep", "--asym", "--gamma-range", "0", "30", "3"], None),   # |gamma| > 6
    (["sweep", "--asym", "--gamma-range", "nan", "1", "3"], None),
    (["sweep", "--sym", "--n", "0", "--m-range", "0", "3"], None),
    (["verify", "--oracle", "--cutoff", "0"], None),
    (["clone", "--sym", "--n", "1", "--m", "100000"], None),
    (["sweep", "--sym", "--n", "1", "--m-range", "2", "100000"], None),
    (["sweep", "--asym", "--gamma-range", "0", "1", "100000000000000"], None),
    (["clone", "--asym", "--gamma", "0", "--output", "{missing}/x.json"], None),
    (["clone", "--asym", "--gamma", "8"], None),
    (["sweep", "--asym", "--gamma-range", "0", "8", "3"], None),
    (["clone", "--sym", "--n", "3", "--m", "7", "--xi", "1e12,0"], None),
    (["clone", "--asym", "--gamma", "0.1", "--tolerance", "-1"], None),
    (["clone", "--asym", "--gamma", "0.1"], "-1"),
    (["sweep", "--sym", "--n", "2", "--m", "7", "--m-range", "2", "3"], None),
    (["sweep", "--asym", "--gamma", "0.3", "--gamma-range", "-1", "1", "3"], None),
    (["sweep", "--asym", "--gamma-range", "-1", "1", "3", "--m-range", "2", "3"], None),
    (["sweep", "--sym", "--n", "2", "--m-range", "2", "3", "--gamma-range", "0", "1", "3"], None),
    (["sweep", "--sym", "--n", "2", "--m-range", "2", "3", "--factorized"], None),
    (["clone", "--sym", "--n", "2", "--m", "3", "--factorized"], None),
    (["verify", "--cutoff", "3"], None),
    (["sweep", "--asym", "--gamma", "0.3", "0.5", "5"], None),
    (["sweep", "--asym", "--gamma-range", "-1", "1", "3", "--form", "csv"], None),
], ids=["xi_nan", "xi_inf", "tolerance_nan", "env_tolerance_nan", "gamma_range_too_wide",
        "gamma_range_nan", "sym_sweep_n_zero", "oracle_cutoff_zero", "sym_too_many_modes",
        "sym_sweep_stop_too_many_modes", "gamma_range_too_many_steps", "output_dir_missing",
        "gamma_not_certified", "gamma_range_not_certified", "xi_too_large",
        "tolerance_negative", "env_tolerance_negative", "sym_sweep_m", "asym_sweep_gamma",
        "asym_sweep_m_range", "sym_sweep_gamma_range", "sym_sweep_factorized",
        "sym_clone_factorized", "cutoff_without_oracle", "sweep_gamma_prefix",
        "abbreviated_flag"])
def test_bad_input_is_a_usage_error(monkeypatch, capsys, tmp_path, argv, env):
    if env is not None:
        monkeypatch.setenv("CVCLONER_TOLERANCE", env)
    argv = [arg.replace("{missing}", str(tmp_path / "missing")) for arg in argv]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_non_finite_figure_fails_instead_of_printing_nan(monkeypatch, capsys):
    real = analysis.read_clones
    # one non-finite field per run: q_peak is in the clone table, fidelity in
    # both sweep tables; clone reads its machine by one read_clones call, a
    # stack of one, and sweep reads all its points in one read_clones call
    for argv, field in ((["clone", "--asym", "--gamma", "0.1"], "q_peak"),
                        (["clone", "--sym", "--n", "2", "--m", "5"], "q_peak"),
                        (["sweep", "--asym", "--gamma-range", "-1", "1", "5"], "fidelity"),
                        (["sweep", "--sym", "--n", "2", "--m-range", "2", "5"], "fidelity")):
        def poisoned(machines, xis, field=field):
            read = real(machines, xis)
            return replace(read, **{field: np.full_like(getattr(read, field), math.nan)})

        monkeypatch.setattr(cli, "read_clones", poisoned)
        code, out, err = run(capsys, argv)
        assert code == 1, argv
        assert "NaN" not in out, argv
        assert "error" in err, argv


@pytest.mark.parametrize("argv", [
    ["clone", "--sym", "--n", "16", "--m", "128"],
    ["sweep", "--asym", "--gamma-range", "-1", "1", "41"],
], ids=["clone-sym", "sweep-asym"])
def test_a_passing_clone_or_sweep_builds_no_clone_report(monkeypatch, capsys, argv):
    # clone and sweep print from the read's arrays, with no object per clone
    def refuse(*args, **kwargs):
        raise AssertionError("CloneReport built")

    monkeypatch.setattr(analysis, "CloneReport", refuse)
    code, out, _ = run(capsys, argv)
    assert code == 0 and out


@pytest.mark.parametrize("argv, spec", [
    (["clone", "--sym", "--n", "3", "--m", "5"], SymSpec(3, 5)),
    (["clone", "--asym", "--gamma", "0.3"], AsymSpec(0.3)),
], ids=["sym-3-5", "asym-0.3"])
def test_a_failing_clone_prints_the_lines_of_the_per_clone_gate(capsys, argv, spec):
    # at a zero tolerance some checks fail; the array gate prints the lines a
    # gate over each clone's report prints, in its order and text
    machine = build_cloner(spec)
    expected = physics_violations(machine, clone_report(machine), 0.0)
    assert expected
    code, _, err = run(capsys, argv + ["--tolerance", "0"])
    assert (code, err) == (1, "".join(f"invariant violation: {p}\n" for p in expected))


@pytest.mark.parametrize("field", ["fidelity", "q_peak", "symplectic_dev",
                                   "phase_covariance_defect"])
def test_nan_figures_are_violations(field):
    machine = build_cloner(AsymSpec(0.2))
    read = analysis.read_clones([machine], (1.0,))
    names = [mode.name for mode in machine.clone_modes]
    assert cli._physics_violations([machine.symplectic_dev], read, names, 1e-10) == []
    if field == "symplectic_dev":  # the machine's figure, not a clone's
        assert cli._physics_violations([math.nan], read, names, 1e-10)
    else:
        figure = getattr(read, field).copy()
        figure[..., 0] = math.nan  # the first clone's
        poisoned = replace(read, **{field: figure})
        assert cli._physics_violations([machine.symplectic_dev], poisoned, names, 1e-10)


def test_verify_reports_a_truncated_oracle_as_failed(capsys):
    code, out, _ = run(capsys, ["verify", "--oracle", "--cutoff", "5"])
    assert code == 1
    (line,) = [ln for ln in out.splitlines() if ln.startswith("oracle_agreement")]
    assert "FAIL" in line and "max_dev=inf" in line
    assert "10/11 suites passed" in out


def _count_calls(monkeypatch, fn, calls, key, covered=lambda *args: 1):
    """Route every cvcloner module's binding of fn through a counter that
    adds what each call covers: 1 by default, else covered(*args).  An
    iterator argument is read once, into a list that both calls are given."""
    def counting(*args, **kwargs):
        args = [list(arg) if isinstance(arg, Iterator) else arg for arg in args]
        calls[key] += covered(*args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cvcloner" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)


def _count_machines(monkeypatch, calls):
    """calls["build"] lists the specs every build_cloners call covers, and
    calls["check"] counts the transforms every run of the one check body
    covers, whether a machine is built alone or in a stack."""
    _count_calls(monkeypatch, circuits.build_cloners, calls, "build", lambda specs: list(specs))
    _count_calls(monkeypatch, gaussian._deviations, calls, "check", lambda A, B: len(A))


def test_each_machine_is_built_and_checked_once(monkeypatch, capsys):
    calls = {"build": [], "check": 0}
    _count_machines(monkeypatch, calls)
    for argv, specs in (
        (["clone", "--sym", "--n", "2", "--m", "5"], [SymSpec(2, 5)]),
        (["clone", "--asym", "--gamma", "0.3", "--factorized"], [AsymSpec(0.3, factorized=True)]),
        (["sweep", "--sym", "--n", "1", "--m-range", "2", "4"], [SymSpec(1, m) for m in (2, 3, 4)]),
        (["sweep", "--asym", "--gamma-range", "-1", "1", "5"],
         [AsymSpec(g) for g in (-1.0, -0.5, 0.0, 0.5, 1.0)]),
    ):
        calls.update(build=[], check=0)
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert calls == {"build": specs, "check": len(specs)}, argv


def test_a_counted_build_given_a_generator_still_builds_every_spec(monkeypatch):
    calls = {"build": [], "check": 0}
    _count_machines(monkeypatch, calls)
    specs = [AsymSpec(g) for g in (-0.5, 0.3, 1.0)]
    machines = circuits.build_cloners(spec for spec in specs)
    assert [machine.spec for machine in machines] == specs
    assert calls == {"build": specs, "check": 3}


def test_a_warm_verify_checks_only_the_full_state_routes(monkeypatch, capsys):
    # the suites read each cached machine's symplectic_dev, and
    # uncertainty_preservation reads the built machines' transforms: nothing
    # checks again
    assert cli.cmd_verify(None, None) == 0  # fills the machine caches
    calls = {"build": [], "check": 0}
    _count_machines(monkeypatch, calls)
    assert cli.cmd_verify(None, None) == 0
    capsys.readouterr()
    assert calls == {"build": [], "check": 0}


@pytest.mark.parametrize("argv", [
    ["clone", "--sym", "--n", "16", "--m", "128"],
    ["clone", "--asym", "--gamma", "0.3"],
    ["clone", "--asym", "--gamma", "-0.4", "--factorized"],
    ["sweep", "--asym", "--gamma-range", "-1", "1", "5"],
    ["sweep", "--sym", "--n", "2", "--m-range", "2", "6"],
], ids=["clone-sym", "clone-asym", "clone-asym-factorized", "sweep-asym", "sweep-sym"])
def test_clone_and_sweep_never_form_the_quadrature_matrix(monkeypatch, capsys, argv):
    # the package forms no quadrature matrix S: its one 2n x 2n array is the
    # output covariance that uncertainty_defect writes from X and P
    def refuse(t):
        raise AssertionError("uncertainty_defect called")

    for module in (gaussian, verification):
        monkeypatch.setattr(module, "uncertainty_defect", refuse)
    code, out, _ = run(capsys, argv)
    assert code == 0 and out


def test_a_warm_verify_forms_the_quadrature_matrix_only_for_the_full_state(monkeypatch, capsys):
    # the output covariance, the package's one 2n x 2n array, is formed once
    # per shared machine, by uncertainty_preservation alone
    assert cli.cmd_verify(None, None) == 0  # fills the machine caches
    callers = []
    uncertainty_defect = gaussian.uncertainty_defect

    def recording(t):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
            caller = caller.f_back
        callers.append(caller.f_code.co_name)
        return uncertainty_defect(t)

    monkeypatch.setattr(verification, "uncertainty_defect", recording)
    assert cli.cmd_verify(None, None) == 0
    capsys.readouterr()
    assert callers == ["uncertainty_preservation"] * 16


def test_a_cold_verify_checks_each_machine_once_and_reads_them_in_8_passes(monkeypatch, capsys):
    # 90 distinct specs: the direct and factorized machine at each of the 41
    # grid points, and the 8 shared machines that are not on the grid
    verification._shared.cache_clear()
    calls = {"build": [], "check": 0, "read": Counter()}
    _count_machines(monkeypatch, calls)
    # every read of clone rows, a clone_reports call included, is one
    # read_clones pass over some machines at some amplitudes
    _count_calls(monkeypatch, analysis.read_clones, calls, "read",
                 lambda machines, xis: Counter(passes=1, machines=len(machines),
                                               reads=len(machines) * len(xis)))
    assert cli.cmd_verify(None, None) == 0
    capsys.readouterr()
    assert len(calls["build"]) == len(set(calls["build"])) == 90
    assert calls["check"] == 90
    # one pass over the stack of the 10 shared asymmetric machines and one over
    # each of the 6 symmetric ones, each at the 5 XI_PROBES, the Q probe and
    # the gain probe; then one stack of the 41 direct grid machines at xi = 1,
    # which holds the 4 shared direct machines on the grid a second time
    assert calls["read"] == Counter(passes=1 + 6 + 1, machines=16 + 41, reads=7 * 16 + 41)


@pytest.mark.parametrize("factorized", [False, True])
def test_clone_asym_builds_each_form_once(monkeypatch, capsys, factorized):
    # once by the build, and the other form once for factorization_dev
    calls = {"direct": 0, "factorized": 0}
    _count_calls(monkeypatch, circuits._asym_direct_rows, calls, "direct")
    _count_calls(monkeypatch, circuits._asym_gates, calls, "factorized")
    argv = ["clone", "--asym", "--gamma", "0.3"] + (["--factorized"] if factorized else [])
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["diagnostics"]["factorization_dev"] < 1e-12
    assert calls == {"direct": 1, "factorized": 1}


@pytest.mark.parametrize("factorized", [False, True])
def test_a_sweep_takes_each_points_angles_once(monkeypatch, capsys, factorized):
    # the factorized build folds the angles it took, and the table prints them
    calls = {"angles": 0}
    _count_calls(monkeypatch, circuits.asym_params, calls, "angles")
    argv = ["sweep", "--asym", "--gamma-range", "-1", "1", "41"]
    code, _, _ = run(capsys, argv + (["--factorized"] if factorized else []))
    assert code == 0
    assert calls == {"angles": 41}


ASYM_5 = ["sweep", "--asym", "--gamma-range", "-1", "1", "5", "--xi=0.3,-1.2"]
SYM_5 = ["sweep", "--sym", "--n", "1", "--m-range", "2", "6", "--xi=0.3,-1.2"]


def _broken(machine, fault):
    """gain: a pi beam splitter on clone 1's wire and wire 1 keeps the machine
    symplectic and negates clone 1, which the readout refuses; check: a
    scaled A, refused when the machine is built."""
    t = machine.transform
    if fault == "check":
        return replace(machine, transform=BogoliubovTransform(A=1.01 * t.A, B=t.B))
    pi = fold_gates((beam_splitter_gate(math.pi, 0, 1),), machine.n_modes)
    return replace(machine, transform=compose(pi, t))


@pytest.mark.parametrize("kinds", [("gain",), ("check",), ("gain", "gain"), ("check", "check"),
                                   ("gain", "check"), ("check", "gain")])
@pytest.mark.parametrize("argv, one, two", [(ASYM_5, [0.0], [-0.5, 0.5]), (SYM_5, [4], [3, 5])])
def test_a_refused_sweep_point_names_its_grid_point(monkeypatch, capsys, argv, one, two, kinds):
    # the first broken point is named, whether it fails at the readout or
    # at the build, and whatever the later one does
    faults = dict(zip(one if len(kinds) == 1 else two, kinds, strict=True))
    value = min(faults)
    spec = AsymSpec(float(value)) if argv is ASYM_5 else circuits.SymSpec(1, value)
    with pytest.raises(ValueError) as refusal:
        clone_report(_broken(build_cloner(spec), faults[value]), complex(0.3, -1.2))
    expected = "non-unit gain" if faults[value] == "gain" else "not symplectic"
    assert expected in str(refusal.value)

    # a check fault scales A in its register of the stack that build_cloners
    # checks, so that the stacked check refuses it; a gain fault replaces
    # the built machine
    def point(spec):
        return spec.gamma if isinstance(spec, AsymSpec) else spec.m

    real_rows, real_fold, real_build = circuits._asym_direct_rows, circuits.fold_stack, cli.build_cloners

    def direct_rows(gamma):  # the asym points, in the closed form
        rows = real_rows(gamma)
        for i, g in enumerate(gamma.reshape(-1).tolist()):
            if faults.get(g) == "check":
                rows.reshape(3, 2, 3, -1)[:, 0, :, i] *= 1.01
        return rows

    def fold(gates, n_modes, stack=()):  # a sym point m has 1 + m modes
        rows = real_fold(gates, n_modes, stack)
        if faults.get(n_modes - 1) == "check":
            rows[:, 0] *= 1.01
        return rows

    def build(specs):
        return [_broken(machine, "gain") if faults.get(point(machine.spec)) == "gain" else machine
                for machine in real_build(specs)]

    if argv is ASYM_5:
        monkeypatch.setattr(circuits, "_asym_direct_rows", direct_rows)
    else:
        monkeypatch.setattr(circuits, "fold_stack", fold)
    monkeypatch.setattr(cli, "build_cloners", build)
    monkeypatch.setattr(cli, "build_cloner", lambda spec: build([spec])[0])
    named = f"gamma={float(value)}" if argv is ASYM_5 else f"m={value}"
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {named}: {refusal.value}\n")
    # clone prints the same refusal and no grid point
    flags = [f"--gamma={float(value)}"] if argv is ASYM_5 else ["--n", "1", "--m", str(value)]
    code, out, err = run(capsys, ["clone", argv[1], *flags, argv[-1]])
    assert (code, out, err) == (1, "", f"error: {refusal.value}\n")


def test_a_sweep_names_the_first_point_its_stacked_check_refuses(monkeypatch, capsys):
    # past GAMMA_LIMIT rounding fails the check for real (first at
    # |gamma| = 6.59); the points before the refused one are read first
    monkeypatch.setattr(circuits, "GAMMA_LIMIT", 7.0)
    gammas = np.linspace(6.0, 7.0, 11)
    devs = [build_per_point(AsymSpec(float(g))).symplectic_dev for g in gammas]
    j = next(i for i, dev in enumerate(devs) if dev > gaussian.DEFAULT_TOL)
    assert 0 < j < len(gammas) - 1
    with pytest.raises(ValueError) as refusal:
        build_cloner(AsymSpec(float(gammas[j])))
    reads = []
    real_stack, real_one = cli.read_clones, cli.clone_report
    monkeypatch.setattr(cli, "read_clones", lambda machines, xis: reads.append(
        [m.spec.gamma for m in machines]) or real_stack(machines, xis))
    monkeypatch.setattr(cli, "clone_report", lambda machine, xi: reads.append(
        [machine.spec.gamma]) or real_one(machine, xi))
    code, out, err = run(capsys, ["sweep", "--asym", "--gamma-range", "6", "7", "11"])
    assert (code, out, err) == (1, "", f"error: gamma={gammas[j]}: {refusal.value}\n")
    # the refused stack is read by no one; each point before j is read once, alone
    assert reads == [[g] for g in gammas[:j].tolist()]


def _squeezed(machine):
    """A one-mode squeezer on clone 1's wire after the machine keeps it
    symplectic and makes clone 1 anisotropic, which the readout refuses."""
    n = machine.n_modes
    A, B = np.eye(n), np.zeros((n, n))
    A[0, 0], B[0, 0] = np.cosh(0.25), -np.sinh(0.25)
    return replace(machine, transform=compose(BogoliubovTransform(A=A, B=B), machine.transform))


def _fault_builds(monkeypatch, faults):
    """cli builds the asym point at gamma g with faults[g] applied, if any,
    whether it builds a stack or one point."""
    real = cli.build_cloners

    def build(specs):
        return [faults.get(m.spec.gamma, lambda m: m)(m) for m in real(specs)]

    monkeypatch.setattr(cli, "build_cloners", build)
    monkeypatch.setattr(cli, "build_cloner", lambda spec: build([spec])[0])


def test_a_sweep_names_a_gain_fault_before_a_later_anisotropic_clone(monkeypatch, capsys):
    # the stacked readout runs the isotropy gate over the whole stack before
    # the gain gate, so the stack alone would raise the later point's refusal
    xi = complex(0.3, -1.2)
    gammas = np.linspace(-1.0, 1.0, 5).tolist()
    faults = {-0.5: lambda m: _broken(m, "gain"), 0.5: _squeezed}
    stack = [faults.get(g, lambda m: m)(build_cloner(AsymSpec(g))) for g in gammas]
    with pytest.raises(ValueError, match="not isotropic"):
        clone_reports(stack, xi)
    with pytest.raises(ValueError, match="non-unit gain") as first:
        clone_report(stack[1], xi)
    _fault_builds(monkeypatch, faults)
    code, out, err = run(capsys, ASYM_5)
    assert (code, out, err) == (1, "", f"error: gamma=-0.5: {first.value}\n")


def test_a_refusal_in_a_later_chunk_names_its_point(monkeypatch, capsys):
    # 9 points in chunks of 4, 4 and 1: the first chunk is read, the second
    # is refused at its second point, before its third point's refusal
    monkeypatch.setattr(cli, "SWEEP_STACK_LIMIT", 4)
    xi = complex(0.3, -1.2)
    with pytest.raises(ValueError, match="non-unit gain") as first:
        clone_report(_broken(build_cloner(AsymSpec(0.25)), "gain"), xi)
    _fault_builds(monkeypatch, {0.25: lambda m: _broken(m, "gain"), 0.5: _squeezed})
    sizes = []
    real = cli.read_clones
    monkeypatch.setattr(cli, "read_clones", lambda machines, xis: sizes.append(
        len(machines)) or real(machines, xis))
    code, out, err = run(capsys, ["sweep", "--asym", "--gamma-range", "-1", "1", "9",
                                  "--xi=0.3,-1.2"])
    assert (code, out, err) == (1, "", f"error: gamma=0.25: {first.value}\n")
    assert sizes == [4, 4]


def test_a_stack_refusal_that_no_point_repeats_is_still_an_error(monkeypatch, capsys):
    # fails closed: when no point read alone is refused, the stack's own
    # refusal is the error, with no point named
    def refuse(machines, xis):
        raise ValueError("refused as a stack")

    monkeypatch.setattr(cli, "read_clones", refuse)
    assert run(capsys, ASYM_5) == (1, "", "error: refused as a stack\n")


# the suites that read the shared machines' clone figures
READOUT_SUITES = {"fidelity_closed_forms", "chaotic_photon_forms", "q_function_identity",
                  "fidelity_invariance", "phase_covariance", "unit_signal_gain"}


def _suite_lines(out):
    """verify's (max_dev, status) by suite name, and its summary line."""
    *lines, summary = out.splitlines()
    return {name: (dev.removeprefix("max_dev="), status)
            for name, dev, _, status, *_ in map(str.split, lines)}, summary


def test_verify_fails_every_suite_that_reads_a_refused_readout(monkeypatch, capsys):
    # negating row q of the last split makes the last clone of every
    # symmetric machine come out at gain -1: still symplectic, refused when
    # the suites read it, so every suite that reads it fails with inf and
    # verify still prints every suite line
    real = circuits.distribute_gates

    def negated(M, modes):
        *gates, last = real(M, modes)
        (a, b), (c, d) = last.block
        return (*gates, Passive(((a, b), (-c, -d)), last.p, last.q))

    verification._shared.cache_clear()
    monkeypatch.setattr(circuits, "distribute_gates", negated)
    try:
        code, out, err = run(capsys, ["verify"])
    finally:
        verification._shared.cache_clear()  # no broken machine outlives the test
    suites, summary = _suite_lines(out)
    assert (code, err) == (1, "")
    assert len(suites) == 10 and summary == "4/10 suites passed"
    for name, (dev, status) in suites.items():
        if name in READOUT_SUITES:
            assert (dev, status) == ("inf", "FAIL"), name
        else:
            assert status == "PASS", name


@pytest.mark.parametrize("fault", ["gain_last", "squeezed_first", "nan_last"])
def test_verify_fails_closed_on_one_refused_shared_machine(monkeypatch, capsys, fault):
    # one symmetric machine broken as the readout tests break one: its read
    # is refused, every suite that reads its clone figures fails with inf,
    # and verify prints all ten suite lines and exits 1, with no error
    grid, asym, sym = verification._shared()
    broken = sym[:2] + (faulty(sym[2], fault),) + sym[3:]
    monkeypatch.setattr(verification, "_shared", lambda: (grid, asym, broken))
    code, out, err = run(capsys, ["verify"])
    suites, summary = _suite_lines(out)
    assert (code, err) == (1, "")
    assert len(suites) == 10 and summary.endswith("/10 suites passed")
    inf = READOUT_SUITES | ({"uncertainty_preservation"}
                           if fault == "nan_last" else set())  # a NaN reaches the covariance too
    for name in inf:
        assert suites[name] == ("inf", "FAIL"), name
    for name in ("symplectic_invariants", "factorization_equivalence", "noise_product_saturation"):
        assert suites[name][1] == "PASS", name


def test_unit_signal_gain_fails_a_gain_fault_the_readout_gate_passes(monkeypatch, capsys):
    # the 1->2 machine with its NOPA's r scaled by 1 + 3e-11: still symplectic,
    # and its clones' gain error, about 2.3e-11 at GAIN_PROBE, passes the
    # readout's gate (GAIN_TOL * |xi|), so the read is not refused; only
    # unit_signal_gain, at 1e-12, fails it
    grid, asym, sym = verification._shared()
    machine = sym[0]
    assert machine.spec == SymSpec(1, 2)
    r = math.acosh(math.sqrt(2.0))
    wires = [0, 2]

    def transform(scale):
        gates = collect_gates(1) + (NOPA(scale * r, 0, 1),) + distribute_gates(2, wires)
        return fold_gates(gates, 3)

    assert np.array_equal(transform(1.0).A, machine.transform.A)
    assert np.array_equal(transform(1.0).B, machine.transform.B)
    scaled = replace(machine, transform=transform(1.0 + 3e-11))  # checked again: it passes
    read = analysis.read_clones([scaled], (*verification.XI_PROBES, verification.Q_PROBE,
                                           verification.GAIN_PROBE))
    assert read.refusal is None
    gain_dev = np.abs(read.amplitude[-1] - verification.GAIN_PROBE).max()
    assert 1e-12 < gain_dev < analysis.GAIN_TOL
    monkeypatch.setattr(verification, "_shared", lambda: (grid, asym, (scaled, *sym[1:])))
    code, out, err = run(capsys, ["verify"])
    suites, summary = _suite_lines(out)
    assert (code, err, summary) == (1, "", "9/10 suites passed")
    dev, status = suites.pop("unit_signal_gain")
    assert status == "FAIL" and math.isfinite(float(dev)) and float(dev) > 1e-12
    assert all(status == "PASS" for _, status in suites.values()), suites


def test_verify_passes_an_os_error_on_without_reading_output(monkeypatch):
    # verify declares no --output, so its OSError is not an --output usage error
    def fail(*args):
        raise OSError("no space left")

    monkeypatch.setattr(cli, "cmd_verify", fail)
    with pytest.raises(OSError, match="no space left"):
        main(["verify"])


@pytest.mark.parametrize("argv, stacks", [
    (["sweep", "--asym", "--gamma-range", "-1", "1", "41"], [16, 16, 9]),
    (["sweep", "--asym", "--gamma-range", "-1", "1", "7", "--factorized"], [7]),
    (["sweep", "--sym", "--n", "2", "--m-range", "2", "5"], [1, 1, 1, 1]),
])
def test_a_sweep_reads_its_points_as_bounded_stacks(monkeypatch, capsys, argv, stacks):
    # asym points share a layout and are read up to the stack limit at a
    # time; every sym point is a layout of its own
    monkeypatch.setattr(cli, "SWEEP_STACK_LIMIT", 16)
    real, sizes = cli.read_clones, []

    def sized(machines, xis):
        sizes.append(len(machines))
        return real(machines, xis)

    monkeypatch.setattr(cli, "read_clones", sized)
    code, out, _ = run(capsys, argv)
    assert code == 0 and sizes == stacks
    monkeypatch.setattr(cli, "SWEEP_STACK_LIMIT", 256)
    assert run(capsys, argv) == (0, out, "")


def _traced_peak(capsys, argv):
    """The most memory Python held at once over one successful CLI call, its captured output included."""
    tracemalloc.start()
    try:
        assert run(capsys, argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sym_sweep_holds_one_machine_at_a_time(capsys):
    # each sym point is read and dropped before the next is built: holding
    # all 41 machines for one read at the end peaks near the sum of their
    # transforms, about seven times what one 1->80 clone takes
    one = _traced_peak(capsys, ["clone", "--sym", "--n", "1", "--m", "80"])
    assert _traced_peak(capsys, ["sweep", "--sym", "--n", "1", "--m-range", "40", "80"]) < 1.5 * one


def test_a_json_sweep_holds_its_rows_once_and_its_text_once(capsys):
    # a 4000-point JSON sweep peaks at 1.4 times the CSV one, its text being
    # three times as long: both hold the table as columns and make its text
    # a chunk at a time; with every row held as a list and as a dict, and
    # the text copied whole by each rewrite, it peaked at 2.3 times
    argv = ["sweep", "--asym", "--gamma-range", "-6", "6", "4000"]
    assert _traced_peak(capsys, argv) < 2.0 * _traced_peak(capsys, argv + ["--format", "csv"])


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # a usage error, then a valid clone: the shared parser must answer both
    # exactly as two fresh parsers do, and be built once
    calls = {"build": 0}
    _count_calls(monkeypatch, cli.build_parser, calls, "build")
    argvs = (["clone", "--sym", "--n", "two", "--m", "3"],
             ["clone", "--sym", "--n", "2", "--m", "3", "--xi", "0.5,-1"])
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    calls["build"] = 0
    shared = [_outcome(capsys, argv) for argv in argvs]
    assert shared == fresh
    assert [code for code, _ in shared] == [2, 0]
    assert calls["build"] == 1


# Values either small (|v| <= 3, or not a number at all) or beyond every
# bound the CLI enforces, so no drawn argv starts a large computation.  The
# small numbers are listed three times so that most draws are well formed.
_NUMBERS = ["0", "1", "2", "3", "-1", "0.5"]
_VALUES = st.sampled_from(_NUMBERS * 3 + ["-3", "two", "", "nan", "inf", "-inf", "1e999",
                                           str(10**12)])
_MISSING_DIR = Path(tempfile.gettempdir()) / "cvcloner-no-such-dir"
_FLAG_VALUES = {
    "--factorized": st.just([]),
    "--oracle": st.just([]),
    "--xi": st.one_of(_VALUES, st.tuples(_VALUES, _VALUES).map(",".join)).map(lambda v: [v]),
    "--format": st.sampled_from([["json"], ["csv"], ["xml"]]),
    "--gamma-range": st.lists(_VALUES, min_size=3, max_size=3),
    "--m-range": st.lists(_VALUES, min_size=2, max_size=2),
    "--output": st.just([str(_MISSING_DIR / "report.json")]),
}
# each subcommand's flags, with the chance in ten that a draw includes one:
# high for what the subcommand and its family read, 1 for what they refuse
_COMMON = {"--xi": 3, "--tolerance": 3, "--format": 3, "--output": 3}
_CHANCES = {
    ("clone", "--asym"): {"--gamma": 9, "--factorized": 3, "--n": 1, "--m": 1, **_COMMON},
    ("clone", "--sym"): {"--n": 9, "--m": 9, "--gamma": 1, "--factorized": 1, **_COMMON},
    ("sweep", "--asym"): {"--gamma-range": 9, "--factorized": 3, "--gamma": 1, "--n": 1,
                          "--m-range": 1, **_COMMON},
    ("sweep", "--sym"): {"--n": 9, "--m-range": 9, "--gamma-range": 1, "--gamma": 1,
                         "--m": 1, "--factorized": 1, **_COMMON},
    ("verify", None): {"--oracle": 5, "--cutoff": 5, "--tolerance": 3},
}


@st.composite
def _argvs(draw):
    """An argv, and whether it must be refused whatever its values."""
    command = draw(st.sampled_from(["clone", "sweep", "verify"]))
    family = None if command == "verify" else draw(st.sampled_from(["--asym", "--sym"]))
    # hypothesis favours small integers, so 0 keeps the family and drops a flag
    argv = [command] + ([family] if family and draw(st.integers(0, 9)) < 9 else [])
    refused = family is not None and family not in argv
    for flag, chance in _CHANCES[command, family].items():
        if draw(st.integers(0, 9)) >= 10 - chance:
            argv += [flag] + draw(_FLAG_VALUES.get(
                flag, st.lists(_VALUES, min_size=1, max_size=1)))
            refused |= chance == 1
    refused |= "--cutoff" in argv and "--oracle" not in argv
    return argv, refused


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=50, deadline=None)
@given(_argvs())
def test_main_keeps_the_exit_contract_for_random_argv(drawn):
    argv, refused = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    # every flag given is read or refused: none may be dropped silently
    assert code == 2 or not refused, (argv, code)
    text = out.getvalue()
    if code != 2 and text.startswith("{"):
        json.loads(text, parse_constant=_refuse_constant)
    assert not _MISSING_DIR.exists()
