"""Command-line interface: flags, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cvcloner import analysis, circuits, cli, gaussian, verification
from cvcloner.analysis import clone_report
from cvcloner.circuits import AsymSpec, build_cloner
from cvcloner.cli import main


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
    real = cli.clone_report

    def poisoned(spec, xi):
        return [replace(r, q_peak=math.nan) for r in real(spec, xi)]

    monkeypatch.setattr(cli, "clone_report", poisoned)
    code, out, err = run(capsys, ["clone", "--asym", "--gamma", "0.1"])
    assert code == 1
    assert "NaN" not in out
    assert "error" in err


@pytest.mark.parametrize("field", ["fidelity", "q_peak", "symplectic_dev",
                                   "phase_covariance_defect"])
def test_nan_figures_are_violations(field):
    machine = build_cloner(AsymSpec(0.2))
    reports = clone_report(machine)
    assert cli._physics_violations(machine.symplectic_dev, reports, 1e-10) == []
    if field == "symplectic_dev":  # the machine's figure, not a clone's
        assert cli._physics_violations(math.nan, reports, 1e-10)
    else:
        poisoned = [replace(reports[0], **{field: math.nan})] + reports[1:]
        assert cli._physics_violations(machine.symplectic_dev, poisoned, 1e-10)


def test_verify_reports_a_truncated_oracle_as_failed(capsys):
    code, out, _ = run(capsys, ["verify", "--oracle", "--cutoff", "5"])
    assert code == 1
    (line,) = [ln for ln in out.splitlines() if ln.startswith("oracle_agreement")]
    assert "FAIL" in line and "max_dev=inf" in line
    assert "10/11 suites passed" in out


def _count_calls(monkeypatch, fn, calls, key):
    """Route every cvcloner module's binding of fn through a counter."""
    def counting(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cvcloner" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)


def test_each_machine_is_built_and_checked_once(monkeypatch, capsys):
    calls = {"build": 0, "check": 0}
    _count_calls(monkeypatch, circuits.build_cloner, calls, "build")
    _count_calls(monkeypatch, gaussian.check_symplectic, calls, "check")
    for argv, machines in (
        (["clone", "--sym", "--n", "2", "--m", "5"], 1),
        (["clone", "--asym", "--gamma", "0.3", "--factorized"], 1),
        (["sweep", "--sym", "--n", "1", "--m-range", "2", "4"], 3),
        (["sweep", "--asym", "--gamma-range", "-1", "1", "5"], 5),
    ):
        calls.update(build=0, check=0)
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert calls == {"build": machines, "check": machines}, argv


def test_a_warm_verify_checks_only_the_full_state_routes(monkeypatch, capsys):
    # the suites read each cached machine's symplectic_dev, and the full-state
    # suites evolve the built machines' transforms: nothing checks again
    assert cli.cmd_verify(None, None) == 0  # fills the machine caches
    calls = {"check": 0}
    _count_calls(monkeypatch, gaussian.check_symplectic, calls, "check")
    assert cli.cmd_verify(None, None) == 0
    capsys.readouterr()
    assert calls == {"check": 0}


def test_a_cold_verify_checks_each_machine_once_and_reads_its_clones_once(monkeypatch, capsys):
    # 90 distinct specs: the direct and factorized machine at each of the 41
    # grid points, and the 8 shared machines that are not on the grid
    caches = (verification._build, verification._machines, verification._grid)
    for cache in caches:
        cache.cache_clear()
    calls = {"check": 0, "report": 0}
    _count_calls(monkeypatch, gaussian.check_symplectic, calls, "check")
    _count_calls(monkeypatch, analysis.clone_report, calls, "report")
    assert cli.cmd_verify(None, None) == 0
    capsys.readouterr()
    assert calls["check"] == 90
    # 47 reports at xi = 1, 16 at the Q probe, and 16 x 5 for fidelity_invariance
    # less the 10 machines (6 symmetric, 4 direct on the grid) read at xi = 1 already
    assert calls["report"] == 133


@pytest.mark.parametrize("factorized", [False, True])
def test_clone_asym_builds_each_form_once(monkeypatch, capsys, factorized):
    calls = {"direct": 0, "factorized": 0}
    _count_calls(monkeypatch, circuits.asym_direct, calls, "direct")
    _count_calls(monkeypatch, circuits.asym_factorized, calls, "factorized")
    argv = ["clone", "--asym", "--gamma", "0.3"] + (["--factorized"] if factorized else [])
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["diagnostics"]["factorization_dev"] < 1e-12
    assert calls == {"direct": 1, "factorized": 1}


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
