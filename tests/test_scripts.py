"""The scripts under scripts/ run end to end."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_convergence_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oracle_convergence.py"),
         "--min-cutoff", "8", "--max-cutoff", "10"],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    rows = [row.split() for row in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["8", "10"]
    # cutoff 8 is refused at the leakage gate; cutoff 10 reaches the number path
    assert rows[0][2] == "refused"
    dev = float(rows[1][2])
    assert math.isfinite(dev) and dev <= 5e-3


def test_the_output_corpus_holds_the_bench_19_argvs_the_ladder_and_both_streams():
    # the script is not run here: a CI step runs it on this tree and its parent
    spec = importlib.util.spec_from_file_location("output_corpus",
                                                  ROOT / "scripts" / "output_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argvs = [" ".join(argv) for argv in script.corpus()]
    bench = json.loads((ROOT / "BENCH_19.json").read_text(encoding="utf-8"))
    assert argvs[:29] == bench["outputs"]["argvs"]
    assert argvs[29:39] == [f"verify --oracle --cutoff {c}" for c in (5, *range(10, 17), 18, 20)]
    assert [argv.split()[0] for argv in argvs[39:551]] == ["sweep"] * 256 + ["clone"] * 256
    # the writer's failure and multi-chunk paths
    assert argvs[551:] == ["clone --sym --n 3 --m 5 --tolerance 0",
                           "sweep --sym --n 2 --m-range 2 9 --tolerance 0",
                           "clone --sym --n 16 --m 300"]
    # a usage error exits 2 with its message on stderr, and hashes the same twice
    usage = script.digest(["clone", "--sym", "--n", "0", "--m", "5"])
    assert usage == script.digest(["clone", "--sym", "--n", "0", "--m", "5"])
    assert usage != script.digest(["clone", "--sym", "--n", "1", "--m", "1"])


def _op_split():
    spec = importlib.util.spec_from_file_location("op_split", ROOT / "scripts" / "op_split.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_op_split_prints_each_stage_of_each_workload():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    stages = {"asym_sweep": ["argparse", "build", "read", "gate", "writer"],
              "verify_oracle": ["suites", "squeeze", "propagate", "readout"]}
    stages["sym_clone"] = stages["asym_sweep"]
    for workload, names in stages.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "op_split.py"), "--workload", workload,
             "--ops", "2"],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        title, header, *rows = proc.stdout.splitlines()
        assert title == f"{workload}: first 2 ops of seed 901, 3 passes, ms per op"
        assert header.split() == ["stage", "median", "mean"]
        figures = {name: (float(median), float(mean))
                   for name, median, mean in map(str.split, rows)}
        assert list(figures) == [*names, "main", "other"]
        # every stage ran (each op of these workloads reaches all of them) and
        # lies inside main
        assert all(mean > 0 for name, (_, mean) in figures.items() if name != "other"), figures
        assert sum(mean for name, (_, mean) in figures.items() if name not in ("main", "other")) \
            <= figures["main"][1]


def test_op_split_puts_back_every_name_it_wraps():
    from cvcloner import cli, fock, verification

    script = _op_split()
    before = {(module, name): getattr(module, name)
              for module in (cli, fock, verification)
              for name in ("build_cloners", "read_clones", "_physics_violations", "_emit",
                           "standard_suites", "_squeeze", "_propagate", "fidelities_fock")
              if hasattr(module, name)}
    figures = script.split("asym_sweep", 1)
    assert set(figures) == {"argparse", "build", "read", "gate", "writer", "main", "other"}
    assert all(len(per_op) == 1 for per_op in figures.values())
    assert {key: getattr(*key) for key in before} == before
    assert "parse_args" not in vars(cli._parser())
