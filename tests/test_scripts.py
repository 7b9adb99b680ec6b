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
    assert [argv.split()[0] for argv in argvs[39:]] == ["sweep"] * 256 + ["clone"] * 256
    # a usage error exits 2 with its message on stderr, and hashes the same twice
    usage = script.digest(["clone", "--sym", "--n", "0", "--m", "5"])
    assert usage == script.digest(["clone", "--sym", "--n", "0", "--m", "5"])
    assert usage != script.digest(["clone", "--sym", "--n", "1", "--m", "1"])
