"""The scripts under scripts/ run end to end."""

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
