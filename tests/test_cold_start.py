"""A cold CLI process loads scipy only when it runs the Fock oracle.

Other tests import scipy into the pytest process, so each command runs in a
fresh interpreter, which then lists the scipy modules it has loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg

from cvcloner import fock

ROOT = Path(__file__).resolve().parents[1]

# runs main(argv) with its output captured, then prints the exit code and
# every scipy module now in sys.modules as one JSON object
_PROBE = """
import contextlib, io, json, sys
from cvcloner.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy."))}))
"""


def _cold_run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    ["clone", "--asym", "--gamma", "0.3"],
    ["clone", "--sym", "--n", "2", "--m", "5"],
    ["sweep", "--asym", "--factorized", "--gamma-range", "-1", "1", "5"],
    ["sweep", "--sym", "--n", "2", "--m-range", "2", "4"],
    ["verify"],
], ids=["clone-asym", "clone-sym", "sweep-asym-factorized", "sweep-sym", "verify"])
def test_a_cold_command_without_the_oracle_loads_no_scipy(argv):
    assert _cold_run(argv) == {"code": 0, "scipy": []}


def test_a_cold_oracle_run_loads_scipy_sparse():
    # the probe above sees scipy when it is loaded, so the empty lists are not vacuous
    run = _cold_run(["verify", "--oracle", "--cutoff", "10"])
    assert run["code"] == 0
    assert "scipy.sparse" in run["scipy"]


def test_fock_resolves_expm_multiply_on_demand():
    assert fock.expm_multiply is scipy.sparse.linalg.expm_multiply
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fock.no_such_name  # noqa: B018
