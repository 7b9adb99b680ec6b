"""A cold CLI process loads scipy only when it runs the Fock oracle, and
the verification suites and the Fock module only when it runs verify.

Other tests import scipy and every cvcloner module into the pytest process,
so each command runs in a fresh interpreter, which then lists the scipy and
cvcloner modules it has loaded.
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

# runs main(argv) with its output captured, then prints the exit code (a
# usage error's included) and every scipy and cvcloner module now in
# sys.modules as one JSON object
_PROBE = """
import contextlib, io, json, sys
from cvcloner.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, **{package: sorted(
    name for name in sys.modules if name == package or name.startswith(package + "."))
    for package in ("scipy", "cvcloner")}}))
"""


def _cold_run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


CLONE_AND_SWEEP = [
    ["clone", "--asym", "--gamma", "0.3"],
    ["clone", "--sym", "--n", "2", "--m", "5"],
    ["sweep", "--asym", "--factorized", "--gamma-range", "-1", "1", "5"],
    ["sweep", "--sym", "--n", "2", "--m-range", "2", "4"],
]
CLONE_AND_SWEEP_IDS = ["clone-asym", "clone-sym", "sweep-asym-factorized", "sweep-sym"]


@pytest.mark.parametrize("argv", [*CLONE_AND_SWEEP, ["verify"]],
                         ids=[*CLONE_AND_SWEEP_IDS, "verify"])
def test_a_cold_command_without_the_oracle_loads_no_scipy(argv):
    run = _cold_run(argv)
    assert (run["code"], run["scipy"]) == (0, [])


@pytest.mark.parametrize("argv, code", [
    *((argv, 0) for argv in CLONE_AND_SWEEP),
    # a usage error exits 2 and an invariant violation 1, loading neither
    (["clone", "--sym", "--n", "0", "--m", "5"], 2),
    (["clone", "--asym", "--gamma", "0.3", "--tolerance", "0"], 1),
], ids=[*CLONE_AND_SWEEP_IDS, "usage-error", "invariant-violation"])
def test_a_cold_clone_or_sweep_loads_neither_verification_nor_fock(argv, code):
    run = _cold_run(argv)
    assert run["code"] == code
    assert not {"cvcloner.verification", "cvcloner.fock"} & set(run["cvcloner"])
    assert "cvcloner.cli" in run["cvcloner"]


def test_a_cold_verify_loads_verification_and_fock():
    # the probe sees both when they are loaded, so the checks above are not vacuous
    run = _cold_run(["verify"])
    assert run["code"] == 0
    assert {"cvcloner.verification", "cvcloner.fock"} <= set(run["cvcloner"])


def test_a_cold_oracle_run_loads_scipy_sparse():
    # the probe above sees scipy when it is loaded, so the empty lists are not vacuous
    run = _cold_run(["verify", "--oracle", "--cutoff", "10"])
    assert run["code"] == 0
    assert "scipy.sparse" in run["scipy"]


def test_fock_resolves_expm_multiply_on_demand():
    assert fock.expm_multiply is scipy.sparse.linalg.expm_multiply
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fock.no_such_name  # noqa: B018
