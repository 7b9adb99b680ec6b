"""Tests of the benchmark's own parts: checker, op generators and tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import time

import pytest

import run
from checker import check_op, oracle_ladder
from tracer import LAYER_METRICS, Tracer, _union_ns
from workloads import N_MAX, SYM_BLOCK, WARMUP, WORKLOADS, Op, blocks

SYM_OP = Op("sym_clone", ("clone", "--sym", "--n", "1", "--m", "2", "--xi=0.5,-0.25"),
            {"n": 1, "m": 2, "xi": (0.5, -0.25)})


def sym_doc() -> dict:
    """A correct `clone --sym --n 1 --m 2` report, built from the closed forms."""
    f, n_ch = 2.0 / 3.0, 0.5
    clones = [{"mode": mode, "name": f"clone_{j + 1}", "n_chaotic": n_ch,
               "n_chaotic_formula": n_ch, "fidelity": f, "fidelity_formula": f,
               "q_peak": f / math.pi, "defect": 0.0}
              for j, mode in enumerate((0, 2))]
    return {"schema_version": 1, "spec": {"kind": "sym", "n": 1, "m": 2, "xi": [0.5, -0.25]},
            "clones": clones,
            "diagnostics": {"symplectic_dev": 0.0, "factorization_dev": None}}


def dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fake_main(text: str, code: int):
    def main(argv):
        print(text, end="")
        return code
    return main


def test_checker_accepts_closed_form_report():
    assert check_op(SYM_OP, 0, dump(sym_doc())).ok


@pytest.mark.parametrize("corrupt", ["nan", "wrong_fidelity", "exit_1", "infinity",
                                     "overflow", "missing_clone", "bad_q_peak"])
def test_corrupted_output_counts_as_failed_op(corrupt):
    doc, code, text = sym_doc(), 0, None
    if corrupt == "nan":
        doc["clones"][1]["fidelity"] = float("nan")
    elif corrupt == "wrong_fidelity":
        doc["clones"][0]["fidelity"] = 2.0 / 3.0 + 1e-6
    elif corrupt == "exit_1":
        code = 1
    elif corrupt == "infinity":
        doc["diagnostics"]["symplectic_dev"] = float("inf")
    elif corrupt == "missing_clone":
        doc["clones"].pop()
    elif corrupt == "bad_q_peak":
        doc["clones"][0]["q_peak"] *= 1.001
    elif corrupt == "overflow":  # parses as inf in Python's json
        text = dump(doc).replace('"symplectic_dev": 0.0', '"symplectic_dev": 1e999')
    tally = run.Tally()
    tally.record(SYM_OP, *run.call(fake_main(text or dump(doc), code), SYM_OP))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert SYM_OP.label() in tally.failures[0]


def test_raising_and_usage_errors_count_as_failed_ops():
    def raises(argv):
        raise RuntimeError("boom")

    def usage(argv):
        raise SystemExit(2)

    for main in (raises, usage):
        _, verdict = run.call(main, SYM_OP)
        assert not verdict.ok


def _asym_doc(a: float, b: float, steps: int) -> dict:
    rows = []
    for i in range(steps):
        g = a + (b - a) * i / (steps - 1)
        e = math.exp(2 * g)
        rows.append({"gamma": g, "u": -math.atan(math.sqrt(2) * math.sinh(g)),
                     "v": math.atanh(math.sqrt(1 + e * e) / (1 + e)), "w": math.atan(e),
                     "n_chaotic_1": e / 2, "n_chaotic_2": 1 / (2 * e),
                     "fidelity_1": 2 / (e + 2), "fidelity_2": 2 / (1 / e + 2),
                     "noise_product": 0.25})
    return {"schema_version": 1,
            "spec": {"kind": "asym_sweep", "gamma_range": [a, b, steps], "xi": [1.0, 0.0]},
            "rows": rows}


def test_asym_sweep_checks_the_gamma_grid_and_noise_product():
    op = Op("asym_sweep", (), {"a": -0.5, "b": 0.5, "steps": 3, "xi": (1.0, 0.0),
                               "factorized": False})
    doc = _asym_doc(-0.5, 0.5, 3)
    assert check_op(op, 0, dump(doc)).ok
    shifted = _asym_doc(-0.5, 0.5, 3)
    shifted["rows"][1]["gamma"] = 0.01
    assert not check_op(op, 0, dump(shifted)).ok
    product = _asym_doc(-0.5, 0.5, 3)
    product["rows"][2]["noise_product"] = 0.26
    assert not check_op(op, 0, dump(product)).ok


VERIFY_OP = Op("verify_oracle", ("verify", "--oracle", "--cutoff", "12"), {"cutoff": 12})


def _verify_text(status: str = "PASS", oracle_dev: str = "1.454e-03",
                 details: str = "cutoff_10=4.004e-03, cutoff_12=1.454e-03",
                 summary: str = "11/11 suites passed") -> str:
    names = ["symplectic_invariants", "factorization_equivalence", "fidelity_closed_forms",
             "chaotic_photon_forms", "noise_product_saturation", "q_function_identity",
             "fidelity_invariance", "phase_covariance", "uncertainty_preservation",
             "unit_signal_gain"]
    lines = [f"{n:<26}  max_dev=1.000e-15  tol=1.0e-10  PASS" for n in names]
    lines.append(f"{'oracle_agreement':<26}  max_dev={oracle_dev}  tol=5.0e-03  {status}"
                 f"  [{details}, monotone_break=0.000e+00]")
    return "\n".join(lines + [summary]) + "\n"


def test_verify_report_checks():
    assert oracle_ladder(12) == [10, 12]
    assert oracle_ladder(16) == [12, 14, 16]
    assert oracle_ladder(11) == [11]
    verdict = check_op(VERIFY_OP, 0, _verify_text())
    assert verdict.ok and verdict.where == "oracle fidelity at cutoff 10"
    assert not check_op(VERIFY_OP, 0, _verify_text(status="FAIL")).ok
    assert not check_op(VERIFY_OP, 0, _verify_text(oracle_dev="nan")).ok
    assert not check_op(VERIFY_OP, 0, _verify_text(details="cutoff_12=1.454e-03")).ok
    assert not check_op(VERIFY_OP, 0, _verify_text(summary="10/11 suites passed")).ok
    assert not check_op(VERIFY_OP, 1, _verify_text()).ok


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("workload", sorted(WARMUP))
def test_real_program_output_passes(cli, workload):
    _, verdict = run.call(cli.main, WARMUP[workload])
    assert verdict.ok, verdict.reason


def test_first_block_of_each_workload_passes(cli):
    for workload in ("asym_sweep", "sym_clone"):
        for op in next(blocks(workload, 7))[:4]:
            _, verdict = run.call(cli.main, op)
            assert verdict.ok, (op.label(), verdict.reason)


def test_blocks_are_seeded_and_stratified():
    first = [op.argv for op in next(blocks("sym_clone", 3))]
    assert first == [op.argv for op in next(blocks("sym_clone", 3))]
    assert first != [op.argv for op in next(blocks("sym_clone", 4))]
    block = next(blocks("sym_clone", 3))
    assert sorted(op.params["n"] for op in block) == list(range(1, N_MAX + 1))
    ms = sorted(op.params["m"] for op in block)
    assert len(block) == SYM_BLOCK and 16 <= ms[0] and ms[-1] <= 128
    stream = blocks("sym_clone", 3)
    group = [next(stream) for _ in range(SYM_BLOCK)]
    # a Latin square over the group: the largest M of each block meets every N once
    top_n = [max(block, key=lambda op: op.params["m"]).params["n"] for block in group]
    assert sorted(top_n) == list(range(1, N_MAX + 1))
    asym = next(blocks("asym_sweep", 3))
    assert sum(op.params["factorized"] for op in asym) * 2 == len(asym)
    assert all(op.params["a"] < 0 < op.params["b"] for op in asym)
    assert all(any(a.startswith("--xi=") for a in op.argv) for op in asym)
    assert sorted(op.params["cutoff"] for op in next(blocks("verify_oracle", 3))) == \
        list(range(10, 17))


def test_union_of_nested_intervals():
    assert _union_ns([(0, 10), (2, 5), (8, 12), (20, 25)]) == 17


def test_tracer_rebinds_from_imports_and_restores(cli):
    import cvcloner.circuits
    import cvcloner.gaussian
    original = cvcloner.circuits.compose
    tracer = Tracer()
    tracer.install()
    try:
        assert cvcloner.circuits.compose is not original
        assert cvcloner.circuits.compose.__wrapped__ is original
        tracer.op = 0
        _, verdict = run.call(cli.main, SYM_OP)
    finally:
        tracer.uninstall()
    assert verdict.ok
    assert cvcloner.circuits.compose is original is cvcloner.gaussian.compose
    metrics, layer_self = tracer.layer_metrics(1)
    assert set(LAYER_METRICS) - set(metrics) == {"trace.overhead_pct"}
    assert metrics["cli.main.calls"] == 1
    assert metrics["circuits.build_cloner.calls"] == 2
    assert metrics["circuits.builds_per_machine"] == 2.0
    assert metrics["elements.chain_steps"] == 2 * (0 + 1)  # collect N-1 + distribute M-1
    assert metrics["gaussian.max_modes"] == 3
    assert metrics["fock.expm_multiply.calls"] == 0
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    assert main_span[3] == -1
    # self times of all spans add up to the op's duration
    total_ms = (main_span[2] - main_span[1]) / 1e6
    assert sum(layer_self.values()) == pytest.approx(total_ms, rel=1e-9)


def _traced_clone(cli, check_delay_s: float | None) -> tuple[Tracer, float]:
    """Trace the sym_clone warm-up op (4 -> 32, 36 modes) with the check counter
    made a no-op (None) or made to sleep check_delay_s on top of its own work."""
    tracer = Tracer()
    count = tracer._check_symplectic
    if check_delay_s is None:
        tracer._check_symplectic = lambda *args, **kwargs: None
    else:
        def slow(*args, **kwargs):
            time.sleep(check_delay_s)
            count(*args, **kwargs)
        tracer._check_symplectic = slow
    tracer.install()
    try:
        tracer.op = 0
        elapsed, verdict = run.call(cli.main, WARMUP["sym_clone"])
    finally:
        tracer.uninstall()
    assert verdict.ok, verdict.reason
    return tracer, elapsed


def test_counters_are_kept_out_of_every_span(cli):
    _traced_clone(cli, None)  # warm caches before the measured pair
    quiet, _ = _traced_clone(cli, None)
    slow, elapsed = _traced_clone(cli, 0.05)
    checks = slow.layer_metrics(1)[0]["gaussian.check_symplectic.calls"]
    assert checks >= 2 and slow.counting_ns >= checks * 0.05e9
    main_span = next(s for s in slow.spans if s[0] == "cli.main")
    assert (main_span[2] - main_span[1]) / 1e9 <= elapsed - slow.counting_ns / 1e9
    # the counters' sleep (at least 100 ms) shows in none of the callers' figures
    (slow_m, slow_self), (quiet_m, quiet_self) = slow.layer_metrics(1), quiet.layer_metrics(1)
    for name in ("cli.main.self_ms", "gaussian.apply_to_gaussian.ms"):
        assert slow_m[name] == pytest.approx(quiet_m[name], abs=20.0), name
    assert slow_self["gaussian"] == pytest.approx(quiet_self["gaussian"], abs=20.0)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_host_scales_use_the_references_around_each_op():
    scales = run.host_scales([0.008, 0.004, 0.002])
    assert scales == pytest.approx([run.REFERENCE_MS / 1e3 / 0.006,
                                    run.REFERENCE_MS / 1e3 / 0.003])
