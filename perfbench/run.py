"""cvcloner benchmark: the CLI driven in-process by one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload sym_clone --seed 1 --seconds 30 --trace 0

The benchmark imports ``cvcloner.cli`` from ``src/`` and calls
``main(argv)`` for one op at a time (one process, one op in flight), with
argument vectors generated from ``--seed`` (see ``workloads.py``).  Every
op's exit code and output are checked against closed forms the benchmark
computes itself (``checker.py``).

``--trace 0`` measures with no wrappers installed and reports the end-to-end
metrics ops_per_s, op_p50_ms, op_tail_ms, setup_s and peak_rss_mb; the timed
ones are scaled to a fixed host speed (see ``host_reference``).
``--trace 1`` runs a fixed list of ops, first plain and then with every
layer function wrapped (``tracer.py``), and reports the per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The full record (error_rate,
the unscaled figures, the tail percentile and its sample count, the worst
deviation from a closed form and the op behind it, layer shares, and the
machine and library versions) is printed above that line and written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported anywhere in this process or its children:
# at the default of one thread per core, sym_clone ran about 40% slower on a
# 2-core machine, and the thread count would be one more uncontrolled input.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from checker import Verdict, check_op  # noqa: E402
from tracer import COMPUTED, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WARMUP, WORKLOADS, Op, blocks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# op_tail_ms is this percentile: the highest with at least TAIL_BEYOND
# samples beyond it in a run of BENCHMARK.json's run_seconds at the commit
# that defined the benchmark, except for verify_oracle, where that (about
# p84) falls between the cutoff-15 and cutoff-16 ops and p78 lies inside the
# cutoff-15 ones (see README.md).  It is fixed per workload because
# "the highest such percentile" of a timed run moves with the op count, so
# a faster commit would be judged at a different percentile.  A run goes on
# past --seconds until TAIL_BEYOND samples lie beyond it.
TAIL_PERCENTILE = {"asym_sweep": 99.0, "sym_clone": 97.0, "verify_oracle": 78.0}
TAIL_BEYOND = 10
HARD_LIMIT_S = 100.0  # a timed phase ends here even if the tail is short
SETUP_RUNS = 7        # fresh processes per run; setup_s is their median
TRACE_BLOCKS = 1      # op blocks in the fixed list of a traced run

# Timed figures are scaled to a host that runs host_reference() in REFERENCE_MS.
# A reference is taken before every op and after the last, and each op is
# scaled by the mean of the references just before and just after it.
REFERENCE_MS = 4.0
# A set-up process is scaled to a host that runs python_reference() in
# PY_REFERENCE_MS, by the mean of its own references before import and after
# the warm-up op.  Only a pure-Python kernel can run before numpy is imported.
PY_REFERENCE_MS = 1.5

# error_rate is recorded but not gated: it is 0 at every sound commit.
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import cvcloner.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "cvcloner" / "cli.py").is_file():
        raise BenchError(f"no cvcloner sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvcloner.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "cvcloner":
        raise BenchError(f"imported cvcloner from {cli.__file__}, not from {SRC}")
    return cli


def call(main, op: Op) -> tuple[float, Verdict]:
    """Run one op through main(argv); return its latency and the checker's verdict."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            code, raised = None, exc
        elapsed = time.perf_counter() - start
    if raised is not None:
        return elapsed, Verdict(False, f"raised {raised!r}", 0.0, "")
    return elapsed, check_op(op, code, out.getvalue())


@dataclass
class Tally:
    """Latencies and outcomes of the ops of one phase."""

    latencies: list[float] = field(default_factory=list)  # seconds, every attempted op
    block_sizes: list[int] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # host_reference() around the ops
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    max_dev: float = 0.0
    max_dev_op: str = ""
    max_dev_at: str = ""

    def record(self, op: Op, elapsed: float, verdict: Verdict) -> None:
        self.latencies.append(elapsed)
        if not verdict.ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.label()}: {verdict.reason}")
        if not verdict.max_dev <= self.max_dev:
            self.max_dev, self.max_dev_op, self.max_dev_at = (
                verdict.max_dev, op.label(), verdict.where)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def absorb(self, other: Tally) -> None:
        """Add another phase's outcomes to this one."""
        self.latencies += other.latencies
        self.failed += other.failed
        self.failures += other.failures
        if not other.max_dev <= self.max_dev:
            self.max_dev, self.max_dev_op, self.max_dev_at = (
                other.max_dev, other.max_dev_op, other.max_dev_at)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n: int, pct: float) -> int:
    return int(n * (1.0 - pct / 100.0) + 1e-9)


def host_reference() -> float:
    """Seconds a fixed kernel takes: the host's speed right now.

    Six 128x128 complex matrix products and a 15000-step pure-Python loop,
    the two kinds of work cvcloner does.  It shares no code with cvcloner, so
    a change to the program does not move it, while the drift of a shared
    host's speed moves it and the ops alike.  On a 2-vCPU guest that speed
    changed by up to 2.4x over minutes and by 1.5x within a second; the
    kernel timed right before and right after an op correlated with the op's
    latency at 0.83 to 0.92.
    """
    import numpy
    c = (numpy.linspace(0.0, 1.0, 128 * 128)
         + 1j * numpy.linspace(1.0, 0.0, 128 * 128)).reshape(128, 128)
    start = time.perf_counter()
    for _ in range(6):
        c @ c
    _python_kernel()
    return time.perf_counter() - start


def _python_kernel() -> float:
    acc = 0.0
    for i in range(1, 15000):
        acc += math.sqrt(i)
    return acc


def python_reference() -> float:
    """Seconds the pure-Python half of host_reference() takes (median of 10).

    The median, not the fastest, as it stands for the host's speed over the
    whole set-up that it brackets: over ten groups of set-up processes it
    followed them more closely than the fastest of 3 did.
    """
    times = []
    for _ in range(10):
        start = time.perf_counter()
        _python_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_scales(refs: list[float]) -> list[float]:
    """Per op i: REFERENCE_MS over the mean of refs[i] and refs[i + 1], taken around it."""
    return [2 * REFERENCE_MS / 1e3 / (before + after) for before, after in zip(refs, refs[1:])]


def timed_phase(main, op_blocks, seconds: float, tail_pct: float) -> Tally:
    """Closed loop over whole op blocks until the time and the tail sample are met."""
    tally = Tally()
    start = time.perf_counter()
    for block in op_blocks:
        for op in block:
            tally.refs.append(host_reference())
            tally.record(op, *call(main, op))
        tally.block_sizes.append(len(block))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and beyond(tally.attempted, tail_pct) >= TAIL_BEYOND):
            break
    tally.refs.append(host_reference())
    return tally


def run_pass(main, ops: list[Op], tally: Tally, tracer: Tracer | None = None,
             first_op: int = 0) -> None:
    """Run the op list once; under a tracer the op ids count on from first_op."""
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + k
        tally.record(op, *call(main, op))


def setup_child(workload: str) -> int:
    """Import cvcloner.cli in this fresh process, run the warm-up op, report the time.

    The host's speed is taken in this process just before and just after, as
    it changes within a second on a shared host: taken in the parent before
    each set-up process, it cut the spread of setup_s over ten runs far less.
    """
    before = python_reference()
    start = time.perf_counter()
    cli = import_cli()
    imported = time.perf_counter() - start
    latency, verdict = call(cli.main, WARMUP[workload])
    after = python_reference()
    print(json.dumps({"setup_s": imported + latency, "ref_s": (before + after) / 2,
                      "ok": verdict.ok, "reason": verdict.reason}))
    return 0 if verdict.ok else 1


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_RUNS fresh processes, and each one's python_reference()."""
    samples, refs = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload],
            capture_output=True, text=True, timeout=30, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed ({proc.returncode}): "
                             f"{proc.stdout.strip()} {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        samples.append(report["setup_s"])
        refs.append(report["ref_s"])
    return samples, refs


def _blas_threads() -> int | str:
    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unqueried (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + ("" if kind == "Unified" else f"-{kind.lower()}")] = size
    return caches


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches_cpu0": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _block_rates(latencies: list[float], sizes: list[int]) -> list[float]:
    rates, i = [], 0
    for n in sizes:
        rates.append(n / sum(latencies[i:i + n]))
        i += n
    return rates


def _figures(latencies: list[float], sizes: list[int], setup: list[float],
             pct: float) -> dict[str, float]:
    ms = [x * 1e3 for x in latencies]
    return {
        # a block holds one op of every size stratum, so its rate is the workload's
        # throughput; the median block ignores a stall in one block
        "ops_per_s": statistics.median(_block_rates(latencies, sizes)),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": percentile(ms, pct),
        "setup_s": statistics.median(setup),
    }


def run_plain(cli, workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    setup, setup_refs = measure_setup(workload)
    call(cli.main, WARMUP[workload])
    pct = TAIL_PERCENTILE[workload]
    tally = timed_phase(cli.main, blocks(workload, seed), seconds, pct)
    scaled = [x * k for x, k in zip(tally.latencies, host_scales(tally.refs))]
    scaled_setup = [x * PY_REFERENCE_MS / 1e3 / ref for x, ref in zip(setup, setup_refs)]
    values = _figures(scaled, tally.block_sizes, scaled_setup, pct)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    refs_ms = [ref * 1e3 for ref in tally.refs]
    extra = {
        "unscaled": _figures(tally.latencies, tally.block_sizes, setup, pct),
        "host_ref_ms": {"median": statistics.median(refs_ms), "min": min(refs_ms),
                        "max": max(refs_ms), "count": len(refs_ms),
                        "scaled_to": REFERENCE_MS},
        "op_tail": {"percentile": pct, "samples": tally.attempted,
                    "samples_beyond": beyond(tally.attempted, pct)},
        "setup_s_samples": setup,
        "setup_ref_ms": [ref * 1e3 for ref in setup_refs],
        "blocks": len(tally.block_sizes),
        "latencies_ms": [x * 1e3 for x in tally.latencies],
        "refs_ms": refs_ms,
    }
    return tally, metrics, extra


def run_traced(cli, workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    call(cli.main, WARMUP[workload])
    stream = blocks(workload, seed)
    ops = [op for _ in range(TRACE_BLOCKS) for op in next(stream)]
    plain, traced, tracer = Tally(), Tally(), Tracer()
    passes, start = 0, time.perf_counter()
    # plain and traced passes alternate, so that a drift of the host's speed
    # moves both alike: run one after the other, trace.overhead_pct of
    # asym_sweep read from 26% to 77% on the same ops
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(cli.main, ops, plain)
        tracer.install()
        try:
            run_pass(cli.main, ops, traced, tracer, passes * len(ops))
        finally:
            tracer.uninstall()
        passes += 1
    n_ops = traced.attempted
    layer, layer_self_ms = tracer.layer_metrics(n_ops)
    plain_p50 = statistics.median(plain.latencies)
    traced_p50 = statistics.median(traced.latencies)
    layer["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    # the shares are of the op time the spans can see: without the counters' time
    op_ms = (1e3 * sum(traced.latencies) - tracer.counting_ns / 1e6) / n_ops
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    tracer.write(spans_path)
    metrics = {name: _metric(layer[name], unit) for name, unit in LAYER_METRICS.items()}
    extra = {
        "traced_ops": n_ops,
        "passes": passes,
        "ops_per_pass": len(ops),
        "plain_op_p50_ms": plain_p50 * 1e3,
        "traced_op_p50_ms": traced_p50 * 1e3,
        "traced_op_mean_ms": op_ms,
        "counting_ms_per_op": tracer.counting_ns / 1e6 / n_ops,
        "layer_self_ms_per_op": layer_self_ms,
        "layer_share_of_op": {k: v / op_ms for k, v in layer_self_ms.items()},
        "computed_counts": list(COMPUTED),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    plain.absorb(traced)
    return plain, metrics, extra


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_child:
            return setup_child(args.workload)
        cli = import_cli()
        run = run_traced if args.trace else run_plain
        tally, metrics, extra = run(cli, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record = {
        "environment": environment(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
        "max_dev": {"value": tally.max_dev, "op": tally.max_dev_op, "at": tally.max_dev_at},
        "metrics": metrics,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shown = {k: v for k, v in record.items() if k not in ("latencies_ms", "refs_ms")}
    print(json.dumps(shown, indent=2))
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
