"""Span tracing of the cvcloner layers, from outside the package.

``Tracer.install`` wraps the public functions of each layer module and
rebinds every name in every ``cvcloner`` module that refers to one of them:
``from .gaussian import compose`` binds ``compose`` into ``circuits`` and
``elements`` at import time, so patching ``cvcloner.gaussian`` alone would
miss those calls.  ``scipy``'s ``expm_multiply`` is wrapped where
``cvcloner.fock`` imported it.  In ``cli`` only ``main`` is wrapped: the
``cmd_*`` functions are its own dispatch, and their argparse and JSON work
is what ``cli.main.self_ms`` measures.

Spans (name, start, end, parent, op id) stay in memory; ``write`` dumps them
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  Counts marked *computed* are derived from argument
shapes inside the wrappers, so they repeat exactly for the same ops.  Span
times are read from a clock that stops while a counter runs (hashing a
144-mode transform takes longer than some of the calls it counts), so no
span, the caller's included, is charged for the tracer's own counting.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "verification", "analysis", "circuits", "elements", "gaussian", "fock")
ONLY = {"cli": ("main",)}
EXTRA = (("fock", "expm_multiply"),)
# metrics that cover several functions, or one under another name
GROUPS = {
    "analysis.readout": tuple(f"analysis.{f}" for f in (
        "chaotic_photons", "chaotic_photons_from_state", "fidelity_coherent",
        "q_function", "phase_covariance_defect")),
    "fock.partial_trace": ("fock.reduced_density_matrix",),
}

# Per-layer metrics: name -> unit.  Every value is per traced op except
# gaussian.max_modes, the ratios and trace.overhead_pct.  <function>.calls
# counts calls, <function>.ms is the time its spans cover, <function>.self_ms
# and <layer>.self_ms exclude traced children.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "verification.standard_suites.ms": "ms",
    "verification.oracle_agreement.ms": "ms",
    "verification.self_ms": "ms",
    "analysis.clone_report.calls": "count",
    "analysis.clone_report.ms": "ms",
    "analysis.clone_report.self_ms": "ms",
    "analysis.clone_output_state.ms": "ms",
    "analysis.readout.ms": "ms",
    "circuits.build_cloner.calls": "count",
    "circuits.build_cloner.ms": "ms",
    "circuits.builds_per_machine": "ratio",
    "circuits.sym_n_to_m.ms": "ms",
    "circuits.asym_factorized.ms": "ms",
    "elements.collect_chain.ms": "ms",
    "elements.distribute_chain.ms": "ms",
    "elements.chain_steps": "count",
    "elements.self_ms": "ms",
    "gaussian.compose.calls": "count",
    "gaussian.compose.ms": "ms",
    "gaussian.compose.flops": "flop",
    "gaussian.embed.calls": "count",
    "gaussian.embed.ms": "ms",
    "gaussian.apply_to_gaussian.ms": "ms",
    "gaussian.check_symplectic.calls": "count",
    "gaussian.check_symplectic.ms": "ms",
    "gaussian.checks_per_machine": "ratio",
    "gaussian.reduce_mode.ms": "ms",
    "gaussian.uncertainty_defect.ms": "ms",
    "gaussian.max_modes": "modes",
    "fock.apply_cloning_fock.calls": "count",
    "fock.apply_cloning_fock.self_ms": "ms",
    "fock.expm_multiply.calls": "count",
    "fock.expm_multiply.ms": "ms",
    "fock.partial_trace.ms": "ms",
    "fock.coherent_fock.ms": "ms",
    "fock.fidelity_fock.self_ms": "ms",
    "fock.state_dim.sum": "count",
    "trace.overhead_pct": "%",
}
COMPUTED = ("gaussian.compose.flops", "fock.state_dim.sum", "elements.chain_steps",
            "circuits.builds_per_machine", "gaussian.checks_per_machine",
            "gaussian.max_modes")


class Tracer:
    """Records one span per wrapped call, plus the computed counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.flops = 0
        self.state_dim = 0
        self.chain_steps = 0
        self.max_modes = 0
        self.builds = 0
        self.specs: set[tuple[int, object]] = set()        # (op, spec) built
        self.checks = 0
        self.transforms: set[tuple[int, bytes]] = set()    # (op, digest) checked
        self.counting_ns = 0  # time spent in the counters, kept out of every span

    # -- computed counts, from argument shapes -------------------------------

    def _compose(self, second, first) -> None:
        n = first.n_modes
        self.flops += 32 * n ** 3  # four complex n x n matmuls, 8 n^3 flops each
        self.max_modes = max(self.max_modes, n)

    def _check_symplectic(self, t, tol=None) -> None:
        self.checks += 1
        self.max_modes = max(self.max_modes, t.n_modes)
        digest = hashlib.blake2b(t.A.tobytes() + t.B.tobytes(), digest_size=16).digest()
        self.transforms.add((self.op, digest))

    def _build_cloner(self, spec) -> None:
        self.builds += 1
        self.specs.add((self.op, spec))

    def _chain(self, size, modes=None) -> None:
        self.chain_steps += size - 1

    def _apply_cloning_fock(self, gamma, state) -> None:
        self.state_dim += state.space.dim

    def _counter(self, name: str):
        return {"gaussian.compose": self._compose,
                "gaussian.check_symplectic": self._check_symplectic,
                "circuits.build_cloner": self._build_cloner,
                "elements.collect_chain": self._chain,
                "elements.distribute_chain": self._chain,
                "fock.apply_cloning_fock": self._apply_cloning_fock}.get(name)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = self._counter(name)
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def clock() -> int:
            return now() - self.counting_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                paused = now()
                count(*args, **kwargs)
                self.counting_ns += now() - paused
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def install(self, package: str = "cvcloner") -> None:
        """Wrap every layer function and rebind each name that refers to one."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr in ONLY.get(layer, (attr,))):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, attr in EXTRA:
            obj = getattr(importlib.import_module(f"{package}.{layer}"), attr)
            wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, op = span  # type: ignore[misc]
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics per traced op, and each layer's self time per op (ms)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        layer_self_ns: dict[str, int] = defaultdict(int)
        intervals: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            own = end - start - child_ns[idx]
            calls[name] += 1
            self_ns[name] += own
            layer_self_ns[name.split(".")[0]] += own
            intervals[name].append((start, end))

        def covered(*names: str) -> float:
            return _union_ns([iv for n in names for iv in intervals[n]]) / 1e6 / n_ops

        layer_self_ms = {layer: layer_self_ns[layer] / 1e6 / n_ops for layer in LAYERS}
        m: dict[str, float] = {
            "circuits.builds_per_machine": self.builds / len(self.specs) if self.specs else 0.0,
            "gaussian.checks_per_machine": (self.checks / len(self.transforms)
                                            if self.transforms else 0.0),
            "gaussian.compose.flops": self.flops / n_ops,
            "elements.chain_steps": self.chain_steps / n_ops,
            "fock.state_dim.sum": self.state_dim / n_ops,
            "gaussian.max_modes": float(self.max_modes),
        }
        for metric in LAYER_METRICS:
            subject, _, kind = metric.rpartition(".")
            if metric in m or metric == "trace.overhead_pct":
                continue
            if kind == "calls":
                m[metric] = calls[subject] / n_ops
            elif kind == "self_ms":
                m[metric] = (layer_self_ms[subject] if subject in layer_self_ms
                             else self_ns[subject] / 1e6 / n_ops)
            else:
                m[metric] = covered(*GROUPS.get(subject, (subject,)))
        return m, layer_self_ms


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total time covered by possibly nested or overlapping intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
