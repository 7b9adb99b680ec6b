"""Print the benchmark trajectory recorded in the committed BENCH_*.json files.

Run from anywhere:

    python3 scripts/bench_trajectory.py

It reads every BENCH_N.json at the repository root, in the order of N.  For
each workload, it prints one row per file: each end-to-end metric named in
BENCHMARK.json, as the parent's median -> the change's median.  A figure
recorded as a bare number, rather than as {median, iqr, q1, q3}, is read as
that number.

Each row is one parent/change comparison, measured in its own session on a
shared host.  Absolute values drift between files, so one commit can read
differently as the change of one file and the parent of the next.  Compare
the two sides of a row, not one row with another.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _median(figure: float | dict) -> float:
    """A recorded figure: a bare number, or the median of a {median, ...} summary."""
    return float(figure["median"] if isinstance(figure, dict) else figure)


def _cell(record: dict) -> str:
    parent, change = _median(record["parent"]), _median(record["change"])
    return f"{parent:.4g} -> {change:.4g} ({change / parent:.2f}x)"


def _order(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)", path.stem).group(1))


def trajectory(paths: list[Path], metrics: list[tuple[str, str]]) -> list[str]:
    """The printed lines: a header, then one table per workload."""
    rows: dict[str, list[tuple[str, list[str]]]] = {}
    for path in sorted(paths, key=_order):
        for workload, entry in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
            rows.setdefault(workload, []).append(
                (path.name, [_cell(entry["metrics"][name]) for name, _ in metrics]))
    lines = ["# parent median -> change median per committed BENCH file (change/parent).",
             "# Each row is a pair measured in its own session, so absolute values drift",
             "# between files: compare the two sides of a row, not one row with another."]
    heads = ["file"] + [f"{name} ({unit})" for name, unit in metrics]
    for workload, table in rows.items():
        widths = [max(len(h), *(len(([f] + cells)[i]) for f, cells in table))
                  for i, h in enumerate(heads)]
        lines += ["", f"## {workload}",
                  "  ".join(h.ljust(w) for h, w in zip(heads, widths, strict=True)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip([f] + cells, widths, strict=True)).rstrip()
                  for f, cells in table]
    return lines


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    lines = trajectory(list(ROOT.glob("BENCH_*.json")), metrics)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
