#!/usr/bin/env python3
"""Compare the benchmark runs of two commits.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are run records written by ``run.py`` (directories of
them, or single files); traced runs are ignored.  For each workload one
row gives, for every end-to-end metric, the quartiles on both sides and
a flag, using the bounds fixed in BENCHMARK.json:

    worse       the change's median is worse than the base median by more
                than the bound (a share of the base median)
    unresolved  either side's spread, (q3 - q1) / median, is wider than the
                bound, and not every change run beats every base run
    unchanged   neither of the above

Exit status is 1 when any pair is flagged worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(source: Path) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [value per run]}} from untraced run records."""
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    runs: dict = defaultdict(lambda: defaultdict(list))
    for path in files:
        record = json.loads(path.read_text())
        if record.get("trace") != 0:
            continue
        for name, metric in record["metrics"].items():
            runs[record["workload"]][name].append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def flag(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """(flag, relative change of the median, signed so that positive is worse)."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - bm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return "unchanged", worse_by


def compare(base_dir: Path, change_dir: Path, spec: dict) -> tuple[list[str], bool]:
    base, change = load_runs(base_dir), load_runs(change_dir)
    rows = []
    any_worse = False
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            rows.append(f"{workload}: runs missing on one side")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = base[workload].get(name), change[workload].get(name)
            if not b or not c:
                cells.append(f"{name}: missing")
                continue
            verdict, worse_by = flag(b, c, metric["better"], metric["bound"])
            any_worse |= verdict == "worse"
            bq, cq = quartiles(b), quartiles(c)
            cells.append(
                f"{name} [{metric['unit']}] {bq[0]:.4g}/{bq[1]:.4g}/{bq[2]:.4g} -> "
                f"{cq[0]:.4g}/{cq[1]:.4g}/{cq[2]:.4g} ({worse_by:+.1%} worse) {verdict}"
            )
        rows.append(f"{workload} (runs {len(next(iter(base[workload].values())))} vs "
                    f"{len(next(iter(change[workload].values())))}): " + " | ".join(cells))
    return rows, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, any_worse = compare(Path(argv[0]), Path(argv[1]), spec)
    print("quartiles q1/median/q3, base -> change")
    for row in rows:
        print(row)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
