"""Per-call timings of nufd's scalar analysis functions.

Usage: python3 scripts/scalar_timings.py [--src DIR ...]

Each --src is a directory holding the nufd package (a checkout's src/); the
default is this checkout's.  Every case calls one function over a fixed list
of arguments built from a 2,001-point jittered mesh (seed 2001).  One run
times each case as the best of 40 loops over its list, in a fresh
interpreter for each source tree; the runs alternate between the trees, and
the table gives the minimum over 7 runs in microseconds per call.  The figures
include the cost of the Python loop that makes the calls.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

N_POINTS = 2001
CALLS_PER_LOOP = 500
RUNS = 7
LOOPS = 40
SEED = 2001


def _cases() -> dict[str, tuple]:
    """name -> (function, argument tuples); public API only, so any tree can run it."""
    import numpy as np

    import nufd

    rng = np.random.default_rng(SEED)
    steps = rng.uniform(0.5, 1.5, N_POINTS - 1)
    points = np.concatenate(([0.0], np.cumsum(steps)))
    mesh = nufd.Mesh(points / points[-1])
    t = mesh.points.tolist()
    f = nufd.make_sinusoid(rng.uniform(0.5, 2.0), rng.uniform(1.0, 8.0), rng.uniform(0.0, 6.0))
    seconds = [*nufd.ALL_SECOND_SPECS, nufd.D2_CORRECTED]
    ks = rng.integers(2, N_POINTS - 2, CALLS_PER_LOOP).tolist()
    by_op = [(seconds[i % len(seconds)], k) for i, k in enumerate(ks)]
    alphas = rng.uniform(0.5, 2.0, CALLS_PER_LOOP).tolist()
    orders = [2 + i % 4 for i in range(CALLS_PER_LOOP)]
    cases = {
        "consistency_report_at": (nufd.consistency_report_at, [(op, mesh, k) for op, k in by_op]),
        "expansion_prediction": (nufd.expansion_prediction, [(op, f, mesh, k) for op, k in by_op]),
        "geometric_consistency": (
            nufd.geometric_consistency, [(op, a) for (op, _), a in zip(by_op, alphas)]
        ),
    }
    for kind in nufd.FirstDiffKind:
        name = f"first_diff_error_bound {kind.name.lower()}"
        cases[name] = (nufd.first_diff_error_bound, [(kind, f, mesh, k) for k in ks])
    cases["sup_abs"] = (f.sup_abs, [(q, t[k], t[k + 1]) for q, k in zip(orders, ks)])
    cases["evaluate (float t)"] = (f.evaluate, [(q, t[k]) for q, k in zip(orders, ks)])
    return cases


def _worker() -> None:
    """Print {case: µs per call, best of LOOPS loops} as JSON."""
    result = {}
    for name, (fn, args) in _cases().items():
        best = float("inf")
        for _ in range(LOOPS):
            start = time.perf_counter()
            for a in args:
                fn(*a)
            best = min(best, time.perf_counter() - start)
        result[name] = best / len(args) * 1e6
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", help="directory holding the nufd package (repeatable)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker()
        return
    srcs = [str(Path(s).resolve()) for s in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    best: dict[str, dict[str, float]] = {src: {} for src in srcs}
    for _ in range(RUNS):
        for src in srcs:
            env = {**os.environ, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, __file__, "--worker"],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
            for name, us in json.loads(out).items():
                best[src][name] = min(us, best[src].get(name, us))
    names = list(best[srcs[0]])
    print(f"µs per call, min of {RUNS} runs, best of {LOOPS} loops of {CALLS_PER_LOOP} calls")
    for i, src in enumerate(srcs):
        print(f"  [{i}] {src}")
    print(f"{'case':40s}" + "".join(f"{f'[{i}]':>10s}" for i in range(len(srcs))))
    for name in names:
        print(f"{name:40s}" + "".join(f"{best[src][name]:10.3f}" for src in srcs))


if __name__ == "__main__":
    main()
