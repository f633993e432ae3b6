"""Per-call timings of nufd's scalar analysis functions and of the calls that write its CSV files.

Usage: python3 scripts/timings.py [--src DIR ...]

Each --src is a directory holding the nufd package (a checkout's src/); the
default is this checkout's.  There are two case sets:

- scalar: each case calls one function over a fixed list of 500 argument
  tuples built from a 2,001-point jittered mesh (seed 2001); a loop makes
  all 500 calls, so the figures include the cost of the Python loop;
- csv: each case makes one call that writes into a temporary directory:
  ``run_custom`` with the `c c` operator against the exact second derivative
  of -sin(4 pi t) on ``uniform:0,1,20000+insert:0.7`` (39,999 points), which
  writes ``diff_grid.csv`` and ``diff_sld.csv`` as ``nufd diff`` does;
  ``run_oscillator`` with the ``d- d+`` march and kappa = 4 pi^2 on 20,000
  uniform points of [0, 1]; and ``write_mesh_csv`` of that mesh.

One run times each case as the best of its set's loops (40 for scalar, 5 for
csv), in a fresh interpreter for each source tree; the runs alternate between
the trees, and each table gives the minimum over 7 runs per call, in µs for
scalar and in ms for csv.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 7
SEED = 2001
N_POINTS = 2001
CALLS_PER_LOOP = 500
DIFF_STEPS = 20_000
CSV_POINTS = 20_000

# case set -> (unit, units per second, loops per run, decimals)
CASE_SETS = {"scalar": ("µs", 1e6, 40, 3), "csv": ("ms", 1e3, 5, 2)}


def _scalar_cases() -> dict[str, tuple]:
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


def _csv_cases(out: Path) -> dict[str, tuple]:
    """name -> (function, one argument tuple); public API only, so any tree can run it."""
    import math

    import nufd
    from nufd import presets

    f = nufd.make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
    diff_mesh = nufd.refine_insert(nufd.build_uniform(0.0, 1.0, DIFF_STEPS), 0.7)
    op = nufd.SecondDiffSpec(nufd.FirstDiffKind.CENTRAL, nufd.FirstDiffKind.CENTRAL)
    mesh = nufd.build_uniform(0.0, 1.0, CSV_POINTS)
    problem = nufd.IvpProblem(kappa=4 * math.pi**2, mesh=mesh)
    return {
        "run_custom (39,999-point c c diff)": (
            functools.partial(presets.run_custom, out_dir=out), [(diff_mesh, f, op)]
        ),
        "run_oscillator (20,000 points)": (presets.run_oscillator, [(problem, out / "oscillator.csv")]),
        "write_mesh_csv (20,000 points)": (nufd.write_mesh_csv, [(mesh, out / "mesh.csv")]),
    }


def _best_per_call(fn, args: list[tuple], loops: int) -> float:
    """Seconds per call: the best of ``loops`` loops over ``args``."""
    best = float("inf")
    for _ in range(loops):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        best = min(best, time.perf_counter() - start)
    return best / len(args)


def _worker() -> None:
    """Print {case set: {case: seconds per call}} as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = {"scalar": _scalar_cases(), "csv": _csv_cases(Path(tmp))}
        result = {}
        for case_set, named in cases.items():
            loops = CASE_SETS[case_set][2]
            result[case_set] = {name: _best_per_call(fn, args, loops) for name, (fn, args) in named.items()}
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", help="directory holding the nufd package (repeatable)")
    args = parser.parse_args()
    srcs = [str(Path(s).resolve()) for s in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    best: dict[str, dict[str, dict[str, float]]] = {src: {s: {} for s in CASE_SETS} for src in srcs}
    for _ in range(RUNS):
        for src in srcs:
            # run in this file's directory, so the worker imports this file, and nufd only from src
            out = subprocess.run(
                [sys.executable, "-c", "import timings; timings._worker()"],
                cwd=Path(__file__).resolve().parent, env={**os.environ, "PYTHONPATH": src},
                check=True, capture_output=True, text=True,
            ).stdout
            for case_set, named in json.loads(out).items():
                for name, seconds in named.items():
                    best[src][case_set][name] = min(seconds, best[src][case_set].get(name, seconds))
    for i, src in enumerate(srcs):
        print(f"[{i}] {src}")
    for case_set, (unit, scale, loops, decimals) in CASE_SETS.items():
        print(f"\n{case_set}: {unit} per call, min of {RUNS} runs, best of {loops} loops")
        print(f"{'case':40s}" + "".join(f"{f'[{i}]':>10s}" for i in range(len(srcs))))
        for name in best[srcs[0]][case_set]:
            print(f"{name:40s}" + "".join(f"{best[src][case_set][name] * scale:10.{decimals}f}" for src in srcs))


if __name__ == "__main__":
    main()
