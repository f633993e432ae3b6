"""Timings of the calls that write nufd's CSV files.

Usage: python3 scripts/csv_timings.py [--src DIR ...]

Each --src is a directory holding the nufd package (a checkout's src/); the
default is this checkout's.  Three cases each make one call that writes into
a temporary directory:

- ``run_custom``: the `c c` operator against the exact second derivative of
  -sin(4 pi t) on ``uniform:0,1,20000+insert:0.7`` (39,999 points), which
  writes ``diff_grid.csv`` and ``diff_sld.csv`` as ``nufd diff`` does;
- ``run_oscillator``: the ``d- d+`` march with kappa = 4 pi^2 on 20,000
  uniform points of [0, 1], which writes the oscillator CSV;
- ``write_mesh_csv``: that 20,000-point mesh.

One run times each case as the best of 5 calls, in a fresh interpreter for
each source tree; the runs alternate between the trees, and the table gives
the minimum over 7 runs in milliseconds per call.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 7
LOOPS = 5
DIFF_STEPS = 20_000
N_POINTS = 20_000


def _cases(out: Path) -> dict:
    """name -> zero-argument call; public API only, so any tree can run it."""
    import math

    import nufd
    from nufd import presets

    f = nufd.make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
    diff_mesh = nufd.refine_insert(nufd.build_uniform(0.0, 1.0, DIFF_STEPS), 0.7)
    op = nufd.SecondDiffSpec(nufd.FirstDiffKind.CENTRAL, nufd.FirstDiffKind.CENTRAL)
    mesh = nufd.build_uniform(0.0, 1.0, N_POINTS)
    problem = nufd.IvpProblem(kappa=4 * math.pi**2, mesh=mesh)
    return {
        "run_custom (39,999-point c c diff)": lambda: presets.run_custom(diff_mesh, f, op, out_dir=out),
        "run_oscillator (20,000 points)": lambda: presets.run_oscillator(problem, out / "oscillator.csv"),
        "write_mesh_csv (20,000 points)": lambda: nufd.write_mesh_csv(mesh, out / "mesh.csv"),
    }


def _worker() -> None:
    """Print {case: ms per call, best of LOOPS calls} as JSON."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, call in _cases(Path(tmp)).items():
            best = float("inf")
            for _ in range(LOOPS):
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
            result[name] = best * 1e3
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
            for name, ms in json.loads(out).items():
                best[src][name] = min(ms, best[src].get(name, ms))
    names = list(best[srcs[0]])
    print(f"ms per call, min of {RUNS} runs, best of {LOOPS} calls")
    for i, src in enumerate(srcs):
        print(f"  [{i}] {src}")
    print(f"{'case':40s}" + "".join(f"{f'[{i}]':>10s}" for i in range(len(srcs))))
    for name in names:
        print(f"{name:40s}" + "".join(f"{best[src][name]:10.2f}" for src in srcs))


if __name__ == "__main__":
    main()
