"""Per-call timings of nufd's scalar analysis, its CSV writers, its march and its array pipeline.

Usage: python3 scripts/timings.py [--src DIR ...]

Each --src is a directory holding the nufd package (a checkout's src/); the
default is this checkout's.  Every tree is imported once, side by side in this
one interpreter, as the package ``nufd_<i>`` for the i-th --src.  There are
five case sets:

- scalar: each case calls one function over a fixed list of 500 argument
  tuples built from a 2,001-point jittered mesh (seed 2001); a call set is
  all 500 calls, so the figures include the cost of the Python loop.  The
  ``stencil`` case builds the public (offset, weight) tuple of a second
  difference at each of the report cases' indices, a cost the reports do
  not pay;
- small: paper-scale calls, where the fixed cost of each call dominates; a
  call set is 200 calls with the same arguments.  ``solve`` with ``d- d+``
  and with ``d2``, kappa = 4 pi^2, on the ex5_5 meshes (the 202-point
  geometric mesh and the 11-point uniform one), and the 1,000-point array
  pipeline: ``Mesh`` of 1,000 jittered points (seed 2001), ``sample`` of
  -sin(4 pi t) and of its second derivative, ``d- d+`` by
  ``apply_operator`` and ``scaled_local_difference``;
- csv: all but the last two cases make one call that writes into a
  temporary directory: ``run_custom`` with the `c c` operator against the
  exact second derivative of -sin(4 pi t) on ``uniform:0,1,20000+insert:0.7``
  (39,999 points), which writes ``diff_grid.csv`` and ``diff_sld.csv`` as
  ``nufd diff`` does; ``run_oscillator`` with the ``d- d+`` march and
  kappa = 4 pi^2 on 20,000 uniform points of [0, 1]; ``write_mesh_csv`` of
  that mesh, of 4,097 uniform points, whose 4,096 rows cross one 2,048-row
  block seam, and of 23 uniform points, whose 22-row table stays on ``%``,
  the path any writer change must time; and ``run_preset("ex5_2")``, whose
  21- to 23-row tables stay on ``%`` too.  The last three cases write into
  a new ``io.StringIO`` per call, so no file open and close dilutes the
  writer's own time: ``write_mesh_csv`` of 23 uniform points (``%``), a
  call set of 200 calls, of 202 uniform points, the size of the ex5_5 and
  paper-mesh tables, and of 300 uniform points (both the ``_cells``
  kernel), call sets of 20 calls;
- march: ``solve`` with ``d- d+`` and with ``d2``, kappa = 4 pi^2, on
  100,000 jittered points (seed 2001) and on 100,000 uniform points of [0, 1];
- arrays: ``sample`` of -sin(4 pi t) and of its second derivative, ``d- d+``
  by ``apply_operator`` and ``scaled_local_difference``, on 1,000,000
  jittered points (seed 2001).

Within each case the trees take turns, one call set each, and the tree that
goes first alternates from round to round, so that a change in the machine's
load reaches every tree alike.  Each table gives, per call, the minimum and
the median over the rounds, in µs for scalar and in ms for the others, and
for every tree after the first the median over the rounds of its time
relative to the first tree's in the same round.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import io
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEED = 2001
N_POINTS = 2001
CALLS_PER_LOOP = 500
DIFF_STEPS = 20_000
CSV_POINTS = 20_000
SEAM_POINTS = 4_097
SHORT_POINTS = 23
PAPER_POINTS = 202
KERNEL_POINTS = 300
MARCH_POINTS = 100_000
ARRAY_POINTS = 1_000_000
SMALL_CALLS = 200
SMALL_ARRAY_POINTS = 1_000

# case set -> (unit, units per second, rounds, decimals)
CASE_SETS = {
    "scalar": ("µs", 1e6, 41, 3),
    "small": ("µs", 1e6, 41, 2),
    "csv": ("ms", 1e3, 25, 3),
    "march": ("ms", 1e3, 41, 3),
    "arrays": ("ms", 1e3, 31, 2),
}


def _import_tree(i: int, src: str):
    """The nufd package under ``src``, imported as ``nufd_<i>``; its relative imports stay inside it."""
    name = f"nufd_{i}"
    package = Path(src) / "nufd"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _jittered(nufd, n: int):
    import numpy as np

    steps = np.random.default_rng(SEED).uniform(0.5, 1.5, n - 1)
    points = np.concatenate(([0.0], np.cumsum(steps)))
    return nufd.Mesh(points / points[-1])


def _pipeline(nufd, f, mesh, op):
    """The array pipeline: ``sample`` of f and of f'', ``op`` by ``apply_operator``, ``scaled_local_difference``."""
    approx = nufd.apply_operator(op, nufd.sample(f, 0, mesh))
    return nufd.scaled_local_difference(nufd.sample(f, 2, mesh), approx)


def _scalar_cases(nufd, out: Path) -> dict[str, tuple]:
    """name -> (function, argument tuples); public API only, so any tree can run it."""
    import numpy as np

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
        "stencil": (
            nufd.stencil,
            [(op, t[k + lo : k + hi + 1]) for op, k in by_op for lo, hi in [nufd.stencil_offsets(op)]],
        ),
    }
    for kind in nufd.FirstDiffKind:
        name = f"first_diff_error_bound {kind.name.lower()}"
        cases[name] = (nufd.first_diff_error_bound, [(kind, f, mesh, k) for k in ks])
    cases["sup_abs"] = (f.sup_abs, [(q, t[k], t[k + 1]) for q, k in zip(orders, ks)])
    cases["evaluate (float t)"] = (f.evaluate, [(q, t[k]) for q, k in zip(orders, ks)])
    return cases


def _small_cases(nufd, out: Path) -> dict[str, tuple]:
    """name -> (function, one argument tuple repeated); public API only, so any tree can run it."""
    presets = importlib.import_module(f"{nufd.__name__}.presets")
    meshes = dict(zip(("202-point geometric", "11-point uniform"), presets.oscillator_meshes()))
    operators = {"d- d+": nufd.BACKWARD_FORWARD, "d2": nufd.D2_CORRECTED}
    cases = {
        f"solve {label} ({name})": (
            nufd.solve, [(nufd.IvpProblem(kappa=4 * math.pi**2, mesh=mesh, operator=op),)] * SMALL_CALLS
        )
        for name, mesh in meshes.items()
        for label, op in operators.items()
    }
    f = nufd.make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
    points = _jittered(nufd, SMALL_ARRAY_POINTS).points
    cases["mesh to sld, d- d+ (1,000 points)"] = (
        lambda points, op: _pipeline(nufd, f, nufd.Mesh(points), op),
        [(points, nufd.BACKWARD_FORWARD)] * SMALL_CALLS,
    )
    return cases


def _write_mesh_to_memory(nufd, mesh) -> None:
    nufd.write_mesh_csv(mesh, io.StringIO())


def _csv_cases(nufd, out: Path) -> dict[str, tuple]:
    """name -> (function, one argument tuple); public API only, so any tree can run it."""
    presets = importlib.import_module(f"{nufd.__name__}.presets")
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
        "write_mesh_csv (4,097 points)": (
            nufd.write_mesh_csv, [(nufd.build_uniform(0.0, 1.0, SEAM_POINTS), out / "seam.csv")]
        ),
        "write_mesh_csv (23 points)": (
            nufd.write_mesh_csv, [(nufd.build_uniform(0.0, 1.0, SHORT_POINTS), out / "short.csv")]
        ),
        "run_preset ex5_2 (21-23-row tables)": (presets.run_preset, [("ex5_2", out)]),
        "write_mesh_csv (23 points, in memory)": (
            functools.partial(_write_mesh_to_memory, nufd), [(nufd.build_uniform(0.0, 1.0, SHORT_POINTS),)] * 200
        ),
        "write_mesh_csv (202 points, in memory)": (
            functools.partial(_write_mesh_to_memory, nufd), [(nufd.build_uniform(0.0, 1.0, PAPER_POINTS),)] * 20
        ),
        "write_mesh_csv (300 points, in memory)": (
            functools.partial(_write_mesh_to_memory, nufd), [(nufd.build_uniform(0.0, 1.0, KERNEL_POINTS),)] * 20
        ),
    }


def _march_cases(nufd, out: Path) -> dict[str, tuple]:
    """name -> (solve, one problem); public API only, so any tree can run it."""
    meshes = {"jittered": _jittered(nufd, MARCH_POINTS), "uniform": nufd.build_uniform(0.0, 1.0, MARCH_POINTS)}
    operators = {"d- d+": nufd.BACKWARD_FORWARD, "d2": nufd.D2_CORRECTED}
    return {
        f"solve {label} ({name}, 100,000 points)": (
            nufd.solve, [(nufd.IvpProblem(kappa=4 * math.pi**2, mesh=mesh, operator=op),)]
        )
        for name, mesh in meshes.items()
        for label, op in operators.items()
    }


def _array_cases(nufd, out: Path) -> dict[str, tuple]:
    """name -> (pipeline, one argument tuple); public API only, so any tree can run it."""
    f = nufd.make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
    return {
        "sample, d- d+, sld (1,000,000 points)": (
            functools.partial(_pipeline, nufd, f), [(_jittered(nufd, ARRAY_POINTS), nufd.BACKWARD_FORWARD)]
        ),
    }


_BUILDERS = {"scalar": _scalar_cases, "small": _small_cases, "csv": _csv_cases, "march": _march_cases, "arrays": _array_cases}


def _per_call(fn, args: list[tuple]) -> float:
    """Seconds per call of one call set: every argument tuple once."""
    start = time.perf_counter()
    for a in args:
        fn(*a)
    return (time.perf_counter() - start) / len(args)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append", help="directory holding the nufd package (repeatable)")
    args = parser.parse_args()
    srcs = [str(Path(s).resolve()) for s in args.src or [Path(__file__).resolve().parents[1] / "src"]]
    trees = [_import_tree(i, src) for i, src in enumerate(srcs)]
    for i, src in enumerate(srcs):
        print(f"[{i}] {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for case_set, (unit, scale, rounds, decimals) in CASE_SETS.items():
            cases = []
            for i, nufd in enumerate(trees):
                out = Path(tmp) / str(i)
                out.mkdir(exist_ok=True)
                cases.append(_BUILDERS[case_set](nufd, out))
            print(f"\n{case_set}: {unit} per call, min and median of {rounds} rounds;"
                  " [i]/[0] is the median over rounds of the ratio of [i]'s call set to [0]'s")
            print(f"{'case':40s}" + "".join(f"{f'[{i}] min':>11s}{f'[{i}] med':>11s}" for i in range(len(srcs)))
                  + "".join(f"{f'[{i}]/[0]':>9s}" for i in range(1, len(srcs))))
            for name in cases[0]:
                samples: list[list[float]] = [[] for _ in srcs]
                for _ in range(2):  # warm-up: imports, caches and lazy set-up finish untimed
                    for named in cases:
                        _per_call(*named[name])
                for r in range(rounds):
                    order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
                    for i in order:
                        samples[i].append(_per_call(*cases[i][name]))
                print(f"{name:40s}" + "".join(
                    f"{min(s) * scale:11.{decimals}f}{statistics.median(s) * scale:11.{decimals}f}" for s in samples
                ) + "".join(
                    f"{statistics.median(x / y for x, y in zip(s, samples[0])):9.3f}" for s in samples[1:]
                ))


if __name__ == "__main__":
    main()
