"""Canned experiments: the four derivative studies and the oscillator runs,
which go through ``run_custom`` and ``run_oscillator`` as ``nufd diff`` and
``nufd oscillator`` do, and the mesh-profile dump.

Every preset is fully determined by its name plus the insertion fraction
``beta`` used to refine the nonuniform mesh, so runs are reproducible byte
for byte.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

from . import diffops, ivp
from .diffops import FirstDiffKind, GridFunction, Operator, SecondDiffSpec
from .functions import AnalyticFunction, make_sinusoid, sample
from .mesh import (
    Mesh,
    build_equiarclength,
    build_geometric,
    build_uniform,
    refine_insert,
    smoothness_ratios,
    write_mesh_csv,
    FLOAT_FORMAT,
    _write_tables,
)
from .metrics import SldSeries, classify, scaled_local_difference

__all__ = [
    "PRESET_NAMES",
    "DEFAULT_BETA",
    "run_preset",
    "run_custom",
    "run_oscillator",
    "section5_uniform_mesh",
    "section5_nonuniform_mesh",
    "section5_function",
    "oscillator_meshes",
    "OSCILLATOR_KAPPA",
    "write_grid_csv",
    "write_oscillator_csv",
]

DEFAULT_BETA = 0.7
OSCILLATOR_KAPPA = 4 * math.pi**2

_CENTRAL = FirstDiffKind.CENTRAL
_DERIVATIVE_PRESETS: dict[str, Operator] = {
    "ex5_1": _CENTRAL,
    "ex5_2": SecondDiffSpec(FirstDiffKind.FORWARD, FirstDiffKind.FORWARD),
    "ex5_3": SecondDiffSpec(_CENTRAL, FirstDiffKind.BACKWARD),
    "ex5_4": SecondDiffSpec(_CENTRAL, _CENTRAL),
}

PRESET_NAMES = tuple(_DERIVATIVE_PRESETS) + ("ex5_5", "fig5_1")


def section5_function() -> AnalyticFunction:
    """-sin(4*pi*t), the test function of the derivative studies."""
    return make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)


def section5_uniform_mesh() -> Mesh:
    """23 equally spaced points on [0, 1] (12 points plus midpoints)."""
    return refine_insert(build_uniform(0.0, 1.0, 12), 0.5)


@functools.cache
def _section5_base_mesh() -> Mesh:
    """The equi-arclength 12-point mesh for sin(2*pi*t), built once: a mesh is immutable."""
    return build_equiarclength(make_sinusoid(amplitude=1.0, frequency=2 * math.pi), 0.0, 1.0, 12)


def section5_nonuniform_mesh(beta: float = DEFAULT_BETA) -> Mesh:
    """The equi-arclength 12-point mesh for sin(2*pi*t), one point inserted per step.

    ``beta`` > 0.5 places the inserted points closer to their right
    neighbours.
    """
    return refine_insert(_section5_base_mesh(), beta)


def oscillator_meshes() -> tuple[Mesh, Mesh]:
    """(geometric, uniform) meshes of the oscillator experiment.

    The geometric mesh starts at h0 = 1/10 with ratio 50/59 for 202 points;
    the uniform one covers the same interval in ten equal steps.
    """
    geometric = build_geometric(0.0, 0.1, 50 / 59, 200)
    uniform = build_uniform(geometric.a, geometric.b, 11)
    return geometric, uniform


def _summary_line(series: SldSeries) -> str:
    """The ``# sgei=...,argmax_t=...`` footer of a comparison CSV."""
    return f"# sgei={series.sgei:{FLOAT_FORMAT}},argmax_t={series.argmax_t:{FLOAT_FORMAT}}"


def write_grid_csv(grid: GridFunction, target: Path) -> None:
    """Write ``k,t,value`` rows for one grid function."""
    _write_tables([(target, "k,t,value", (grid.t, grid.values), ())], first_index=grid.first_index)


def write_oscillator_csv(solution: ivp.IvpSolution, target: Path) -> None:
    """Write ``k,t,w,exact,sld`` rows of the march against the exact motion, plus the summary line."""
    sld = solution.sld
    columns = (sld.t, solution.w.values, solution.exact.values, sld.sld)
    _write_tables([(target, "k,t,w,exact,sld", columns, (_summary_line(sld),))], first_index=sld.first_index)


_SGEI_KEYS = ("sgei", "argmax_t", "classification")


def _sgei_summary(series: SldSeries | None) -> dict:
    """The sgei, argmax_t and classification of one comparison; None without one."""
    if series is None:
        return dict.fromkeys(_SGEI_KEYS)
    return {"sgei": series.sgei, "argmax_t": series.argmax_t, "classification": classify(series.sgei)}


def run_custom(
    mesh: Mesh,
    f: AnalyticFunction,
    op: Operator,
    derivative_order: int | None = None,
    *,
    out_dir: Path,
    prefix: str = "diff",
) -> dict:
    """Compare one operator against the exact derivative on one mesh.

    ``derivative_order`` defaults to the order the operator approximates.
    The grid and sld CSV files go to ``<prefix>_grid.csv`` and
    ``<prefix>_sld.csv`` in the existing directory ``out_dir``.
    """
    order = diffops.derivative_order(op) if derivative_order is None else derivative_order
    approx = diffops.apply_operator(op, sample(f, 0, mesh))
    series = scaled_local_difference(sample(f, order, mesh), approx)
    # The approximation's window is the series' own (the reference covers the whole mesh), so
    # both files list the same t and approx objects and those cells are formatted once;
    # ``series.t`` is a new view on each access, hence one name for it.
    t = series.t
    _write_tables([(out_dir / f"{prefix}_grid.csv", "k,t,value", (t, series.approx), ()),
                   (out_dir / f"{prefix}_sld.csv", "k,t,reference,approx,sld",
                    (t, series.reference, series.approx, series.sld), (_summary_line(series),))],
                  first_index=series.first_index)
    return {
        "operator": str(op),
        "function": f.label,
        "derivative_order": order,
        **_sgei_summary(series),
    }


def run_oscillator(problem: ivp.IvpProblem, target: Path) -> dict:
    """March ``problem``, write the CSV ``target`` and summarise the comparison.

    The CSV compares the march with the exact motion; when that motion is
    identically zero it holds the march alone, and every summary value is None.
    """
    solution = ivp.solve(problem)
    if solution.sld is None:
        write_grid_csv(solution.w, target)
    else:
        write_oscillator_csv(solution, target)
    return _sgei_summary(solution.sld)


def _section5_pairs(beta: float) -> tuple[tuple[str, Mesh], ...]:
    """The (variant, mesh) pairs of the derivative studies and the mesh profile."""
    return ("uniform", section5_uniform_mesh()), ("nonuniform", section5_nonuniform_mesh(beta))


def run_preset(name: str, out_dir: Path, beta: float = DEFAULT_BETA) -> dict:
    """Run the preset ``name``, writing its CSV files into ``out_dir``.

    A preset is its summary head, its two (variant, mesh) pairs and a run of
    one pair; every key that run returns enters the summary with the
    variant's name as suffix.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "ex5_5":
        geometric, uniform = oscillator_meshes()
        summary: dict = {
            "preset": name,
            "kappa": OSCILLATOR_KAPPA,
            "operator": str(ivp.BACKWARD_FORWARD),
            "b": geometric.b,
            "h_uniform": float(uniform.steps[0]),
        }
        pairs = (("geometric", geometric), ("uniform", uniform))

        def run(variant: str, mesh: Mesh) -> dict:
            problem = ivp.IvpProblem(kappa=OSCILLATOR_KAPPA, mesh=mesh)
            return run_oscillator(problem, out_dir / f"ex5_5_{variant}.csv")
    elif name == "fig5_1":
        summary = {"preset": name, "beta": beta}
        pairs = _section5_pairs(beta)

        def run(variant: str, mesh: Mesh) -> dict:
            write_mesh_csv(mesh, out_dir / f"fig5_1_{variant}_mesh.csv")
            ratios = smoothness_ratios(mesh)
            _write_tables([(out_dir / f"fig5_1_{variant}_ratios.csv", "k,ratio", (ratios,), ())], first_index=0)
            return {"steps": [float(h) for h in mesh.steps], "ratios": [float(r) for r in ratios]}
    else:
        op = _DERIVATIVE_PRESETS[name]
        f = section5_function()
        summary = {
            "preset": name,
            "operator": str(op),
            "function": f.label,
            "beta": beta,
        }
        pairs = _section5_pairs(beta)

        def run(variant: str, mesh: Mesh) -> dict:
            result = run_custom(mesh, f, op, out_dir=out_dir, prefix=f"{name}_{variant}")
            return {key: result[key] for key in _SGEI_KEYS}
    for variant, mesh in pairs:
        summary.update({f"{key}_{variant}": value for key, value in run(variant, mesh).items()})
    return summary
