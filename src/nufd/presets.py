"""Canned experiments: the four derivative studies and the oscillator runs,
which go through ``run_custom`` and ``run_oscillator`` as ``nufd diff`` and
``nufd oscillator`` do, and the mesh-profile dump.

Every preset is fully determined by its name plus the insertion fraction
``beta`` used to refine the nonuniform mesh, so runs are reproducible byte
for byte.
"""

from __future__ import annotations

import functools
from pathlib import Path

from . import diffops, ivp, parsing
from .diffops import GridFunction, Operator
from .functions import AnalyticFunction, sample
from .mesh import Mesh, refine_insert, smoothness_ratios, write_mesh_csv, FLOAT_FORMAT, _write_tables
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

# Every preset input, written as its command line takes it: the derivative
# presets' ``--op``, the study function's ``--function``, the meshes'
# ``--mesh`` (the nonuniform one with ``+insert:`` and ``--beta`` after it,
# ``{b!r}`` is the geometric mesh's end) and ``--kappa``.  Each is built
# through ``parsing`` when first used.
_SPECS = {
    "ex5_1": "c",
    "ex5_2": "d+ d+",
    "ex5_3": "c d-",
    "ex5_4": "c c",
    "function": "sinusoid:amplitude=-1,frequency=4pi",
    "uniform": "uniform:0,1,12+insert:0.5",
    "nonuniform": "equiarc:sinusoid:frequency=2pi,0,1,12",
    "geometric": "geometric:0,0.1,50/59,200",
    "oscillator_uniform": "uniform:0,{b!r},11",
    "kappa": "4pi^2",
}

OSCILLATOR_KAPPA = parsing.parse_number(_SPECS["kappa"])
PRESET_NAMES = ("ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5", "fig5_1")


@functools.cache
def _parsed(parser: str, spec: str, beta: float | None = None):
    """``parsing.<parser>(spec)``, refined as ``+insert:beta`` would when ``beta`` is given.

    Each is built once per process, as meshes, functions and operators are
    immutable.  ``refine_insert`` itself refines, so that a ``beta`` that no
    spec number spells, NaN, meets its own check.
    """
    built = getattr(parsing, parser)(spec)
    return built if beta is None else refine_insert(built, beta)


def section5_function() -> AnalyticFunction:
    """-sin(4*pi*t), the test function of the derivative studies."""
    return _parsed("parse_function_spec", _SPECS["function"])


def section5_uniform_mesh() -> Mesh:
    """23 equally spaced points on [0, 1] (12 points plus midpoints)."""
    return _parsed("parse_mesh_spec", _SPECS["uniform"])


def section5_nonuniform_mesh(beta: float = DEFAULT_BETA) -> Mesh:
    """The equi-arclength 12-point mesh for sin(2*pi*t), one point inserted per step.

    ``beta`` > 0.5 places the inserted points closer to their right
    neighbours.
    """
    return _parsed("parse_mesh_spec", _SPECS["nonuniform"], float(beta))


def oscillator_meshes() -> tuple[Mesh, Mesh]:
    """(geometric, uniform) meshes of the oscillator experiment.

    The geometric mesh starts at h0 = 1/10 with ratio 50/59 for 202 points;
    the uniform one covers the same interval in ten equal steps.
    """
    geometric = _parsed("parse_mesh_spec", _SPECS["geometric"])
    return geometric, _parsed("parse_mesh_spec", _SPECS["oscillator_uniform"].format(b=geometric.b))


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
        op = _parsed("parse_operator", _SPECS[name])
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
