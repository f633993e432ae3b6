"""Command-line front end: mesh builders, operators, metrics, convergence
studies and the canned experiments.

All data files are CSV with full-precision floats; summaries are written
as JSON (schema_version 1) and echoed on stdout either as a compact
``key=value`` line or, with ``--format json``, verbatim.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import click
import numpy as np

from . import analysis, ivp, presets
from .diffops import derivative_order
from .mesh import FLOAT_FORMAT, _write_tables, write_mesh_csv
from .parsing import SpecError, parse_function_spec, parse_mesh_spec, parse_number, parse_operator


class _Group(click.Group):
    """Reports a ``ValueError`` raised by a command as a clean CLI error.

    Commands run with numpy's floating-point warnings silenced: a non-finite
    value ends in a named error (or a rejected summary), not a warning.
    """

    def invoke(self, ctx: click.Context):
        try:
            with np.errstate(all="ignore"):
                return super().invoke(ctx)
        except ValueError as exc:  # SpecError, WindowError and MeshError among them
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
@click.option(
    "--out",
    type=click.Path(file_okay=False, path_type=Path),
    default=Path("."),
    show_default=True,
    help="Directory for emitted CSV/JSON files.",
)
@click.option(
    "--beta",
    type=click.FloatRange(0, 1, min_open=True, max_open=True),
    default=presets.DEFAULT_BETA,
    show_default=True,
    help="Insertion fraction for the nonuniform refinement.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="stdout summary style.",
)
@click.pass_context
def main(ctx: click.Context, out: Path, beta: float, fmt: str) -> None:
    """Finite-difference experiments on uniform and nonuniform meshes."""
    ctx.ensure_object(dict)
    ctx.obj.update(out=out, beta=beta, fmt=fmt)


def _out_dir(ctx: click.Context) -> Path:
    out: Path = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(ctx: click.Context, filename: str, summary: dict, keys: Sequence[str] | None = None) -> None:
    """Stamp ``summary`` with its schema version, write it as JSON to
    ``filename`` in the output directory and echo it.

    The echo is the JSON document under ``--format json``, otherwise one
    ``key=value`` line of ``keys`` (default: every key of ``summary``).  A
    NaN or infinite value is a ``ValueError``: every summary is strict JSON.
    """
    keys = keys or list(summary)
    summary = {"schema_version": 1, **summary}
    document = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    (_out_dir(ctx) / filename).write_text(document + "\n")
    if ctx.obj["fmt"] == "json":
        click.echo(document)
        return
    click.echo(",".join(f"{k}={summary[k]}" for k in keys if k in summary))


@main.command()
@click.argument("mesh_spec")
@click.pass_context
def mesh(ctx: click.Context, mesh_spec: str) -> None:
    """Build a mesh from MESH_SPEC and write it as CSV.

    MESH_SPEC is ``uniform:a,b,n``, ``geometric:t0,h0,r,m`` or
    ``equiarc:curve,a,b,n``, optionally followed by ``+insert:beta``.
    """
    built = parse_mesh_spec(mesh_spec)
    out = _out_dir(ctx)
    write_mesh_csv(built, out / "mesh.csv")
    summary = {
        "n_points": built.n_points,
        "a": built.a,
        "b": built.b,
        "uniform": built.is_uniform(),
        "max_step": float(built.steps.max()),
        "min_step": float(built.steps.min()),
    }
    _emit(ctx, "mesh_summary.json", summary)


@main.command()
@click.option("--mesh", "mesh_spec", required=True, help="Mesh spec string.")
@click.option("--function", "function_spec", required=True, help="Function spec string.")
@click.option("--op", "operator_spec", required=True, help="Operator: d+, d-, c, d2 or 'outer inner'.")
@click.option("--order", type=int, default=None, help="Derivative order to compare against.")
@click.pass_context
def diff(ctx, mesh_spec: str, function_spec: str, operator_spec: str, order: int | None) -> None:
    """Evaluate an operator on a sampled function and compare to the exact derivative."""
    built = parse_mesh_spec(mesh_spec)
    f = parse_function_spec(function_spec)
    op = parse_operator(operator_spec)
    summary = presets.run_custom(built, f, op, order, out_dir=_out_dir(ctx))
    _emit(ctx, "diff_summary.json", summary, presets._SGEI_KEYS)


@main.command()
@click.option("--spec", "operator_spec", required=True, help="Second difference: an ordered pair, e.g. 'd+ d+', or d2.")
@click.option("--mesh", "mesh_spec", default=None, help="Mesh spec string.")
@click.option("--k", "index", type=int, default=None, help="Mesh index for the report.")
@click.option("--alpha", "alpha_spec", default=None, help="Constant step ratio instead of a mesh.")
@click.pass_context
def consistency(ctx, operator_spec: str, mesh_spec: str | None, index: int | None, alpha_spec: str | None) -> None:
    """Report the leading expansion coefficients of a second difference."""
    op = parse_operator(operator_spec)
    if derivative_order(op) != 2:
        raise SpecError(f"consistency reports need a second difference, got {operator_spec!r}")
    if alpha_spec is not None and mesh_spec is None and index is None:
        alpha = parse_number(alpha_spec)
        coefficient = analysis.geometric_consistency(op, alpha)
        summary = {
            "spec": str(op),
            "alpha": alpha,
            "leading_coefficient": coefficient,
            "consistent": abs(coefficient - 1.0) <= analysis.CONSISTENCY_TOL,
        }
    elif alpha_spec is None and mesh_spec is not None and index is not None:
        report = analysis.consistency_report_at(op, parse_mesh_spec(mesh_spec), index)
        summary = {
            "spec": str(report.spec),
            "k": report.index,
            "leading_coefficient": report.leading_coefficient,
            "fppp_coefficient": report.fppp_coefficient,
            "consistent": report.consistent,
            "bracket": list(report.remainder_bracket),
        }
    else:
        raise SpecError("provide either --alpha or both --mesh and --k")
    _emit(ctx, "consistency.json", summary)


@main.command()
@click.option("--op", "operator_spec", required=True, help="Operator to study.")
@click.option("--function", "function_spec", required=True, help="Function spec string.")
@click.option("--mesh", "mesh_specs", multiple=True, help="Mesh spec, repeat 3+ times coarse to fine.")
@click.option("--target-order", type=click.IntRange(1, 2), default=None,
              help="Derivative order to compare against (defaults to the operator's).")
@click.pass_context
def order(ctx, operator_spec: str, function_spec: str, mesh_specs: tuple[str, ...], target_order: int | None) -> None:
    """Empirical order of accuracy from a family of shrinking meshes."""
    op = parse_operator(operator_spec)
    f = parse_function_spec(function_spec)
    family = [parse_mesh_spec(s) for s in mesh_specs]
    estimate = analysis.empirical_order(op, f, family, target_order or derivative_order(op))
    out = _out_dir(ctx)
    slope = f"# slope={estimate.slope:{FLOAT_FORMAT}}"
    _write_tables([(out / "order.csv", "h_max,sgei", tuple(zip(*estimate.sample_points)), (slope,))])
    summary = {
        "operator": str(op),
        "function": f.label,
        "slope": estimate.slope,
        "intercept": estimate.intercept,
        "sample_points": [[h, e] for h, e in estimate.sample_points],
    }
    _emit(ctx, "order_summary.json", summary, ["operator", "slope"])


@main.command()
@click.option("--kappa", "kappa_spec", default="4pi^2", show_default=True, help="Stiffness constant.")
@click.option("--mesh", "mesh_spec", required=True, help="Mesh spec string.")
@click.option("--operator", "operator_spec", default="d- d+", show_default=True,
              help="'d- d+', 'd+ d-' or 'd2'.")
@click.option("--initial-value", type=float, default=1.0, show_default=True)
@click.option("--initial-slope", type=float, default=-1.0, show_default=True)
@click.pass_context
def oscillator(ctx, kappa_spec: str, mesh_spec: str, operator_spec: str,
               initial_value: float, initial_slope: float) -> None:
    """March the oscillator difference equation and compare to the exact motion."""
    kappa = parse_number(kappa_spec)
    op = parse_operator(operator_spec)
    problem = ivp.IvpProblem(
        kappa=kappa,
        mesh=parse_mesh_spec(mesh_spec),
        operator=op,
        initial_value=initial_value,
        initial_slope=initial_slope,
    )
    summary = {
        "kappa": kappa,
        "operator": str(op),
        "initial_value": initial_value,
        "initial_slope": initial_slope,
        **presets.run_oscillator(problem, _out_dir(ctx) / "oscillator.csv"),
    }
    _emit(ctx, "oscillator_summary.json", summary, presets._SGEI_KEYS)


@main.command()
@click.argument("name", type=click.Choice(presets.PRESET_NAMES))
@click.pass_context
def preset(ctx, name: str) -> None:
    """Run one canned experiment and write its CSV outputs plus a JSON summary."""
    summary = presets.run_preset(name, _out_dir(ctx), ctx.obj["beta"])
    keys = ["schema_version", *(k for k, v in summary.items() if not isinstance(v, list))]
    _emit(ctx, f"{name}_summary.json", summary, keys)


if __name__ == "__main__":
    main()
