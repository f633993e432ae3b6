"""Command-line front end: mesh builders, operators, metrics, convergence
studies and the canned experiments.

All data files are CSV with full-precision floats; summaries are written
as JSON (schema_version 1) and echoed on stdout either as a compact
``key=value`` line or, with ``--format json``, verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path

import click

from . import analysis, ivp, presets
from .diffops import SecondDiffSpec, WindowError, derivative_order
from .mesh import FLOAT_FORMAT, _write_columns, write_mesh_csv
from .metrics import classify
from .parsing import SpecError, parse_function_spec, parse_mesh_spec, parse_number, parse_operator

_ERRORS = (SpecError, WindowError, ValueError)


class _Group(click.Group):
    """Reports any of ``_ERRORS`` raised by a command as a clean CLI error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _ERRORS as exc:
            raise click.ClickException(str(exc)) from exc


def _write_json(document: dict, target: Path) -> None:
    target.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")


def _echo_summary(document: dict, fmt: str, keys: list[str] | None = None) -> None:
    if fmt == "json":
        click.echo(json.dumps(document, sort_keys=True, indent=2))
        return
    keys = keys or [k for k in document if k not in ("schema_version",)]
    click.echo(",".join(f"{k}={document[k]}" for k in keys if k in document))


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
        "schema_version": 1,
        "n_points": built.n_points,
        "a": built.a,
        "b": built.b,
        "uniform": built.is_uniform(),
        "max_step": float(built.steps.max()),
        "min_step": float(built.steps.min()),
    }
    _write_json(summary, out / "mesh_summary.json")
    _echo_summary(summary, ctx.obj["fmt"])


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
    summary = presets.run_custom(built, f, op, order, _out_dir(ctx))
    _write_json(summary, _out_dir(ctx) / "diff_summary.json")
    _echo_summary(summary, ctx.obj["fmt"], ["sgei", "argmax_t", "classification"])


@main.command()
@click.option("--spec", "operator_spec", required=True, help="Ordered pair, e.g. 'd+ d+'.")
@click.option("--mesh", "mesh_spec", default=None, help="Mesh spec string.")
@click.option("--k", "index", type=int, default=None, help="Mesh index for the report.")
@click.option("--alpha", "alpha_spec", default=None, help="Constant step ratio instead of a mesh.")
@click.pass_context
def consistency(ctx, operator_spec: str, mesh_spec: str | None, index: int | None, alpha_spec: str | None) -> None:
    """Report the leading expansion coefficients of an operator pair."""
    op = parse_operator(operator_spec)
    if not isinstance(op, SecondDiffSpec):
        raise SpecError(f"consistency reports need an ordered pair, got {operator_spec!r}")
    if alpha_spec is not None:
        alpha = parse_number(alpha_spec)
        coefficient = analysis.geometric_consistency(op, alpha)
        summary = {
            "schema_version": 1,
            "spec": str(op),
            "alpha": alpha,
            "leading_coefficient": coefficient,
            "consistent": abs(coefficient - 1.0) <= analysis.CONSISTENCY_TOL,
        }
    else:
        if mesh_spec is None or index is None:
            raise SpecError("provide either --alpha or both --mesh and --k")
        report = analysis.consistency_report_at(op, parse_mesh_spec(mesh_spec), index)
        summary = {
            "schema_version": 1,
            "spec": str(report.spec),
            "k": report.index,
            "leading_coefficient": report.leading_coefficient,
            "fppp_coefficient": report.fppp_coefficient,
            "consistent": report.consistent,
            "bracket": list(report.remainder_bracket),
        }
    _write_json(summary, _out_dir(ctx) / "consistency.json")
    _echo_summary(summary, ctx.obj["fmt"])


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
    _write_columns(out / "order.csv", "h_max,sgei", tuple(zip(*estimate.sample_points)), footer=(slope,))
    summary = {
        "schema_version": 1,
        "operator": str(op),
        "function": f.label,
        "slope": estimate.slope,
        "intercept": estimate.intercept,
        "sample_points": [[h, e] for h, e in estimate.sample_points],
    }
    _write_json(summary, out / "order_summary.json")
    _echo_summary(summary, ctx.obj["fmt"], ["operator", "slope"])


@main.command()
@click.option("--kappa", "kappa_spec", default="4pi^2", show_default=True, help="Stiffness constant.")
@click.option("--mesh", "mesh_spec", required=True, help="Mesh spec string.")
@click.option("--operator", "operator_spec", default="d- d+", show_default=True,
              help="'d- d+' or 'd2'.")
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
    solution = ivp.solve(problem)
    out = _out_dir(ctx)
    summary = {
        "schema_version": 1,
        "kappa": kappa,
        "operator": str(op),
        "initial_value": initial_value,
        "initial_slope": initial_slope,
    }
    if solution.sld is None:
        summary.update(sgei=None, argmax_t=None, classification=None)
        presets.write_grid_csv(solution.w, out / "oscillator.csv")
    else:
        presets.write_oscillator_csv(solution, out / "oscillator.csv")
        summary.update(
            sgei=solution.sld.sgei,
            argmax_t=solution.sld.argmax_t,
            classification=classify(solution.sld.sgei),
        )
    _write_json(summary, out / "oscillator_summary.json")
    _echo_summary(summary, ctx.obj["fmt"], ["sgei", "argmax_t", "classification"])


@main.command()
@click.argument("name", type=click.Choice(presets.PRESET_NAMES))
@click.pass_context
def preset(ctx, name: str) -> None:
    """Run one canned experiment and write its CSV outputs plus a JSON summary."""
    resolved = presets.resolve_preset(name, beta=ctx.obj["beta"])
    summary = presets.run_preset(resolved, _out_dir(ctx))
    _write_json(summary, _out_dir(ctx) / f"{name}_summary.json")
    echo_keys = [k for k, v in summary.items() if not isinstance(v, list)]
    _echo_summary(summary, ctx.obj["fmt"], echo_keys)


if __name__ == "__main__":
    main()
