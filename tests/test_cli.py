import json
import math
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nufd import (
    FirstDiffKind,
    MeshError,
    SecondDiffSpec,
    apply_operator,
    build_equiarclength,
    build_geometric,
    build_uniform,
    make_sinusoid,
    presets,
    refine_insert,
    sample,
    scaled_local_difference,
)
from nufd.cli import _emit, main
from nufd.diffops import derivative_order
from nufd.mesh import _BLOCK_ROWS

from helpers import float_bits, read_mesh_points, reference_columns_csv


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


class TestMeshCommand:
    def test_writes_round_trippable_csv(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "mesh", "geometric:0,0.1,50/59,10")
        assert result.exit_code == 0, result.output
        m = read_mesh_points(tmp_path / "mesh.csv")
        assert m.n_points == 12
        summary = json.loads((tmp_path / "mesh_summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["uniform"] is False

    def test_bad_spec_fails_with_nonzero_exit(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "mesh", "uniform:1,0,5")
        assert result.exit_code != 0
        assert "uniform" in result.output


class TestDiffCommand:
    def test_central_difference_study(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "diff",
            "--mesh", "uniform:0,1,23",
            "--function", "sinusoid:amplitude=-1,frequency=4pi",
            "--op", "c",
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "diff_summary.json").read_text())
        assert summary["sgei"] == pytest.approx(0.0535, abs=0.003)
        assert summary["classification"] == "acceptable"
        assert summary["derivative_order"] == 1
        sld_lines = (tmp_path / "diff_sld.csv").read_text().splitlines()
        assert sld_lines[0] == "k,t,reference,approx,sld"
        assert sld_lines[-1].startswith("# sgei=")

    def test_corrected_stencil_on_quadratic(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "diff",
            "--mesh", "geometric:0,0.1,1.3,8",
            "--function", "poly:c2=1",
            "--op", "d2",
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "diff_summary.json").read_text())
        assert summary["sgei"] == pytest.approx(0.0, abs=1e-12)

    def test_window_too_small_is_a_clean_error(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "diff",
            "--mesh", "uniform:0,1,2",
            "--function", "poly:c1=1",
            "--op", "c",
        )
        assert result.exit_code != 0
        assert "at least 3" in result.output

    @pytest.mark.parametrize("spec,named", [
        ("poly:c1=1e400", "poly(0,inf): the coefficients are not all finite"),
        ("sinusoid:amplitude=1,frequency=1,phase=1e400",
         "sinusoid(amplitude=1,frequency=1,phase=inf): the phase inf is not finite"),
    ])
    def test_a_function_parameter_that_is_not_finite_is_named(self, runner, tmp_path, spec, named):
        result = run(runner, "--out", tmp_path, "diff", "--mesh", "uniform:0,1,11", "--function", spec, "--op", "d+")
        assert result.exit_code == 1
        assert named in result.output

    def test_a_polynomial_whose_derivative_tables_overflow_still_differences(self, runner, tmp_path):
        # 20 * 1e307 overflows in the second derivative's table; d+ compares against the first
        result = run(runner, "--out", tmp_path, "diff", "--mesh", "uniform:0,1,11",
                     "--function", "poly:c5=1e307", "--op", "d+")
        assert result.exit_code == 0
        assert result.output.startswith("sgei=0.248")

    def test_a_polynomial_order_whose_derivative_table_overflowed_is_named(self, runner, tmp_path):
        # d+ d+ compares against the second derivative, whose table holds 20 * 1e307 = inf
        result = run(runner, "--out", tmp_path, "diff", "--mesh", "uniform:0,1,11",
                     "--function", "poly:c5=1e307", "--op", "d+ d+")
        assert result.exit_code == 1
        assert "poly(0,0,0,0,0,1e+307): a coefficient of its order-2 derivative is not finite" in result.output

    def test_reproduces_the_ex5_2_uniform_files(self, runner, tmp_path):
        preset, diff = tmp_path / "preset", tmp_path / "diff"
        assert run(runner, "--out", preset, "preset", "ex5_2").exit_code == 0
        result = run(
            runner, "--out", diff, "diff",
            "--mesh", "uniform:0,1,12+insert:0.5",
            "--function", "sinusoid:amplitude=-1,frequency=4pi",
            "--op", "d+ d+",
        )
        assert result.exit_code == 0, result.output
        for kind in ("grid", "sld"):
            assert (diff / f"diff_{kind}.csv").read_bytes() == (preset / f"ex5_2_uniform_{kind}.csv").read_bytes()


    @pytest.mark.parametrize("spec", ["c c", "d+"])
    def test_a_window_of_several_blocks_matches_the_per_cell_oracle(self, runner, tmp_path, spec):
        # 8,399 points: both windows span more than two of the writer's row blocks.
        result = run(
            runner, "--out", tmp_path, "diff",
            "--mesh", "uniform:0,1,4200+insert:0.3",
            "--function", "sinusoid:amplitude=-1,frequency=4pi",
            "--op", spec,
        )
        assert result.exit_code == 0, result.output
        mesh = refine_insert(build_uniform(0.0, 1.0, 4200), 0.3)
        f = make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        op = SecondDiffSpec(FirstDiffKind.CENTRAL, FirstDiffKind.CENTRAL) if spec == "c c" else FirstDiffKind.FORWARD
        approx = apply_operator(op, sample(f, 0, mesh))
        series = scaled_local_difference(sample(f, derivative_order(op), mesh), approx)
        assert len(series) > 2 * _BLOCK_ROWS
        summary = f"# sgei={format(series.sgei, '.17g')},argmax_t={format(series.argmax_t, '.17g')}"
        want = {
            "diff_grid.csv": reference_columns_csv("k,t,value", (approx.t, approx.values), approx.first_index),
            "diff_sld.csv": reference_columns_csv(
                "k,t,reference,approx,sld", (series.t, series.reference, series.approx, series.sld),
                series.first_index, [summary],
            ),
        }
        for name, text in want.items():
            assert (tmp_path / name).read_text().split("\n") == text.split("\n")


class TestConsistencyCommand:
    def test_mesh_report(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "consistency",
            "--spec", "d+ d+", "--mesh", "geometric:0,0.1,2,5", "--k", 2,
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "consistency.json").read_text())
        assert doc["spec"] == "d+ d+"
        assert doc["k"] == 2
        assert doc["leading_coefficient"] == pytest.approx(1.5, rel=1e-12)
        assert doc["consistent"] is False
        assert len(doc["bracket"]) == 2

    def test_alpha_report(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "consistency",
            "--spec", "c d-", "--alpha", 2.0,
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "consistency.json").read_text())
        assert doc["leading_coefficient"] == pytest.approx(0.75, rel=1e-12)

    def test_d2_is_consistent_on_the_paper_mesh(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "consistency",
            "--spec", "d2", "--mesh", "geometric:0,0.1,50/59,200", "--k", 100,
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "consistency.json").read_text())
        assert doc["spec"] == "d2"
        assert doc["leading_coefficient"] == pytest.approx(1.0, rel=1e-12)
        assert doc["consistent"] is True

    def test_d2_is_consistent_at_any_ratio(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "consistency", "--spec", "d2", "--alpha", 2.0)
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "consistency.json").read_text())
        assert doc["leading_coefficient"] == pytest.approx(1.0, rel=1e-12)

    def test_needs_pair(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "consistency", "--spec", "d+", "--alpha", 2.0)
        assert result.exit_code != 0

    def test_overflowing_alpha_is_a_clean_error(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "consistency", "--spec", "d+ d+", "--alpha", "1e200")
        assert result.exit_code == 1
        assert "alpha" in result.output

    @pytest.mark.parametrize("extra", [("--mesh", "uniform:0,1,9", "--k", 4), ("--mesh", "uniform:0,1,9"), ("--k", 4)])
    def test_alpha_with_a_mesh_or_an_index_is_rejected(self, runner, tmp_path, extra):
        result = run(runner, "--out", tmp_path, "consistency", "--spec", "d+ d+", "--alpha", 2, *extra)
        assert result.exit_code == 1
        assert "provide either --alpha or both --mesh and --k" in result.output
        assert not (tmp_path / "consistency.json").exists()

    def test_a_nan_coefficient_is_not_written_as_json(self, runner, tmp_path):
        # subnormal steps: the weights overflow while the powers of the offsets underflow, and inf * 0 is NaN
        result = run(runner, "--out", tmp_path, "consistency", "--spec", "d+ d+", "--mesh", "uniform:0,1e-310,9", "--k", 4)
        assert result.exit_code == 1
        assert "Error: cannot expand 'd+ d+' at index 4 in float64" in result.output
        assert not (tmp_path / "consistency.json").exists()

    @pytest.mark.parametrize("args,named", [
        (("--spec", "d+ d+", "--mesh", "uniform:0,1e200,9", "--k", 3), "'d+ d+' at index 3"),
        (("--spec", "d+ d+", "--alpha", "1e60"), "'d+ d+' at index 2"),
        (("--spec", "d+ d+", "--alpha", "1e-60"), "on the points [0.0, 1e-120, 1e-120]"),
        (("--spec", "d2", "--alpha", "1e-103"), "'d2' at index 2"),
    ], ids=["square-overflow", "cube-overflow", "collapsed-points", "nan-moment"])
    def test_steps_float64_cannot_expand_over_are_named(self, runner, tmp_path, args, named):
        result = run(runner, "--out", tmp_path, "consistency", *args)
        assert result.exit_code == 1
        assert result.output.startswith("Error: cannot expand ")
        assert named in result.output
        assert not (tmp_path / "consistency.json").exists()


class TestOrderCommand:
    def test_central_slope_near_two(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "order",
            "--op", "c",
            "--function", "sinusoid:amplitude=-1,frequency=4pi",
            "--mesh", "uniform:0,1,23",
            "--mesh", "uniform:0,1,45",
            "--mesh", "uniform:0,1,89",
            "--mesh", "uniform:0,1,177",
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "order_summary.json").read_text())
        assert 1.8 <= doc["slope"] <= 2.2
        lines = (tmp_path / "order.csv").read_text().splitlines()
        assert lines[0] == "h_max,sgei"
        assert len(lines) == 6
        assert lines[-1].startswith("# slope=")

    def test_an_exact_operator_is_a_clean_error(self, runner, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(
                runner, "--out", tmp_path, "order", "--op", "c", "--function", "poly:c1=1",
                "--mesh", "uniform:0,1,11", "--mesh", "uniform:0,1,21", "--mesh", "uniform:0,1,41",
            )
        assert result.exit_code == 1
        assert "sgei is exactly 0 on mesh 0 of the family" in result.output
        assert not (tmp_path / "order_summary.json").exists()
        assert caught == []


class TestOscillatorCommand:
    def test_uniform_run(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--mesh", "uniform:0,59/90,11",
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "oscillator_summary.json").read_text())
        assert doc["sgei"] == pytest.approx(0.1945, abs=0.02)
        lines = (tmp_path / "oscillator.csv").read_text().splitlines()
        assert lines[0] == "k,t,w,exact,sld"
        assert len(lines) == 13  # 11 rows + header + summary comment

    def test_corrected_operator(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--mesh", "geometric:0,0.1,50/59,200", "--operator", "d2",
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "oscillator_summary.json").read_text())
        assert doc["operator"] == "d2"

    def test_unsupported_operator(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--mesh", "uniform:0,1,11", "--operator", "d+ d+",
        )
        assert result.exit_code != 0
        assert "cannot march 'd+ d+'" in result.output

    def test_forward_backward_operator(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "oscillator", "--mesh", "uniform:0,59/90,11", "--operator", "d+ d-")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "oscillator_summary.json").read_text())
        assert doc["operator"] == "d+ d-"
        assert doc["sgei"] == pytest.approx(0.1945, abs=0.02)

    def test_unstable_march_on_a_geometric_mesh_is_reported(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "oscillator", "--kappa", "1e6", "--mesh", "geometric:0,0.1,1.01,10")
        assert result.exit_code == 1
        assert "the march is unstable" in result.output
        assert "k = 1, t = 0.1" in result.output

    def test_stable_march_with_overflowing_derivative_bounds(self, runner, tmp_path):
        # kappa*h**2 = 1 while sqrt(kappa)**5 overflows; the march needs only the motion itself
        result = run(runner, "--out", tmp_path, "oscillator", "--kappa", "1e124", "--mesh", "uniform:0,1e-61,11")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "oscillator_summary.json").read_text())
        assert doc["classification"] == "acceptable"
        assert len((tmp_path / "oscillator.csv").read_text().splitlines()) == 13

    def test_diverging_march_is_reported(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--kappa", "1e6", "--mesh", "uniform:0,50,101",
        )
        assert result.exit_code != 0
        assert "the march diverged" in result.output

    def test_a_stable_march_that_overflows_blames_the_data(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--mesh", "uniform:0,1,5", "--initial-value", "1e308", "--initial-slope", "1e308",
        )
        assert result.exit_code == 1
        assert "within the stability limit 4, so the data overflowed float64" in result.output

    def test_finite_unstable_march_is_reported(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--kappa", "1e6", "--mesh", "uniform:0,1,11",
        )
        assert result.exit_code == 1
        assert "kappa*h**2" in result.output
        assert not (tmp_path / "oscillator.csv").exists()

    def test_zero_data_writes_the_march_alone(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--mesh", "uniform:0,1,11", "--initial-value", 0, "--initial-slope", 0,
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "oscillator.csv").read_text().splitlines()
        assert lines[0] == "k,t,value"
        assert len(lines) == 12
        assert all(float(line.split(",")[2]) == 0.0 for line in lines[1:])
        doc = json.loads((tmp_path / "oscillator_summary.json").read_text())
        assert doc["sgei"] is None


class TestSummaryContract:
    COMMANDS = {
        "mesh": (("mesh", "uniform:0,1,5"), "mesh_summary.json", "n_points=5,"),
        "diff": (("diff", "--mesh", "uniform:0,1,11", "--function", "poly:c2=1", "--op", "c"),
                 "diff_summary.json", "sgei="),
        "consistency": (("consistency", "--spec", "d+ d+", "--alpha", 2), "consistency.json", "spec=d+ d+,"),
        "order": (("order", "--op", "c", "--function", "sinusoid:frequency=4pi", "--mesh", "uniform:0,1,23",
                   "--mesh", "uniform:0,1,45", "--mesh", "uniform:0,1,89"), "order_summary.json", "operator=c,"),
        "oscillator": (("oscillator", "--mesh", "uniform:0,1,11"), "oscillator_summary.json", "sgei="),
        "preset": (("preset", "fig5_1"), "fig5_1_summary.json", "schema_version=1,preset=fig5_1,beta=0.7"),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_summary_is_stamped_once_with_its_schema(self, runner, tmp_path, command):
        args, filename, echo = self.COMMANDS[command]
        result = run(runner, "--out", tmp_path, *args)
        assert result.exit_code == 0, result.output
        text = (tmp_path / filename).read_text()
        assert text.count('"schema_version"') == 1
        assert json.loads(text)["schema_version"] == 1
        assert result.output.startswith(echo)
        assert ("schema_version" in result.output) == (command == "preset")

    def test_a_nan_value_is_refused_before_the_file_is_written(self, tmp_path):
        ctx = click.Context(main, obj={"out": tmp_path, "fmt": "csv"})
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit(ctx, "nan.json", {"value": math.nan})
        assert not (tmp_path / "nan.json").exists()

    @pytest.mark.parametrize("args", [
        ("mesh", "geometric:0,1,10,400"),
        ("mesh", "uniform:-1e308,1e308,5"),
        ("diff", "--mesh", "uniform:1e300,2e300,5", "--function", "sinusoid:frequency=1e10", "--op", "c"),
    ])
    def test_overflow_ends_in_a_named_error_without_numpy_warnings(self, runner, tmp_path, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(runner, "--out", tmp_path, *args)
        assert result.exit_code == 1
        assert "must all be finite" in result.output
        assert caught == []


class TestPresets:
    def test_ex5_1_summary(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "preset", "ex5_1")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "ex5_1_summary.json").read_text())
        assert doc["sgei_uniform"] == pytest.approx(0.0535, abs=0.003)
        assert doc["classification_uniform"] == "acceptable"
        assert doc["sgei_nonuniform"] > doc["sgei_uniform"]
        for variant in ("uniform", "nonuniform"):
            assert (tmp_path / f"ex5_1_{variant}_grid.csv").exists()
            assert (tmp_path / f"ex5_1_{variant}_sld.csv").exists()

    def test_ex5_4_summary(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "preset", "ex5_4")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "ex5_4_summary.json").read_text())
        assert doc["sgei_uniform"] == pytest.approx(0.1031, abs=0.005)
        assert "classification_nonuniform" in doc

    def test_ex5_5_summary(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "preset", "ex5_5")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "ex5_5_summary.json").read_text())
        assert doc["sgei_uniform"] == pytest.approx(0.1945, abs=0.02)
        assert doc["h_uniform"] == pytest.approx(59 / 900, rel=1e-10)

    def test_fig5_1_summary(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "preset", "fig5_1")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "fig5_1_summary.json").read_text())
        assert len(doc["steps_uniform"]) == 22
        assert len(doc["steps_nonuniform"]) == 22
        assert len(doc["ratios_uniform"]) == 21
        np.testing.assert_allclose(doc["ratios_uniform"], 1.0, rtol=1e-12)
        assert all(0 < r < 10 for r in doc["ratios_nonuniform"])

    def test_beta_flag_changes_the_nonuniform_mesh(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(runner, "--out", a, "--beta", "0.6", "preset", "ex5_1").exit_code == 0
        assert run(runner, "--out", b, "--beta", "0.8", "preset", "ex5_1").exit_code == 0
        da = json.loads((a / "ex5_1_summary.json").read_text())
        db = json.loads((b / "ex5_1_summary.json").read_text())
        assert da["sgei_nonuniform"] != db["sgei_nonuniform"]

    def test_runs_are_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(runner, "--out", out, "preset", "ex5_2").exit_code == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_json_format_echoes_the_summary(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "--format", "json", "preset", "ex5_1")
        assert result.exit_code == 0
        echoed = json.loads(result.output)
        assert echoed["preset"] == "ex5_1"

    DERIVATIVE_KEYS = ["preset", "operator", "function", "beta",
                       "sgei_uniform", "argmax_t_uniform", "classification_uniform",
                       "sgei_nonuniform", "argmax_t_nonuniform", "classification_nonuniform"]
    KEYS = {
        "ex5_1": DERIVATIVE_KEYS,
        "ex5_2": DERIVATIVE_KEYS,
        "ex5_3": DERIVATIVE_KEYS,
        "ex5_4": DERIVATIVE_KEYS,
        "ex5_5": ["preset", "kappa", "operator", "b", "h_uniform",
                  "sgei_geometric", "argmax_t_geometric", "classification_geometric",
                  "sgei_uniform", "argmax_t_uniform", "classification_uniform"],
        "fig5_1": ["preset", "beta", "steps_uniform", "ratios_uniform", "steps_nonuniform", "ratios_nonuniform"],
    }

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_summary_keys_come_in_their_order(self, tmp_path, name):
        # the `nufd preset` echo line lists the keys in this order
        assert list(presets.run_preset(name, tmp_path)) == self.KEYS[name]

    def test_unknown_name_is_rejected_with_the_known_names(self, tmp_path):
        with pytest.raises(ValueError) as raised:
            presets.run_preset("nope", tmp_path)
        assert all(name in str(raised.value) for name in presets.PRESET_NAMES)

    @pytest.mark.parametrize("beta", ["0.7", "0.3"])
    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_each_preset_is_its_command_lines(self, runner, tmp_path, name, beta):
        preset = tmp_path / "preset"
        assert run(runner, "--out", preset, "--beta", beta, "preset", name).exit_code == 0
        for variant, args, files in preset_commands(name, beta):
            out = tmp_path / variant
            result = run(runner, "--out", out, *args)
            assert result.exit_code == 0, result.output
            for preset_file, command_file in files.items():
                assert (preset / preset_file).read_bytes() == (out / command_file).read_bytes(), preset_file
        if name == "ex5_5":
            b = json.loads((preset / "ex5_5_summary.json").read_text())["b"]
            assert f"uniform:0,{b!r},11" == PRESET_MESHES["ex5_5"]["uniform"]


# The command lines of each preset, as the README lists them: each variant's
# mesh spec, and the function and operator of the derivative presets.
# ``{beta}`` is the preset's --beta.
PRESET_MESHES = {
    "ex5_5": {"geometric": "geometric:0,0.1,50/59,200", "uniform": "uniform:0,0.6555555555555527,11"},
    "section5": {"uniform": "uniform:0,1,12+insert:0.5",
                 "nonuniform": "equiarc:sinusoid:frequency=2pi,0,1,12+insert:{beta}"},
}
PRESET_OPERATORS = {"ex5_1": "c", "ex5_2": "d+ d+", "ex5_3": "c d-", "ex5_4": "c c"}
STUDY_FUNCTION = "sinusoid:amplitude=-1,frequency=4pi"


def preset_commands(name: str, beta: str) -> list[tuple[str, list[str], dict[str, str]]]:
    """(variant, command line, {the preset's file: the command's file}) for each run of preset ``name``."""
    if name == "ex5_5":
        return [(variant, ["oscillator", "--kappa", "4pi^2", "--mesh", spec], {f"ex5_5_{variant}.csv": "oscillator.csv"})
                for variant, spec in PRESET_MESHES["ex5_5"].items()]
    meshes = [(variant, spec.format(beta=beta)) for variant, spec in PRESET_MESHES["section5"].items()]
    if name == "fig5_1":
        return [(variant, ["mesh", spec], {f"fig5_1_{variant}_mesh.csv": "mesh.csv"}) for variant, spec in meshes]
    return [(variant, ["diff", "--mesh", spec, "--function", STUDY_FUNCTION, "--op", PRESET_OPERATORS[name]],
             {f"{name}_{variant}_{table}.csv": f"diff_{table}.csv" for table in ("grid", "sld")})
            for variant, spec in meshes]


class TestPresetInputs:
    """Each preset input, built from its spec string, is bit for bit what the mesh builders and
    ``make_sinusoid`` give."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(0.7)
    @example(0.3)
    @example(5e-324)
    def test_nonuniform_mesh_is_the_refined_equiarc_base(self, beta):
        base = build_equiarclength(make_sinusoid(amplitude=1.0, frequency=2 * math.pi), 0.0, 1.0, 12)
        try:
            expected = refine_insert(base, beta)
        except MeshError as error:
            with pytest.raises(ValueError) as raised:
                presets.section5_nonuniform_mesh(beta)
            assert str(raised.value).endswith(str(error))
            return
        assert presets.section5_nonuniform_mesh(beta).points.tobytes() == expected.points.tobytes()

    def test_uniform_mesh(self):
        expected = refine_insert(build_uniform(0.0, 1.0, 12), 0.5)
        assert presets.section5_uniform_mesh().points.tobytes() == expected.points.tobytes()

    def test_oscillator_meshes_and_kappa(self):
        geometric, uniform = presets.oscillator_meshes()
        assert geometric.points.tobytes() == build_geometric(0.0, 0.1, 50 / 59, 200).points.tobytes()
        assert uniform.points.tobytes() == build_uniform(geometric.a, geometric.b, 11).points.tobytes()
        assert float_bits(presets.OSCILLATOR_KAPPA) == float_bits(4 * math.pi**2)

    def test_study_function(self):
        f, expected = presets.section5_function(), make_sinusoid(amplitude=-1.0, frequency=4 * math.pi)
        mesh = presets.section5_nonuniform_mesh()
        assert f.label == expected.label
        for order in range(6):
            assert sample(f, order, mesh).values.tobytes() == sample(expected, order, mesh).values.tobytes()
