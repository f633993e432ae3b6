import json

import numpy as np
import pytest
from click.testing import CliRunner

from nufd.cli import main
from nufd.mesh import read_mesh_csv


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


class TestMeshCommand:
    def test_writes_round_trippable_csv(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "mesh", "geometric:0,0.1,50/59,10")
        assert result.exit_code == 0, result.output
        m = read_mesh_csv(tmp_path / "mesh.csv")
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

    def test_needs_pair(self, runner, tmp_path):
        result = run(runner, "--out", tmp_path, "consistency", "--spec", "d+", "--alpha", 2.0)
        assert result.exit_code != 0


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

    def test_diverging_march_is_reported(self, runner, tmp_path):
        result = run(
            runner, "--out", tmp_path, "oscillator",
            "--kappa", "1e6", "--mesh", "uniform:0,50,101",
        )
        assert result.exit_code != 0
        assert "the march diverged" in result.output


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
