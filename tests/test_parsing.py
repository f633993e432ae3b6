import math

import numpy as np
import pytest

from nufd import ALL_SECOND_SPECS, D2_CORRECTED, FirstDiffKind, SecondDiffSpec
from nufd.parsing import (
    SpecError,
    parse_function_spec,
    parse_mesh_spec,
    parse_number,
    parse_operator,
)


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.5", 0.5),
            ("-1", -1.0),
            ("+2", 2.0),
            ("50/59", 50 / 59),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("4pi", 4 * math.pi),
            ("4pi^2", 4 * math.pi**2),
            ("2pi/3", 2 * math.pi / 3),
            ("1e-3", 1e-3),
            ("1/10", 0.1),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_number(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("bad", ["", "abc", "1..2", "pi^", "1/0", "--3"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(SpecError):
            parse_number(bad)

    def test_error_carries_position(self):
        with pytest.raises(SpecError, match="column"):
            parse_number("1/oops")

    def test_overflowing_pi_power_is_named(self):
        with pytest.raises(SpecError, match=r"^number 'pi\^1000' in 'pi\^1000' \(column 1\) overflows a float$"):
            parse_number("pi^1000")
        with pytest.raises(SpecError, match=r"'2pi\^700' in 'uniform:0,2pi\^700,5' \(column 11\)"):
            parse_mesh_spec("uniform:0,2pi^700,5")
        with pytest.raises(SpecError, match=r"overflows a float$"):
            parse_number("pi^" + "9" * 5000)  # more digits than int() converts
        assert parse_number("1e400") == math.inf  # a float literal's own overflow stays inf


class TestParseFunctionSpec:
    def test_sinusoid(self):
        f = parse_function_spec("sinusoid:amplitude=-1,frequency=4pi")
        assert f.evaluate(0, 0.125) == pytest.approx(-math.sin(math.pi / 2), abs=1e-12)
        assert f.evaluate(1, 0.0) == pytest.approx(-4 * math.pi, rel=1e-13)

    def test_polynomial(self):
        f = parse_function_spec("poly:c2=1")
        assert f.evaluate(2, 10.0) == 2.0

    def test_oscillator(self):
        f = parse_function_spec("oscillator:kappa=4pi^2")
        assert f.evaluate(0, 0.0) == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown function"):
            parse_function_spec("wavelet:a=1")

    def test_bad_parameter(self):
        with pytest.raises(SpecError):
            parse_function_spec("sinusoid:amp=1")
        with pytest.raises(SpecError, match="key=value"):
            parse_function_spec("sinusoid:amplitude")

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "sinusoid:wavelength=2",
                "bad parameters in 'sinusoid:wavelength=2': unknown parameter(s) ['wavelength'] "
                "for 'sinusoid'; allowed: ['amplitude', 'frequency', 'phase']",
            ),
            ("poly:q3=1", "bad parameters in 'poly:q3=1': unknown polynomial parameter 'q3'; use c0..c5"),
            ("poly:c7=1", "bad parameters in 'poly:c7=1': polynomial power 7 above the supported degree 5"),
            ("oscillator", "bad parameters in 'oscillator': 'oscillator' needs the parameter kappa"),
        ],
    )
    def test_bad_parameter_message(self, text, message):
        with pytest.raises(SpecError) as info:
            parse_function_spec(text)
        assert str(info.value) == message


class TestParseMeshSpec:
    def test_uniform(self):
        m = parse_mesh_spec("uniform:0,1,23")
        assert m.n_points == 23 and m.is_uniform()

    def test_geometric_with_fraction(self):
        m = parse_mesh_spec("geometric:0,0.1,50/59,200")
        assert m.n_points == 202
        assert abs(m.b - 59 / 90) < 1e-12

    def test_equiarc_with_nested_function(self):
        m = parse_mesh_spec("equiarc:sinusoid:frequency=2pi,0,1,12")
        assert m.n_points == 12
        np.testing.assert_allclose(m.points[::-1], 1 - m.points, atol=1e-12)

    def test_insert_suffix(self):
        m = parse_mesh_spec("uniform:0,1,12+insert:0.5")
        assert m.n_points == 23 and m.is_uniform()
        nonuni = parse_mesh_spec("uniform:0,1,3+insert:0.7")
        np.testing.assert_allclose(nonuni.points, [0, 0.35, 0.5, 0.85, 1.0], atol=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            "uniform:0,1",
            "uniform:1,0,5",
            "uniform:0,1,5.5",
            "geometric:0,0.1,2",
            "spline:0,1,5",
            "uniform:0,1,5+insert:1.2",
            "uniform:0,1,5+insert:",
            "equiarc:poly:c1=1,0,1",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_mesh_spec(bad)


class TestMeshSizeCap:
    """Specs beyond MAX_SPEC_POINTS = 10**7 points fail before any allocation."""

    @pytest.fixture(autouse=True)
    def builders_must_not_run(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("allocation reached")

        for name in ("build_uniform", "build_geometric", "refine_insert"):
            monkeypatch.setattr(f"nufd.mesh.{name}", reached)

    @pytest.mark.parametrize(
        "spec",
        [
            "uniform:0,1,1e10",
            "uniform:0,1,10000001",
            "geometric:0,1e-9,1,1e7",
            "uniform:0,1,5000001+insert:0.5",
            "geometric:0,1e-9,1,4999999+insert:0.5",
            "uniform:0,1,1e400",
        ],
    )
    def test_rejected_before_allocation(self, spec):
        with pytest.raises(SpecError, match="limit is 10000000|must be an integer"):
            parse_mesh_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        ["uniform:0,1,10000000", "geometric:0,1e-9,1,9999998", "uniform:0,1,5000000+insert:0.5"],
    )
    def test_the_limit_itself_is_accepted(self, spec):
        with pytest.raises(AssertionError, match="allocation reached"):
            parse_mesh_spec(spec)


# Each malformed operator spec with its exact message.
_MALFORMED_OPERATORS = {
    "dd": "unknown operator 'dd' (column 1); use d+, d-, c, d2 or a pair like 'd+ d-'",
    "d+ d- c": "operator spec 'd+ d- c' must be one name or an ordered pair",
    "d+ q": "unknown difference 'q' in 'd+ q' (column 4)",
    "d2 d2": "unknown difference 'd2' in 'd2 d2' (column 1)",
    "c  d2": "unknown difference 'd2' in 'c  d2' (column 4)",
    "": "operator spec '' must be one name or an ordered pair",
}


class TestParseOperator:
    def test_first_differences(self):
        assert parse_operator("d+") is FirstDiffKind.FORWARD
        assert parse_operator("d-") is FirstDiffKind.BACKWARD
        assert parse_operator("c") is FirstDiffKind.CENTRAL

    def test_corrected(self):
        assert parse_operator("d2") == D2_CORRECTED

    def test_pair_outer_first(self):
        spec = parse_operator("d+ d-")
        assert spec == SecondDiffSpec(FirstDiffKind.FORWARD, FirstDiffKind.BACKWARD)

    def test_every_operator_parses_from_its_printed_name(self):
        for op in (*FirstDiffKind, *ALL_SECOND_SPECS, D2_CORRECTED):
            assert parse_operator(str(op)) == op
            assert parse_operator("  " + "\t ".join(str(op).split()) + " ") == op

    @pytest.mark.parametrize("bad", list(_MALFORMED_OPERATORS))
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecError) as info:
            parse_operator(bad)
        assert str(info.value) == _MALFORMED_OPERATORS[bad]
