import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nufd import ALL_SECOND_SPECS, D2_CORRECTED, FirstDiffKind, SecondDiffSpec
from nufd.parsing import (
    SpecError,
    parse_function_spec,
    parse_mesh_spec,
    parse_number,
    parse_operator,
)


# Each malformed number with its exact message.
_MALFORMED_NUMBERS = {
    " x": "could not parse number 'x' in ' x' (column 2)",
}


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

    @pytest.mark.parametrize("bad", list(_MALFORMED_NUMBERS))
    def test_message(self, bad):
        with pytest.raises(SpecError) as info:
            parse_number(bad)
        assert str(info.value) == _MALFORMED_NUMBERS[bad]

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


# Each malformed function spec with its exact message.
_MALFORMED_FUNCTIONS = [
    (
        "sinusoid:wavelength=2",
        "bad parameters in 'sinusoid:wavelength=2': unknown parameter(s) ['wavelength'] "
        "for 'sinusoid'; allowed: ['amplitude', 'frequency', 'phase']",
    ),
    ("poly:q3=1", "bad parameters in 'poly:q3=1': unknown polynomial parameter 'q3'; use c0..c5"),
    ("poly:c7=1", "bad parameters in 'poly:c7=1': polynomial power 7 above the supported degree 5"),
    ("oscillator", "bad parameters in 'oscillator': 'oscillator' needs the parameter kappa"),
    ("sinusoid:amplitude=1,amplitude=2",
     "repeated parameter 'amplitude' in 'sinusoid:amplitude=1,amplitude=2' (column 22)"),
    ("poly:c1=1,c1=3", "repeated parameter 'c1' in 'poly:c1=1,c1=3' (column 11)"),
    ("oscillator:kappa=1,kappa=x", "repeated parameter 'kappa' in 'oscillator:kappa=1,kappa=x' (column 20)"),
    ("wavelet:a=1", "unknown function 'wavelet' in 'wavelet:a=1' (column 1); known: oscillator, poly, sinusoid"),
    ("sinusoid:amplitude", "expected key=value but got 'amplitude' in 'sinusoid:amplitude' (column 10)"),
    ("sinusoid:amplitude=x", "could not parse number 'x' in 'sinusoid:amplitude=x' (column 20)"),
    # Columns count in the text as given, whitespace included.
    (" sinusoid:amplitude=x", "could not parse number 'x' in ' sinusoid:amplitude=x' (column 21)"),
    (
        "oscillator:kappa=4pi^2,x=1",
        "bad parameters in 'oscillator:kappa=4pi^2,x=1': unknown parameter(s) ['x'] for 'oscillator'; "
        "allowed: ['kappa']",
    ),
    # Several faults: the first in the order name, key=value, number,
    # unknown parameter, missing parameter is reported.
    ("wavelet:a", "unknown function 'wavelet' in 'wavelet:a' (column 1); known: oscillator, poly, sinusoid"),
    (
        "sinusoid:wavelength=2,amplitude",
        "expected key=value but got 'amplitude' in 'sinusoid:wavelength=2,amplitude' (column 23)",
    ),
    (
        "sinusoid:amplitude=1,frequency=x,wavelength=2",
        "could not parse number 'x' in 'sinusoid:amplitude=1,frequency=x,wavelength=2' (column 32)",
    ),
    (
        "oscillator:x=1",
        "bad parameters in 'oscillator:x=1': unknown parameter(s) ['x'] for 'oscillator'; allowed: ['kappa']",
    ),
    ("poly:c7=1,q3=1", "bad parameters in 'poly:c7=1,q3=1': polynomial power 7 above the supported degree 5"),
    # Columns point at a token's first non-blank character.
    ("sinusoid:amplitude= x", "could not parse number 'x' in 'sinusoid:amplitude= x' (column 21)"),
    ("sinusoid:amplitude=1, amplitude=2",
     "repeated parameter 'amplitude' in 'sinusoid:amplitude=1, amplitude=2' (column 23)"),
    ("sinusoid:amplitude=1, amp", "expected key=value but got 'amp' in 'sinusoid:amplitude=1, amp' (column 23)"),
    (" wavelet:a=1", "unknown function 'wavelet' in ' wavelet:a=1' (column 2); known: oscillator, poly, sinusoid"),
]


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

    @pytest.mark.parametrize("text,message", _MALFORMED_FUNCTIONS)
    def test_bad_parameter_message(self, text, message):
        with pytest.raises(SpecError) as info:
            parse_function_spec(text)
        assert str(info.value) == message


# Each malformed mesh spec with its exact message.  Where a spec has several
# faults, the one reported is the first in the order kind, equiarc split,
# arity, numbers left to right, the integer, the curve, +insert, the point
# cap and last the mesh builder.
_MALFORMED_MESHES = {
    "uniform:0,1": "'uniform' expects 3 comma-separated values, got 2 in 'uniform:0,1'",
    "uniform:1,0,5": "invalid mesh spec 'uniform:1,0,5': interval endpoints must satisfy b > a, got a=1.0, b=0.0",
    "uniform:0,1,5.5": "n_points must be an integer in 'uniform:0,1,5.5', got 5.5",
    "geometric:0,0.1,2": "'geometric' expects 4 comma-separated values, got 3 in 'geometric:0,0.1,2'",
    "spline:0,1,5": "unknown mesh kind 'spline' in 'spline:0,1,5' (column 1); known: uniform, geometric, equiarc",
    "uniform:0,1,5+insert:1.2":
        "invalid mesh spec 'uniform:0,1,5+insert:1.2': beta must lie strictly inside (0, 1), got 1.2",
    "uniform:0,1,5+insert:": "could not parse number '' in 'uniform:0,1,5+insert:' (column 22)",
    "equiarc:poly:c1=1,0,1":
        "'equiarc' expects curve,a,b,n_points but got 'poly:c1=1,0,1' in 'equiarc:poly:c1=1,0,1'",
    "geometric:0,0.1,1.1,2.5": "m must be an integer in 'geometric:0,0.1,1.1,2.5', got 2.5",
    "uniform:0,1,1e400": "n_points must be an integer in 'uniform:0,1,1e400', got inf",
    "uniform:0,1,10000001": "mesh spec 'uniform:0,1,10000001' asks for 10000001 points; the limit is 10000000",
    "uniform:0,1,5000001+insert:0.5":
        "mesh spec 'uniform:0,1,5000001+insert:0.5' asks for 10000001 points; the limit is 10000000",
    "uniform:0,1/0,5": "division by zero in 'uniform:0,1/0,5' (column 13)",
    "uniform:0,x,5": "could not parse number 'x' in 'uniform:0,x,5' (column 11)",
    # Columns count in the text as given, whitespace included.
    " uniform:0,x,5": "could not parse number 'x' in ' uniform:0,x,5' (column 12)",
    "uniform :0,x,5": "could not parse number 'x' in 'uniform :0,x,5' (column 12)",
    " uniform:0,1,5 +insert:x": "could not parse number 'x' in ' uniform:0,1,5 +insert:x' (column 24)",
    # Several faults: the first in the order above is reported.
    "spline:0,1": "unknown mesh kind 'spline' in 'spline:0,1' (column 1); known: uniform, geometric, equiarc",
    "equiarc:wavelet:a=1,0,x":
        "'equiarc' expects curve,a,b,n_points but got 'wavelet:a=1,0,x' in 'equiarc:wavelet:a=1,0,x'",
    "uniform:x,1": "'uniform' expects 3 comma-separated values, got 2 in 'uniform:x,1'",
    "geometric:0,0.1,2.5+insert:x":
        "'geometric' expects 4 comma-separated values, got 3 in 'geometric:0,0.1,2.5+insert:x'",
    "uniform:x,y,5.5": "could not parse number 'x' in 'uniform:x,y,5.5' (column 9)",
    "uniform:0,1,x+insert:2": "could not parse number 'x' in 'uniform:0,1,x+insert:2' (column 13)",
    "equiarc:wavelet:a=1,x,1,12": "could not parse number 'x' in 'equiarc:wavelet:a=1,x,1,12' (column 21)",
    "uniform:0,1,5.5+insert:2": "n_points must be an integer in 'uniform:0,1,5.5+insert:2', got 5.5",
    "equiarc:wavelet:a=1,0,1,12.5": "n_points must be an integer in 'equiarc:wavelet:a=1,0,1,12.5', got 12.5",
    "equiarc:wavelet:a=1,0,1,12+insert:x":
        "unknown function 'wavelet' in 'wavelet:a=1' (column 1); known: oscillator, poly, sinusoid",
    "equiarc:wavelet:a=1,0,1,20000000":
        "unknown function 'wavelet' in 'wavelet:a=1' (column 1); known: oscillator, poly, sinusoid",
    "uniform:0,1,20000000+insert:x": "could not parse number 'x' in 'uniform:0,1,20000000+insert:x' (column 29)",
    "uniform:1,0,20000000": "mesh spec 'uniform:1,0,20000000' asks for 20000000 points; the limit is 10000000",
    "uniform:1,0,5+insert:2":
        "invalid mesh spec 'uniform:1,0,5+insert:2': interval endpoints must satisfy b > a, got a=1.0, b=0.0",
    # Columns point at a token's first non-blank character.
    "uniform:0, x,5": "could not parse number 'x' in 'uniform:0, x,5' (column 12)",
    "uniform:0,1/ 0,5": "division by zero in 'uniform:0,1/ 0,5' (column 14)",
    "uniform:0,1,5+insert: x": "could not parse number 'x' in 'uniform:0,1,5+insert: x' (column 23)",
    " spline:0,1,5": "unknown mesh kind 'spline' in ' spline:0,1,5' (column 2); known: uniform, geometric, equiarc",
}


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

    @pytest.mark.parametrize("bad", list(_MALFORMED_MESHES))
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecError) as info:
            parse_mesh_spec(bad)
        assert str(info.value) == _MALFORMED_MESHES[bad]


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
    " dd": "unknown operator 'dd' (column 2); use d+, d-, c, d2 or a pair like 'd+ d-'",
    "d+ d": "unknown difference 'd' in 'd+ d' (column 4)",
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


# Every pinned message above that gives a column, with its parser.
_COLUMN_CASES = [
    (parse, spec, message)
    for parse, table in (
        (parse_number, _MALFORMED_NUMBERS),
        (parse_function_spec, dict(_MALFORMED_FUNCTIONS)),
        (parse_mesh_spec, _MALFORMED_MESHES),
        (parse_operator, _MALFORMED_OPERATORS),
    )
    for spec, message in table.items()
    if "(column" in message
]
_SEPARATORS = re.compile(r"\+insert:|[:,=/]")
# The token a message names, if any, the text it quotes, if any, and the column.
_COLUMN = re.compile(r"(?:'(?P<token>[^']*)' )?(?:in '(?P<text>[^']*)' )?\(column (?P<column>\d+)\)")


def _named(message: str, spec: str) -> tuple[str | None, str, int]:
    """The token ``message`` names (None for division by zero), the text it counts in and its column."""
    m = _COLUMN.search(message)
    return m["token"], m["text"] if m["text"] is not None else spec, int(m["column"])


class TestErrorColumns:
    """A column is the first non-blank character of the token the message names, in the text it quotes."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_COLUMN_CASES), st.data())
    def test_blanks_before_a_token_move_its_column(self, case, data):
        parse, spec, message = case
        cuts = [0, *(m.end() for m in _SEPARATORS.finditer(spec))]
        runs = data.draw(st.lists(st.integers(0, 3), min_size=len(cuts), max_size=len(cuts)))
        pieces = (spec[a:b] for a, b in zip(cuts, [*cuts[1:], len(spec)]))
        blanked = "".join(" " * run + piece for run, piece in zip(runs, pieces))
        with pytest.raises(SpecError) as info:
            parse(blanked)
        token, text, column = _named(str(info.value), blanked)
        want_token, want_text, want_column = _named(message, spec)
        before = text[: column - 1]
        assert token == want_token
        assert before.replace(" ", "") == want_text[: want_column - 1].replace(" ", "")
        if token == "":  # a blank token's column is where it starts
            assert not before.endswith(" ")
        else:  # division by zero names no token, but points at its denominator
            assert text[column - 1] != " " and text.startswith(token or "", column - 1)
