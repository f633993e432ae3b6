"""Compact spec-string parsers shared by the command line, presets and tests.

Two tables below are the grammar's source: ``_FUNCTIONS`` names each function
with its factory and its parameters' defaults, and ``_MESH_KINDS`` names each
mesh kind with its arguments and builder.  Each parser walks its table on one
path, and ``_OPERATORS`` does the same for the operators' printed names.

Grammar sketch:

    number    := term {"/" term}            e.g. 0.5, -1, 50/59, 4pi, pi^2
    function  := name[":" key=number{"," key=number}]
                                             e.g. sinusoid:amplitude=-1,frequency=4pi
    mesh      := kind ":" args ["+insert:" number]
                 kind in {uniform, geometric, equiarc}
    operator  := "d+" | "d-" | "c" | "d2" | "<outer> <inner>"

``Npi^k`` means N times pi**k.

Each parser reads spans ``text[i:j]`` of the spec it was given, and
``_error`` alone gives an error's column: that of the first non-blank
character of the token the message names, counted from 1 in the text the
message quotes.
"""

from __future__ import annotations

import math
import re

from . import mesh as meshmod
from .diffops import ALL_SECOND_SPECS, D2_CORRECTED, FirstDiffKind, Operator
from .functions import (
    MAX_DERIVATIVE_ORDER,
    AnalyticFunction,
    make_oscillator_solution,
    make_polynomial,
    make_sinusoid,
)
from .mesh import Mesh

__all__ = ["SpecError", "parse_number", "parse_function_spec", "parse_mesh_spec", "parse_operator"]


class SpecError(ValueError):
    """Raised for malformed compact spec strings; includes the bad token."""


# Most points a mesh spec may ask for, counted after refinement (80 MB).
MAX_SPEC_POINTS = 10**7


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?"
    r"(?P<pi>pi(?:\^(?P<exp>\d+))?)?\s*"
)


def _error(message: str, text: str, i: int, j: int) -> SpecError:
    """The error ``message`` names for the token ``text[i:j]``.

    ``message`` may use ``{token}``, the token stripped, ``{text}`` and
    ``{column}``: the column in ``text``, counted from 1, of the token's
    first non-blank character, or of its start when it is blank.
    """
    span = text[i:j]
    token = span.strip()
    start = i + len(span) - len(span.lstrip()) if token else i
    return SpecError(message.format(token=token, text=text, column=start + 1))


def _spans(text: str, i: int, j: int, sep: str):
    """The (start, end) of each piece of ``text[i:j]`` split at every ``sep``."""
    while (k := text.find(sep, i, j)) >= 0:
        yield i, k
        i = k + len(sep)
    yield i, j


def _term(text: str, i: int, j: int) -> float:
    m = _TERM_RE.fullmatch(text, i, j)
    if m is None or (m["num"] is None and m["pi"] is None):
        raise _error("could not parse number {token!r} in {text!r} (column {column})", text, i, j)
    value = float(m["num"]) if m["num"] is not None else 1.0
    if m["pi"]:
        try:
            value *= math.pi ** int(m["exp"] or 1)
        except (OverflowError, ValueError) as exc:  # ValueError: an exponent past int's 4,300-digit limit
            raise _error("number {token!r} in {text!r} (column {column}) overflows a float", text, i, j) from exc
    return -value if m["sign"] == "-" else value


def _number(text: str, i: int, j: int) -> float:
    """The number ``text[i:j]``: its terms, divided left to right."""
    terms = _spans(text, i, j, "/")
    value = _term(text, *next(terms))
    for a, b in terms:
        den = _term(text, a, b)
        if den == 0:
            raise _error("division by zero in {text!r} (column {column})", text, a, b)
        value /= den
    return value


def parse_number(text: str) -> float:
    """Parse a numeric literal, allowing fractions and pi multiples."""
    return _number(text, 0, len(text))


def _params(text: str, i: int) -> dict[str, float]:
    """The ``key=number`` pairs of ``text[i:]``."""
    params: dict[str, float] = {}
    for a, b in _spans(text, i, len(text), ","):
        eq = text.find("=", a, b)
        if eq < 0:
            raise _error("expected key=value but got {token!r} in {text!r} (column {column})", text, a, b)
        name = text[a:eq].strip()
        if name in params:
            raise _error("repeated parameter {token!r} in {text!r} (column {column})", text, a, eq)
        params[name] = _number(text, eq + 1, b)
    return params


def _poly_factory(**params: float) -> AnalyticFunction:
    coefs = [0.0] * (MAX_DERIVATIVE_ORDER + 1)
    top = -1
    for name, value in params.items():
        if not (name.startswith("c") and name[1:].isdigit()):
            raise ValueError(f"unknown polynomial parameter {name!r}; use c0..c5")
        power = int(name[1:])
        if power > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"polynomial power {power} above the supported degree 5")
        coefs[power] = value
        top = max(top, power)
    return make_polynomial(coefs[: top + 1] if top >= 0 else [0.0])


# The function names a spec may use: each one's factory, named here and
# looked up in this module when called (so a wrapper put on that name
# reaches the call), and its parameters with their defaults, None marking a
# required one.  ``poly`` reads its parameters c0..c5 itself.
_FUNCTIONS = {
    "sinusoid": ("make_sinusoid", {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0}),
    "poly": ("_poly_factory", None),
    "oscillator": ("make_oscillator_solution", {"kappa": None}),
}


def parse_function_spec(text: str) -> AnalyticFunction:
    """Build an analytic function from ``name:key=value,...``."""
    head, _, rest = text.partition(":")
    name = head.strip()
    if name not in _FUNCTIONS:
        raise _error("unknown function {token!r} in {text!r} (column {column}); known: "
                     + ", ".join(sorted(_FUNCTIONS)), text, 0, len(head))
    factory, defaults = _FUNCTIONS[name]
    params = _params(text, len(head) + 1) if rest else {}
    try:
        if defaults is not None:
            unknown = params.keys() - defaults
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {sorted(unknown)} for '{name}'; allowed: {sorted(defaults)}"
                )
            for key, default in defaults.items():
                if default is None and key not in params:
                    raise ValueError(f"'{name}' needs the parameter {key}")
            params = {**defaults, **params}
        return globals()[factory](**params)
    except ValueError as exc:
        raise SpecError(f"bad parameters in {text!r}: {exc}") from exc


# The mesh kinds a spec may use: each one's arguments in order (a curve
# first, the integer last), the name of its ``nufd.mesh`` builder, looked up
# when called, and the points the mesh has beyond that integer.
_MESH_KINDS = {
    "uniform": (("a", "b", "n_points"), "build_uniform", 0),
    "geometric": (("t0", "h0", "r", "m"), "build_geometric", 2),
    "equiarc": (("curve", "a", "b", "n_points"), "build_equiarclength", 0),
}


def parse_mesh_spec(text: str) -> Mesh:
    """Build a mesh from a compact string, with optional refinement suffix.

    Forms: ``uniform:a,b,n``, ``geometric:t0,h0,r,m``,
    ``equiarc:curve,a,b,n`` and any of them followed by ``+insert:beta``.
    """
    body, insert, _ = text.partition("+insert:")
    head, _, rest = body.rstrip().partition(":")
    kind = head.strip()
    if kind not in _MESH_KINDS:
        raise _error("unknown mesh kind {token!r} in {text!r} (column {column}); known: "
                     + ", ".join(_MESH_KINDS), text, 0, len(head))
    names, builder, extra = _MESH_KINDS[kind]
    start = len(head) + 1
    spans = list(_spans(text, start, start + len(rest), ","))
    curve = names[0] == "curve"
    # A curve may hold commas of its own, so an equiarc spec's numbers are its last pieces.
    if curve and len(spans) > len(names):
        spans[: len(spans) - len(names) + 1] = [(start, spans[-len(names)][1])]
    if len(spans) != len(names):
        raise SpecError(
            f"{kind!r} expects {','.join(names)} but got {rest!r} in {text!r}" if curve else
            f"{kind!r} expects {len(names)} comma-separated values, got {len(spans)} in {text!r}"
        )
    args: list = [_number(text, a, b) for a, b in (spans[1:] if curve else spans)]
    count = args[-1]
    if not math.isfinite(count) or count != int(count):
        raise SpecError(f"{names[-1]} must be an integer in {text!r}, got {count!r}")
    args[-1] = int(count)
    if curve:
        args.insert(0, parse_function_spec(text[start : spans[0][1]]))
    beta = _number(text, len(body) + len(insert), len(text)) if insert else None
    n_points = args[-1] + extra
    total = n_points if beta is None else 2 * n_points - 1
    if total > MAX_SPEC_POINTS:
        raise SpecError(f"mesh spec {text!r} asks for {total} points; the limit is {MAX_SPEC_POINTS}")
    try:
        built = getattr(meshmod, builder)(*args)
        return built if beta is None else meshmod.refine_insert(built, beta)
    except meshmod.MeshError as exc:
        raise SpecError(f"invalid mesh spec {text!r}: {exc}") from exc


# Every operator under its printed name; a pair is named "<outer> <inner>".
_OPERATORS = {str(op): op for op in (*FirstDiffKind, *ALL_SECOND_SPECS, D2_CORRECTED)}


def parse_operator(text: str) -> Operator:
    """Parse an operator by its printed name: ``d+``, ``d-``, ``c``, ``d2`` or an ordered pair like ``d+ d-``.

    Runs of whitespace between and around the names do not matter.
    """
    parts = text.split()
    op = _OPERATORS.get(" ".join(parts))
    if op is not None:
        return op
    words = list(re.finditer(r"\S+", text))
    if len(words) == 1:
        raise _error("unknown operator {token!r} (column {column}); use d+, d-, c, d2 or a pair like 'd+ d-'",
                     text, *words[0].span())
    if len(words) == 2:
        bad = next(word for word in words if not isinstance(_OPERATORS.get(word[0]), FirstDiffKind))
        raise _error("unknown difference {token!r} in {text!r} (column {column})", text, *bad.span())
    raise SpecError(f"operator spec {text!r} must be one name or an ordered pair")
