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
    r"^\s*(?P<sign>[+-])?\s*(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?"
    r"(?P<pi>pi(?:\^(?P<exp>\d+))?)?\s*$"
)


def _parse_term(token: str, context: str, offset: int) -> float:
    m = _TERM_RE.match(token)
    if m is None or (m.group("num") is None and m.group("pi") is None):
        raise SpecError(
            f"could not parse number {token.strip()!r} in {context!r} (column {offset + 1})"
        )
    value = float(m.group("num")) if m.group("num") is not None else 1.0
    if m.group("pi"):
        try:
            value *= math.pi ** int(m.group("exp") or 1)
        except (OverflowError, ValueError) as exc:  # ValueError: an exponent past int's 4,300-digit limit
            raise SpecError(
                f"number {token.strip()!r} in {context!r} (column {offset + 1}) overflows a float"
            ) from exc
    if m.group("sign") == "-":
        value = -value
    return value


def parse_number(text: str, context: str | None = None, offset: int = 0) -> float:
    """Parse a numeric literal, allowing fractions and pi multiples."""
    context = context if context is not None else text
    parts = text.split("/")
    value = _parse_term(parts[0], context, offset)
    pos = offset + len(parts[0]) + 1
    for part in parts[1:]:
        den = _parse_term(part, context, pos)
        if den == 0:
            raise SpecError(f"division by zero in {context!r} (column {pos + 1})")
        value /= den
        pos += len(part) + 1
    return value


def _parse_params(text: str, context: str, offset: int) -> dict[str, float]:
    params: dict[str, float] = {}
    pos = offset
    for item in text.split(","):
        if "=" not in item:
            raise SpecError(
                f"expected key=value but got {item!r} in {context!r} (column {pos + 1})"
            )
        key, raw = item.split("=", 1)
        name = key.strip()
        if name in params:
            raise SpecError(f"repeated parameter {name!r} in {context!r} (column {pos + 1})")
        params[name] = parse_number(raw, context, pos + len(key) + 1)
        pos += len(item) + 1
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
        raise SpecError(
            f"unknown function {name!r} in {text!r} (column 1); "
            f"known: {', '.join(sorted(_FUNCTIONS))}"
        )
    factory, defaults = _FUNCTIONS[name]
    params = _parse_params(rest, text, len(head) + 1) if rest else {}
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
    body, insert, suffix = text.partition("+insert:")
    head, _, rest = body.rstrip().partition(":")
    kind = head.strip()
    if kind not in _MESH_KINDS:
        raise SpecError(
            f"unknown mesh kind {kind!r} in {text!r} (column 1); known: {', '.join(_MESH_KINDS)}"
        )
    names, builder, extra = _MESH_KINDS[kind]
    curve = names[0] == "curve"
    # A curve may hold commas of its own, so an equiarc spec's numbers are split off from the right.
    parts = rest.rsplit(",", len(names) - 1) if curve else rest.split(",")
    if len(parts) != len(names):
        raise SpecError(
            f"{kind!r} expects {','.join(names)} but got {rest!r} in {text!r}" if curve else
            f"{kind!r} expects {len(names)} comma-separated values, got {len(parts)} in {text!r}"
        )
    args: list = []
    pos = len(head) + 1
    for name, part in zip(names, parts):
        if name != "curve":
            args.append(parse_number(part, text, pos))
        pos += len(part) + 1
    count = args[-1]
    if not math.isfinite(count) or count != int(count):
        raise SpecError(f"{names[-1]} must be an integer in {text!r}, got {count!r}")
    args[-1] = int(count)
    if curve:
        args.insert(0, parse_function_spec(parts[0]))
    beta = parse_number(suffix, text, len(body) + len(insert)) if insert else None
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
    if len(parts) == 1:
        raise SpecError(
            f"unknown operator {parts[0]!r} (column 1); use d+, d-, c, d2 or a pair like 'd+ d-'"
        )
    if len(parts) == 2:
        bad = next(part for part in parts if not isinstance(_OPERATORS.get(part), FirstDiffKind))
        raise SpecError(
            f"unknown difference {bad!r} in {text!r} (column {text.find(bad) + 1})"
        )
    raise SpecError(f"operator spec {text!r} must be one name or an ordered pair")
