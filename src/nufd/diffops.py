"""Difference operators on grid functions with explicit index windows.

First differences come in three kinds (forward, backward, central); second
differences are ordered compositions of two first differences.  Every
operation records exactly which mesh indices its output covers, because
the nine compositions shrink windows differently.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Sequence, Union

import numpy as np

from .mesh import Mesh

__all__ = [
    "WindowError",
    "FirstDiffKind",
    "SecondDiffSpec",
    "GridFunction",
    "ALL_SECOND_SPECS",
    "D2_CORRECTED",
    "Operator",
    "first_difference",
    "second_difference",
    "stencil_offsets",
    "stencil",
    "d2_corrected",
    "apply_operator",
    "derivative_order",
]


class WindowError(ValueError):
    """Raised when a grid function spans too few points for an operator."""


class FirstDiffKind(enum.Enum):
    """The three first-order divided differences.  ``offsets`` holds the index
    offsets (b, a) of the two points each reads: (u_a - u_b) / (t_a - t_b)."""

    FORWARD = ("d+", 0, 1)
    BACKWARD = ("d-", -1, 0)
    CENTRAL = ("c", -1, 1)

    def __new__(cls, label: str, b: int, a: int) -> FirstDiffKind:
        kind = object.__new__(cls)
        kind._value_ = label
        kind.offsets = (b, a)
        return kind

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SecondDiffSpec:
    """An ordered operator pair: ``outer`` applied to ``inner``'s output."""

    outer: FirstDiffKind
    inner: FirstDiffKind

    def __str__(self) -> str:
        return f"{self.outer.value} {self.inner.value}"

    @functools.cached_property
    def plan(self) -> tuple[int, int, tuple[int, ...], tuple[tuple[int, int], ...]]:
        """(lo, hi, positions, rows): the pair's stencil structure, built once.

        ``positions`` index x = t_{k+lo} .. t_{k+hi}: the outer difference's
        b and a, then the inner difference's b and a around each of them,
        the points of the weight products bb, ba, ab, aa (signs +, -, -, +).
        ``rows`` pairs each offset the stencil touches, in offset order,
        with its term in :func:`stencil`: product 0..3 added to 0.0, or 4
        when products 1 and 2 land on one offset and add in that order.
        """
        (ob, oa), (ib, ia) = self.outer.offsets, self.inner.offsets
        landing = (ob + ib, ob + ia, oa + ib, oa + ia)
        lo = landing[0]
        rows = tuple((j, 4 if landing[1] == j == landing[2] else landing.index(j)) for j in sorted(set(landing)))
        return lo, landing[3], (ob - lo, oa - lo, *(j - lo for j in landing)), rows


ALL_SECOND_SPECS: tuple[SecondDiffSpec, ...] = tuple(
    SecondDiffSpec(outer, inner) for outer in FirstDiffKind for inner in FirstDiffKind
)

# Marker for the step-averaged corrected second difference (see d2_corrected).
D2_CORRECTED = "d2"

Operator = Union[FirstDiffKind, SecondDiffSpec, str]


@dataclass(frozen=True)
class GridFunction:
    """Values aligned with a contiguous window of mesh indices.

    ``values[i]`` sits at mesh point ``t_{first_index + i}``.
    """

    mesh: Mesh
    first_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("grid function values must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must all be finite")
        if self.first_index < 0 or self.first_index + vals.size > self.mesh.n_points:
            raise ValueError(
                f"window [{self.first_index}, {self.first_index + vals.size - 1}] does not "
                f"fit a mesh with {self.mesh.n_points} points"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def last_index(self) -> int:
        return self.first_index + len(self) - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.first_index, self.first_index + len(self))

    @property
    def t(self) -> np.ndarray:
        """Mesh points under the window."""
        return self.mesh.points[self.first_index : self.first_index + len(self)]

    def value_at(self, k: int) -> float:
        if not self.first_index <= k <= self.last_index:
            raise IndexError(f"index {k} outside window [{self.first_index}, {self.last_index}]")
        return float(self.values[k - self.first_index])

    def restrict(self, first_index: int, last_index: int) -> "GridFunction":
        """The same function on the subwindow [first_index, last_index]."""
        if first_index < self.first_index or last_index > self.last_index:
            raise ValueError(
                f"[{first_index}, {last_index}] is not inside [{self.first_index}, {self.last_index}]"
            )
        lo = first_index - self.first_index
        return GridFunction(self.mesh, first_index, self.values[lo : last_index - self.first_index + 1])


def _require(u: GridFunction, n: int, what: str) -> None:
    if len(u) < n:
        raise WindowError(f"{what} needs at least {n} consecutive points, got {len(u)}")


def first_difference(kind: FirstDiffKind, u: GridFunction) -> GridFunction:
    """Apply one divided difference; the output window shrinks accordingly.

    Forward lives on k = first..last-1, backward on k = first+1..last and
    central on k = first+1..last-1.
    """
    if not isinstance(kind, FirstDiffKind):
        raise TypeError(f"unknown first-difference kind {kind!r}")
    b, a = kind.offsets
    width = a - b
    _require(u, width + 1, f"{kind.name.lower()} difference")
    t = u.t
    v = u.values
    return GridFunction(u.mesh, u.first_index - b, (v[width:] - v[:-width]) / (t[width:] - t[:-width]))


def second_difference(spec: SecondDiffSpec, u: GridFunction) -> GridFunction:
    """Apply ``spec.inner`` then ``spec.outer``.

    Composition is the primitive here; :func:`stencil` gives the same
    operator as pointwise weights.
    """
    return first_difference(spec.outer, first_difference(spec.inner, u))


def stencil_offsets(op: FirstDiffKind | SecondDiffSpec) -> tuple[int, int]:
    """Smallest and largest index offset the operator's stencil touches."""
    if isinstance(op, FirstDiffKind):
        return op.offsets
    if not isinstance(op, SecondDiffSpec):
        raise TypeError(f"no composed stencil for operator {op!r}")
    return op.plan[:2]


def stencil(op: FirstDiffKind | SecondDiffSpec, x: Sequence) -> tuple[tuple[int, Any], ...]:
    """Pointwise weights ((offset, weight), ...) of a first difference or a pair.

    ``x`` holds the mesh points t_{k+lo} .. t_{k+hi}, with (lo, hi) from
    ``stencil_offsets(op)``.  Its entries may be floats, giving the stencil
    at one index k, or equal-length arrays, giving one stencil per row.  A
    pair's weights are the products of its two first differences' weights
    (arbitrary-grid weights as in Fornberg, Math. Comp. 51, 1988), so
    sum_j w_j (t_{k+j} - t_k)**p / p! is the operator's f^(p) coefficient.
    The pairs come in offset order, one per point the stencil touches.
    """
    if isinstance(op, FirstDiffKind):
        b, a = op.offsets
        w = 1.0 / (x[a - b] - x[0])
        return (b, -w), (a, w)
    if not isinstance(op, SecondDiffSpec):
        raise TypeError(f"no composed stencil for operator {op!r}")
    _, _, (ob, oa, bb, ba, ab, aa), rows = op.plan
    w = 1.0 / (x[oa] - x[ob])
    wb = w * (1.0 / (x[ba] - x[bb]))
    wa = w * (1.0 / (x[aa] - x[ab]))
    nb = 0.0 - wb
    terms = (wb, nb, 0.0 - wa, wa, nb - wa)
    return tuple([(j, terms[i]) for j, i in rows])


def d2_corrected(u: GridFunction) -> GridFunction:
    """Step-averaged second difference (D+ - D-) / ((h_{k-1} + h_k)/2).

    Unlike the nine compositions, this stencil stays first-order accurate
    on arbitrary meshes; it reduces to the classic three-point stencil
    when the steps are equal.
    """
    _require(u, 3, "corrected second difference")
    t = u.t
    v = u.values
    h = t[1:] - t[:-1]
    hkm1, hk = h[:-1], h[1:]
    dplus = (v[2:] - v[1:-1]) / hk
    dminus = (v[1:-1] - v[:-2]) / hkm1
    return GridFunction(u.mesh, u.first_index + 1, (dplus - dminus) / ((hkm1 + hk) / 2))


def apply_operator(op: Operator, u: GridFunction) -> GridFunction:
    """Dispatch on first differences, compositions, or the corrected stencil."""
    if isinstance(op, FirstDiffKind):
        return first_difference(op, u)
    if isinstance(op, SecondDiffSpec):
        return second_difference(op, u)
    if op == D2_CORRECTED:
        return d2_corrected(u)
    raise TypeError(f"unknown operator {op!r}")


def derivative_order(op: Operator) -> int:
    """Order of derivative an operator approximates (1 or 2)."""
    if isinstance(op, FirstDiffKind):
        return 1
    if isinstance(op, SecondDiffSpec) or op == D2_CORRECTED:
        return 2
    raise TypeError(f"unknown operator {op!r}")
