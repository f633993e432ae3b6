"""Difference operators on grid functions with explicit index windows.

First differences come in three kinds (forward, backward, central); second
differences are ordered compositions of two first differences.  Every
operation records exactly which mesh indices its output covers, because
the nine compositions shrink windows differently.
"""

from __future__ import annotations

import enum
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
    """The three first-order divided differences."""

    FORWARD = "d+"
    BACKWARD = "d-"
    CENTRAL = "c"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SecondDiffSpec:
    """An ordered operator pair: ``outer`` applied to ``inner``'s output."""

    outer: FirstDiffKind
    inner: FirstDiffKind

    def __str__(self) -> str:
        return f"{self.outer.value} {self.inner.value}"


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
    t = u.t
    v = u.values
    if kind is FirstDiffKind.FORWARD:
        _require(u, 2, "forward difference")
        return GridFunction(u.mesh, u.first_index, (v[1:] - v[:-1]) / (t[1:] - t[:-1]))
    if kind is FirstDiffKind.BACKWARD:
        _require(u, 2, "backward difference")
        return GridFunction(u.mesh, u.first_index + 1, (v[1:] - v[:-1]) / (t[1:] - t[:-1]))
    if kind is FirstDiffKind.CENTRAL:
        _require(u, 3, "central difference")
        return GridFunction(u.mesh, u.first_index + 1, (v[2:] - v[:-2]) / (t[2:] - t[:-2]))
    raise TypeError(f"unknown first-difference kind {kind!r}")


def second_difference(spec: SecondDiffSpec, u: GridFunction) -> GridFunction:
    """Apply ``spec.inner`` then ``spec.outer``.

    Composition is the primitive here; :func:`stencil` gives the same
    operator as pointwise weights.
    """
    return first_difference(spec.outer, first_difference(spec.inner, u))


# Index offsets (b, a), relative to the evaluation point, of the two points
# each first difference reads: (u_a - u_b) / (t_a - t_b).  Compositions read
# the Minkowski sum of their ranges.
_FIRST_OFFSETS = {
    FirstDiffKind.FORWARD: (0, 1),
    FirstDiffKind.BACKWARD: (-1, 0),
    FirstDiffKind.CENTRAL: (-1, 1),
}


def stencil_offsets(op: FirstDiffKind | SecondDiffSpec) -> tuple[int, int]:
    """Smallest and largest index offset the operator's stencil touches."""
    if isinstance(op, FirstDiffKind):
        return _FIRST_OFFSETS[op]
    if not isinstance(op, SecondDiffSpec):
        raise TypeError(f"no composed stencil for operator {op!r}")
    olo, ohi = _FIRST_OFFSETS[op.outer]
    ilo, ihi = _FIRST_OFFSETS[op.inner]
    return olo + ilo, ohi + ihi


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
    lo, _ = stencil_offsets(op)

    def first(kind: FirstDiffKind, at: int) -> tuple[tuple[int, Any], ...]:
        ob, oa = _FIRST_OFFSETS[kind]
        b, a = at + ob, at + oa
        w = 1.0 / (x[a - lo] - x[b - lo])
        return (b, -w), (a, w)

    if isinstance(op, FirstDiffKind):
        return first(op, 0)
    weights: dict[int, Any] = {}
    for mid, w_outer in first(op.outer, 0):
        for j, w_inner in first(op.inner, mid):
            weights[j] = weights.get(j, 0.0) + w_outer * w_inner
    return tuple(sorted(weights.items()))


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
