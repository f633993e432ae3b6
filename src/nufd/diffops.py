"""Difference operators on grid functions with explicit index windows.

First differences come in three kinds (forward, backward, central); second
differences are ordered compositions of two first differences or the
corrected stencil d2.  Every operator is applied and weighted (and, if a
slope jump, marched) from one stencil plan.  Every operation records exactly
which mesh indices its output covers, because the operators shrink windows
differently.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from .mesh import Mesh, _freeze

__all__ = [
    "WindowError",
    "UnmarchableOperatorError",
    "FirstDiffKind",
    "SecondDiffSpec",
    "CorrectedSecondDiff",
    "GridFunction",
    "ALL_SECOND_SPECS",
    "D2_CORRECTED",
    "SecondOperator",
    "Operator",
    "first_difference",
    "second_difference",
    "stencil_offsets",
    "stencil",
    "apply_operator",
    "derivative_order",
    "slope_jump_divisors",
]


class WindowError(ValueError):
    """Raised when a grid function spans too few points for an operator."""


class UnmarchableOperatorError(ValueError):
    """Raised for an operator that is not a slope jump (see slope_jump_divisors)."""


class _Plan(NamedTuple):
    """An operator's stencil structure: the one thing diffops reads about it.

    ``lo`` and ``hi`` are the smallest and largest index offsets the stencil
    touches.  ``outer`` and ``inner`` are positions into the points under it,
    x = t_{k+lo} .. t_{k+hi}: ``outer`` the b and a of the outer difference,
    whose divisor is (x[a] - x[b]) / ``share``, and ``inner`` the inner
    difference's b and a around each of them, the points of the weight
    products bb, ba, ab, aa (signs +, -, -, +).  A first difference has no
    inner difference.  ``rows`` pairs each offset the stencil touches, in
    offset order, with the index of its weight in ``_weights``: for a first
    difference -w or w (0 or 1); for a second difference product 0..3 added
    to 0.0, or 4 when products 1 and 2 land on one offset and add in that order.
    """

    lo: int
    hi: int
    outer: tuple[int, int]
    inner: tuple[int, ...]
    rows: tuple[tuple[int, int], ...]
    share: float


class FirstDiffKind(enum.Enum):
    """The three first-order divided differences (u_a - u_b) / (t_a - t_b); ``plan.lo`` is b, ``plan.hi`` a."""

    FORWARD = ("d+", 0, 1)
    BACKWARD = ("d-", -1, 0)
    CENTRAL = ("c", -1, 1)

    def __new__(cls, label: str, b: int, a: int) -> FirstDiffKind:
        kind = object.__new__(cls)
        kind._value_ = label
        kind.plan = _Plan(b, a, (0, a - b), (), ((b, 0), (a, 1)), 1.0)
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
    def plan(self) -> _Plan:
        """The pair's plan, built once from the offsets of its two differences; its share is 1."""
        outer, inner = self.outer.plan, self.inner.plan
        landing = (outer.lo + inner.lo, outer.lo + inner.hi, outer.hi + inner.lo, outer.hi + inner.hi)
        lo = landing[0]
        rows = tuple((j, 4 if landing[1] == j == landing[2] else landing.index(j)) for j in sorted(set(landing)))
        return _Plan(lo, landing[3], (outer.lo - lo, outer.hi - lo), tuple(j - lo for j in landing), rows, 1.0)


@dataclass(frozen=True)
class CorrectedSecondDiff:
    """d2 = (D+ - D-) / ((t_{k+1} - t_{k-1}) / 2), first-order on any mesh: d- d+'s plan over the mean step."""

    plan = SecondDiffSpec(FirstDiffKind.BACKWARD, FirstDiffKind.FORWARD).plan._replace(outer=(0, 2), share=2.0)

    def __str__(self) -> str:
        return "d2"


ALL_SECOND_SPECS: tuple[SecondDiffSpec, ...] = tuple(
    SecondDiffSpec(outer, inner) for outer in FirstDiffKind for inner in FirstDiffKind
)

D2_CORRECTED = CorrectedSecondDiff()

SecondOperator = SecondDiffSpec | CorrectedSecondDiff
Operator = FirstDiffKind | SecondOperator


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values aligned with a contiguous window of mesh indices.

    ``values[i]`` sits at mesh point ``t_{first_index + i}``.  Compared and hashed by identity.
    As with ``Mesh.points``, a C-contiguous float64 ``values`` array is kept,
    not copied, and made read-only in place, so a 10**6-point input costs no copy.
    """

    mesh: Mesh
    first_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _freeze(self.values)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("grid function values must form a nonempty 1-d sequence")
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must all be finite")
        if self.first_index < 0 or self.first_index + vals.size > self.mesh.n_points:
            raise ValueError(
                f"window [{self.first_index}, {self.first_index + vals.size - 1}] does not "
                f"fit a mesh with {self.mesh.n_points} points"
            )
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


def _plan(op: Operator) -> _Plan:
    """The operator's plan; TypeError, naming it, for anything that is not an operator."""
    try:
        return op.plan
    except AttributeError:
        raise TypeError(f"unknown operator {op!r}") from None


def first_difference(kind: FirstDiffKind, u: GridFunction) -> GridFunction:
    """Apply one divided difference; the output window shrinks accordingly.

    Forward lives on k = first..last-1, backward on k = first+1..last and
    central on k = first+1..last-1.
    """
    if not isinstance(kind, FirstDiffKind):
        raise TypeError(f"unknown first-difference kind {kind!r}")
    return apply_operator(kind, u)


def second_difference(op: SecondOperator, u: GridFunction) -> GridFunction:
    """Apply a pair or d2 from its plan; for a pair, bit for bit the nested first differences."""
    if not isinstance(op, SecondOperator):
        raise TypeError(f"unknown second difference {op!r}")
    return apply_operator(op, u)


def _outer_divisor(plan: _Plan, t: np.ndarray, n: int, h: np.ndarray | None = None) -> np.ndarray:
    """(t_{k+a} - t_{k+b}) / share, the plan's outer divisor, for n stencils whose first reads t[0].

    ``h``, the steps from t[0] on (h[i] = t[i+1] - t[i]), if given, serves a
    one-step span of share 1, so the result may be a read-only view of them.
    """
    b, a = plan.outer
    if h is not None and a - b == 1 and plan.share == 1.0:
        return h[b : b + n]
    span = t[a : a + n] - t[b : b + n]
    if plan.share != 1.0:  # x / 1.0 is x: a share of 1 needs no pass over the array
        span /= plan.share
    return span


def stencil_offsets(op: Operator) -> tuple[int, int]:
    """Smallest and largest index offset the operator's stencil touches."""
    plan = _plan(op)
    return plan.lo, plan.hi


def stencil(op: Operator, x: Sequence) -> tuple[tuple[int, Any], ...]:
    """Pointwise weights ((offset, weight), ...) of an operator.

    ``x`` holds the mesh points t_{k+lo} .. t_{k+hi}, with (lo, hi) from
    ``stencil_offsets(op)``.  Its entries may be floats, giving the stencil
    at one index k, or equal-length arrays, giving one stencil per row.  A
    second difference's weights are products of outer and inner weights
    (arbitrary-grid weights as in Fornberg, Math. Comp. 51, 1988), so
    sum_j w_j (t_{k+j} - t_k)**p / p! is the operator's f^(p) coefficient.
    The pairs come in offset order, one per point the stencil touches.
    """
    plan = _plan(op)
    weights = _weights(plan, x)
    return tuple([(j, weights[i]) for j, i in plan.rows])


def _weights(plan: _Plan, x: Sequence) -> tuple:
    """The distinct weights that ``plan.rows`` index, on the points ``x`` of :func:`stencil`."""
    _, _, (ob, oa), inner, _, share = plan
    w = share / (x[oa] - x[ob])
    if inner:
        bb, ba, ab, aa = inner
        wb = w * (1.0 / (x[ba] - x[bb]))
        wa = w * (1.0 / (x[aa] - x[ab]))
        nb = 0.0 - wb
        return (wb, nb, 0.0 - wa, wa, nb - wa)
    return (-w, w)


def slope_jump_divisors(op: Operator, t: np.ndarray) -> np.ndarray:
    """c_k at k = 1 .. n-2 from the mesh points t, for a stencil on k-1, k, k+1 that is a slope jump.

    That is (V_k - V_{k-1}) / c_k with forward differences V_k = (u_{k+1} - u_k) / h_k,
    and c_k = 1 / (w_{+1} h_k) is the plan's outer divisor, the one :func:`second_difference`
    divides by: t_k - t_{k-1} for d- d+, t_{k+1} - t_k for d+ d- and (t_{k+1} - t_{k-1}) / 2
    for d2.  Any other operator, or anything that is not one, raises UnmarchableOperatorError.
    """
    return _outer_divisor(_marchable(op), t, len(t) - 2)


def _marchable(op: Operator) -> _Plan:
    """The plan of a slope jump on k-1, k, k+1; UnmarchableOperatorError for any other operator or non-operator."""
    plan = getattr(op, "plan", None)
    if plan is None or (plan.lo, plan.hi, plan.inner) != (-1, 1, (0, 1, 1, 2)):
        raise UnmarchableOperatorError(f"cannot march '{op}': the march takes d- d+, d+ d- and d2")
    return plan


def apply_operator(op: Operator, u: GridFunction) -> GridFunction:
    """Apply any first or second difference from its plan.

    Its differences run over the window, then divide by the outer divisor.
    A first difference differences the values themselves; a second one
    first takes its inner differences once over the window (inner width
    ``ba - bb``) and differences those slopes at ``bb`` and ``ab`` in their
    own buffer.  For a pair these are the IEEE operations of the two nested
    first differences; a one-step span is read from the mesh's steps, which
    hold the same subtraction.
    """
    lo, hi, (jb, ja), inner, _, _ = plan = _plan(op)
    if len(u) < hi - lo + 1:
        what = f"second difference '{op}'" if inner else f"{op.name.lower()} difference"
        raise WindowError(f"{what} needs at least {hi - lo + 1} consecutive points, got {len(u)}")
    n = len(u) - (hi - lo)
    t, v, h = u.t, u.values, u.mesh.steps[u.first_index :]
    if inner:
        bb, ba, ab, _ = inner
        width = ba - bb
        v = v[width:] - v[:-width]
        v /= h[: len(v)] if width == 1 else t[width:] - t[:-width]
        # ab > bb: the difference at k overwrites slope bb + k after its last read
        out = np.subtract(v[ab : ab + n], v[bb : bb + n], out=v[bb : bb + n])
    else:
        out = v[ja : ja + n] - v[jb : jb + n]
    out /= _outer_divisor(plan, t, n, h)
    return GridFunction(u.mesh, u.first_index - lo, out)


def derivative_order(op: Operator) -> int:
    """Order of derivative an operator approximates (1 or 2)."""
    return 2 if _plan(op).inner else 1
