"""Consistency coefficients, truncation-error bounds and empirical orders.

For every ordered pair of first differences the composed second difference
expands as

    leading * f''(t_k) + fppp * f'''(t_k) + (explicit f'''' term) + remainder,

where the coefficients are closed forms in the four local steps
h_{k-2}, h_{k-1}, h_k, h_{k+1}.  The pair approximates f'' consistently at
t_k exactly when the leading coefficient is 1.  Remainders involve unknown
mean-value points, so they are only ever reported as interval brackets and
sup-based bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffops import (
    FirstDiffKind,
    GridFunction,
    Operator,
    SecondDiffSpec,
    apply_operator,
    second_difference,
)
from .functions import AnalyticFunction, sample
from .mesh import Mesh
from .metrics import scaled_local_difference

__all__ = [
    "CONSISTENCY_TOL",
    "ConsistencyReport",
    "OrderEstimate",
    "consistency_coefficient",
    "consistency_report_at",
    "local_steps",
    "geometric_consistency",
    "first_diff_error_bound",
    "expansion_prediction",
    "empirical_order",
    "stencil_offsets",
    "stencil_weights",
]

CONSISTENCY_TOL = 1e-12

_F = FirstDiffKind.FORWARD
_B = FirstDiffKind.BACKWARD
_C = FirstDiffKind.CENTRAL

# Index offsets (relative to the evaluation point) that each first
# difference reads; compositions read the Minkowski sum of their ranges.
_FIRST_OFFSETS = {_F: (0, 1), _B: (-1, 0), _C: (-1, 1)}


@dataclass(frozen=True)
class ConsistencyReport:
    """Leading expansion coefficients of one operator pair at one index."""

    spec: SecondDiffSpec
    index: int
    leading_coefficient: float
    fppp_coefficient: float
    consistent: bool
    remainder_bracket: tuple[float, float]


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log(sgei) against log(max step)."""

    slope: float
    intercept: float
    sample_points: tuple[tuple[float, float], ...]


def stencil_offsets(spec: SecondDiffSpec) -> tuple[int, int]:
    """Smallest and largest index offset the composed stencil touches."""
    olo, ohi = _FIRST_OFFSETS[spec.outer]
    ilo, ihi = _FIRST_OFFSETS[spec.inner]
    return olo + ilo, ohi + ihi


def _step(steps: Sequence[float | None], which: int, spec: SecondDiffSpec) -> float:
    """Fetch h_{k-2+which} from the quadruple, insisting it is usable."""
    names = ("h_{k-2}", "h_{k-1}", "h_k", "h_{k+1}")
    value = steps[which]
    if value is None:
        raise ValueError(f"operator pair '{spec}' needs step {names[which]}, which is missing")
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"step {names[which]} must be positive and finite, got {value!r}")
    return value


def _coefficients(
    spec: SecondDiffSpec, steps: Sequence[float | None]
) -> tuple[float, float, float | None]:
    """(leading, fppp, explicit f'''' coefficient or None) for one pair."""
    if len(steps) != 4:
        raise ValueError(
            "steps must be the quadruple (h_{k-2}, h_{k-1}, h_k, h_{k+1}); "
            "entries the pair does not use may be None"
        )
    key = (spec.outer, spec.inner)
    if key == (_F, _F):
        hk, hk1 = _step(steps, 2, spec), _step(steps, 3, spec)
        return (hk1 + hk) / (2 * hk), (hk1 + hk) * (hk1 + 2 * hk) / (6 * hk), None
    if key == (_B, _B):
        hm2, hm1 = _step(steps, 0, spec), _step(steps, 1, spec)
        return (hm1 + hm2) / (2 * hm1), -(hm1 + hm2) * (2 * hm1 + hm2) / (6 * hm1), None
    if key == (_C, _C):
        hm2, hm1 = _step(steps, 0, spec), _step(steps, 1, spec)
        hk, hk1 = _step(steps, 2, spec), _step(steps, 3, spec)
        return (
            (hk1 + hk + hm1 + hm2) / (2 * (hk + hm1)),
            ((hk1 + hk) ** 2 - (hm1 + hm2) ** 2) / (6 * (hk + hm1)),
            ((hk + hk1) ** 3 + (hm1 + hm2) ** 3) / (24 * (hk + hm1)),
        )
    if key == (_F, _B):
        hm1, hk = _step(steps, 1, spec), _step(steps, 2, spec)
        return (
            (hk + hm1) / (2 * hk),
            (hk**2 - hm1**2) / (6 * hk),
            (hk**3 + hm1**3) / (24 * hk),
        )
    if key == (_B, _F):
        hm1, hk = _step(steps, 1, spec), _step(steps, 2, spec)
        return (
            (hk + hm1) / (2 * hm1),
            (hk**2 - hm1**2) / (6 * hm1),
            (hk**3 + hm1**3) / (24 * hm1),
        )
    if key == (_F, _C):
        hm1, hk, hk1 = _step(steps, 1, spec), _step(steps, 2, spec), _step(steps, 3, spec)
        return (
            (hk1 + hm1) / (2 * hk),
            ((hk1 + hk) ** 2 - hk**2 + hk * hm1 - hm1**2) / (6 * hk),
            None,
        )
    if key == (_C, _F):
        hm1, hk, hk1 = _step(steps, 1, spec), _step(steps, 2, spec), _step(steps, 3, spec)
        return (
            (hk1 + 2 * hk + hm1) / (2 * (hk + hm1)),
            ((hk + hk1) ** 3 - hk**3 - hk1 * hm1**2) / (6 * hk1 * (hk + hm1)),
            None,
        )
    if key == (_B, _C):
        hm2, hm1, hk = _step(steps, 0, spec), _step(steps, 1, spec), _step(steps, 2, spec)
        return (
            (hk + hm2) / (2 * hm1),
            (hk**3 + hm1**3 - (hk + hm1) * (hm1 + hm2) ** 2) / (6 * (hk + hm1) * hm1),
            None,
        )
    if key == (_C, _B):
        hm2, hm1, hk = _step(steps, 0, spec), _step(steps, 1, spec), _step(steps, 2, spec)
        return (
            (hk + 2 * hm1 + hm2) / (2 * (hk + hm1)),
            (hm2 * hk**2 + hm1**3 - (hm1 + hm2) ** 3) / (6 * hm2 * (hk + hm1)),
            None,
        )
    raise TypeError(f"unknown operator pair {spec!r}")


def _bracket(
    spec: SecondDiffSpec, steps: Sequence[float | None], center: float
) -> tuple[float, float]:
    """Interval containing every mean-value point of the pair's remainder."""
    lo_off, hi_off = stencil_offsets(spec)
    back = 0.0
    if lo_off <= -1:
        back += _step(steps, 1, spec)
    if lo_off <= -2:
        back += _step(steps, 0, spec)
    fwd = 0.0
    if hi_off >= 1:
        fwd += _step(steps, 2, spec)
    if hi_off >= 2:
        fwd += _step(steps, 3, spec)
    return (center - back, center + fwd)


def consistency_coefficient(
    spec: SecondDiffSpec,
    steps: Sequence[float | None],
    *,
    index: int = 2,
    center: float = 0.0,
) -> ConsistencyReport:
    """Closed-form expansion coefficients from the four local step sizes.

    ``steps`` is (h_{k-2}, h_{k-1}, h_k, h_{k+1}); only the entries the
    pair actually uses must be present.  ``index`` and ``center`` locate
    the report when the steps come from a real mesh.
    """
    leading, fppp, _ = _coefficients(spec, steps)
    return ConsistencyReport(
        spec=spec,
        index=index,
        leading_coefficient=leading,
        fppp_coefficient=fppp,
        consistent=abs(leading - 1.0) <= CONSISTENCY_TOL,
        remainder_bracket=_bracket(spec, steps, center),
    )


def local_steps(mesh: Mesh, k: int) -> tuple[float | None, float | None, float | None, float | None]:
    """(h_{k-2}, h_{k-1}, h_k, h_{k+1}) around index k, None where absent."""
    h = mesh.steps

    def get(i: int) -> float | None:
        return float(h[i]) if 0 <= i < h.size else None

    return (get(k - 2), get(k - 1), get(k), get(k + 1))


def consistency_report_at(spec: SecondDiffSpec, mesh: Mesh, k: int) -> ConsistencyReport:
    """Consistency report for one pair at mesh index k."""
    lo_off, hi_off = stencil_offsets(spec)
    if k + lo_off < 0 or k + hi_off > mesh.n_points - 1:
        raise ValueError(
            f"index {k} is invalid for '{spec}' on a mesh with {mesh.n_points} points"
        )
    return consistency_coefficient(
        spec, local_steps(mesh, k), index=k, center=float(mesh.points[k])
    )


def geometric_consistency(spec: SecondDiffSpec, alpha: float) -> float:
    """Leading coefficient on a mesh with constant step ratio ``alpha``.

    Equals 1 for every pair exactly when alpha == 1.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    steps = (1.0, alpha, alpha**2, alpha**3)
    leading, _, _ = _coefficients(spec, steps)
    return leading


def first_diff_error_bound(
    kind: FirstDiffKind, f: AnalyticFunction, mesh: Mesh, k: int
) -> float:
    """Rigorous bound on |difference - f'(t_k)| for one first difference.

    Forward and backward differences are bounded through f'' on the step
    they straddle; the central difference is bounded through f'' on both
    neighbouring steps, except on uniform meshes where the sharper f'''
    form applies.  Every supremum is exact, from ``f.sup_abs``.
    """
    pts = mesh.points
    h = mesh.steps
    npts = mesh.n_points
    if kind is FirstDiffKind.FORWARD:
        if not 0 <= k <= npts - 2:
            raise ValueError(f"index {k} invalid for a forward difference")
        return (h[k] / 2) * f.sup_abs(2, pts[k], pts[k + 1])
    if kind is FirstDiffKind.BACKWARD:
        if not 1 <= k <= npts - 1:
            raise ValueError(f"index {k} invalid for a backward difference")
        return (h[k - 1] / 2) * f.sup_abs(2, pts[k - 1], pts[k])
    if kind is FirstDiffKind.CENTRAL:
        if not 1 <= k <= npts - 2:
            raise ValueError(f"index {k} invalid for a central difference")
        if mesh.is_uniform():
            return (h[k] ** 2 / 3) * f.sup_abs(3, pts[k - 1], pts[k + 1])
        sup_fwd = f.sup_abs(2, pts[k], pts[k + 1])
        sup_bwd = f.sup_abs(2, pts[k - 1], pts[k])
        return (h[k] ** 2 * sup_fwd + h[k - 1] ** 2 * sup_bwd) / (2 * (h[k] + h[k - 1]))
    raise TypeError(f"unknown first-difference kind {kind!r}")


def stencil_weights(spec: SecondDiffSpec, mesh: Mesh, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact pointwise weights of the composed stencil around index k.

    Returns (offsets, weights) with the composition applied to basis grid
    functions, so the weights reflect the operator as actually evaluated.
    """
    lo_off, hi_off = stencil_offsets(spec)
    if k + lo_off < 0 or k + hi_off > mesh.n_points - 1:
        raise ValueError(
            f"index {k} is invalid for '{spec}' on a mesh with {mesh.n_points} points"
        )
    span = hi_off - lo_off + 1
    offsets = np.arange(lo_off, hi_off + 1)
    weights = np.empty(span)
    for i in range(span):
        basis = np.zeros(span)
        basis[i] = 1.0
        out = second_difference(spec, GridFunction(mesh, k + lo_off, basis))
        weights[i] = out.value_at(k)
    return offsets, weights


def expansion_prediction(
    spec: SecondDiffSpec, f: AnalyticFunction, mesh: Mesh, k: int
) -> tuple[float, float]:
    """Predicted stencil value at t_k and a bound on the remainder.

    The prediction sums the closed-form f'' and f''' terms (plus the
    explicit f'''' term carried by the three symmetric-window pairs).  The
    remainder collects one mean-value term per stencil point, so it is
    bounded by sum_j |w_j| |t_{k+j} - t_k|**p / p! times the supremum of
    the order-p derivative over the stencil footprint, with p = 5 when the
    f'''' term is explicit and p = 4 otherwise.
    """
    offsets, weights = stencil_weights(spec, mesh, k)
    steps = local_steps(mesh, k)
    leading, fppp, f4_coeff = _coefficients(spec, steps)
    tk = float(mesh.points[k])
    predicted = leading * float(f.evaluate(2, tk)) + fppp * float(f.evaluate(3, tk))
    p = 4
    if f4_coeff is not None:
        predicted += f4_coeff * float(f.evaluate(4, tk))
        p = 5
    t_lo = float(mesh.points[k + offsets[0]])
    t_hi = float(mesh.points[k + offsets[-1]])
    sup = f.sup_abs(p, t_lo, t_hi)
    deltas = mesh.points[k + offsets] - tk
    bound = float(np.sum(np.abs(weights) * np.abs(deltas) ** p)) / math.factorial(p)
    return predicted, bound * sup


def empirical_order(
    op: Operator,
    f: AnalyticFunction,
    mesh_family: Sequence[Mesh],
    target_order: int,
) -> OrderEstimate:
    """Fit the convergence order of ``op`` against the exact derivative.

    Needs at least three meshes whose maximum steps decrease by a factor
    of 1.5 or more at every level.  The coarsest level is dropped from the
    fit when its sgei exceeds 1 (pre-asymptotic).
    """
    if target_order not in (1, 2):
        raise ValueError(f"target_order must be 1 or 2, got {target_order}")
    if len(mesh_family) < 3:
        raise ValueError(f"need at least 3 meshes, got {len(mesh_family)}")
    hmaxes = [float(np.max(m.steps)) for m in mesh_family]
    for coarse, fine in zip(hmaxes, hmaxes[1:]):
        if coarse < 1.5 * fine:
            raise ValueError(
                "degenerate mesh family: max steps must decrease by a factor of at "
                f"least 1.5 between levels, got {coarse:g} then {fine:g}"
            )
    sgeis = []
    for m in mesh_family:
        approx = apply_operator(op, sample(f, 0, m))
        reference = sample(f, target_order, m)
        sgeis.append(scaled_local_difference(reference, approx).sgei)
    samples = tuple(zip(hmaxes, sgeis))
    start = 1 if sgeis[0] > 1.0 else 0
    log_h = np.log([s[0] for s in samples[start:]])
    log_e = np.log([s[1] for s in samples[start:]])
    slope, intercept = np.polyfit(log_h, log_e, 1)
    return OrderEstimate(slope=float(slope), intercept=float(intercept), sample_points=samples)
