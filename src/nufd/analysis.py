"""Consistency coefficients, truncation-error bounds and empirical orders.

Every second difference (an ordered pair of first differences, or the
corrected stencil d2) expands as

    leading * f''(t_k) + fppp * f'''(t_k) + ... + remainder,

where the coefficient of f^(p)(t_k) is the stencil's Taylor moment
sum_j w_j (t_{k+j} - t_k)**p / p!, with the weights w_j from
:func:`nufd.diffops.stencil`.  The operator approximates f'' consistently
at t_k exactly when the leading coefficient is 1.  Remainders involve unknown
mean-value points, so they are only ever reported as interval brackets and
sup-based bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, isfinite
from typing import Sequence

import numpy as np

from .diffops import (
    FirstDiffKind,
    Operator,
    SecondOperator,
    WindowError,
    _Plan,
    _weights,
    apply_operator,
)
from .functions import AnalyticFunction, sample
from .mesh import Mesh, MeshError
from .metrics import scaled_local_difference

__all__ = [
    "CONSISTENCY_TOL",
    "ConsistencyReport",
    "OrderEstimate",
    "consistency_coefficient",
    "consistency_report_at",
    "geometric_consistency",
    "first_diff_error_bound",
    "expansion_prediction",
    "empirical_order",
]

CONSISTENCY_TOL = 1e-12


@dataclass(frozen=True)
class ConsistencyReport:
    """Leading expansion coefficients of one second difference at one index."""

    spec: SecondOperator
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


def _second_plan(spec: SecondOperator) -> _Plan:
    """A second difference's stencil plan; TypeError for anything else."""
    plan = getattr(spec, "plan", None)
    if plan is None or not plan.inner:
        raise TypeError(f"need a second difference, got {spec!r}")
    return plan


def _local_points(spec: SecondOperator, mesh: Mesh, k: int) -> tuple[_Plan, list[float]]:
    """(plan, x): the spec's plan and the mesh points x = t_{k+lo} .. t_{k+hi} under its stencil at index k."""
    plan = _second_plan(spec)
    lo, hi = plan.lo, plan.hi
    if k + lo < 0 or k + hi >= len(mesh.points):
        raise WindowError(f"index {k} is invalid for '{spec}' on a mesh with {mesh.n_points} points")
    return plan, mesh.points[k + lo : k + hi + 1].tolist()


def _not_expandable(op: Operator, index: int, x: list[float]) -> MeshError:
    """The error for an expansion of ``op`` at ``index`` that float64 cannot form on the points ``x``."""
    return MeshError(
        f"cannot expand '{op}' at index {index} in float64: its weights, moments or remainder "
        f"are not finite on the points {x} under its stencil"
    )


def _moments(op: Operator, plan: _Plan, x: list[float], index: int, p: int = 0) -> tuple[float, ...]:
    """(M_2, M_3, M_4, R_p) from one pass over the stencil row: the Taylor
    moments M_q = sum_j w_j d_j**q / q!, d_j = t_{k+j} - t_k, and the
    remainder sum R_p = sum_j |w_j d_j**p| / p!.

    M_4 and R_p are formed only for p = 4 or 5, the remainder order of
    :func:`expansion_prediction`; otherwise both are 0.  The row is
    ``plan.rows`` in offset order, each weight read from ``_weights``, so the
    (offset, weight) pairs of :func:`stencil` are never built.  t_k is
    x[-lo].  Each power of d is a product, never ``**``, and each sum is
    ``math.fsum``, so every moment is the correctly rounded sum of its terms,
    whatever their order and the Python version: reflecting the points,
    which reverses the row, or scaling them by a power of two, which scales
    every term exactly, maps every moment exactly.  Steps that float64
    cannot expand over (a weight or a power that overflows, points that
    collapse, or inf * 0 where weights overflow and powers underflow) raise
    MeshError, by fsum's own error or by a sum that is not finite.
    """
    lo = plan.lo
    tk = x[-lo]
    squares, cubes, fourths, remainders = [], [], [], []
    try:
        weights = _weights(plan, x)
        for j, i in plan.rows:
            w = weights[i]
            d = x[j - lo] - tk
            dd = d * d
            squares.append(w * dd)
            cubes.append(w * (dd * d))
            if p:  # only the predictions reach the fourth power
                d4 = dd * dd
                fourths.append(w * d4)
                remainders.append(abs(w * (d4 if p == 4 else d4 * d)))
        m2, m3 = fsum(squares) / 2, fsum(cubes) / 6
        m4, bound = (fsum(fourths) / 24, fsum(remainders) / math.factorial(p)) if p else (0.0, 0.0)
    except (ArithmeticError, ValueError) as exc:
        raise _not_expandable(op, index, x) from exc
    if not (isfinite(m2) and isfinite(m3) and isfinite(m4) and isfinite(bound)):
        raise _not_expandable(op, index, x)
    return m2, m3, m4, bound


def _report(spec: SecondOperator, plan: _Plan, x: list[float], index: int) -> ConsistencyReport:
    """The report of M_2 and M_3 from :func:`_moments`."""
    leading, fppp, _, _ = _moments(spec, plan, x, index)
    # the frozen dataclass's __init__ sets each field through object.__setattr__;
    # filling the instance dict at once gives the same object in a third of the time
    report = object.__new__(ConsistencyReport)
    vars(report).update(
        spec=spec,
        index=index,
        leading_coefficient=leading,
        fppp_coefficient=fppp,
        consistent=abs(leading - 1.0) <= CONSISTENCY_TOL,
        remainder_bracket=(x[0], x[-1]),
    )
    return report


_STEP_NAMES = ("h_{k-2}", "h_{k-1}", "h_k", "h_{k+1}")


def consistency_coefficient(spec: SecondOperator, steps: Sequence[float | None]) -> ConsistencyReport:
    """Expansion coefficients from the four local step sizes.

    ``steps`` is (h_{k-2}, h_{k-1}, h_k, h_{k+1}); only the entries the
    operator actually uses must be present.  The report sits at index 2 with
    t_k = 0.
    """
    if len(steps) != 4:
        raise ValueError(
            "steps must be the quadruple (h_{k-2}, h_{k-1}, h_k, h_{k+1}); "
            "entries the operator does not use may be None"
        )

    def step(which: int) -> float:
        value = steps[which]
        if value is None:
            raise ValueError(f"operator '{spec}' needs step {_STEP_NAMES[which]}, which is missing")
        value = float(value)
        if not (isfinite(value) and value > 0):
            raise ValueError(f"step {_STEP_NAMES[which]} must be positive and finite, got {value!r}")
        return value

    # the points under the stencil relative to t_k = 0: back through h_{k-1},
    # h_{k-2} and forward through h_k, h_{k+1} as far as the operator reaches
    plan = _second_plan(spec)
    x = [0.0]
    for which in range(1, 1 + plan.lo, -1):
        x.insert(0, x[0] - step(which))
    for which in range(2, 2 + plan.hi):
        x.append(x[-1] + step(which))
    return _report(spec, plan, x, 2)


def consistency_report_at(spec: SecondOperator, mesh: Mesh, k: int) -> ConsistencyReport:
    """Consistency report for one second difference at mesh index k."""
    plan, x = _local_points(spec, mesh, k)
    return _report(spec, plan, x, k)


def geometric_consistency(spec: SecondOperator, alpha: float) -> float:
    """Leading coefficient on a mesh with constant step ratio ``alpha``.

    Equals 1 for every pair exactly when alpha == 1, and for d2 always.  Raises
    ValueError unless alpha, alpha**2 and alpha**3 are all positive finite floats.
    """
    steps = (1.0, alpha, alpha * alpha, alpha * alpha * alpha)
    if not all(0 < h < math.inf for h in steps):
        raise ValueError(f"alpha, alpha**2 and alpha**3 must be positive and finite, got alpha={alpha!r}")
    return consistency_coefficient(spec, steps).leading_coefficient


def first_diff_error_bound(
    kind: FirstDiffKind, f: AnalyticFunction, mesh: Mesh, k: int
) -> float:
    """Rigorous bound on |difference - f'(t_k)| for one first difference,
    in exact arithmetic on the float mesh points.

    Forward and backward differences are bounded through f'' on the step
    they straddle; the central difference is bounded through f'' on both
    neighbouring steps, except on uniform meshes where the sharper f'''
    form applies.  Every supremum is exact, from ``f.sup_abs``.

    The bound covers truncation only: neither the rounding of the samples
    nor that of the quotient's own operations.  Where those dominate, the
    float difference can lie outside it; for -sin(4 pi t) on 1,000 uniform
    points of [1e9, 1e9 + 1] it does at 8 (d+), 19 (d-) and 27 (c) indices,
    against a 50-digit f'(t_k).
    """
    if not isinstance(kind, FirstDiffKind):
        raise TypeError(f"unknown first-difference kind {kind!r}")
    b, a = kind.plan.lo, kind.plan.hi
    if k + b < 0 or k + a >= len(mesh.points):
        raise WindowError(f"index {k} invalid for a {kind.name.lower()} difference")
    x = mesh.points[k + b : k + a + 1].tolist()
    if a - b == 1:
        return ((x[1] - x[0]) / 2) * f.sup_abs(2, x[0], x[1])
    # the central difference, the only one that spans two steps
    t0, t1, t2 = x
    h0, h1 = t1 - t0, t2 - t1
    h0_sq, h1_sq = h0 * h0, h1 * h1
    if math.inf in (h0_sq, h1_sq):  # a step beyond about 1.3e154
        raise _not_expandable(kind, k, x)
    if mesh.is_uniform():
        return (h1_sq / 3) * f.sup_abs(3, t0, t2)
    sup_fwd = f.sup_abs(2, t1, t2)
    sup_bwd = f.sup_abs(2, t0, t1)
    return (h1_sq * sup_fwd + h0_sq * sup_bwd) / (2 * (h1 + h0))


def expansion_prediction(
    spec: SecondOperator, f: AnalyticFunction, mesh: Mesh, k: int
) -> tuple[float, float]:
    """Predicted stencil value at t_k and a bound on the remainder, in exact
    arithmetic on the float mesh points.

    The prediction sums M_q f^(q)(t_k) for q = 2 .. p-1, where M_q is the
    stencil's Taylor moment sum_j w_j (t_{k+j} - t_k)**q / q!.  The
    remainder collects one mean-value term per stencil point, so it is
    bounded by sum_j |w_j| |t_{k+j} - t_k|**p / p! times the supremum of
    the order-p derivative over the stencil footprint.  p = 5 on the
    symmetric windows (c c, d+ d-, d- d+, d2), whose odd moments vanish on
    uniform meshes, and p = 4 otherwise.

    The bound covers truncation only: neither the rounding of the samples
    nor that of the stencil's own operations, so the float stencil value
    can lie outside it where steps are small; for ``d- d+`` of
    -sin(4 pi t) on ``geometric:0,0.1,50/59,200`` it does at 161 of 200
    indices.
    """
    plan, x = _local_points(spec, mesh, k)
    tk = x[-plan.lo]
    p = 5 if plan.lo == -plan.hi else 4
    *moments, bound = _moments(spec, plan, x, k, p)
    predicted = fsum([moments[q - 2] * float(f.evaluate(q, tk)) for q in range(2, p)])
    return predicted, bound * f.sup_abs(p, x[0], x[-1])


def empirical_order(
    op: Operator,
    f: AnalyticFunction,
    mesh_family: Sequence[Mesh],
    target_order: int,
) -> OrderEstimate:
    """Fit the convergence order of ``op`` against the exact derivative.

    Needs at least three meshes whose maximum steps decrease by a factor
    of 1.5 or more at every level.  The coarsest level is dropped from the
    fit when its sgei exceeds 1 (pre-asymptotic).  A fitted level whose sgei
    is exactly 0 is a ValueError: the operator is exact there.
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
    for level in range(start, len(sgeis)):
        if sgeis[level] == 0.0:
            raise ValueError(
                f"sgei is exactly 0 on mesh {level} of the family (h_max = {hmaxes[level]:g}): "
                "the operator is exact there, so there is no order to fit"
            )
    log_h = np.log([s[0] for s in samples[start:]])
    log_e = np.log([s[1] for s in samples[start:]])
    slope, intercept = np.polyfit(log_h, log_e, 1)
    return OrderEstimate(slope=float(slope), intercept=float(intercept), sample_points=samples)
