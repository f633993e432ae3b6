"""Analytic test functions with exact derivatives up to order 5.

These functions are the oracle against which every difference
approximation is measured: order 0 is the function itself, order n its
exact n-th derivative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .diffops import GridFunction
from .mesh import Mesh

__all__ = [
    "AnalyticFunction",
    "MAX_DERIVATIVE_ORDER",
    "make_sinusoid",
    "make_polynomial",
    "make_oscillator_solution",
    "sample",
]

# Fourth-derivative and fifth-derivative remainders are the deepest terms
# any in-scope expansion reaches.
MAX_DERIVATIVE_ORDER = 5

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class AnalyticFunction:
    """A scalar function bundled with its exact derivatives.

    ``evaluator(order, t)`` must accept scalar or ndarray ``t`` and be
    deterministic.  ``supremum(order, lo, hi)`` must return the exact
    maximum of |f^(order)| over [lo, hi] from the function's closed form.
    Orders 0..5 are supported.  :func:`make_sinusoid` evaluates a Python
    float ``t`` through ``math.sin``; that equals, bit for bit, the numpy
    path's value at the one-element array ``[t]`` wherever numpy's float64
    ``sin`` is the C library's, as in numpy 2.4.6 on x86-64 Linux.
    """

    label: str
    evaluator: Callable[[int, np.ndarray], np.ndarray] = field(repr=False)
    supremum: Callable[[int, float, float], float] = field(repr=False)

    def evaluate(self, order: int, t):
        _check_order(order)
        return self.evaluator(order, t)

    def sup_abs(self, order: int, lo: float, hi: float) -> float:
        """max of |f^(order)(t)| over lo <= t <= hi, exact up to rounding."""
        _check_order(order)
        lo, hi = float(lo), float(hi)
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError(f"interval must satisfy -inf < lo <= hi < inf, got lo={lo!r}, hi={hi!r}")
        return self.supremum(order, lo, hi)


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order must be within 0..{MAX_DERIVATIVE_ORDER}, got {order}"
        )


def _sinusoid_supremum(label: str, amplitude: float, frequency: float, phase: float):
    """Exact sup of |A w**n sin(w*t + phi + n*pi/2)| over an interval.

    The peak |A| |w|**n is reached where the argument crosses a crest
    pi/2 + j*pi; with no crest inside, |sin| is monotone between the
    endpoints, so the larger endpoint value is the maximum.  Rejects, by
    ``label``, a phase that is not finite and a sinusoid whose peak
    overflows at the highest order.
    """
    if not math.isfinite(phase):
        raise ValueError(f"{label}: the phase {phase!r} is not finite")
    try:
        finite = math.isfinite(abs(amplitude) * abs(frequency) ** MAX_DERIVATIVE_ORDER)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"{label}: |amplitude| * |frequency|**{MAX_DERIVATIVE_ORDER} is not finite, "
            f"so its derivatives up to order {MAX_DERIVATIVE_ORDER} cannot be evaluated"
        )

    peaks = [abs(amplitude) * abs(frequency) ** order for order in range(MAX_DERIVATIVE_ORDER + 1)]
    shifts = [order * math.pi / 2 for order in range(MAX_DERIVATIVE_ORDER + 1)]

    def supremum(order: int, lo: float, hi: float) -> float:
        end_lo = frequency * lo + phase + shifts[order]
        end_hi = frequency * hi + phase + shifts[order]
        # min() and max() of the two ends, as the builtins pick them
        first = end_hi if end_hi < end_lo else end_lo
        last = end_hi if end_hi > end_lo else end_lo
        if math.ceil((first - _HALF_PI) / math.pi) <= math.floor((last - _HALF_PI) / math.pi):
            return peaks[order]
        at_first, at_last = abs(math.sin(first)), abs(math.sin(last))
        return peaks[order] * (at_last if at_last > at_first else at_first)

    return supremum


def make_sinusoid(amplitude: float, frequency: float, phase: float = 0.0) -> AnalyticFunction:
    """A * sin(w*t + phi); the n-th derivative is A * w**n * sin(w*t + phi + n*pi/2)."""
    label = f"sinusoid(amplitude={amplitude:g},frequency={frequency:g},phase={phase:g})"
    supremum = _sinusoid_supremum(label, float(amplitude), float(frequency), float(phase))

    def evaluator(order: int, t):
        if type(t) is float:
            try:
                return amplitude * frequency**order * math.sin(frequency * t + phase + order * math.pi / 2)
            except ValueError:  # an infinite argument, where np.sin gives nan
                pass
        # A * w**n * sin(w*t + phi + n*pi/2), each operation in place on one copy of t;
        # a sample that is not finite is ``sample``'s named error, not a warning
        x = np.array(t, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            x *= frequency
            x += phase
            x += order * np.pi / 2
            np.sin(x, out=x)
            x *= amplitude * frequency**order
        return x if x.ndim else x[()]

    return AnalyticFunction(
        label=label,
        evaluator=evaluator,
        supremum=supremum,
    )


def _sign_change_roots(tables: list[np.ndarray], j: int, lo: float, hi: float) -> list[float]:
    """Points of [lo, hi] where the polynomial ``tables[j]`` changes sign.

    ``tables[j + 1]`` is its derivative, whose sign changes cut [lo, hi]
    into monotone pieces holding at most one root each.  Recursing down
    the tables therefore finds every root, bisecting to the last float,
    and never forms a root outside [lo, hi], where it could overflow.
    """
    table = tables[j]
    if not table.any():
        return []
    knots = [lo, *_sign_change_roots(tables, j + 1, lo, hi), hi]
    positive = [np.polynomial.polynomial.polyval(t, table) > 0 for t in knots]
    roots = []
    for a, b, pos_a, pos_b in zip(knots, knots[1:], positive, positive[1:]):
        if pos_a == pos_b:
            continue
        while a < (mid := 0.5 * a + 0.5 * b) < b:
            if (np.polynomial.polynomial.polyval(mid, table) > 0) == pos_a:
                a = mid
            else:
                b = mid
        roots.append(mid)
    return roots


def make_polynomial(coefficients: Sequence[float]) -> AnalyticFunction:
    """Polynomial c0 + c1*t + ... with exact derivatives; degree at most 5."""
    coefs = np.asarray(list(coefficients), dtype=np.float64)
    if coefs.size == 0:
        coefs = np.zeros(1)
    if coefs.size - 1 > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"polynomial degree must be at most {MAX_DERIVATIVE_ORDER}, "
            f"got degree {coefs.size - 1}"
        )
    label = f"poly({','.join(format(c, 'g') for c in coefs)})"
    if not np.isfinite(coefs).all():
        raise ValueError(f"{label}: the coefficients are not all finite")
    # derivative coefficient tables, ascending powers; the last one is zero.
    # The evaluator refuses an order whose table overflowed, the suprema any overflow.
    tables = [coefs]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_DERIVATIVE_ORDER + 1):
            tables.append(np.polynomial.polynomial.polyder(tables[-1]))
    finite = [bool(np.isfinite(table).all()) for table in tables]
    overflows = not all(finite)

    def evaluator(order: int, t):
        if not finite[order]:
            raise ValueError(f"{label}: a coefficient of its order-{order} derivative is not finite, "
                             "so that derivative cannot be evaluated")
        t = np.asarray(t, dtype=np.float64)
        return np.polynomial.polynomial.polyval(t, tables[order])

    def supremum(order: int, lo: float, hi: float) -> float:
        if overflows:
            raise ValueError(f"{label}: a coefficient of its derivatives up to order {MAX_DERIVATIVE_ORDER} "
                             "is not finite, so their suprema cannot be formed")
        # |p^(order)| peaks at an endpoint or where p^(order+1) changes sign
        ts = np.array([lo, hi, *_sign_change_roots(tables, order + 1, lo, hi)])
        return float(np.max(np.abs(np.polynomial.polynomial.polyval(ts, tables[order]))))

    return AnalyticFunction(label=label, evaluator=evaluator, supremum=supremum)


def _oscillator_motion(kappa: float, value_at_t0: float, slope_at_t0: float, t0: float, order: int, t):
    """The ``order``-th derivative at ``t`` of the solution of u'' = -kappa*u with u(t0)=value and u'(t0)=slope.

    omega**n * (c_sin*sin(x) + c_cos*cos(x)) with x = omega*(t - t0) + n*pi/2,
    omega = sqrt(kappa), c_sin = slope/omega and c_cos = value, in place on
    two buffers; a 0-d ``t`` gives a numpy scalar.  No derivative bound is
    formed, so any kappa whose motion is finite at ``t`` evaluates.
    """
    omega = math.sqrt(kappa)
    x = np.array(t, dtype=np.float64)
    x -= t0
    x *= omega
    x += order * np.pi / 2
    c = np.cos(x)
    np.sin(x, out=x)
    x *= slope_at_t0 / omega
    c *= value_at_t0
    x += c
    x *= omega**order
    return x if x.ndim else x[()]


def make_oscillator_solution(kappa: float) -> AnalyticFunction:
    """-(1/sqrt(kappa))*sin(sqrt(kappa)*t) + cos(sqrt(kappa)*t).

    This is the motion with unit initial displacement and slope -1 at t = 0,
    evaluated by :func:`_oscillator_motion`.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    label = f"oscillator(kappa={kappa:g})"
    omega = math.sqrt(kappa)
    c_sin, c_cos = -1.0 / omega, 1.0
    # c_sin*sin(x) + c_cos*cos(x) = R*sin(x + atan2(c_cos, c_sin)), a sinusoid in t.
    return AnalyticFunction(
        label=label,
        evaluator=functools.partial(_oscillator_motion, kappa, 1.0, -1.0, 0.0),
        supremum=_sinusoid_supremum(label, math.hypot(c_sin, c_cos), omega, math.atan2(c_cos, c_sin)),
    )


def sample(f: AnalyticFunction, order: int, mesh: Mesh) -> GridFunction:
    """Sample the exact ``order``-th derivative of ``f`` at every mesh point.

    A sample that is not finite raises ``ValueError`` naming ``f``, the
    order and the first mesh point whose sample it is.
    """
    values = np.asarray(f.evaluate(order, mesh.points), dtype=np.float64)
    try:
        return GridFunction(mesh=mesh, first_index=0, values=values)
    except ValueError:  # with one sample per point, the one check left to fail: a value that is not finite
        if values.shape != mesh.points.shape:
            raise
        index = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"{f.label}: its order-{order} samples must all be finite, "
                         f"but the sample at t = {mesh.points[index]:.6g} is not") from None
