"""Independent numpy references that the workload checks compare against.

Nothing here imports nufd.  Every reference returns its value together
with a rounding scale: the magnitude the same arithmetic would reach with
all signs made positive.  A check then accepts a difference of a small
multiple of machine epsilon times that scale, so a correct reformulation
of an operator passes while a wrong answer fails.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Operators are named as on the nufd command line: "d+", "d-", "c", "d2"
# or an ordered pair "outer inner".
FIRST_KINDS = ("d+", "d-", "c")
PAIRS = tuple(f"{outer} {inner}" for outer in FIRST_KINDS for inner in FIRST_KINDS)
ALL_OPERATORS = FIRST_KINDS + PAIRS + ("d2",)

# Index offsets each first difference reads, relative to its output index.
_FIRST_OFFSETS = {"d+": (0, 1), "d-": (-1, 0), "c": (-1, 1)}


def kinds(op: str) -> tuple[str, ...]:
    """First-difference passes of ``op``, outermost first ("d2" stays whole)."""
    return tuple(op.split())


def derivative_order(op: str) -> int:
    return 1 if op in FIRST_KINDS else 2


def offsets(op: str) -> tuple[int, int]:
    """Smallest and largest index offset the operator's stencil touches."""
    if op == "d2":
        return -1, 1
    lo = hi = 0
    for kind in kinds(op):
        lo += _FIRST_OFFSETS[kind][0]
        hi += _FIRST_OFFSETS[kind][1]
    return lo, hi


def window(op: str, n_points: int) -> tuple[int, int]:
    """Output index window of ``op`` applied to values on all mesh points."""
    lo, hi = offsets(op)
    return -lo, n_points - 1 - hi


def _band(kind: str, t: np.ndarray, k: np.ndarray) -> dict[int, np.ndarray]:
    """Weights of one first difference at output indices ``k``."""
    if kind == "d+":
        w = 1.0 / (t[k + 1] - t[k])
        return {0: -w, 1: w}
    if kind == "d-":
        w = 1.0 / (t[k] - t[k - 1])
        return {-1: -w, 0: w}
    if kind == "c":
        w = 1.0 / (t[k + 1] - t[k - 1])
        return {-1: -w, 1: w}
    raise ValueError(f"unknown first difference {kind!r}")


def weights(op: str, t: np.ndarray, k: np.ndarray) -> dict[int, np.ndarray]:
    """Pointwise stencil weights {offset: weight at each index in ``k``}.

    Compositions multiply the two first-difference bands out, which is the
    weight form of the operator rather than the composition nufd evaluates.
    """
    k = np.asarray(k)
    if op == "d2":
        hm = t[k] - t[k - 1]
        hp = t[k + 1] - t[k]
        avg = (hm + hp) / 2
        return {-1: 1.0 / (hm * avg), 0: -(1.0 / hm + 1.0 / hp) / avg, 1: 1.0 / (hp * avg)}
    parts = kinds(op)
    if len(parts) == 1:
        return _band(parts[0], t, k)
    outer, inner = parts
    out: dict[int, np.ndarray] = {}
    for a, wa in _band(outer, t, k).items():
        for b, wb in _band(inner, t, k + a).items():
            out[a + b] = out.get(a + b, 0.0) + wa * wb
    return out


def apply(op: str, t: np.ndarray, v: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, rounding scale) of ``op`` on point values ``v`` at indices ``k``.

    The scale propagates |v| through the composed passes, which bounds the
    rounding of either the composition or the weight form.
    """
    k = np.asarray(k)
    value = sum(w * v[k + j] for j, w in weights(op, t, k).items())
    av = np.abs(v)
    if op == "d2":
        hm = t[k] - t[k - 1]
        hp = t[k + 1] - t[k]
        scale = ((av[k + 1] + av[k]) / hp + (av[k] + av[k - 1]) / hm) / ((hm + hp) / 2)
        return value, scale
    parts = kinds(op)
    if len(parts) == 1:
        return value, sum(np.abs(w) * av[k + j] for j, w in _band(parts[0], t, k).items())
    outer, inner = parts
    scale = 0.0
    for a, wa in _band(outer, t, k).items():
        inner_abs = sum(np.abs(wb) * av[k + a + b] for b, wb in _band(inner, t, k + a).items())
        scale = scale + np.abs(wa) * inner_abs
    return value, scale


def sinusoid(amplitude: float, frequency: float, phase: float, order: int, t):
    """(A w^n sin(w t + phi + n pi/2), rounding scale) at ``t``."""
    arg = frequency * np.asarray(t, dtype=np.float64) + phase + order * np.pi / 2
    magnitude = abs(amplitude) * frequency**order
    return amplitude * frequency**order * np.sin(arg), magnitude * (4.0 + np.abs(arg))


def moments(op: str, t: np.ndarray, k: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor moment sum_j w_j (t_{k+j} - t_k)^p / p! and its absolute analogue."""
    k = np.asarray(k)
    m = 0.0
    a = 0.0
    for j, w in weights(op, t, k).items():
        d = (t[k + j] - t[k]) ** p / math.factorial(p)
        m = m + w * d
        a = a + np.abs(w * d)
    return m, a


def geometric_points(t0: float, h0: float, r: float, m: int) -> np.ndarray:
    """Points of the geometric mesh t0 + sum h0 r^j, as nufd's build_geometric defines them."""
    steps = h0 * r ** np.arange(m + 1, dtype=np.float64)
    return np.concatenate(([t0], t0 + np.cumsum(steps)))


def oscillator_exact(kappa: float, value: float, slope: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact motion of u'' = -kappa u from (value, slope) at t[0], with its rounding scale."""
    omega = math.sqrt(kappa)
    arg = omega * (t - t[0])
    exact = value * np.cos(arg) + (slope / omega) * np.sin(arg)
    return exact, (abs(value) + abs(slope / omega)) * (4.0 + np.abs(arg))


def march(t: np.ndarray, kappa: float, value: float, slope: float, op: str) -> np.ndarray:
    """The oscillator march in long double, from the forward-difference start.

    ``op`` is "d- d+" (three-term recurrence of the composition) or "d2"
    (the step-averaged stencil).
    """
    if op not in ("d- d+", "d2"):
        raise ValueError(f"no march for {op!r}")
    h = list(np.diff(np.asarray(t, dtype=np.longdouble)))
    kap = np.longdouble(kappa)
    w = [np.longdouble(value), np.longdouble(value) + h[0] * np.longdouble(slope)]
    corrected = op == "d2"
    for k in range(1, len(h)):
        hm, hp = h[k - 1], h[k]
        wk, wm = w[k], w[k - 1]
        if corrected:
            w.append(wk + hp * ((wk - wm) / hm - kap * wk * (hm + hp) / 2))
        else:
            w.append(((hp + hm) * wk - hp * wm - kap * wk * hp * hm * hm) / hm)
    return np.array(w, dtype=np.longdouble)


def march_tolerance(n_points: int, magnitude: float) -> float:
    """Rounding-drift scale of an n-point double-precision march.

    Rounding errors of the three-term recurrence accumulate faster than
    linearly (8e-12 relative at 1e4 points, 2.3e-10 at 1e5); 4 eps n^1.5
    covers that growth, and any better-conditioned march sits far below it.
    """
    return 4.0 * EPS * n_points**1.5 * magnitude


def fit_slope(h_max: list[float], sgei: list[float]) -> float:
    """Least-squares slope of log(sgei) against log(h_max), coarsest level
    dropped when its sgei exceeds 1, as nufd's empirical order defines it."""
    start = 1 if sgei[0] > 1.0 else 0
    slope, _ = np.polyfit(np.log(h_max[start:]), np.log(sgei[start:]), 1)
    return float(slope)
