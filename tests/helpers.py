"""Shared builders for randomized meshes and functions used across tests."""

from __future__ import annotations

import numpy as np

from nufd import Mesh, make_polynomial, make_sinusoid

EPS = np.finfo(float).eps


def random_mesh(rng: np.random.Generator, n_steps: int, lo: float = 0.5, hi: float = 1.5,
                start: float = 0.0, scale: float = 1.0) -> Mesh:
    """Mesh with ``n_steps`` independent steps drawn from U(lo, hi) * scale."""
    steps = rng.uniform(lo, hi, n_steps) * scale
    return Mesh(np.concatenate(([start], start + np.cumsum(steps))))


def exact_uniform_mesh(rng: np.random.Generator | None, n_points: int) -> Mesh:
    """Uniform mesh whose steps are all the same float, bit for bit.

    Integer grid indices times a short-mantissa step keep every product
    exact, unlike linspace whose steps wobble by ulps of the endpoints.
    """
    if rng is None:
        step, offset = 0.25, 0
    else:
        step = float(rng.integers(1, 2**30)) * 2.0**-31
        offset = int(rng.integers(0, 64))
    return Mesh((np.arange(n_points) + offset) * step)


def jittered_family(seed: int, n_steps_list=(44, 88, 176, 352, 704), jitter: float = 0.3):
    """Unit-interval meshes whose steps are jittered by +-``jitter`` relative."""
    rng = np.random.default_rng(seed)
    family = []
    for n in n_steps_list:
        steps = (1.0 / n) * (1.0 + jitter * rng.uniform(-1.0, 1.0, n))
        points = np.concatenate(([0.0], np.cumsum(steps)))
        family.append(Mesh(points / points[-1]))
    return family


def random_polynomial(rng: np.random.Generator, degree: int = 3):
    coefs = rng.uniform(-2.0, 2.0, degree + 1)
    return make_polynomial(coefs)


def random_smooth_function(rng: np.random.Generator):
    """Either a random cubic or a random low-frequency sinusoid."""
    if rng.random() < 0.5:
        return random_polynomial(rng, 3)
    return make_sinusoid(
        amplitude=rng.uniform(0.5, 2.0),
        frequency=rng.uniform(1.0, 8.0),
        phase=rng.uniform(0.0, 2 * np.pi),
    )


def abs_first_pass(kind: str, t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude analogue of one difference pass: |a|+|b| over the step.

    Propagating absolute values through the same arithmetic gives the
    natural scale against which rounding of the real pass is measured.
    """
    av = np.abs(v)
    if kind == "d+":
        return t[:-1], (av[1:] + av[:-1]) / (t[1:] - t[:-1])
    if kind == "d-":
        return t[1:], (av[1:] + av[:-1]) / (t[1:] - t[:-1])
    if kind == "c":
        return t[1:-1], (av[2:] + av[:-2]) / (t[2:] - t[:-2])
    raise ValueError(kind)


def stencil_scale(kinds: tuple[str, ...], t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rounding scale of composed difference passes, innermost kind last."""
    cur_t, cur_v = t, np.abs(v)
    for kind in reversed(kinds):
        cur_t, cur_v = abs_first_pass(kind, cur_t, cur_v)
    return cur_v


def long_double_march(t: np.ndarray, kappa: float, value: float, slope: float, op: str,
                      second_value: float | None = None) -> np.ndarray:
    """The oscillator march as a point-by-point three-term recurrence in long double.

    ``op`` is "d- d+" or "d2".  This is the paper's explicit solve of the
    three-point stencil equation for w_{k+1}, kept as an independent oracle
    for the blocked value–slope march.  The start is w_1 = w_0 + h_0 * slope
    unless ``second_value`` gives w_1.
    """
    if op not in ("d- d+", "d2"):
        raise ValueError(op)
    h = np.diff(np.asarray(t, dtype=np.longdouble))
    kap = np.longdouble(kappa)
    w = np.empty(h.size + 1, dtype=np.longdouble)
    w[0] = value
    w[1] = w[0] + h[0] * np.longdouble(slope) if second_value is None else second_value
    for k in range(1, h.size):
        hm, hp = h[k - 1], h[k]
        if op == "d2":
            w[k + 1] = w[k] + hp * ((w[k] - w[k - 1]) / hm - kap * w[k] * (hm + hp) / 2)
        else:
            w[k + 1] = ((hp + hm) * w[k] - hp * w[k - 1] - kap * w[k] * hp * hm * hm) / hm
    return w
