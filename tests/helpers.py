"""Shared builders for randomized meshes and functions used across tests."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from nufd import D2_CORRECTED, FirstDiffKind, Mesh, SecondDiffSpec, build_geometric

EPS = np.finfo(float).eps


def random_mesh(rng: np.random.Generator, n_steps: int, lo: float = 0.5, hi: float = 1.5,
                start: float = 0.0, scale: float = 1.0) -> Mesh:
    """Mesh with ``n_steps`` independent steps drawn from U(lo, hi) * scale."""
    steps = rng.uniform(lo, hi, n_steps) * scale
    return Mesh(np.concatenate(([start], start + np.cumsum(steps))))


def mesh_from_quadruple(steps) -> Mesh:
    """Five-point mesh with the given steps, centred so index 2 sits at 0."""
    h0, h1, h2, h3 = steps
    return Mesh(np.array([-(h0 + h1), -h1, 0.0, h2, h2 + h3]))


def float_bits(x) -> bytes:
    """The eight bytes of ``x`` as a float64, so that equal means bit for bit (0.0 and -0.0 differ)."""
    return np.float64(x).tobytes()


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


MESH_FAMILIES = ("jittered", "geometric", "offset", "uniform")


def family_mesh(rng: np.random.Generator, family: str, n_points: int) -> Mesh:
    """A random ``n_points`` mesh of one of the ``MESH_FAMILIES``."""
    if family == "jittered":
        return random_mesh(rng, n_points - 1, lo=0.2, hi=1.8)
    if family == "geometric":
        return build_geometric(0.0, rng.uniform(0.01, 1.0), rng.uniform(0.5, 2.0), n_points - 2)
    if family == "offset":
        return random_mesh(rng, n_points - 1, lo=0.2, hi=1.8, start=1e6)
    return exact_uniform_mesh(rng, n_points)


_MIRRORED = {FirstDiffKind.FORWARD: FirstDiffKind.BACKWARD, FirstDiffKind.BACKWARD: FirstDiffKind.FORWARD,
             FirstDiffKind.CENTRAL: FirstDiffKind.CENTRAL}


def mirrored(op):
    """The operator that t -> -t turns ``op`` into: d+ and d- swap, a pair maps componentwise, c and d2 stay."""
    if isinstance(op, FirstDiffKind):
        return _MIRRORED[op]
    if isinstance(op, SecondDiffSpec):
        return SecondDiffSpec(_MIRRORED[op.outer], _MIRRORED[op.inner])
    return op


def reference_columns_csv(header: str, columns, first_index: int | None = None,
                          footer=()) -> str:
    """CSV text of ``columns`` rendered one cell at a time.

    This is the per-row loop the streaming column writer replaced, kept as
    its oracle: an index is ``str(int(k))`` and every float is
    ``format(float(x), ".17g")``; cells are joined with "," and lines with
    newlines.
    """
    lines = [header]
    for i, row in enumerate(zip(*columns)):
        cells = [format(float(x), ".17g") for x in row]
        if first_index is not None:
            cells.insert(0, str(int(first_index + i)))
        lines.append(",".join(cells))
    lines.extend(footer)
    return "".join(line + "\n" for line in lines)


def read_mesh_points(path) -> Mesh:
    """The mesh in a ``k,t,h`` CSV file: the ``t`` cell of every row, parsed by ``float``."""
    header, *rows = Path(path).read_text().splitlines()
    if header != "k,t,h":
        raise ValueError(f"expected header 'k,t,h', got {header!r}")
    return Mesh(np.array([float(row.split(",")[1]) for row in rows]))


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

    ``op`` is "d- d+", "d+ d-" or "d2".  This is the paper's explicit solve
    of the three-point stencil equation for w_{k+1}, kept as an independent
    oracle for the blocked value–slope march.  The start is
    w_1 = w_0 + h_0 * slope unless ``second_value`` gives w_1.
    """
    if op not in ("d- d+", "d+ d-", "d2"):
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
        elif op == "d+ d-":
            w[k + 1] = w[k] + hp * ((w[k] - w[k - 1]) / hm - kap * hp * w[k])
        else:
            w[k + 1] = ((hp + hm) * w[k] - hp * w[k - 1] - kap * w[k] * hp * hm * hm) / hm
    return w


def padded_march(w0, w1, v0, h, growth):
    """The blocked march as first written, and the number of blocks its chain gave a start.

    Zero-padded (length, blocks) copies of the steps and growths, and one
    expression combining the basis with the starts; kept as the bitwise
    oracle of ``nufd.ivp._march``.
    """
    m = h.size
    length = max(1, math.isqrt(m // 10))
    blocks = -(-m // length)

    def by_step(x):
        padded = np.zeros(blocks * length)
        padded[:m] = x
        return np.ascontiguousarray(padded.reshape(blocks, length).T)

    a, hs = by_step(growth), by_step(h)
    basis = np.empty((2, length, blocks))
    w = np.zeros((2, blocks))
    v = np.zeros((2, blocks))
    w[0] = 1.0
    v[1] = 1.0
    for i in range(length):
        v -= a[i] * w
        w += hs[i] * v
        basis[:, i] = w
    xs, ys = [], []
    x, y = w1, v0
    for p, q, r, s in zip(*w.tolist(), *v.tolist()):
        if not (x or y):
            break
        xs.append(x)
        ys.append(y)
        x, y = p * x + q * y, r * x + s * y
    starts = np.zeros((2, 1, blocks))
    starts[0, 0, : len(xs)] = xs
    starts[1, 0, : len(ys)] = ys
    np.copyto(basis, 0.0, where=starts == 0.0)
    out = np.empty(2 + blocks * length)
    out[0], out[1] = w0, w1
    out[2:].reshape(blocks, length).T[...] = basis[0] * starts[0] + basis[1] * starts[1]
    return out[: m + 2], len(xs)


def oscillator_expression(kappa, value, slope, t0, order, t):
    """The oscillator motion's evaluator as one expression, as first written."""
    omega = np.sqrt(kappa)
    c_sin, c_cos = slope / omega, value
    arg = omega * (np.asarray(t, dtype=np.float64) - t0) + order * np.pi / 2
    return omega**order * (c_sin * np.sin(arg) + c_cos * np.cos(arg))


def reference_solve(t: np.ndarray, kappa: float, value: float, slope: float, op: str):
    """(w, exact, sld, scale, sgei) of ``nufd.solve`` from the forward-difference start, as first written.

    sld and sgei are None where the exact motion vanishes on every point (scale 0).

    ``op`` is "d- d+", "d+ d-" or "d2".  The march is :func:`padded_march`
    over the divisors c_k = t_k - t_{k-1}, t_{k+1} - t_k or
    (t_{k+1} - t_{k-1}) / 2, the exact motion is
    :func:`oscillator_expression` of order 0 from t0 = t_0, and the sld is
    (exact - w) / max|exact|.
    """
    h = np.diff(t)
    divisors = {"d- d+": t[1:-1] - t[:-2], "d+ d-": t[2:] - t[1:-1], "d2": (t[2:] - t[:-2]) / 2.0}[op]
    with np.errstate(over="ignore", invalid="ignore"):
        w, _ = padded_march(value, value + h[0] * slope, slope, h[1:], kappa * divisors)
    exact = oscillator_expression(kappa, value, slope, t[0], 0, t)
    scale = float(np.max(np.abs(exact)))
    if scale == 0.0:
        return w, exact, None, scale, None
    sld = (exact - w) / scale
    return w, exact, sld, scale, float(np.max(np.abs(sld)))


# Index offsets (b, a) of the two points each first difference reads:
# (u_a - u_b) / (t_a - t_b).
_FIRST_OFFSETS = {
    FirstDiffKind.FORWARD: (0, 1),
    FirstDiffKind.BACKWARD: (-1, 0),
    FirstDiffKind.CENTRAL: (-1, 1),
}


def reference_stencil(op, x):
    """Weights ((offset, weight), ...) of a first difference, a pair or d2, composed per call.

    The dict-and-closure form the planned ``diffops.stencil`` replaced, kept
    as its bitwise oracle: each product of an outer and an inner weight is
    added, in the order the two loops meet it, to a sum that starts at 0.0.
    d2 is d- d+ whose outer difference divides by the mean step
    (t_{k+1} - t_{k-1}) / 2 in place of h_{k-1}.
    """
    if isinstance(op, FirstDiffKind):
        lo = _FIRST_OFFSETS[op][0]
    elif isinstance(op, SecondDiffSpec):
        lo = _FIRST_OFFSETS[op.outer][0] + _FIRST_OFFSETS[op.inner][0]
    elif op is D2_CORRECTED:
        lo = -1
    else:
        raise TypeError(op)

    def first(kind, at):
        ob, oa = _FIRST_OFFSETS[kind]
        b, a = at + ob, at + oa
        w = 1.0 / (x[a - lo] - x[b - lo])
        return (b, -w), (a, w)

    if isinstance(op, FirstDiffKind):
        return first(op, 0)
    if op is D2_CORRECTED:
        w = 2.0 / (x[2] - x[0])
        outer, inner = ((-1, -w), (0, w)), FirstDiffKind.FORWARD
    else:
        outer, inner = first(op.outer, 0), op.inner
    weights = {}
    for mid, w_outer in outer:
        for j, w_inner in first(inner, mid):
            weights[j] = weights.get(j, 0.0) + w_outer * w_inner
    return tuple(sorted(weights.items()))
