"""One-dimensional meshes: construction, validation and serialization.

A mesh is a strictly increasing set of points t_0 < t_1 < ... < t_{m+1}
covering an interval [a, b], together with its derived step sizes
h_k = t_{k+1} - t_k.  Meshes are immutable value objects; every builder
returns a fresh, validated instance.
"""

from __future__ import annotations

import functools
import io
import math
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .functions import AnalyticFunction

__all__ = [
    "Mesh",
    "MeshError",
    "build_uniform",
    "build_geometric",
    "build_equiarclength",
    "refine_insert",
    "smoothness_ratios",
    "write_mesh_csv",
]

# Relative spread below which float construction noise must not flip the
# uniform/nonuniform classification.
UNIFORMITY_RTOL = 1e-12

# 17 significant digits round-trip any IEEE double exactly.
FLOAT_FORMAT = ".17g"

# Rows per write of ``_write_tables``; a block of text stays under 0.5 MB.
_BLOCK_ROWS = 4096


class MeshError(ValueError):
    """Raised for invalid mesh parameters or malformed mesh data."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Strictly increasing grid points with derived step sizes.

    ``points`` holds t_0 .. t_{m+1}; ``steps``, the step sizes
    h_k = t_{k+1} - t_k for k = 0..m, is computed once as
    ``points[1:] - points[:-1]`` and shares the mesh's immutability.
    A C-contiguous float64 array passed as ``points`` is not copied: the mesh
    keeps that array and makes it read-only in place, so the caller's array
    is frozen too, and a 10**6-point input costs no copy.  Any other input
    is converted into a new array.
    """

    points: np.ndarray
    steps: np.ndarray = field(init=False, repr=False)

    # numpy defers every operator to Mesh: ``mesh == array`` is one bool, not an array.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1:
            raise MeshError("mesh points must form a one-dimensional sequence")
        if pts.size < 2:
            raise MeshError(f"a mesh needs at least 2 points, got {pts.size}")
        if not np.isfinite(pts).all():
            raise MeshError("mesh points must all be finite")
        # for increasing points every step is at most the span, so one finite span bounds them all
        a, b = float(pts[0]), float(pts[-1])
        if not math.isfinite(b - a):
            raise MeshError(f"mesh span t_last - t_0 = {b!r} - {a!r} is not a finite float")
        # compared before any step is formed: a step of points out of order may overflow
        increasing = pts[1:] > pts[:-1]
        if not increasing.all():
            bad = int(np.argmin(increasing))
            raise MeshError(
                f"mesh points must be strictly increasing; "
                f"points[{bad}]={float(pts[bad])!r} >= points[{bad + 1}]={float(pts[bad + 1])!r}"
            )
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "steps", _freeze(pts[1:] - pts[:-1]))

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @property
    def m(self) -> int:
        """Index of the last step; the mesh has m+2 points."""
        return self.n_points - 2

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def is_uniform(self) -> bool:
        """True when the steps differ by at most UNIFORMITY_RTOL of the largest step
        plus four ulps of the largest |t|, the rounding the points put into any step."""
        return self._uniform

    @functools.cached_property
    def _uniform(self) -> bool:
        # Scanned on first use, not at construction, so meshes that are never
        # asked pay nothing; the points are immutable, so the verdict holds.
        h = self.steps
        hmax = float(h.max())
        slack = UNIFORMITY_RTOL * hmax + 4 * math.ulp(max(abs(self.a), abs(self.b)))
        return hmax - float(h.min()) <= slack

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Mesh):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )

    def __hash__(self) -> int:
        # -0.0 + 0.0 is +0.0: points equal under == hash alike
        return hash((self.points + 0.0).tobytes())

    def __repr__(self) -> str:
        return (
            f"Mesh({self.n_points} points on [{self.a:g}, {self.b:g}], "
            f"{'uniform' if self.is_uniform() else 'nonuniform'})"
        )


def _check_interval(a: float, b: float, n_points: int) -> None:
    """Reject an interval that does not satisfy b > a, or fewer than 2 points."""
    if not b > a:
        raise MeshError(f"interval endpoints must satisfy b > a, got a={a!r}, b={b!r}")
    if n_points < 2:
        raise MeshError(f"n_points must be at least 2, got {n_points}")


def build_uniform(a: float, b: float, n_points: int) -> Mesh:
    """Mesh of ``n_points`` equally spaced points from ``a`` to ``b``."""
    _check_interval(a, b, n_points)
    return Mesh(np.linspace(a, b, int(n_points)))


def build_geometric(t0: float, h0: float, r: float, m: int) -> Mesh:
    """Mesh whose steps follow the geometric progression h_k = r**k * h0.

    Produces m+2 points starting at ``t0``.  With r = 1 the construction
    degenerates to ``build_uniform`` on the same endpoints, bit for bit.
    """
    if not h0 > 0:
        raise MeshError(f"initial step h0 must be positive, got {h0!r}")
    if not r > 0:
        raise MeshError(f"step ratio r must be positive, got {r!r}")
    if m < 0:
        raise MeshError(f"m must be nonnegative, got {m}")
    if r == 1.0:
        return build_uniform(t0, t0 + (m + 1) * h0, m + 2)
    # h0 * r**k and t0 + cumsum(steps), each formed in place
    steps = np.arange(m + 1, dtype=np.float64)
    np.power(r, steps, out=steps)
    steps *= h0
    points = np.empty(m + 2)
    points[0] = t0
    np.cumsum(steps, out=points[1:])
    points[1:] += t0
    return Mesh(points)


def build_equiarclength(
    curve: "AnalyticFunction",
    a: float,
    b: float,
    n_points: int,
    quad_resolution: int = 10_000,
) -> Mesh:
    """Mesh whose points split the arclength of ``curve`` into equal pieces.

    The arclength integrand sqrt(1 + curve'(t)**2) is accumulated with the
    composite trapezoidal rule on a uniform grid of ``quad_resolution`` + 1
    samples, and the cumulative table is inverted by monotone linear
    interpolation.
    """
    _check_interval(a, b, n_points)
    if quad_resolution < n_points:
        raise MeshError(
            f"quad_resolution ({quad_resolution}) must be at least n_points ({n_points})"
        )
    s = np.linspace(a, b, int(quad_resolution) + 1)
    speed = np.sqrt(1.0 + np.asarray(curve.evaluate(1, s), dtype=np.float64) ** 2)
    panels = 0.5 * (speed[1:] + speed[:-1]) * np.diff(s)
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    targets = np.linspace(0.0, cumulative[-1], int(n_points))
    points = np.interp(targets, cumulative, s)
    points[0] = a
    points[-1] = b
    try:
        return Mesh(points)
    except MeshError as exc:
        raise MeshError(
            f"quad_resolution={quad_resolution} is too small to resolve a strictly "
            f"increasing {n_points}-point mesh: {exc}"
        ) from exc


def refine_insert(mesh: Mesh, beta: float) -> Mesh:
    """Insert one point at t_k + beta*h_k into every step of ``mesh``.

    The original points are preserved exactly; the result has
    2*(m+1) + 1 points.
    """
    if not 0.0 < beta < 1.0:
        raise MeshError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    pts = mesh.points
    out = np.empty(2 * pts.size - 1, dtype=np.float64)
    out[0::2] = pts
    inserted = out[1::2]  # pts[:-1] + beta * steps, formed in place
    np.multiply(mesh.steps, beta, out=inserted)
    inserted += pts[:-1]
    return Mesh(out)


def smoothness_ratios(mesh: Mesh) -> np.ndarray:
    """Consecutive step ratios h_{k+1} / h_k for k = 0..m-1."""
    if mesh.m < 1:
        raise MeshError("smoothness ratios need a mesh with at least two steps")
    h = mesh.steps
    return h[1:] / h[:-1]


def _write_tables(tables: Sequence[tuple], *, first_index: int | None = None) -> None:
    """Write several CSV tables of equal length in lockstep.

    Each table is ``(target, header, columns, footer)``: ``header``, one row
    per entry of the float ``columns``, then the ``footer`` lines.  Every
    float is written with ``FLOAT_FORMAT``.  With ``first_index`` each row
    starts with its index, counting up from it.  Rows are formatted and
    written ``_BLOCK_ROWS`` at a time, so no whole-file text is ever built.
    A column object listed more than once is formatted once per block and
    its cells are reused wherever it appears.
    """
    targets, headers, tables_columns, footers = zip(*tables)
    every = [c for columns in tables_columns for c in columns]
    n = len(every[0])
    if any(len(c) != n for c in every):
        raise ValueError(f"every column of tables written together needs {n} rows")
    listed = Counter(map(id, every))
    cell = "%" + FLOAT_FORMAT
    rows = ["%d," * (first_index is not None)
            + ",".join("%s" if listed[id(c)] > 1 else cell for c in columns) + "\n"
            for columns in tables_columns]
    unique = {id(c): c for c in every}
    with ExitStack() as stack:
        files = [stack.enter_context(open(t, "w", newline="")) if isinstance(t, (str, Path)) else t
                 for t in targets]
        for fh, header in zip(files, headers):
            fh.write(header + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            cells = {}
            for key, c in unique.items():  # a shared column's floats are dropped once formatted
                values = np.asarray(c[lo:hi], dtype=np.float64).tolist()
                cells[key] = list(map(cell.__mod__, values)) if listed[key] > 1 else values
            index = [] if first_index is None else [range(first_index + lo, first_index + hi)]
            for fh, row, columns in zip(files, rows, tables_columns):
                fh.write(row * (hi - lo) % tuple(chain.from_iterable(zip(*index, *(cells[id(c)] for c in columns)))))
        for fh, footer in zip(files, footers):
            fh.writelines(line + "\n" for line in footer)


def write_mesh_csv(mesh: Mesh, target: str | Path | io.TextIOBase) -> None:
    """Write ``k,t,h`` rows; the last row leaves h empty."""
    last = f"{mesh.n_points - 1},{mesh.b:{FLOAT_FORMAT}},"
    _write_tables([(target, "k,t,h", (mesh.points[:-1], mesh.steps), (last,))], first_index=0)

