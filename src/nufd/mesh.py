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
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import repeat
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

# Fewest trapezoid panels of ``build_equiarclength``'s arclength table.
ARCLENGTH_PANELS = 10_000

# Rows per write of ``_write_tables``.  At 2048 the ``_cells`` kernel's
# buffers hold about 0.6 MB per distinct column of a block (2.3 MB for four
# columns); 1,024-row blocks would halve that but cost 7-10% per call.
_BLOCK_ROWS = 2048


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


def build_equiarclength(curve: "AnalyticFunction", a: float, b: float, n_points: int) -> Mesh:
    """Mesh whose points split the arclength of ``curve`` into equal pieces.

    The arclength integrand sqrt(1 + curve'(t)**2) is accumulated with the
    composite trapezoidal rule on a uniform grid of
    max(``ARCLENGTH_PANELS``, ``n_points``) panels, and the cumulative table
    is inverted by monotone linear interpolation.  Above ``ARCLENGTH_PANELS``
    points the build holds about 57 bytes a point at its peak, against 17
    for ``build_uniform``: at the 10**7 points a spec string may ask for,
    ``nufd mesh`` peaks near 570 MB of resident memory, against about 190 MB
    for a uniform mesh.  A curve or interval whose arclength is not a
    finite float raises ``MeshError``.
    """
    _check_interval(a, b, n_points)
    s = np.linspace(a, b, max(ARCLENGTH_PANELS, int(n_points)) + 1)
    speed = np.sqrt(1.0 + np.asarray(curve.evaluate(1, s), dtype=np.float64) ** 2)
    panels = 0.5 * (speed[1:] + speed[:-1]) * np.diff(s)
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    if not math.isfinite(cumulative[-1]):
        raise MeshError(f"the arclength of {curve.label} on [{a!r}, {b!r}] is not a finite float")
    targets = np.linspace(0.0, cumulative[-1], int(n_points))
    points = np.interp(targets, cumulative, s)
    points[0] = a
    points[-1] = b
    return Mesh(points)


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


# Tables of at least this many rows format their floats with the ``_cells``
# kernel; shorter ones keep ``%``, which costs less on a few rows.  The two
# cross at about 130-140 rows (``write_mesh_csv`` into memory, x86-64).
_KERNEL_ROWS = 144
# Decimal exponents of nonzero finite doubles: 5e-324 to 1.8e308.
_E_MIN, _E_MAX = -324, 308
_N_EXP = _E_MAX - _E_MIN + 1
# Bytes of a ``_cells`` slot: sign and "0.000" prefix 6, first digit 1, one
# unused, the other 16 digits with a point slot 17, exponent 5 ("e-308").
_CELL = 30


@functools.cache
def _kernel_tables() -> tuple | None:
    """Tables of ``_cells``, built on first use.

    None unless ``np.longdouble`` is the 80-bit format, with its 64-bit
    significand, on a little-endian machine (the words below are laid out
    byte by byte); every table is then written with ``%``.

    Per decimal exponent e the tables hold: the smallest double >= 10**e;
    10**(16 - e) rounded to long double (exact for 0 <= 16 - e <= 27); the
    relative margin of an undecided cell, twice the product's proven
    relative error (2**-64 for the product alone, 2**-63 with a rounded
    power); the sign-and-prefix word, for + then -; the exponent word, one
    byte up; and, as three rows of words over the 17 bytes that follow the
    first digit, the mask of the integer digits that fixed notation keeps,
    the mask of everything after the point slot, and the point.  ``quads``
    holds the four digits of 0..9999 as uint32 words, plain, then with
    trailing zeros as NUL (0 is four NULs).
    """
    if np.finfo(np.longdouble).nmant != 63 or sys.byteorder != "little":
        return None
    exponents = range(_E_MIN, _E_MAX + 1)
    floor = []
    for e in range(_E_MIN, _E_MAX + 2):
        f = float(f"1e{e}")
        if math.isfinite(f):
            num, den = f.as_integer_ratio()
            if num * 10**max(-e, 0) < den * 10**max(e, 0):
                f = math.nextafter(f, math.inf)
        floor.append(f)
    power = np.array([np.longdouble(f"1e{16 - e}") for e in exponents])
    margin = np.array([2.0**-63 if 0 <= 16 - e <= 27 else 2.0**-62 for e in exponents])

    def words(texts, size=8) -> np.ndarray:
        return np.frombuffer(b"".join(t.encode("latin-1").ljust(size, b"\0") for t in texts), dtype=np.uint64)

    def masks(counts) -> np.ndarray:
        """Per count, its first bytes of 24 set, as three rows of words."""
        return words(("\xff" * c for c in counts), 24).reshape(-1, 3).T.copy()

    # Fixed notation keeps min(e, 16) digits after the first before its point,
    # which fills the slot after them unless it sits in the "0.000" prefix.
    before = [min(max(e, 0), 16) if e < 17 else 0 for e in exponents]
    upto = [c + (not -4 <= e < 0) for e, c in zip(exponents, before)]
    q = np.arange(10**4, dtype=np.uint16)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8) + ord("0")
    zeros = digits == ord("0")
    trailing = np.logical_and.accumulate(zeros[:, ::-1], axis=1)[:, ::-1]
    quads = np.concatenate([digits, np.where(trailing, 0, digits)])
    return (np.array(floor), power, margin,
            words(sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "") for sign in ("", "-") for e in exponents),
            words("" if -4 <= e < 17 else f"\0e{e:+03d}" for e in exponents),
            masks(before), ~masks(upto), masks(upto) & ~masks(before) & np.uint64(0x2E2E2E2E2E2E2E2E),
            quads.view(np.uint32).ravel())


def _cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float64 v of ``x``, as NUL-padded uint8 rows of 32.

    A row holds its cell's characters in order, with NULs between and after
    them.  Each cell's 17 digits come from D = |v| * 10**(16 - e), e its exact
    decimal exponent, formed and rounded in long double.  A cell whose D lies
    within the margin of a half-integer, whose rounding carries to 10**17, or
    whose value is not finite is formatted with ``%`` instead.
    """
    floor, power, margin, prefix, exponent, before, after, dots, quads = _kernel_tables()
    n = x.size
    a = np.abs(x)
    zero, finite = a == 0, a < math.inf
    a[zero | ~finite] = 1.0  # a zero is written as 1 with its first digit 0
    i = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    i += a >= floor[i + 1]  # log10 is off by at most one near a power of ten
    i -= a < floor[i]
    d = a.astype(np.longdouble)
    d *= power[i]
    r = np.rint(d)
    tie = np.abs((d - r).astype(np.float64)) >= 0.5 - d.astype(np.float64) * margin[i]
    q = r.astype(np.uint64)
    del d, r
    undecided = ~finite | tie | (q >= 10**17)
    high = (q // 10**8).astype(np.uint32)
    low = (q - high * np.uint64(10**8)).astype(np.uint32)
    first = high // 10**8
    g = np.empty((n, 4), np.uint32)
    g[:, 0], g[:, 1] = np.divmod(high - first * np.uint32(10**8), 10**4)
    g[:, 2], g[:, 3] = np.divmod(low, 10**4)
    # A group is dropped as trailing zeros when it and every group after it are zeros.
    g[:, 3] += np.uint32(10**4)
    g[:, 2] += np.uint32(10**4) * (g[:, 3] == 10**4)
    g[:, 1] += np.uint32(10**4) * (low == 0)
    g[:, 0] += np.uint32(10**4) * ((low == 0) & (g[:, 1] == 10**4))
    # The 16 digits after the first without trailing zeros, moved one byte up
    # into 17-byte rows of three words, leaving the point slot in front.  The
    # digits before the point are all kept: NUL | "0" is "0".
    stripped = np.take(quads, g).view(np.uint64)
    del g
    cells = np.empty((n, 4), np.uint64)
    cells[:, 1] = (stripped[:, 0] << np.uint64(8)) & after[0][i]
    cells[:, 2] = ((stripped[:, 1] << np.uint64(8)) | (stripped[:, 0] >> np.uint64(56))) & after[1][i]
    cells[:, 3] = (stripped[:, 1] >> np.uint64(56)) & after[2][i]
    dotted = (cells[:, 1] | cells[:, 2] | cells[:, 3]) != 0
    for w in range(3):
        cells[:, 1 + w] |= dots[w][i] * dotted
    for w in range(2):
        cells[:, 1 + w] |= (stripped[:, w] | np.uint64(0x3030303030303030)) & before[w][i]
    cells[:, 0] = prefix[i + _N_EXP * np.signbit(x)]
    cells[:, 3] |= exponent[i]
    out = cells.view(np.uint8)
    out[:, 6] = np.where(zero, ord("0"), first + ord("0"))
    if undecided.any():
        cell = "%" + FLOAT_FORMAT
        text = np.array([cell % v for v in x[undecided].tolist()], dtype="S32")
        out[undecided] = text.view(np.uint8).reshape(-1, 32)
    return out


def _write_kernel_blocks(files: Sequence, tables_columns: Sequence[Sequence], n: int) -> None:
    """Write each block of every table, its cells formatted by one ``_cells`` call.

    The block's distinct columns are copied into one float64 stack and
    formatted together.  A table's block is laid out in one uint8 matrix over
    a bytearray, each cell in a fixed slot followed by its separator, and the
    bytearray's NULs are dropped.
    """
    unique = {id(c): c for columns in tables_columns for c in columns}
    number = {key: i for i, key in enumerate(unique)}
    slots = [[number[id(c)] for c in columns] for columns in tables_columns]
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        stack = np.empty((len(unique), rows))
        for row, c in zip(stack, unique.values()):
            row[:] = c[lo : lo + rows]
        cells = _cells(stack.ravel()).reshape(len(unique), rows, -1)
        for fh, picks in zip(files, slots):
            buffer = bytearray(rows * len(picks) * (_CELL + 1))
            m = np.frombuffer(buffer, np.uint8).reshape(rows, len(picks), _CELL + 1)
            for j, k in enumerate(picks):
                m[:, j, :_CELL] = cells[k, :, :_CELL]
            m[:, :, _CELL] = ord(",")
            m[:, -1, _CELL] = ord("\n")
            fh.write(buffer.translate(None, b"\0").decode("ascii"))


def _write_percent_blocks(files: Sequence, tables_columns: Sequence[Sequence], n: int) -> None:
    """Write each block of every table, its cells formatted by Python and joined.

    Each cell is ``float.__format__(v, FLOAT_FORMAT)``: the bytes of
    ``'%.17g' % v``, and faster than it.  A row's cells are joined by
    commas and its block's rows by newlines, which costs about half what
    filling a ``%s`` row template does.
    """
    unique = {id(c): c for columns in tables_columns for c in columns}
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        cells = {key: list(map(float.__format__, np.asarray(c[lo:hi], dtype=np.float64).tolist(), repeat(FLOAT_FORMAT)))
                 for key, c in unique.items()}
        for fh, columns in zip(files, tables_columns):
            fh.write("\n".join(map(",".join, zip(*(cells[id(c)] for c in columns)))) + "\n")


def _write_tables(tables: Sequence[tuple], *, first_index: int | None = None) -> None:
    """Write several CSV tables of equal length in lockstep.

    Each table is ``(target, header, columns, footer)``: ``header``, one row
    per entry of the float ``columns``, then the ``footer`` lines.  Every
    cell is written with ``FLOAT_FORMAT``.  With ``first_index`` each row
    starts with its index, counting up from it: one float64 column listed
    first in every table, whose cells ``FLOAT_FORMAT`` writes as ``%d``
    would.  Float64 holds those indices exactly only below 2**53, so an
    index past 2**53 - 1 raises ``ValueError``.  Rows are formatted and
    written ``_BLOCK_ROWS`` at a time, so no whole-file text is ever built.
    Each distinct column object is formatted once per block, and its cells
    serve every table that lists it.  Tables of ``_KERNEL_ROWS`` or more
    rows take the ``_cells`` kernel, one call per block for all its
    distinct columns, which writes the same bytes as ``%``; shorter tables
    take ``%``.
    """
    targets, headers, tables_columns, footers = zip(*tables)
    every = [c for columns in tables_columns for c in columns]
    n = len(every[0])
    if any(len(c) != n for c in every):
        raise ValueError(f"every column of tables written together needs {n} rows")
    if first_index is not None:
        if first_index + n > 2**53:
            raise ValueError(f"row indices {first_index}..{first_index + n - 1} reach 2**53; "
                             "float64 holds every index exactly only below it")
        index = np.arange(first_index, first_index + n, dtype=np.float64)
        tables_columns = [(index, *columns) for columns in tables_columns]
    kernel = n >= _KERNEL_ROWS and _kernel_tables() is not None
    with ExitStack() as stack:
        files = [stack.enter_context(open(t, "w", newline="")) if isinstance(t, (str, Path)) else t
                 for t in targets]
        for fh, header in zip(files, headers):
            fh.write(header + "\n")
        (_write_kernel_blocks if kernel else _write_percent_blocks)(files, tables_columns, n)
        for fh, footer in zip(files, footers):
            fh.writelines(line + "\n" for line in footer)


def write_mesh_csv(mesh: Mesh, target: str | Path | io.TextIOBase) -> None:
    """Write ``k,t,h`` rows; the last row leaves h empty."""
    last = f"{mesh.n_points - 1},{mesh.b:{FLOAT_FORMAT}},"
    _write_tables([(target, "k,t,h", (mesh.points[:-1], mesh.steps), (last,))], first_index=0)

