"""Scaled error measures between a reference and an approximating grid function.

The scaled local difference keeps the sign of the error (positive where
the reference exceeds the approximation); its maximum magnitude is the
scaled global error indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .diffops import GridFunction
from .mesh import Mesh, _freeze

__all__ = ["SldSeries", "scaled_local_difference", "classify"]


@dataclass(frozen=True, eq=False)
class SldSeries:
    """Signed, scaled pointwise differences over a common index window; compared and hashed by identity."""

    mesh: Mesh
    first_index: int
    reference: np.ndarray
    approx: np.ndarray
    sld: np.ndarray
    scale: float
    sgei: float

    def __post_init__(self) -> None:
        for name in ("reference", "approx", "sld"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def __len__(self) -> int:
        return int(self.sld.size)

    @property
    def t(self) -> np.ndarray:
        return self.mesh.points[self.first_index : self.first_index + len(self)]

    @property
    def argmax_index(self) -> int:
        """Mesh index where |sld| attains the sgei."""
        return int(self.first_index + np.argmax(np.abs(self.sld)))

    @property
    def argmax_t(self) -> float:
        return float(self.mesh.points[self.argmax_index])


def scaled_local_difference(reference: GridFunction, approx: GridFunction) -> SldSeries:
    """sld_k = (reference_k - approx_k) / max|reference| over the overlap.

    Both functions must live on the same mesh; the series covers the
    intersection of their index windows.
    """
    if reference.mesh != approx.mesh:
        raise ValueError("reference and approximation live on different meshes")
    lo = max(reference.first_index, approx.first_index)
    hi = min(reference.last_index, approx.last_index)
    if lo > hi:
        raise ValueError(
            f"index windows [{reference.first_index}, {reference.last_index}] and "
            f"[{approx.first_index}, {approx.last_index}] do not overlap"
        )
    f = reference.values[lo - reference.first_index : hi - reference.first_index + 1]
    g = approx.values[lo - approx.first_index : hi - approx.first_index + 1]
    scale = _max_abs(f)
    if scale == 0.0:
        raise ValueError("reference vanishes on the whole overlap; the scale is undefined")
    sld = f - g
    sld /= scale
    return SldSeries(
        mesh=reference.mesh,
        first_index=lo,
        reference=f,
        approx=g,
        sld=sld,
        scale=scale,
        sgei=_max_abs(sld),
    )


def _max_abs(a: np.ndarray) -> float:
    """max |a| without forming |a|: exact, and +0.0, never -0.0, for an all-zero ``a``."""
    return float(abs(max(np.maximum.reduce(a), -np.minimum.reduce(a))))


def classify(sgei: float) -> Literal["acceptable", "unacceptable"]:
    """An approximation is unacceptable once its sgei reaches 1; a negative or NaN sgei is a ValueError."""
    if not sgei >= 0:
        raise ValueError(f"sgei must be nonnegative, got {sgei!r}")
    return "unacceptable" if sgei >= 1.0 else "acceptable"
