"""Planar l_p geometry: distances, unit-disk areas, and box separation bounds.

Every norm here is an l_p norm on the plane with exponent p in [1, inf].
Infinity is passed as the float math.inf, which is a first-class value
distinct from every finite exponent and selects the max-norm branch.

The area of the l_p unit disk {x : ||x||_p <= 1} has the closed form

    4 * Gamma(1 + 1/p)^2 / Gamma(1 + 2/p)

which evaluates to 2 for p=1, pi for p=2, and 4 for p=inf.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def validate_p(p: float) -> float:
    """Return p as a float, rejecting exponents outside [1, inf]."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return p


class Box(NamedTuple):
    """Axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi], x_lo <= x_hi."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float


def _lp_from_abs(p: float, ax: float, ay: float) -> float:
    """l_p norm of a vector given its absolute components.

    Uses the scaled form max * (1 + (min/max)^p)^(1/p) so that large finite
    exponents neither overflow nor flush to zero.
    """
    if p == math.inf:
        return ax if ax >= ay else ay
    if p == 2.0:
        return math.hypot(ax, ay)
    if p == 1.0:
        return ax + ay
    hi, lo = (ax, ay) if ax >= ay else (ay, ax)
    if hi == 0.0:
        return 0.0
    t = lo / hi
    return hi * (1.0 + t**p) ** (1.0 / p)


def _offset_norms(p: float, side: float, span: int) -> np.ndarray:
    """norms[j, i] = _lp_from_abs(p, i * side, j * side) for 0 <= i, j <=
    span, read-only. Each entry is a scalar call, so it is the exact float
    a scalar call gives: lp_norms rounds differently in the last bit for
    some p, which can flip a test at the radius or a tie between sweep
    variants."""
    norms = np.array([[_lp_from_abs(p, i * side, j * side)
                       for i in range(span + 1)] for j in range(span + 1)])
    norms.flags.writeable = False
    return norms


def lp_distance(p: float, a: tuple[float, float], b: tuple[float, float]) -> float:
    """l_p distance between two points in the plane."""
    return _lp_from_abs(p, abs(a[0] - b[0]), abs(a[1] - b[1]))


def lp_norms(p: float, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Vectorized l_p norms of difference vectors (dx, dy)."""
    ax = np.abs(dx)
    ay = np.abs(dy)
    if p == math.inf:
        return np.maximum(ax, ay)
    if p == 2.0:
        return np.hypot(ax, ay)
    if p == 1.0:
        return ax + ay
    hi = np.maximum(ax, ay)
    lo = np.minimum(ax, ay)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 0.0)
    return hi * (1.0 + t**p) ** (1.0 / p)


def unit_disk_area(p: float) -> float:
    """Area of the unit l_p disk in the plane.

    This is the constant that calibrates the connectivity and Hamiltonicity
    threshold radius: the expected number of neighbours of a vertex at radius
    r is ~ n * area * r^2.
    """
    p = validate_p(p)
    if p == math.inf:
        return 4.0
    return 4.0 * math.gamma(1.0 + 1.0 / p) ** 2 / math.gamma(1.0 + 2.0 / p)


def max_box_distance(p: float, a: Box, b: Box) -> float:
    """Supremum of l_p distances between a point of box a and a point of box b.

    Computed from the per-axis maximum separations; the sup is attained at a
    corner pair that realizes both axis maxima simultaneously, so this equals
    the brute-force maximum over the 16 corner pairs exactly.
    """
    sx = max(abs(a.x_lo - b.x_hi), abs(a.x_hi - b.x_lo))
    sy = max(abs(a.y_lo - b.y_hi), abs(a.y_hi - b.y_lo))
    return _lp_from_abs(p, sx, sy)
