"""Random geometric graph instances on the unit square.

n points are drawn uniformly at random from [0, 1]^2 and two of them are
adjacent iff their l_p distance is at most r (inclusive). The sharp threshold
radius for Hamiltonicity is

    r(n) = sqrt(log n / (area_p * n))

with natural log and area_p the unit l_p disk area. Radii can be given
explicitly, as a multiple of the threshold, or through an eps margin on the
disk-area constant.

Sampling is deterministic: numpy's PCG64 generator seeded with a 64-bit seed,
drawing an (n, 2) float64 array in one call, which fixes the draw order as
x then y per vertex, vertices in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import _lp_from_abs, lp_norms, unit_disk_area, validate_p


# --------------------------------------------------------------------------
# radius specification and resolution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExplicitRadius:
    radius: float


@dataclass(frozen=True)
class EpsilonAbove:
    """r = sqrt(log n / ((area_p - eps) n)), supercritical for 0 < eps < area_p."""

    eps: float


@dataclass(frozen=True)
class EpsilonBelow:
    """r = sqrt(log n / ((area_p + eps) n)), subcritical for eps > 0."""

    eps: float


@dataclass(frozen=True)
class ThresholdMultiple:
    """r = factor * threshold_radius(n, p)."""

    factor: float


RadiusSpec = Union[ExplicitRadius, EpsilonAbove, EpsilonBelow, ThresholdMultiple]


def threshold_radius(n: int, p: float) -> float:
    """Sharp Hamiltonicity (and connectivity) threshold radius, natural log."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return math.sqrt(math.log(n) / (unit_disk_area(p) * n))


def max_radius(p: float) -> float:
    """Upper validation bound on usable radii."""
    return math.sqrt(2.0) * 2.0 ** (1.0 / p) if p != math.inf else math.sqrt(2.0)


def resolve_radius(n: int, p: float, spec: RadiusSpec) -> float:
    """Turn a radius specification into a concrete radius, validating range."""
    p = validate_p(p)
    area = unit_disk_area(p)
    if isinstance(spec, ExplicitRadius):
        r = float(spec.radius)
    elif isinstance(spec, EpsilonAbove):
        if not 0.0 < spec.eps < area:
            raise ValueError(f"eps-above must lie in (0, {area}), got {spec.eps}")
        r = math.sqrt(math.log(n) / ((area - spec.eps) * n))
    elif isinstance(spec, EpsilonBelow):
        if spec.eps <= 0.0:
            raise ValueError(f"eps-below must be positive, got {spec.eps}")
        r = math.sqrt(math.log(n) / ((area + spec.eps) * n))
    elif isinstance(spec, ThresholdMultiple):
        if spec.factor <= 0.0:
            raise ValueError(f"threshold multiple must be positive, got {spec.factor}")
        r = spec.factor * threshold_radius(n, p)
    else:
        raise TypeError(f"unknown radius spec {spec!r}")
    if not (0.0 < r <= max_radius(p)):
        raise ValueError(f"resolved radius {r} outside (0, {max_radius(p)}]")
    return r


@dataclass(frozen=True)
class InstanceConfig:
    n: int
    p: float
    radius: RadiusSpec
    seed: int

    def __post_init__(self):
        if int(self.n) < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        validate_p(self.p)

    def resolved_radius(self) -> float:
        return resolve_radius(self.n, self.p, self.radius)


# --------------------------------------------------------------------------
# vertex sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexSet:
    """Immutable ordered point set; points is an (n, 2) float64 array."""

    points: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("x,y\n")
            for x, y in self.points:
                fh.write(f"{x:.17g},{y:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "VertexSet":
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != "x,y":
                raise ValueError(f"expected header 'x,y', got {header!r}")
            rows = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"line {lineno}: expected 'x,y', got {line!r}")
                try:
                    x, y = float(parts[0]), float(parts[1])
                except ValueError:
                    raise ValueError(f"line {lineno}: not a number: {line!r}")
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"line {lineno}: non-finite coordinate")
                if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                    raise ValueError(f"line {lineno}: point outside [0,1]^2")
                rows.append((x, y))
        return cls(points=np.array(rows, dtype=np.float64).reshape(-1, 2))


def sample_points(cfg: InstanceConfig) -> VertexSet:
    """Draw cfg.n uniform points; bit-reproducible for a given seed."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return VertexSet(points=rng.random((cfg.n, 2)), seed=cfg.seed)


# --------------------------------------------------------------------------
# spatial index and connectivity
# --------------------------------------------------------------------------

# rounding margins of the grid: a point may sit an ulp outside its cell, and
# lp_norms rounds too
_REL_SLACK, _ABS_SLACK = 1e-9, 1e-15
_MAX_SIDE = 1 << 32  # flat cell keys row * side + col then fit in uint64
# ceiling on the point pairs tested at once; point files come from outside,
# so one cell may hold any share of the points
_PAIR_CHUNK = 1 << 21


def radix_sort(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """np.argsort(key, kind="stable") for integer keys in [0, bound), and the
    keys in that order (uint16 below 2^16): a stable argsort per 16-bit digit
    of bound - 1, least significant first, which numpy radix-sorts in O(n)."""
    digit = key.astype(np.uint16)
    if bound <= 1 << 16:
        del key     # occupied_cells hands over its only reference
        order = np.argsort(digit, kind="stable")
        return order, digit[order]
    order = np.argsort(digit, kind="stable")
    ranked = key[order]
    del key, digit
    shift = 16
    while bound > 1 << shift:
        perm = np.argsort((ranked >> ranked.dtype.type(shift)).astype(np.uint16),
                          kind="stable")
        order = order[perm]
        ranked = ranked[perm]
        shift += 16
    return order, ranked


def sorted_runs(ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, and the CSR starts of their runs."""
    new = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return ranked[first], np.append(first, len(ranked))


def occupied_cells(points: np.ndarray,
                   side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupied cells of a side x side grid over [0, 1]^2, side <= 2^32:
    their keys row * side + col, ascending uint64, and CSR order and starts
    (order[starts[i]:starts[i + 1]] lists cell i's vertices, ascending)."""
    order, ranked = radix_sort(_cell_keys(points, side), side * side)
    cells, starts = sorted_runs(ranked)
    return cells.astype(np.uint64, copy=False), order, starts


def _cell_keys(points: np.ndarray, side: int) -> np.ndarray:
    """Every point's cell key row * side + col, computed in place."""
    col, key = (np.empty(len(points), dtype=np.uint64) for _ in (0, 1))
    for i, out in ((0, col), (1, key)):
        np.multiply(points[:, i], side, out=out, casting="unsafe")
        np.minimum(out, np.uint64(side - 1), out=out)
    key *= np.uint64(side)
    key += col
    return key


def find_slots(keys: np.ndarray, query) -> tuple[np.ndarray, np.ndarray]:
    """The slot of each query key in the ascending array keys, and whether
    it is there; a missing key gets some slot in range, to read and mask."""
    query = np.asarray(query).astype(keys.dtype, copy=False)
    slot = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return slot, keys[slot] == query


def validate_points(points: np.ndarray) -> None:
    """Raise ValueError unless every coordinate lies in [0, 1] (NaN fails).

    Every grid over the unit square files points by their coordinates, so
    this is checked where points enter the library.
    """
    if not ((points >= 0.0) & (points <= 1.0)).all():
        raise ValueError("points must lie in [0, 1]^2")


@dataclass(frozen=True)
class SpatialIndex:
    """The occupied_cells of a side x side grid over [0, 1]^2."""

    points: np.ndarray
    r: float
    p: float
    side: int
    cells: np.ndarray
    order: np.ndarray
    starts: np.ndarray


def build_spatial_index(vs: VertexSet, r: float, p: float) -> SpatialIndex:
    """Grid of cell side at most r / (2 ||(1, 1)||_p), less a rounding
    margin. Two points in one 3x3 block of cells then differ by at most two
    cell sides on each axis, so they are within r: the block is a clique.

    Raises ValueError for points outside [0, 1]^2, and for radii so small
    that the grid would need more than 2^32 cells per side.
    """
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    p = validate_p(p)
    pts = vs.points
    validate_points(pts)
    side = 2.0 * _lp_from_abs(p, 1.0, 1.0) / (r * (1.0 - _REL_SLACK) - _ABS_SLACK)
    if not 0.0 <= side <= _MAX_SIDE:
        raise ValueError(f"radius {r} is below the grid's resolution")
    side = max(1, math.ceil(side))
    cells, order, starts = occupied_cells(pts, side)
    return SpatialIndex(points=pts, r=r, p=p, side=side, cells=cells,
                        order=order, starts=starts)


def _far_offsets(idx: SpatialIndex) -> list[tuple[int, int]]:
    """Cell offsets beyond the 3x3 block that can hold a pair within r,
    one of each +/- pair, nearest first."""
    s, reach = 1.0 / idx.side, int(min(idx.r * idx.side + 2, idx.side - 1))
    near = sorted((_lp_from_abs(idx.p, max(abs(dc) - 1, 0) * s, max(dr - 1, 0) * s),
                   dr, dc)
                  for dr in range(reach + 1) for dc in range(-reach, reach + 1)
                  if (dr > 0 or dc > 0) and max(abs(dc), dr) > 1)
    return [(dc, dr) for gap, dr, dc in near
            if gap <= idx.r * (1.0 + _REL_SLACK) + _ABS_SLACK]


def _members(idx: SpatialIndex, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the listed cells, with the position in cells of each."""
    first = idx.starts[cells]
    cnt = idx.starts[cells + 1] - first
    at = np.repeat(np.arange(len(cells)), cnt)
    return at, idx.order[np.arange(len(at)) + (first + cnt - np.cumsum(cnt))[at]]


def _hook(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Union the components of cells a[i] and b[i].

    parent points every cell at its root, the smallest cell of its
    component. Each round hooks the larger root of every split pair under
    the smaller (np.minimum.at keeps one per root), then pointer jumping
    restores parent = root; pairs still split go round again.
    """
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            return
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent[:] = up


def _hook_close(idx: SpatialIndex, parent: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> None:
    """Union cells a[i] and b[i] that hold a pair of points within r.

    Only cells whose roots still differ are tested: each vertex u of a[i]
    against all of b[i], in slabs of at most max(_PAIR_CHUNK, n) point pairs.
    """
    keep = parent[a] != parent[b]
    at, u = _members(idx, a[keep])
    a, b = a[keep][at], b[keep][at]
    most = int((idx.starts[b + 1] - idx.starts[b]).max(initial=1))
    step = max(1, _PAIR_CHUNK // most)
    for lo in range(0, len(u), step):
        live = lo + np.flatnonzero(parent[a[lo:lo + step]] != parent[b[lo:lo + step]])
        at, v = _members(idx, b[live])
        src, pts = u[live[at]], idx.points
        close = lp_norms(idx.p, pts[src, 0] - pts[v, 0],
                         pts[src, 1] - pts[v, 1]) <= idx.r
        hit = live[at[close]]
        _hook(parent, a[hit], b[hit])


def _shifted(idx: SpatialIndex, row: np.ndarray, col: np.ndarray, dc: int,
             dr: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions i at which cell (row[i] + dr, col[i] + dc) is occupied, and
    that cell's index in idx.cells."""
    row, col = row + dr, col + dc
    i = np.flatnonzero((col >= 0) & (col < idx.side) & (row >= 0) & (row < idx.side))
    key = row[i].astype(np.uint64) * np.uint64(idx.side) + col[i].astype(np.uint64)
    b, hit = find_slots(idx.cells, key)
    return i[hit], b[hit]


def _isolated_vertex(idx: SpatialIndex, parent: np.ndarray, row: np.ndarray,
                     col: np.ndarray, far: list[tuple[int, int]]) -> bool:
    """Whether some vertex has no other point within r, once the near
    offsets are joined.

    Only a cell that holds one point and is still a component of its own
    can hold such a vertex: any other occupied cell of its 3x3 block would
    have joined it. Its point is tested against every far offset with both
    signs, nearest first, by the far phase's exact test; a point with a
    neighbour drops out at once. Pairs go in slabs of at most
    max(_PAIR_CHUNK, n), as in _hook_close.
    """
    # parent holds roots, so a root counted once is a component of one cell
    alone = np.flatnonzero(np.bincount(parent, minlength=len(parent)) == 1)
    alone = alone[idx.starts[alone + 1] - idx.starts[alone] == 1]
    u, row, col = idx.order[idx.starts[alone]], row[alone], col[alone]
    pts = idx.points
    for dc, dr in [o for dc, dr in far for o in ((dc, dr), (-dc, -dr))]:
        if not len(u):
            return False
        i, b = _shifted(idx, row, col, dc, dr)
        most = int((idx.starts[b + 1] - idx.starts[b]).max(initial=1))
        step = max(1, _PAIR_CHUNK // most)
        found = np.zeros(len(u), dtype=bool)
        for lo in range(0, len(i), step):
            at, v = _members(idx, b[lo:lo + step])
            at = i[lo:lo + step][at]
            close = lp_norms(idx.p, pts[u[at], 0] - pts[v, 0],
                             pts[u[at], 1] - pts[v, 1]) <= idx.r
            found[at[close]] = True
        u, row, col = u[~found], row[~found], col[~found]
    return len(u) > 0


def is_connected(idx: SpatialIndex) -> bool:
    """Union-find over the occupied cells of the grid.

    Every 3x3 block of cells is a clique (see build_spatial_index), so
    neighbouring occupied cells are joined outright. If more than one
    component is left, a vertex with no other point within r answers False
    at once: the graph then has at least two vertices and one of them is
    isolated. Near the connectivity threshold this is how disconnection
    almost always shows (the threshold is where the last isolated vertex
    disappears), and only one-point cells with no occupied cell around them
    need testing. Otherwise each farther offset that can hold a pair within
    r, nearest first, tests point pairs only between the cells it pairs
    whose roots still differ. Stops as soon as one component is left.
    """
    side = np.uint64(idx.side)
    row, col = (x.astype(np.int64) for x in np.divmod(idx.cells, side))
    parent = np.arange(len(idx.cells))
    for dc, dr in ((1, 0), (-1, 1), (0, 1), (1, 1)):
        _hook(parent, *_shifted(idx, row, col, dc, dr))
    far = _far_offsets(idx)
    if parent.any() and _isolated_vertex(idx, parent, row, col, far):
        return False
    for dc, dr in far:
        if not parent.any():
            break
        _hook_close(idx, parent, *_shifted(idx, row, col, dc, dr))
    return not parent.any()
