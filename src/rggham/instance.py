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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .geometry import (_lp_from_abs, _offset_norms, lp_within,
                       unit_disk_area, validate_p)


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

def point_array(points) -> np.ndarray:
    """points as a float64 array; ValueError unless its shape is (n, 2)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    return pts


@contextmanager
def open_output(target):
    """target itself if it is an open text stream (stdout, say), else the
    file at path target, opened for writing: one writer serves both."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8") as fh:
            yield fh


@dataclass(frozen=True)
class VertexSet:
    """Immutable ordered point set; points is an (n, 2) float64 array."""

    points: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", point_array(self.points))

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        """Header x,y and one line per point, to a path or a text stream."""
        with open_output(path) as fh:
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
# ceiling on the point pairs tested at once (a few MB of temporaries):
# point files come from outside, so one cell may hold any share of the
# points, and near the threshold is_connected may search from almost all
# of them
_PAIR_CHUNK = 1 << 16
# vertices in the first batch of _isolated_vertex
_FIRST_BATCH = 256


def radix_sort(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """np.argsort(key, kind="stable") for integer keys in [0, bound), and the
    keys in that order (uint16 below 2^16).

    Below 2^16, one stable argsort of the keys as uint16, which numpy
    radix-sorts in O(n). Above, where each key shifted left by the bits of
    an index still fits in 64, one sort of those uint64 values with each
    key's index in the low bits: no two are equal, so any sort is stable,
    and the index and key are read back off the sorted values, with fewer
    n-sized temporaries than a stable radix pass per 16-bit digit would
    take. Only keys too wide for that, from grids far finer than any
    radius near the threshold needs, take numpy's stable argsort itself.
    """
    if bound <= 1 << 16:
        digit = key.astype(np.uint16)
        del key     # occupied_cells hands over its only reference
        order = np.argsort(digit, kind="stable")
        return order, digit[order]
    bits = max(len(key) - 1, 1).bit_length()
    if (bound - 1) >> (64 - bits):
        order = np.argsort(key, kind="stable")
        return order, key[order]
    dtype = key.dtype
    packed = np.left_shift(key, np.uint64(bits), dtype=np.uint64,
                           casting="unsafe")
    del key
    packed |= np.arange(len(packed), dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64((1 << bits) - 1)).astype(np.int64)
    packed >>= np.uint64(bits)
    return order, packed.astype(dtype, copy=False)


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
    """The occupied_cells of a side x side grid over [0, 1]^2. reach holds
    on any side; is_connected needs one that resolves r."""

    points: np.ndarray
    r: float
    p: float
    side: int
    cells: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    @property
    def resolves(self) -> bool:
        """Whether cells are at most r / (2 ||(1, 1)||_p) wide, less a
        rounding margin, as is_connected's near joins need: points of
        touching cells are then at most 2 widths apart on each axis, within
        r. (A 3x3 block is no clique: its corners can be 1.5 r apart.)"""
        return self.side >= _cells_to_resolve(self.r, self.p)

    @cached_property
    def reach(self) -> np.ndarray:
        """The only rule for which cells can hold a neighbour: reach[dr] is
        the widest |dc| of the cells (dc, +/-dr) whose gap to cell (0, 0) is
        at most r plus a margin for rounding, which at r = 0.1 on cells 0.1
        wide files x = 0.3 and the float below 0.2, r apart, two cells
        apart. As uint64, one entry per row offset that holds such a cell.
        The gap to cell (dc, dr) is _offset_norms' entry [max(|dr| - 1, 0),
        max(|dc| - 1, 0)]; gaps grow with |dc|, so the count of a row's gaps
        within the bound is its widest |dc|."""
        most = int(min(self.r * self.side + 2, self.side - 1))
        gaps = _offset_norms(self.p, 1.0 / self.side, most)
        within = gaps[np.maximum(np.arange(most + 1) - 1, 0)] <= (
            self.r * (1.0 + _REL_SLACK) + _ABS_SLACK)
        reach = np.minimum(within.sum(axis=1), most)[within[:, 0]]
        return reach.astype(np.uint64)


def _cells_to_resolve(r: float, p: float) -> float:
    """The fewest cells a side that resolve r, as a float (maybe inf)."""
    width = r * (1.0 - _REL_SLACK) - _ABS_SLACK
    return 2.0 * _lp_from_abs(p, 1.0, 1.0) / width if width > 0.0 else math.inf


def _grid_side(r: float, p: float) -> int:
    """The only rule for the grid's side: the fewest cells a side that
    resolve r, capped at 2^32, too few below about 6.6e-10 (p = 2)."""
    return max(1, math.ceil(min(_cells_to_resolve(r, p), _MAX_SIDE)))


def _grid(points: np.ndarray, r: float, p: float) -> SpatialIndex:
    """The SpatialIndex of points on _grid_side(r, p) cells a side."""
    side = _grid_side(r, p)
    return SpatialIndex(points, r, p, side, *occupied_cells(points, side))


def build_spatial_index(vs: VertexSet, r: float, p: float) -> SpatialIndex:
    """The grid of _grid_side, which resolves r (SpatialIndex.resolves).

    Raises ValueError for points outside [0, 1]^2, and for radii so small
    that the grid would need more than 2^32 cells per side.
    """
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    p = validate_p(p)
    validate_points(vs.points)
    idx = _grid(vs.points, r, p)
    if not idx.resolves:
        raise ValueError(f"radius {r} is below the grid's resolution")
    return idx


def _near_pairs(cells: np.ndarray, col: np.ndarray,
                side: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The slots (a, b) of every two occupied cells that touch, b after a in
    row-major order, in four arrays: b at (row, col + 1), then b at any of
    (row + 1, col - 1 .. col + 1), one array per search slot.

    cells holds ascending uint64 keys row * side + col, and col their
    columns. The three cells of the next row have keys key + side - 1 ..
    key + side + 1, so those that are occupied sit at the first three slots
    at or after key + side - 1.
    """
    # uint64 scalars from Python ints: numpy 1.x turns np.uint64 - 1 into
    # a float64, which rounds keys above 2^53
    last = np.uint64(side - 1)
    a = np.flatnonzero((cells[1:] - cells[:-1] == 1) & (col[:-1] != last))
    pairs = [(a, a + 1)]
    # only cells above the last row have a next row; their searched keys
    # stay below side^2 <= 2^64
    lead = np.searchsorted(cells, np.uint64(side * (side - 1)))
    want = cells[:lead] + last
    first = np.searchsorted(cells, want)
    left, right = col[:lead] != 0, col[:lead] != last
    for d in range(3):
        # first ascends, so slot first + d exists on a prefix
        m = np.searchsorted(first, len(cells) - d)
        # 0, 1, 2 for columns col - 1, col, col + 1 of the next row
        delta = cells[first[:m] + d] - want[:m]
        a = np.flatnonzero((delta == 1) | ((delta == 0) & left[:m])
                           | ((delta == 2) & right[:m]))
        pairs.append((a, first[a] + d))
    return pairs


def gather_runs(order: np.ndarray, first: np.ndarray,
                cnt: np.ndarray) -> np.ndarray:
    """order[first[i]:first[i] + cnt[i]] for every i, joined."""
    return order[np.repeat(first - np.cumsum(cnt) + cnt, cnt)
                 + np.arange(cnt.sum())]


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


def _pairs_within(idx: SpatialIndex, u: np.ndarray, key: np.ndarray,
                  at: np.ndarray, dr: np.ndarray):
    """Yield, in slabs of at most max(_PAIR_CHUNK, n) point pairs, the pairs
    (at[k], v), k ascending, of each vertex u[at[k]], in cell key[at[k]],
    and every other vertex v within r of it in the cells that reach allows at
    row offset dr[k], by ascending cell key, then index. Those cells are a run
    of columns, which two searches find. Keys stay in uint64, which numpy
    1.x would mix with signed ints into float64, rounding keys above 2^53;
    a negative dr wraps modulo 2^64, so row + dr is huge below the grid."""
    side = np.uint64(idx.side)
    row, col = np.divmod(key[at], side)
    to = row + dr.astype(np.uint64)
    i = np.flatnonzero(to < side)
    at, w = at[i], idx.reach[np.abs(dr[i])]
    col, at_col0 = col[i], to[i] * side
    first = idx.starts[np.searchsorted(idx.cells, at_col0 + (np.maximum(col, w) - w))]
    cnt = idx.starts[np.searchsorted(
        idx.cells, at_col0 + np.minimum(col + w, side - np.uint64(1)), "right")] - first
    # a generator keeps its locals alive between slabs
    del row, col, to, i, w, at_col0
    step = max(1, _PAIR_CHUNK // int(cnt.max(initial=1)))
    for lo in range(0, len(at), step):
        c = cnt[lo:lo + step]
        src = np.repeat(at[lo:lo + step], c)
        v, us = gather_runs(idx.order, first[lo:lo + step], c), u[src]
        # np.take gathers whole rows, much faster than fancy indexing here
        d = np.take(idx.points, us, axis=0)
        d -= np.take(idx.points, v, axis=0)
        close = lp_within(idx.p, d[:, 0], d[:, 1], idx.r) & (v != us)
        yield src[close], v[close]


def neighbour_lists(idx: SpatialIndex,
                    u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every other vertex v within r of each of the vertices u, as pairs
    (at, v), u[at] the vertex: at ascending, and the v of each vertex by
    ascending cell key, then index."""
    rows = len(idx.reach)
    got = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=idx.order.dtype))]
    got += _pairs_within(idx, u, _cell_keys(idx.points[u], idx.side),
                         np.repeat(np.arange(len(u)), 2 * rows - 1),
                         np.tile(np.arange(1 - rows, rows), len(u)))
    return tuple(np.concatenate(part) for part in zip(*got))


def _isolated_vertex(idx: SpatialIndex, u: np.ndarray) -> Optional[int]:
    """The first of the vertices u that has no other point within r, None
    when each of them has one. The cells reach allows are searched a row
    offset at a time, nearest rows first, and a vertex with a neighbour
    drops out at once; the vertices go in batches that double from
    _FIRST_BATCH, so that a set with many isolated vertices stops after a
    few hundred."""
    lo, size = 0, _FIRST_BATCH
    while lo < len(u):
        batch = u[lo:lo + size]
        key = _cell_keys(idx.points[batch], idx.side)
        alone = np.ones(len(batch), dtype=bool)
        for dr in sorted(range(1 - len(idx.reach), len(idx.reach)), key=abs):
            at = np.flatnonzero(alone)
            if not len(at):
                break
            for found, _ in _pairs_within(idx, batch, key, at, np.full(len(at), dr)):
                alone[found] = False
        if alone.any():
            return int(batch[alone.argmax()])
        lo += size
        size *= 2
    return None


def _hook_tour(idx: SpatialIndex, parent: np.ndarray, slot: np.ndarray,
               tour: np.ndarray) -> None:
    """Union the cells of each two consecutive vertices of tour, cyclically,
    that lie in different components and pass the far phase's own test,
    lp_within(...); longer hops are ignored. The hops go in chunks of
    at most _PAIR_CHUNK, and only those that join two components are
    measured."""
    n = len(tour)
    for lo in range(0, n, _PAIR_CHUNK):
        ends = tour[lo:lo + _PAIR_CHUNK + 1]
        if lo + _PAIR_CHUNK >= n:
            ends = np.append(ends, tour[:1])
        cell = slot[ends]
        root = parent[cell]
        at = np.flatnonzero(root[1:] != root[:-1])
        d = idx.points[ends[at]] - idx.points[ends[at + 1]]
        close = at[lp_within(idx.p, d[:, 0], d[:, 1], idx.r)]
        _hook(parent, cell[close], cell[close + 1])


def is_connected(idx: SpatialIndex, tour=None) -> bool:
    """Union-find over the occupied cells of the grid, in four phases.

    The grid resolves r (SpatialIndex.resolves; ValueError otherwise), so
    each point is within r of every point of its own cell and of the 8
    cells that touch it, and touching occupied cells are joined outright;
    they are read off the sorted keys with one search per cell
    (_near_pairs). tour, a sequence of vertices, is optional: the cells of
    each two consecutive vertices of it, cyclically, whose distance passes
    the far phase's own test are joined next (_hook_tour), and longer hops
    are ignored, so no tour can make the verdict wrong. A Hamiltonian tour
    whose hops are almost all within r, as the fallback's is, leaves few
    components after this step; if one is left, the answer is True at once.
    If more than one component is left, a vertex with no other point
    within r answers False at once: the graph then has at least two
    vertices and one of them is isolated. Near the
    connectivity threshold this is how disconnection almost always shows
    (the threshold is where the last isolated vertex disappears), and only
    one-point cells with no occupied cell around them need testing, by
    _isolated_vertex, which stops at the first batch that holds one such
    vertex. Otherwise the cells reach allows are searched a row offset at
    a time, nearest rows first as in _isolated_vertex, by _pairs_within
    from every vertex outside the component that holds the largest one the
    joins so far left (it grows, so it is read again at each row); the
    cells of each pair found are joined, and the search stops as soon as
    one component is left. Every edge between two components has an end
    outside that component, so no such edge is missed.
    """
    if not idx.resolves:
        raise ValueError(f"{idx.side} cells a side are too wide for r = {idx.r}")
    cells = idx.cells
    parent = np.arange(len(cells))
    for a, b in _near_pairs(cells, cells % np.uint64(idx.side), idx.side):
        _hook(parent, a, b)
    if not parent.any():
        return True
    # own: the cell slot of each vertex in idx.order; slot: the cell slot
    # of each vertex by index
    own = np.repeat(np.arange(len(cells)), np.diff(idx.starts))
    slot = np.empty_like(own)
    slot[idx.order] = own
    if tour is not None:
        _hook_tour(idx, parent, slot, np.asarray(tour))
        if not parent.any():
            return True
    size = np.bincount(parent, minlength=len(parent))
    # parent holds roots, so a root counted once is a component of one cell
    lone = np.flatnonzero(size == 1)
    lone = lone[idx.starts[lone + 1] - idx.starts[lone] == 1]
    if _isolated_vertex(idx, idx.order[idx.starts[lone]]) is not None:
        return False
    key, big = cells[own], size.argmax()
    for dr in sorted(range(1 - len(idx.reach), len(idx.reach)), key=abs):
        at = np.flatnonzero(parent[own] != parent[big])
        for found, v in _pairs_within(idx, idx.order, key, at, np.full(len(at), dr)):
            _hook(parent, own[found], slot[v])
            if not parent.any():
                return True
    return False
