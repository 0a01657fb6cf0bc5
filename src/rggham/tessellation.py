"""Two-level tessellation of the unit square and cell density bookkeeping.

The unit square is cut into m x m squares with m = floor(2/r), so each square
has side y = 1/m, slightly above r/2. Every square is further split into
k x k congruent cells of side y/k. Conventions used throughout:

  * cells are addressed by global (col, row) with 0 <= col, row < m*k;
    flat cell id = row * (m*k) + col, so ascending flat id is row-major order
    and the lexicographically smallest cell has the smallest flat id;
  * the square of a cell is (col // k, row // k); flat square id likewise;
  * locate() is half-open on interior boundaries and points with coordinate
    exactly 1.0 belong to the last cell;
  * a cell is Dense iff it holds at least 48 vertices, Sparse for 1..47,
    Empty otherwise; a square is dense iff it contains a dense cell;
  * squares are friends iff their index Chebyshev distance is at most 2,
    which caps the friend count at 24;
  * two cells are close iff the supremum of pairwise l_p distances between
    them is at most r. For grid cells the per-axis maximum separation is
    exactly (|dcol| + 1) * cell_side, so closeness depends on the index
    offset only and is translation invariant by construction.

The density threshold 48 and the Chebyshev-2 friendship radius are load
bearing (each square visit consumes two unused vertices of a dense cell and
there are at most 24 visits); they are deliberately not configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import _lp_from_abs, validate_p, unit_disk_area
from .instance import VertexSet, find_slots, occupied_cells, sorted_runs

DENSE_THRESHOLD = 48
FRIEND_CHEBYSHEV = 2
MAX_FRIENDS = (2 * FRIEND_CHEBYSHEV + 1) ** 2 - 1  # 24
MIN_CELLS_PER_SIDE = 4
MAX_CELLS_PER_SIDE = 64


class CellId(NamedTuple):
    col: int
    row: int


class SquareId(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True)
class Tessellation:
    p: float
    radius: float
    squares_per_side: int
    cells_per_side: int

    @property
    def square_side(self) -> float:
        return 1.0 / self.squares_per_side

    @property
    def cell_side(self) -> float:
        return self.square_side / self.cells_per_side

    @property
    def grid(self) -> int:
        """Cells per side of the whole unit square."""
        return self.squares_per_side * self.cells_per_side

    def locate(self, x: float, y: float) -> CellId:
        g = self.grid
        return CellId(min(int(x * g), g - 1), min(int(y * g), g - 1))

    def square_of(self, cell: CellId) -> SquareId:
        k = self.cells_per_side
        return SquareId(cell.col // k, cell.row // k)

    @cached_property
    def close_offsets(self) -> np.ndarray:
        """All index offsets (dcol, drow) whose cells are close, row-major
        sorted, as a read-only (count, 2) int64 array built once.

        Sorted ascending by (drow, dcol): scanning a fixed cell's
        neighbourhood in this order visits candidate cells in global
        row-major (lexicographic) order, which makes first-hit searches
        deterministic.
        """
        s = self.cell_side
        bound = int(self.radius / s) + 1
        out = [(dc, dr) for dr in range(-bound, bound + 1)
               for dc in range(-bound, bound + 1)
               if _lp_from_abs(self.p, (abs(dc) + 1) * s,
                               (abs(dr) + 1) * s) <= self.radius]
        offsets = np.array(out, dtype=np.int64).reshape(-1, 2)
        offsets.flags.writeable = False
        return offsets

    def cell_box(self, cell: CellId):
        from .geometry import Box
        s = self.cell_side
        return Box(cell.col * s, (cell.col + 1) * s, cell.row * s, (cell.row + 1) * s)


def tessellation_fits(r: float, cells_per_square: int) -> bool:
    """Whether 0 < r <= 1 and all g^2 flat ids fit int64 (r above ~3e-9 at k = 4)."""
    return (0.0 < r <= 1.0 and math.isfinite(2.0 / r)
            and (math.floor(2.0 / r) * cells_per_square) ** 2 <= np.iinfo(np.int64).max)


def build_tessellation(p: float, r: float, cells_per_square: int) -> Tessellation:
    p = validate_p(p)
    if cells_per_square < 2:
        raise ValueError(f"need k >= 2 cells per square side, got {cells_per_square}")
    if not tessellation_fits(r, cells_per_square):
        raise ValueError(f"tessellation needs 0 < r <= 1 and int64 cell ids, got r = {r}")
    m = math.floor(2.0 / r)
    t = Tessellation(p=p, radius=r, squares_per_side=m,
                     cells_per_side=cells_per_square)
    # same-cell closeness must hold, else a cell is not a clique at radius r
    assert _lp_from_abs(p, t.cell_side, t.cell_side) <= r, \
        "cell diameter exceeds r; tessellation unusable"
    return t


def cells_close(t: Tessellation, a: CellId, b: CellId) -> bool:
    """True iff sup over point pairs of the two cells is <= r (inclusive)."""
    s = t.cell_side
    sx = (abs(a.col - b.col) + 1) * s
    sy = (abs(a.row - b.row) + 1) * s
    return _lp_from_abs(t.p, sx, sy) <= t.radius


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CellClassification:
    """The occupied cells and squares, in O(n) memory: cells and squares
    hold their flat ids, ascending. counts, dense_mask and starts align with
    cells, and order[starts[i]:starts[i + 1]] lists the vertices of cells[i]
    in ascending index order; the square_ arrays align with squares."""

    tessellation: Tessellation
    cells: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    dense_mask: np.ndarray
    squares: np.ndarray
    square_vertex_count: np.ndarray
    square_dense_count: np.ndarray

    def occupancy(self, flat) -> tuple[np.ndarray, np.ndarray]:
        """Each flat id's slot in cells and its occupancy (0 if empty or -1)."""
        slot, hit = find_slots(self.cells, flat)
        return slot, np.where(hit, self.counts[slot], 0)

    def dense(self, flat) -> np.ndarray:
        return self.occupancy(flat)[1] >= DENSE_THRESHOLD


def classify_cells(t: Tessellation, vs: VertexSet) -> CellClassification:
    """Bucket the vertices by cell (occupied_cells) and mark the dense
    cells; the square summaries group the occupied cells by square. Steps
    work in place where they can: at large n, the memory a step churns is
    page faults in the next one."""
    g, m, k = t.grid, t.squares_per_side, t.cells_per_side
    cells, order, starts = occupied_cells(vs.points, g)
    cells = cells.view(np.int64)    # below g^2, which fits int64
    counts = np.diff(starts)
    dense = counts >= DENSE_THRESHOLD
    square, col = np.divmod(cells, g)
    square //= k
    square *= m
    square += np.floor_divide(col, k, out=col)
    del col
    # the squares of each cell row ascend: a stable sort merges g runs
    by = np.argsort(square, kind="stable")
    squares, first = sorted_runs(square[by])
    square_dense = np.bincount(find_slots(squares, square[dense])[0],
                               minlength=len(squares))
    del square
    vertex = counts[by]
    del by
    np.cumsum(vertex, out=vertex)
    vertex = np.diff(vertex[first[1:] - 1], prepend=0)
    return CellClassification(
        tessellation=t, cells=cells, counts=counts, order=order, starts=starts,
        dense_mask=dense, squares=squares, square_vertex_count=vertex,
        square_dense_count=square_dense)


# --------------------------------------------------------------------------
# quadrant close-cell count and the subdivision choice
# --------------------------------------------------------------------------

def _interior_cell_range(t: Tessellation) -> tuple[int, int]:
    """Index range [lo, hi] of cells whose box keeps distance >= r from the
    boundary on that axis."""
    s = t.cell_side
    r = t.radius
    lo = math.ceil(r / s)
    hi = int((1.0 - r) / s) - 1
    return lo, hi


def quadrant_close_count(t: Tessellation) -> int:
    """Number of cells close to an interior cell and weakly above/right of it.

    Counts offsets (dcol >= 0, drow >= 0) != (0, 0) in the closed upper-right
    quadrant. Translation invariant over interior cells; verified against
    three probe cells. Signals ValueError when no interior cell exists.
    """
    lo, hi = _interior_cell_range(t)
    if lo > hi:
        raise ValueError("no cell lies at distance >= r from the boundary")
    s = t.cell_side
    bound = int(t.radius / s) + 1

    def count_at(cell: CellId) -> int:
        cnt = 0
        for dr in range(0, bound + 1):
            for dc in range(0, bound + 1):
                if dc == 0 and dr == 0:
                    continue
                if cells_close(t, cell, CellId(cell.col + dc, cell.row + dr)):
                    cnt += 1
        return cnt

    mid = CellId((lo + hi) // 2, (lo + hi) // 2)
    result = count_at(mid)
    rng = np.random.default_rng(0)
    for _ in range(3):
        probe = CellId(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
        assert count_at(probe) == result, "quadrant count not position independent"
    return result


def _scale_free_quadrant_count(p: float, k: int) -> int:
    """Quadrant close-cell count in the r -> 0 limit, where r/cell_side -> 2k.

    The closeness test for offset (a, b) becomes
    ((a+1)^p + (b+1)^p)^(1/p) <= 2k, independent of the radius.
    """
    limit = 2 * k
    cnt = 0
    for A in range(1, limit + 1):
        for B in range(1, limit + 1):
            if _lp_from_abs(p, float(A), float(B)) <= limit:
                cnt += 1
    return cnt - 1  # offset (0, 0) is the cell itself


@lru_cache(maxsize=None)
def choose_cells_per_side(p: float, eps: float) -> tuple[int, bool]:
    """Smallest usable k with quadrant count >= (area_p - eps/2) k^2.

    Searches even k up to MAX_CELLS_PER_SIDE (even k makes every serpentine
    stitch order start and end at side-adjacent corners, see hamiltonian.py).
    Uses the scale-free closeness bound so the answer depends on (p, eps)
    only and can be cached across an n sweep. Returns (k, satisfied), and
    (MAX_CELLS_PER_SIDE, False) when no k qualifies.
    """
    p = validate_p(p)
    area = unit_disk_area(p)
    if not 0.0 < eps < area:
        raise ValueError(f"eps must lie in (0, {area}), got {eps}")
    for k in range(MIN_CELLS_PER_SIDE, MAX_CELLS_PER_SIDE + 1, 2):
        if _scale_free_quadrant_count(p, k) >= (area - eps / 2.0) * k * k:
            return k, True
    return MAX_CELLS_PER_SIDE, False


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

_VIOLATION_CAP = 32


@dataclass(frozen=True)
class DiagnosticsReport:
    cells_per_side: int
    dense_threshold: int
    max_friends: int
    cell_counts: dict
    square_counts: dict
    quadrant_count: int | None
    corner_violations: list
    corner_violation_total: int
    hook_violations: list
    hook_violation_total: int

    def to_json(self) -> dict:
        return {
            "cells_per_side": self.cells_per_side,
            "dense_threshold": self.dense_threshold,
            "max_friends": self.max_friends,
            "cell_counts": dict(self.cell_counts),
            "square_counts": dict(self.square_counts),
            "quadrant_close_count": self.quadrant_count,
            "corner_violations": {
                "total": self.corner_violation_total,
                "first": [list(c) for c in self.corner_violations],
                "truncated": self.corner_violation_total > len(self.corner_violations),
            },
            "hook_violations": {
                "total": self.hook_violation_total,
                "first": [list(c) for c in self.hook_violations],
                "truncated": self.hook_violation_total > len(self.hook_violations),
            },
        }


def density_diagnostics(t: Tessellation, cls: CellClassification) -> DiagnosticsReport:
    """Instance health report; collects violations, never aborts.

    Checks the tractable slices of the asymptotic density picture: the four
    corner regions (cells nearer than 4y to two boundary sides) should be
    all dense, and every sparse cell should see a close dense cell (the hook
    existence property the construction relies on).
    """
    g, m, k = t.grid, t.squares_per_side, t.cells_per_side
    n_dense = int(cls.dense_mask.sum())
    n_sparse = len(cls.cells) - n_dense
    n_empty = g * g - len(cls.cells)
    sq_dense = int((cls.square_dense_count > 0).sum())
    sq_sparse = len(cls.squares) - sq_dense
    sq_empty = m * m - len(cls.squares)

    try:
        quadrant = quadrant_close_count(t)
    except ValueError:
        quadrant = None

    # corner regions: cells with box distance < 4y to two sides, i.e. the
    # four (4k x 4k) index corners of the grid
    block = min(4 * k, g)
    span = np.arange(block)
    corner_bad: list[CellId] = []
    corner_total = 0
    for row0 in (0, g - block):
        for col0 in (0, g - block):
            flat = (row0 + span)[:, None] * g + (col0 + span)
            bad = flat[~cls.dense(flat)]    # row-major
            corner_total += bad.size
            corner_bad += [CellId(int(c) % g, int(c) // g)
                           for c in bad[:_VIOLATION_CAP - len(corner_bad)]]

    # hook existence: a sparse cell must see a dense cell at some close
    # offset; cells that do drop out, offset by offset
    todo = cls.cells[~cls.dense_mask]
    for dc, dr in t.close_offsets.tolist() if n_dense else ():
        row, col = np.divmod(todo, g) + np.array([[dr], [dc]])
        flat = np.where((row >= 0) & (row < g) & (col >= 0) & (col < g),
                        row * g + col, -1)
        todo = todo[~cls.dense(flat)]
    hook_total = int(todo.size)
    hook_bad = [CellId(int(c) % g, int(c) // g) for c in todo[:_VIOLATION_CAP]]

    return DiagnosticsReport(
        cells_per_side=k,
        dense_threshold=DENSE_THRESHOLD,
        max_friends=MAX_FRIENDS,
        cell_counts={"dense": n_dense, "sparse": n_sparse, "empty": n_empty},
        square_counts={"dense": sq_dense, "sparse": sq_sparse, "empty": sq_empty},
        quadrant_count=quadrant,
        corner_violations=corner_bad,
        corner_violation_total=int(corner_total),
        hook_violations=hook_bad,
        hook_violation_total=hook_total,
    )
