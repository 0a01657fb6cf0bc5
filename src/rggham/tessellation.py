"""Two-level tessellation of the unit square and cell density bookkeeping.

The unit square is cut into m x m squares with m = floor(2/r), so each square
has side y = 1/m, slightly above r/2. Every square is further split into
k x k congruent cells of side y/k. Conventions used throughout:

  * cells are addressed by global (col, row) with 0 <= col, row < m*k;
    flat cell id = row * (m*k) + col, so ascending flat id is row-major order
    and the lexicographically smallest cell has the smallest flat id;
  * the square of a cell is (col // k, row // k); flat square id likewise;
  * a point (x, y) files into cell (min(floor(x*g), g-1), min(floor(y*g), g-1))
    for g = m*k, as occupied_cells applies it: half-open on interior
    boundaries, and a coordinate exactly 1.0 belongs to the last cell;
  * a cell is Dense iff it holds at least 48 vertices, Sparse for 1..47,
    Empty otherwise; a square is dense iff it contains a dense cell;
  * squares are friends iff their index Chebyshev distance is at most 2,
    which caps the friend count at 24;
  * two cells are close iff the supremum of pairwise l_p distances between
    them is at most r. For grid cells the per-axis maximum separation is
    exactly (|dcol| + 1) * cell_side, so closeness depends on the index
    offset only: Tessellation.offset_norms holds the norm of every offset
    between friend squares' cells, and every closeness test, the quadrant
    count and the sweep gaps read it.

The density threshold 48 and the Chebyshev-2 friendship radius are load
bearing (each square visit consumes two unused vertices of a dense cell and
there are at most 24 visits); they are deliberately not configurable. Nor is
the subdivision k: tessellation_for derives it from the slack eps between r
and the connectivity threshold (choose_cells_per_side), as the paper does.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import _offset_norms, validate_p, unit_disk_area
from .instance import (_ABS_SLACK, _REL_SLACK, VertexSet, find_slots,
                       occupied_cells, sorted_runs)

DENSE_THRESHOLD = 48
FRIEND_CHEBYSHEV = 2
MAX_FRIENDS = (2 * FRIEND_CHEBYSHEV + 1) ** 2 - 1  # 24
MIN_CELLS_PER_SIDE = 4
MAX_CELLS_PER_SIDE = 64


@dataclass(frozen=True)
class Tessellation:
    p: float
    radius: float
    squares_per_side: int
    cells_per_side: int

    @property
    def cell_side(self) -> float:
        return 1.0 / self.squares_per_side / self.cells_per_side

    @property
    def grid(self) -> int:
        """Cells per side of the whole unit square."""
        return self.squares_per_side * self.cells_per_side

    @cached_property
    def offset_norms(self) -> np.ndarray:
        """offset_norms[j, i] is the l_p norm of (i, j) cell sides, for
        0 <= i, j <= 3k: one past every index offset between cells of
        friend squares. Read-only, built once."""
        return _offset_norms(self.p, self.cell_side,
                             (FRIEND_CHEBYSHEV + 1) * self.cells_per_side)

    @cached_property
    def close_table(self) -> np.ndarray:
        """close_table[|drow|, |dcol|] tells whether cells at that index
        offset are close, for every offset between cells of friend squares (below
        3k; no cell further off is close). Read-only."""
        close = self.offset_norms[1:, 1:] <= self.radius
        close.flags.writeable = False
        return close

    @cached_property
    def close_offsets(self) -> np.ndarray:
        """All index offsets (dcol, drow) whose cells are close, close_table
        mirrored, as a read-only (count, 2) int64 array.

        Sorted ascending by (drow, dcol): scanning a fixed cell's
        neighbourhood in this order visits candidate cells in global
        row-major (lexicographic) order, which makes first-hit searches
        deterministic.
        """
        span = len(self.close_table)
        back = np.abs(np.arange(1 - span, span))
        drow, dcol = np.nonzero(self.close_table[np.ix_(back, back)])
        offsets = np.column_stack((dcol, drow)).astype(np.int64) - (span - 1)
        offsets.flags.writeable = False
        return offsets


def tessellation_fits(r: float, cells_per_square: int) -> bool:
    """Whether 0 < r <= 1 and all g^2 flat ids fit int64 (r above ~3e-9 at k = 4)."""
    return (0.0 < r <= 1.0 and math.isfinite(2.0 / r)
            and (math.floor(2.0 / r) * cells_per_square) ** 2 <= np.iinfo(np.int64).max)


def build_tessellation(p: float, r: float, cells_per_square: int) -> Tessellation:
    """The tessellation of m = floor(2/r) squares a side, k cells a square
    side. Raises ValueError unless 2 <= k <= MAX_CELLS_PER_SIDE and the
    tessellation fits (tessellation_fits).

    Every cell is a clique at r, with the grid's rounding margin: its
    diameter is at most r (1 - _REL_SLACK) - _ABS_SLACK. The tessellation
    path's self check (hamiltonian._check_runs) measures no hop inside a
    cell on that premise. floor(x g) files a coordinate at most 2^-53
    outside its cell, so two points of one cell lie at most 2^-52 further
    apart per axis than the cell's side, which adds at most 2^-51 to any
    l_p norm, under _ABS_SLACK; _offset_norms and lp_norms are each a few
    ulps off the exact norm, far under _REL_SLACK. The premise is checked
    here, and cannot fail for any r accepted: r > 2/(m + 1) and m >= 2, so
    a square's side 1/m is at most 3r/4, and a cell's diameter, at most
    twice its side, at most 3r/(2k): 3r/4 at k = 2 and 3r/8 at the k >= 4
    that tessellation_for picks. Over 1,000 radii from 4e-9 to 1 and every
    boundary 2/j, k in {2, 4, 6, 8, 16, 64} and p in {1, 1.5, 2, 3, inf},
    the largest diameter was 0.75 r.
    """
    p = validate_p(p)
    if not 2 <= cells_per_square <= MAX_CELLS_PER_SIDE:
        # the offset tables hold (3k + 1)^2 scalar norms
        raise ValueError(f"need 2 <= k <= {MAX_CELLS_PER_SIDE} cells per "
                         f"square side, got {cells_per_square}")
    if not tessellation_fits(r, cells_per_square):
        raise ValueError(f"tessellation needs 0 < r <= 1 and int64 cell ids, got r = {r}")
    m = math.floor(2.0 / r)
    t = Tessellation(p=p, radius=r, squares_per_side=m,
                     cells_per_side=cells_per_square)
    if not (_offset_norms(p, t.cell_side, 1)[1, 1]
            <= r * (1.0 - _REL_SLACK) - _ABS_SLACK):
        raise AssertionError("cell diameter exceeds r less the rounding "
                             "margin; tessellation unusable")
    return t


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CellClassification:
    """The occupied cells and squares, in O(n) memory: cells and squares
    hold their flat ids, ascending. counts, dense_mask and starts align with
    cells, and order[starts[i]:starts[i + 1]] lists the vertices of cells[i]
    in ascending index order; the square counts align with squares, and
    by_square[square_starts[j]:square_starts[j + 1]] lists the slots in
    cells of the occupied cells of squares[j], row-major."""

    cells: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    dense_mask: np.ndarray
    squares: np.ndarray
    square_vertex_count: np.ndarray
    square_dense_count: np.ndarray
    by_square: np.ndarray
    square_starts: np.ndarray

    def occupancy(self, flat) -> tuple[np.ndarray, np.ndarray]:
        """Each flat id's slot in cells and its occupancy (0 if empty or -1)."""
        slot, hit = find_slots(self.cells, flat)
        return slot, np.where(hit, self.counts[slot], 0)

    def dense(self, flat) -> np.ndarray:
        return self.occupancy(flat)[1] >= DENSE_THRESHOLD


def classify_cells(t: Tessellation, vs: VertexSet) -> CellClassification:
    """Bucket the vertices by cell (occupied_cells), mark the dense cells,
    and group the occupied cells by square, once: the grouping is kept, and
    the square counts are read off it. Steps work in place where they can:
    at large n, the memory a step churns is page faults in the next one."""
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
    np.cumsum(vertex, out=vertex)
    vertex = np.diff(vertex[first[1:] - 1], prepend=0)
    return CellClassification(
        cells=cells, counts=counts, order=order, starts=starts,
        dense_mask=dense, squares=squares, square_vertex_count=vertex,
        square_dense_count=square_dense, by_square=by, square_starts=first)


# ceiling on the tests first_hits makes at once
_TEST_CHUNK = 1 << 20


def first_hits(count: int, length: int, test) -> np.ndarray:
    """For each i < count, the first j < length with a hit, or -1 for none.

    test(rows, lo, hi) gives the hits of the rows (an index array) at
    lo <= j < hi, as a bool matrix. The rows still without a hit are tested
    against a block of j at once: the first block is one entry, which
    settles most rows where hits are common; each next block is twice as
    long, up to _TEST_CHUNK tests a block.
    """
    first = np.full(count, -1)
    todo = np.arange(count)
    lo, step = 0, 1
    while todo.size and lo < length:
        hit = test(todo, lo, lo + step)
        got = hit.any(axis=1)
        first[todo[got]] = lo + hit[got].argmax(axis=1)
        todo = todo[~got]
        lo += step
        step = max(1, min(2 * step, _TEST_CHUNK // max(todo.size, 1)))
    return first


def hook_cells(t: Tessellation, cls: CellClassification,
               cells: np.ndarray) -> np.ndarray:
    """Each flat cell id's hook: the lexicographically smallest close dense
    cell, or -1 for none. The first dense hit along close_offsets, which
    are in row-major order."""
    g = t.grid
    row, col = np.divmod(cells, g)
    drow, dcol = t.close_offsets[:, 1], t.close_offsets[:, 0]

    def flat(rows, lo, hi):
        r = row[rows, None] + drow[lo:hi]
        c = col[rows, None] + dcol[lo:hi]
        return np.where((r >= 0) & (r < g) & (c >= 0) & (c < g), r * g + c, -1)

    j = first_hits(len(cells), len(drow) if cls.dense_mask.any() else 0,
                   lambda rows, lo, hi: cls.dense(flat(rows, lo, hi)))
    return np.where(j >= 0, (row + drow[j]) * g + col + dcol[j], -1)


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
    quadrant: close_table less the cell itself. Closeness depends on
    the offset only, so every interior cell has this count. Signals
    ValueError when no interior cell exists.
    """
    lo, hi = _interior_cell_range(t)
    if lo > hi:
        raise ValueError("no cell lies at distance >= r from the boundary")
    return int(t.close_table.sum()) - 1


@lru_cache(maxsize=None)
def _scale_free_quadrant_count(p: float, k: int) -> int:
    """Quadrant close-cell count in the r -> 0 limit, where r/cell_side -> 2k.

    The closeness test for offset (a, b) becomes
    ((a+1)^p + (b+1)^p)^(1/p) <= 2k, independent of the radius.
    """
    limit = 2 * k
    return int((_offset_norms(p, 1.0, limit)[1:, 1:] <= limit).sum()) - 1


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


def tessellation_for(n: int, p: float, r: float) -> Tessellation | None:
    """The tessellation of n points at radius r, or None where none fits
    (tessellation_fits: r > 1, or r below about 3e-9). Its k is chosen from
    the slack eps between r and the connectivity threshold
    (choose_cells_per_side), and is the minimum, MIN_CELLS_PER_SIDE, when r
    sits at or below threshold, or so far above it that the slack rounds to
    the whole disk area."""
    # divided twice, not by r * r, which is 0 below about 1e-162; at huge r
    # the quotient vanishes below an ulp of area, where no tessellation
    # fits anyway
    area = unit_disk_area(p)
    eps = area - math.log(n) / (r * n) / r
    k = (choose_cells_per_side(p, eps)[0] if 0.0 < eps < area
         else MIN_CELLS_PER_SIDE)
    return build_tessellation(p, r, k) if tessellation_fits(r, k) else None


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

_VIOLATION_CAP = 32


@dataclass(frozen=True)
class DiagnosticsReport:
    """Plain data, as to_json gives it. Each violations field is a dict:
    total, the first _VIOLATION_CAP cells as [col, row] lists in row-major
    order, and whether that list is truncated."""

    cells_per_side: int
    dense_threshold: int
    max_friends: int
    cell_counts: dict
    square_counts: dict
    quadrant_close_count: int | None
    corner_violations: dict
    hook_violations: dict

    def to_json(self) -> dict:
        return asdict(self)


def _violations(bad: np.ndarray, g: int) -> dict:
    """The violations dict of the flat cell ids bad, in the order given."""
    return {"total": int(bad.size),
            "first": [[c % g, c // g] for c in bad[:_VIOLATION_CAP].tolist()],
            "truncated": bad.size > _VIOLATION_CAP}


def density_diagnostics(t: Tessellation, cls: CellClassification) -> DiagnosticsReport:
    """Instance health report; collects violations, never aborts.

    Checks the tractable slices of the asymptotic density picture: the four
    corner regions (cells nearer than 4y to two boundary sides) should be
    all dense, and every sparse cell should see a close dense cell (the hook
    existence property the construction relies on).
    """
    g, m, k = t.grid, t.squares_per_side, t.cells_per_side
    n_dense = int(cls.dense_mask.sum())
    sq_dense = int((cls.square_dense_count > 0).sum())

    try:
        quadrant = quadrant_close_count(t)
    except ValueError:
        quadrant = None

    # corner regions: cells with box distance < 4y to two sides, i.e. both
    # indices in the band of the first or last 4k; the four corners overlap
    # once g < 8k, so each cell is counted once
    span = np.arange(g)
    band = span[(span < 4 * k) | (span >= g - 4 * k)]
    flat = (band[:, None] * g + band).ravel()   # row-major
    corner_bad = flat[~cls.dense(flat)]

    # hook existence: a sparse cell must see a dense cell at some close
    # offset
    todo = cls.cells[~cls.dense_mask]
    hook_bad = todo[hook_cells(t, cls, todo) < 0]

    return DiagnosticsReport(
        cells_per_side=k,
        dense_threshold=DENSE_THRESHOLD,
        max_friends=MAX_FRIENDS,
        cell_counts={"dense": n_dense, "sparse": len(cls.cells) - n_dense,
                     "empty": g * g - len(cls.cells)},
        square_counts={"dense": sq_dense, "sparse": len(cls.squares) - sq_dense,
                       "empty": m * m - len(cls.squares)},
        quadrant_close_count=quadrant,
        corner_violations=_violations(corner_bad, g),
        hook_violations=_violations(hook_bad, g),
    )
