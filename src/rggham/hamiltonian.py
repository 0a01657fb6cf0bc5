"""Hamiltonian cycle construction: the paper's tessellation path, and a
serpentine fallback for finite n.

Tessellation path. The cycle follows the euler order of a spanning tree of
the augmented graph. Each move between old vertices withdraws one vertex
from each side of the edge's witness cell pair; a visit to a group node
walks all vertices of the group's sparse cells between two hook
withdrawals. When a square is visited for the last time, all its remaining
vertices are stitched in with a serpentine sweep of its cells before
leaving. construct_cycle runs in two passes: a walk over the euler order
records these events, then array passes turn them into one permutation.

Budget argument, and why the per-cell withdrawal cap equals the density
threshold: counted withdrawals from a cell happen only on edge steps
adjacent to the cell's square, at most one per step; a tree vertex of degree
d has 2d adjacent steps and d <= 24, so at most 48 vertices leave any single
cell before the final sweep. Witness and hook cells are dense, hence hold at
least 48 vertices, and withdrawals never run dry on the intended path. The
cap stays enforced anyway, in _withdrawal_positions, which ranks every
withdrawal within its cell: a rank that reaches min(occupancy, 48) marks a
logic error, reported as LedgerExhausted rather than a corrupt cycle.

Why one pass of counts is exact: every withdrawal from a square's cells
happens while that square is the current node of the walk (hook cells lie
in the label square, and a group node hangs from that square), so all of
them come before the square's sweep, at its last visit. Group drains touch
only cells of sparse squares, which are never swept and never withdrawn
from. So at every sweep a cell holds its occupancy less its withdrawals,
and each withdrawal's vertex is found from its rank alone.

The tessellation path needs dense cells of 48 points, which near the
connectivity threshold only exist once log n is in the thousands. Without
one, the first occupied cell finds no hook and the path stops at
HookMissing, so full_construction first counts the points per block of
whole squares (_may_hold_dense_cell) and, where no block holds 48, skips
the attempt. The path also gives up when its augmented graph splits, which
the point graph need not do, and when its cycle has a hop longer than r (at
p = 1 a square can be wider than r). full_construction then falls back to
a serpentine tour: every vertex in rows of clique cells, sorted along each
row, with a return lane that closes the tour. The few hops longer than r,
at gaps in a row, are repaired locally with 2-opt moves and single-vertex
moves that use only edges within r (after Posa's rotations), each made of
segment reversals. A hop that no one move mends gets a second chance: a
2-opt from either of its ends that leaves one new long hop, which one move
then mends. These tries are judged through a position map of the reversed
tour without being made, a block of them in one array pass, and only the
first that passes is made. The fallback buckets the points once, on the
grid build_spatial_index builds (instance._grid), and its neighbour lists,
its isolated-vertex screen and its connectivity check all read it, through
SpatialIndex.reach.
Its failures are certificates where they can be. Before any repair, every
vertex whose two tour hops are both longer than r is tested exactly, and
the first one with no neighbour within r is reported as Disconnected:
below the threshold almost every instance has such a vertex. Otherwise, at
the first hop that no repair mends, is_connected runs once on the grid,
handed the tour, whose hops within r it joins before it searches for
more: a disconnected graph is reported as Disconnected, a connected one as
EdgeTooLong with the degrees of the hop's ends and connected: true. No
move depends on the order of the neighbour lists, so neither do the
cycles: ties go to the lower tour position or vertex index.

Every constructed cycle is self-verified (zero tolerance) before being
returned, so callers get either a valid cycle or a typed failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .auxgraphs import (AugmentedGraph, GroupKey, Node, attach_sparse_groups,
                        build_density_graph, euler_traversal, spanning_tree)
from .failures import ConstructionError, FailureReason
from .geometry import (_lp_from_abs, lp_norms, lp_within, unit_disk_area,
                       validate_p)
from .instance import (_PAIR_CHUNK, VertexSet, _grid, _isolated_vertex,
                       gather_runs, is_connected, neighbour_lists,
                       point_array, validate_points)
from .tessellation import (DENSE_THRESHOLD, CellClassification,
                           Tessellation, build_tessellation,
                           choose_cells_per_side, classify_cells,
                           tessellation_fits, validate_cells_per_square)


# --------------------------------------------------------------------------
# withdrawals, remainders and the gather that joins them
# --------------------------------------------------------------------------

def _withdrawal_positions(cls: CellClassification, cells) -> np.ndarray:
    """Positions in cls.order of a sequence of withdrawals, one per cell.

    Each withdrawal takes the next vertex of its cell in ascending index
    order, so its position is starts[c] plus the number of earlier
    withdrawals from c: its distance, after a stable sort of the cells, from
    the first withdrawal from c. Raises LedgerExhausted at the first
    withdrawal, in sequence order, that finds its cell empty or that goes
    past the density threshold for the cell.
    """
    cells = np.asarray(cells, dtype=np.int64)
    by = np.argsort(cells, kind="stable")
    ranked = cells[by]
    rank = np.empty(len(cells), dtype=np.int64)
    rank[by] = np.arange(len(cells)) - np.searchsorted(ranked, ranked)
    slot, occupancy = cls.occupancy(cells)
    over = rank >= np.minimum(occupancy, DENSE_THRESHOLD)
    if over.any():
        i = int(np.argmax(over))
        raise ConstructionError(
            FailureReason.LEDGER_EXHAUSTED,
            {"cell": int(cells[i]), "occupancy": int(occupancy[i]),
             "withdrawn": int(rank[i])})
    return cls.starts[slot] + rank


def _remainder_runs(cls: CellClassification, cells,
                    withdrawn) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) in cls.order of what each cell holds after the
    withdrawals from the cell sequence withdrawn; any array shape. An empty
    cell gets length 0."""
    cells = np.asarray(cells, dtype=np.int64)
    withdrawn = np.sort(np.asarray(withdrawn, dtype=np.int64))
    taken = (np.searchsorted(withdrawn, cells, side="right")
             - np.searchsorted(withdrawn, cells))
    slot, occupancy = cls.occupancy(cells)
    return cls.starts[slot] + taken, occupancy - taken


# --------------------------------------------------------------------------
# serpentine sweeps
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _serpentine_orders(k: int) -> np.ndarray:
    """Eight boustrophedon orders of the k x k local cell grid.

    An (8, k * k, 2) array of local (col, row) steps, built once per k.
    Variants are rows-first/cols-first crossed with both start corners per
    axis. With even k each full sweep starts and ends in side-adjacent
    corners, which keeps the entry and exit hops short.
    """
    out = []
    for transpose in (False, True):
        for flip_major in (False, True):
            for flip_minor in (False, True):
                order = []
                for a in range(k):
                    major = k - 1 - a if flip_major else a
                    minor_fwd = (a % 2 == 0) != flip_minor
                    minors = range(k) if minor_fwd else range(k - 1, -1, -1)
                    for b in minors:
                        order.append((b, major) if not transpose else (major, b))
                out.append(order)
    orders = np.array(out, dtype=np.int64)
    orders.flags.writeable = False
    return orders


def _sweep_runs(t: Tessellation, cls: CellClassification, squares: np.ndarray,
                start_near: np.ndarray, end_near: np.ndarray,
                withdrawn: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of every vertex left in each square, serpentine cell order.

    Works on all the squares at once. For each it picks the variant whose
    last occupied cell lands nearest end_near, then whose first lands
    nearest start_near, then the lowest variant index, so the hops into and
    out of the sweep stay short. The near cells are flat cell ids, -1 for
    none (gap 0). Returns (start, length) of every occupied cell's
    remainder, square after square, and the number of runs per square.
    """
    k, g, m = t.cells_per_side, t.grid, t.squares_per_side
    kk = k * k
    orders = _serpentine_orders(k)
    # local row-major cell of each step of each variant, and its inverse
    steps = orders[:, :, 1] * k + orders[:, :, 0]
    step_of = np.empty_like(steps)
    step_of[np.arange(8)[:, None], steps] = np.arange(kk)
    srow, scol = np.divmod(squares, m)
    local = np.arange(kk)
    cells = (srow * k * g + scol * k)[:, None] + (local // k * g + local % k)
    lo, size = _remainder_runs(cls, cells, withdrawn)
    left = size > 0
    # first and last occupied step of each variant (any step, if none is)
    first = np.stack([np.where(left, step_of[v], kk).min(axis=1)
                      for v in range(8)], axis=1)
    last = np.stack([np.where(left, step_of[v], -1).max(axis=1)
                     for v in range(8)], axis=1)
    empty = ~left.any(axis=1)
    first[empty], last[empty] = 0, kk - 1

    def gap(step: np.ndarray, near: np.ndarray) -> np.ndarray:
        cell = steps[np.arange(8), step]
        dcol = np.abs(scol[:, None] * k + cell % k - (near % g)[:, None]) + 1
        drow = np.abs(srow[:, None] * k + cell // k - (near // g)[:, None]) + 1
        none = near[:, None] < 0    # gap 0: offset_norms[0, 0]
        return t.offset_norms[np.where(none, 0, drow), np.where(none, 0, dcol)]

    # the lexicographic minimum of (end gap, start gap, variant)
    end_gap = gap(last, end_near)
    best = end_gap == end_gap.min(axis=1, keepdims=True)
    start_gap = np.where(best, gap(first, start_near), np.inf)
    best &= start_gap == start_gap.min(axis=1, keepdims=True)
    at = steps[best.argmax(axis=1)]
    lo = np.take_along_axis(lo, at, axis=1)
    size = np.take_along_axis(size, at, axis=1)
    keep = size > 0
    return lo[keep], size[keep], keep.sum(axis=1)


# --------------------------------------------------------------------------
# cycle construction
# --------------------------------------------------------------------------

# kinds of the events the walk places, in cycle order
_TAKE, _DRAIN, _SWEEP = 0, 1, 2


def construct_cycle(points: np.ndarray, t: Tessellation,
                    cls: CellClassification, ag: AugmentedGraph,
                    order: list[Node]) -> np.ndarray:
    """Build the Hamiltonian cycle along an euler traversal of the tree.

    Returns the cycle as an int64 vertex permutation. A walk over the euler
    order records its events, in cycle order: withdrawals (a cell each),
    group drains (a list of sparse cells each) and square sweeps (a square,
    the cell of the withdrawal placed last before it, and the cell to end
    near). Array passes then rank the withdrawals, pick every sweep's
    variant, and gather the cycle once from cls.order, so the Python work
    grows with squares and tree nodes, not with n. Raises ConstructionError
    (EdgeTooLong) when the self check finds an overlong edge; structural
    breakage surfaces as LedgerExhausted or an assertion.
    """
    last_pos: dict[Node, int] = {node: i for i, node in enumerate(order)}
    takes: list[int] = []       # withdrawal cells
    events: list[int] = []      # the kind of each event
    drains: list[list[int]] = []
    swept: list[int] = []
    start_near: list[int] = []
    end_near: list[int] = []

    i = 0
    while i < len(order) - 1:
        u, v = order[i], order[i + 1]
        assert isinstance(u, int), "traversal must move between old vertices"
        if isinstance(v, GroupKey):
            # leaf roundtrip: hook in, walk the sparse cells, hook out
            assert order[i + 2] == u
            cells = ag.groups[v]
            drains.append(cells)
            takes += [ag.hooks[cells[0]], ag.hooks[cells[-1]]]
            events += [_TAKE, _DRAIN, _TAKE]
            i += 2
            continue
        cu, cv = ag.density.witness_cells(u, v)
        if i == last_pos[u]:
            # final departure: empty the square before leaving. The exit
            # vertex is withdrawn first but placed after the sweep; no
            # withdrawal lies between, so recording it here keeps the
            # order of withdrawals
            swept.append(u)
            start_near.append(takes[-1])
            end_near.append(cu)
            events.append(_SWEEP)
        takes += [cu, cv]
        events += [_TAKE, _TAKE]
        i += 1
    root = order[-1]
    assert isinstance(root, int)
    swept.append(root)
    # the first step withdraws a vertex; a one-square tree withdraws none
    start_near.append(takes[-1] if takes else -1)
    end_near.append(takes[0] if takes else -1)
    events.append(_SWEEP)

    taken = np.array(takes, dtype=np.int64)
    take_lo = _withdrawal_positions(cls, taken)
    drained = np.array([c for cells in drains for c in cells], dtype=np.int64)
    drain_lo, drain_size = _remainder_runs(cls, drained, taken)
    sweep_lo, sweep_size, sweep_runs = _sweep_runs(
        t, cls, np.array(swept), np.array(start_near), np.array(end_near),
        taken)
    # every run, sorted by the event it belongs to
    kind = np.array(events)
    event = np.arange(len(kind))
    which = np.concatenate([
        event[kind == _TAKE],
        np.repeat(event[kind == _DRAIN], [len(cells) for cells in drains]),
        np.repeat(event[kind == _SWEEP], sweep_runs)])
    by = np.argsort(which, kind="stable")
    lo = np.concatenate([take_lo, drain_lo, sweep_lo])[by]
    size = np.concatenate([np.ones(len(take_lo), dtype=np.int64),
                           drain_size, sweep_size])[by]
    cycle = gather_runs(cls.order, lo, size).astype(np.int64, copy=False)
    report = verify_cycle(points, t.radius, t.p, cycle)
    if not report.valid:
        violation = report.violation
        assert violation.kind == "EdgeTooLong", \
            f"constructed cycle is not a permutation: {violation}"
        raise ConstructionError(
            FailureReason.EDGE_TOO_LONG,
            {"position": violation.position,
             "distance": violation.distance,
             "radius": t.radius})
    return cycle


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

class Violation(NamedTuple):
    position: int
    kind: str  # NotPermutation | EdgeTooLong
    distance: Optional[float]


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    n: int
    violation: Optional[Violation]

    def to_json(self) -> dict:
        out: dict = {"valid": self.valid, "n": self.n}
        if self.violation is not None:
            out["violation"] = {"position": self.violation.position,
                                "kind": self.violation.kind}
            if self.violation.distance is not None:
                out["violation"]["distance"] = self.violation.distance
        return out


# l_p <= l_1 for every p >= 1: a hop whose l_1 length stays this far below
# the bound is within it at every p. The relative margin is thousands of
# times lp_norms' rounding error (a few ulps); the absolute one covers
# subnormal lengths, which round by an absolute step.
_SCREEN_REL, _SCREEN_ABS = 1e-12, 1e-300
# hops checked at once, so that the check holds a few MB at any n
_HOP_CHUNK = 1 << 16


def verify_cycle(points: np.ndarray, r: float, p: float,
                 cycle: np.ndarray, tolerance: float = 0.0) -> VerificationReport:
    """Check that cycle is a vertex permutation with all hops <= r + tolerance.

    Reports the first violation: NotPermutation for a malformed sequence
    (wrong length, out-of-range or repeated vertex), EdgeTooLong for the
    first overlong hop, including the wraparound edge, with the hop's
    length as lp_norms gives it.

    Hops are screened by their l_1 length: l_p <= l_1 for every p >= 1, so a
    hop whose l_1 length is below r + tolerance by more than lp_norms can
    round is within the bound at any p. Only the other hops get the exact
    l_p norm: none to about 700 of 4e5 on tessellation cycles at r = 0.2
    and 0.1. NaN lengths fail the screen and then pass the exact test, as
    they always did. The report is the one lp_norms over every hop gives.

    Raises ValueError unless r > 0 and tolerance >= 0. NaN fails both; no
    hop is longer than a NaN bound, so it would pass any permutation. Also
    raises it for p outside [1, inf] (the screen needs l_p <= l_1) and for
    points that are not an (n, 2) array; coordinates may lie anywhere.
    """
    p = validate_p(p)
    points = point_array(points)
    if not (r > 0.0 and tolerance >= 0.0):
        raise ValueError(f"need radius > 0 and tolerance >= 0, "
                         f"got {r} and {tolerance}")
    n = len(points)
    arr = np.asarray(cycle)
    if arr.ndim != 1 or len(arr) != n or not np.issubdtype(arr.dtype, np.integer):
        return VerificationReport(False, n, Violation(0, "NotPermutation", None))
    if n and (arr.min() < 0 or arr.max() >= n):
        first = int(np.argmax((arr < 0) | (arr >= n)))
        return VerificationReport(False, n, Violation(first, "NotPermutation", None))
    seen = np.zeros(n, dtype=bool)
    seen[arr] = True
    if not seen.all():
        # locate the first repeat to report a position
        srt = np.argsort(arr, kind="stable")
        dup = srt[1:][arr[srt[1:]] == arr[srt[:-1]]]
        first = int(dup.min())
        return VerificationReport(False, n, Violation(first, "NotPermutation", None))
    at, d = _long_hops(points, p, r + tolerance, arr)
    if at.size:
        return VerificationReport(False, n,
                                  Violation(int(at[0]), "EdgeTooLong", float(d[0])))
    return VerificationReport(True, n, None)


def _long_hops(points: np.ndarray, p: float, bound: float,
               cycle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions i whose hop cycle[i] -> cycle[i + 1], cyclically,
    is longer than bound, and their lp_norms, after verify_cycle's screen."""
    ends = np.append(cycle, cycle[:1])
    at, length = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for lo in range(0, len(cycle), _HOP_CHUNK):
        # np.take gathers whole rows, much faster than fancy indexing here
        q = np.take(points, ends[lo:lo + _HOP_CHUNK + 1], axis=0)
        ax, ay = (np.abs(x, out=x) for x in (q[1:, 0] - q[:-1, 0], q[1:, 1] - q[:-1, 1]))
        far = np.flatnonzero(~(ax + ay <= bound * (1.0 - _SCREEN_REL) - _SCREEN_ABS))
        d = lp_norms(p, ax[far], ay[far])
        at.append(lo + far[d > bound])
        length.append(d[d > bound])
    return np.concatenate(at), np.concatenate(length)


# --------------------------------------------------------------------------
# finite-n fallback: a serpentine tour with local repairs
# --------------------------------------------------------------------------

def _serpentine_tour(points: np.ndarray, p: float, r: float) -> np.ndarray:
    """Every vertex once, along rows of the square with a return lane.

    The square is cut into g x g cells of side 1/g <= r / ||(1, 1)||_p, so
    each cell is a clique. Rows of columns 1..g-1 are swept alternately
    right and left, each sorted by x, then column 0 is swept down back to
    the start. g is even, so the last row ends beside column 0 and the tour
    closes. Two vertices of a row that are at most 1/g apart in x are
    within r, so hops longer than r mostly sit at gaps in a row. g is
    capped at 2^32, where ||(1, 1)||_p / r is beyond it (r below about
    3e-10) or infinite: any tour still serves the repair, which at such
    radii finds almost no pair within r.
    """
    g = math.ceil(min(_lp_from_abs(p, 1.0, 1.0) / r, 2.0 ** 32))
    g += g % 2
    gx = points[:, 0] * g
    key = points[:, 1] * g
    lane = gx < 1.0
    lane_key = g * g + g - key[lane]
    # each row's keys lie in (row * g, row * g + g]; the lane's come last.
    # In place, as floats: rows are whole numbers far below 2^53
    np.minimum(np.floor(key, out=key), g - 1, out=key)
    np.subtract(g + 1, gx, out=gx, where=key.astype(np.int64) % 2 == 1)
    key *= g
    key += gx
    del gx
    key[lane] = lane_key
    # the faster default sort is the stable one where no two keys are equal
    order = np.argsort(key)
    ranked = key[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(key, kind="stable")
    return order


def _reversed_at(lo, hi, q):
    """The position that position q reads from once tour[lo..hi] is
    reversed: lo + hi - q on [lo, hi], q elsewhere; elementwise, and q
    itself where lo is None (no reversal). The map is its own inverse, so
    it also takes a vertex's position to its new one."""
    if lo is None:
        return q
    return np.where((lo <= q) & (q <= hi), lo + hi - q, q)


class _TourRepair:
    """A closed tour as a position array, mended one long hop at a time.

    Hop i runs from tour[i] to tour[i + 1]. The closing hop, tour[-1] to
    tour[0], is kept within r, so no move has to wrap around the array.
    Every move is made of segment reversals (_reverse, the only writer of
    tour and pos after __init__) and creates only hops within r: a long
    hop, once taken out, never comes back. Each move has one test,
    _two_opt_fits or _move_fits, which reads the tour as it is for a direct
    move, or through _reversed_at for repair's tries (_passes); the tests
    write nothing, and only the try that passes is made.
    """

    def __init__(self, points: np.ndarray, p: float, r: float,
                 tour: np.ndarray):
        self.points, self.p, self.r = points, p, r
        self.tour = tour
        self.n = len(tour)
        self.pos = np.empty(self.n, dtype=np.int64)
        self.pos[tour] = np.arange(self.n)
        self.grid = _grid(points, r, p)
        self._near: dict[int, np.ndarray] = {}

    def near(self, v: int) -> np.ndarray:
        """Vertices within r of v, but v, by ascending cell key of the
        grid, then index (neighbour_lists). No move depends on this order:
        _two_opt and _move_vertex break ties by tour position or index."""
        if v not in self._near:
            self.look_up([v])
        return self._near[v]

    def look_up(self, vertices) -> None:
        """Find the near lists of vertices in one search of the grid."""
        new = list(set(np.ravel(vertices).tolist()) - self._near.keys())
        if new:
            at, got = neighbour_lists(self.grid, np.array(new, dtype=np.int64))
            cut = np.searchsorted(at, np.arange(len(new) + 1)).tolist()
            self._near.update((v, got[lo:hi])
                              for v, lo, hi in zip(new, cut, cut[1:]))

    def _within(self, a, b) -> np.ndarray:
        pts = self.points
        return lp_within(self.p, pts[a, 0] - pts[b, 0],
                         pts[a, 1] - pts[b, 1], self.r)

    def _reverse(self, lo: int, hi: int) -> None:
        """Reverse tour[lo..hi]: a 2-opt move."""
        seg = self.tour[lo:hi + 1][::-1].copy()
        self.tour[lo:hi + 1] = seg
        self.pos[seg] = np.arange(lo, hi + 1)

    def _two_opt_fits(self, lo, hi, at, y):
        """Where the 2-opt that trades hop (x, y) and (v, w), v one of
        near(x) at position at and w its successor, for (x, v) and (y, w)
        leaves no long hop: where w is within r of y. The tour is read as
        _reverse(lo, hi) would leave it, through _reversed_at, without
        writing it, with lo and hi one entry per candidate, or None to read
        it as it is."""
        w = self.tour[_reversed_at(lo, hi, (at + 1) % self.n)]
        return self._within(w, y)

    def _move_fits(self, lo, hi, v, at, y):
        """Where moving v, one of near(x) at position at, in between hop
        (x, y) leaves no long hop: where v is, but y, within r of y, and
        v's two tour neighbours are within r of each other. Read as
        _two_opt_fits reads. The common neighbours of x and y are so found
        from near(x) alone: the pair test is exact and symmetric."""
        tour, n = self.tour, self.n
        fits = (v != y) & self._within(v, y)
        c = np.flatnonzero(fits)
        q = at[c]
        if lo is not None:
            lo, hi = lo[c], hi[c]
        fits[c] = self._within(tour[_reversed_at(lo, hi, (q - 1) % n)],
                               tour[_reversed_at(lo, hi, (q + 1) % n)])
        return fits

    def _two_opt(self, i: int) -> bool:
        """Trade hop i = (a, b) and a hop (c, d) for (a, c) and (b, d)."""
        at = self.pos[self.near(int(self.tour[i]))]
        fits = self._two_opt_fits(None, None, at, self.tour[i + 1])
        if not fits.any():
            return False
        # of two positions equally near i, the lower
        at = np.sort(at[fits])
        j = int(at[np.argmin(np.abs(at - i))])
        self._reverse(*((i + 1, j) if j > i else (j + 1, i)))
        return True

    def _move_vertex(self, i: int) -> bool:
        """Move a common neighbour v of hop i's ends in between them, from
        a place whose two tour neighbours are within r of each other."""
        v = self.near(int(self.tour[i]))
        at = self.pos[v]
        fits = self._move_fits(None, None, v, at, self.tour[i + 1])
        if not fits.any():
            return False
        # of two candidates equally near i, the lower index
        at, v = at[fits], v[fits]
        k = int(at[np.lexsort((v, np.abs(at - i)))[0]])
        # v next to the hop, then the rest of the span back in order
        if k > i:
            self._reverse(i + 1, k)
            self._reverse(i + 2, k)
        else:
            self._reverse(k, i)
            self._reverse(k, i - 1)
        return True

    def _mend(self, i: int) -> bool:
        return self._two_opt(i) or self._move_vertex(i)

    def _passes(self, lo: np.ndarray, hi: np.ndarray,
                exposed: np.ndarray) -> np.ndarray:
        """For each try k, whether _mend(exposed[k]) would succeed after
        _reverse(lo[k], hi[k]), judged by _mend's two tests without making
        either: the candidates of hop exposed[k] = (x, y), read through the
        reversal, are the entries of near(x)."""
        x = self.tour[_reversed_at(lo, hi, exposed)]
        y = self.tour[_reversed_at(lo, hi, exposed + 1)]
        lists = [self.near(u) for u in x.tolist()]
        k = np.repeat(np.arange(len(x)), [len(v) for v in lists])
        v, y, lo, hi = np.concatenate(lists), y[k], lo[k], hi[k]
        at = _reversed_at(lo, hi, self.pos[v])
        hit = (self._two_opt_fits(lo, hi, at, y)
               | self._move_fits(lo, hi, v, at, y))
        passed = np.zeros(len(x), dtype=bool)
        passed[k[hit]] = True
        return passed

    def repair(self, i: int) -> bool:
        """Mend hop i by one move. Failing that, try every 2-opt from
        either end that leaves one new long hop, mendable by one move:
        shortest reversal first, in blocks of at most _PAIR_CHUNK near-list
        entries (and at least one try) that _passes tests without making
        them. Only the first try that passes is made."""
        if self._mend(i):
            return True
        tour, pos, n = self.tour, self.pos, self.n
        # reversing tour[lo..hi] gives a its neighbour c = tour[j] and
        # exposes (b, succ c), the hop out of the segment's high end; or it
        # gives b its neighbour succ c = tour[j + 1] and exposes (a, c), the
        # hop into its low end
        j = pos[self.near(int(tour[i]))]
        j_a = j[j < n - 1]
        j_b = (pos[self.near(int(tour[i + 1]))] - 1) % n
        j = np.concatenate((j_a, j_b))
        lo, hi = np.minimum(i, j) + 1, np.maximum(i, j)
        exposed = np.where(np.arange(len(j)) < len(j_a), hi, lo - 1)
        by = np.lexsort((exposed, hi, lo, hi - lo))
        by = by[lo[by] != hi[by]]   # c or d is already next to a or b
        lo, hi, exposed = lo[by], hi[by], exposed[by]
        x = tour[_reversed_at(lo, hi, exposed)].tolist()
        self.look_up(x)
        ends = np.cumsum([len(self.near(u)) for u in x])
        start = 0
        while start < len(x):
            cap = (ends[start - 1] if start else 0) + _PAIR_CHUNK
            stop = max(int(np.searchsorted(ends, cap, "right")), start + 1)
            passed = self._passes(lo[start:stop], hi[start:stop],
                                  exposed[start:stop])
            if passed.any():
                k = start + int(passed.argmax())
                self._reverse(int(lo[k]), int(hi[k]))
                mended = self._mend(int(exposed[k]))
                assert mended, "a try that passes _passes is mended"
                return True
            start = stop
        return False

    def failure(self, i: int) -> ConstructionError:
        """The typed failure for a hop i that no repair mends, with
        is_connected's verdict on the grid: Disconnected where it finds the
        graph disconnected, else EdgeTooLong, whose context then says
        connected: true. The check is handed the tour, every hop of which
        but the unmended long ones is an edge, so that its far phase
        searches only from the few vertices the tour's components leave out
        (at n = 5e4, 1.0x: about 700 at p = 2 and 1,700 at p = 1, against
        49k without it). Below about 6.6e-10 (p = 2) the grid does not
        resolve r, the check cannot run, and EdgeTooLong carries no verdict;
        reach still finds every neighbour there."""
        if self.grid.resolves and not is_connected(self.grid, self.tour):
            return ConstructionError(
                FailureReason.DISCONNECTED,
                {"detail": "the graph is disconnected", "radius": self.r})
        a, b = int(self.tour[i]), int(self.tour[(i + 1) % self.n])
        pts = self.points
        context = {
            "detail": "no local repair brings this hop within r",
            "position": i, "vertices": [a, b],
            "distance": float(_lp_from_abs(
                self.p, abs(pts[a, 0] - pts[b, 0]), abs(pts[a, 1] - pts[b, 1]))),
            "radius": self.r, "degrees": [len(self.near(a)), len(self.near(b))]}
        if self.grid.resolves:
            context["connected"] = True
        return ConstructionError(FailureReason.EDGE_TOO_LONG, context)


def _repaired_tour_cycle(points: np.ndarray, p: float, r: float) -> np.ndarray:
    """Serpentine tour, then a local repair of every hop longer than r.

    Before any repair, the vertices whose two tour hops are both longer
    than r, the only ones that can have no neighbour within r, are tested
    exactly on the grid, as far as their reach: the first without a
    neighbour ends the attempt with DISCONNECTED. Long hops are then
    mended longest first, so that a hop no repair can mend is met early,
    and the first such hop ends the attempt with _TourRepair.failure: the
    connectivity check on the same grid, then DISCONNECTED or
    EDGE_TOO_LONG. A vertex of degree below 2 lies on no Hamiltonian
    cycle, so a hop at one fails at once. Deterministic: stable sorts, and
    each move goes to the candidate nearest in the tour, the lower
    position or index on a tie.
    """
    tour = _serpentine_tour(points, p, r)
    at, length = _long_hops(points, p, r, tour)
    n = len(tour)
    # tour[at[k]] has both hops long when hop at[k] - 1 is long too; the
    # closing hop, n - 1, comes before hop 0
    alone = tour[at[np.diff(at, prepend=at[-1:] - n) == 1]]
    # rotate so that the first short hop (first i with at[i] != i) closes it
    shift = int(np.argmax(np.append(at, n) != np.arange(len(at) + 1))) + 1
    if len(at) < n:
        tour = np.roll(tour, -shift)
    mend = _TourRepair(points, p, r, tour)
    isolated = _isolated_vertex(mend.grid, alone)
    if isolated is not None:
        raise ConstructionError(
            FailureReason.DISCONNECTED,
            {"detail": "a vertex has no neighbour within r",
             "vertex": isolated, "radius": r})
    if len(at) == n:
        raise mend.failure(0)
    at = (at - shift) % n
    at = at[np.lexsort((at, -length))]
    pos = mend.pos
    ends = np.stack((tour[at], tour[at + 1]), axis=1)
    ahead = 0
    for k, (u, v) in enumerate(ends.tolist()):
        if k == ahead:
            # the ends of the next 8, 16, 32, ... hops, in one search
            ahead = 2 * k + 8
            mend.look_up(ends[k:ahead])
        i, j = int(pos[u]), int(pos[v])
        if abs(i - j) != 1:
            continue    # an earlier move took this hop out
        i = min(i, j)
        if (min(len(mend.near(u)), len(mend.near(v))) < 2
                or not mend.repair(i)):
            raise mend.failure(i)
    # the repair's index arrays go before the check allocates its own
    tour = mend.tour
    del mend, pos
    report = verify_cycle(points, r, p, tour)
    if not report.valid:
        raise ConstructionError(
            FailureReason.EDGE_TOO_LONG,
            {"detail": "repaired tour failed its self check",
             "position": report.violation.position,
             "distance": report.violation.distance, "radius": r})
    return tour


# --------------------------------------------------------------------------
# the full pipeline
# --------------------------------------------------------------------------

class ConstructionOutcome(NamedTuple):
    """A verified cycle. cells_per_side is the tessellation's subdivision
    when the cycle came from the tessellation, and None when it came from
    the serpentine fallback."""

    cycle: np.ndarray
    cells_per_side: Optional[int]


def full_construction(points: np.ndarray, p: float, r: float,
                      cells_per_square: Optional[int] = None) -> ConstructionOutcome:
    """Tessellate, classify, build the graphs, and construct the cycle.

    cells_per_square overrides the subdivision; otherwise it is chosen from
    the slack between r and the connectivity threshold (falling back to the
    minimum when r sits at or below threshold). When the tessellation path
    gives up, at HookMissing, because the augmented graph splits (which the
    point graph need not), or at an overlong hop of its own cycle (at p = 1
    a square's diameter 2/m can exceed r), the serpentine fallback builds
    the cycle instead, or raises Disconnected or EdgeTooLong. Every other
    failure of the tessellation path, LedgerExhausted included, is raised
    as it is. Where no tessellation fits (tessellation_fits: r > 1, or r
    below about 3e-9), the fallback answers alone. So it does where no cell
    can hold 48 points (_may_hold_dense_cell, near the threshold at any n
    this code can hold), and gives what it would give after the attempt's
    HookMissing. Raises ValueError for points that are not an (n, 2) array,
    fewer than 3 points, points outside [0, 1]^2, radii that are not
    positive, and cells_per_square outside [2, 64], whether or not a
    tessellation fits.
    """
    p = validate_p(p)
    points = point_array(points)
    n = len(points)
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    validate_points(points)
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    if cells_per_square is None:
        # divided twice, not by r * r, which is 0 below about 1e-162
        eps = unit_disk_area(p) - math.log(n) / (r * n) / r
        if eps > 0.0:
            cells_per_square, _ = choose_cells_per_side(p, eps)
        else:
            cells_per_square = 4
    validate_cells_per_square(cells_per_square)
    t = (build_tessellation(p, r, cells_per_square)
         if tessellation_fits(r, cells_per_square) else None)
    # with no dense cell the attempt can only end at HookMissing
    if t is not None and _may_hold_dense_cell(points, t):
        # held through the fallback, which then reuses the pages of the
        # classification's temporaries instead of faulting in fresh ones
        cls = classify_cells(t, VertexSet(points))
        try:
            cycle = _tessellation_cycle(points, t, cls)
        except ConstructionError as exc:
            # none of these is a certificate: the only Disconnected the
            # tessellation path raises is a split of the augmented graph,
            # and its EdgeTooLong is an overlong hop of its own cycle
            if exc.reason not in (FailureReason.HOOK_MISSING,
                                  FailureReason.DISCONNECTED,
                                  FailureReason.EDGE_TOO_LONG):
                raise
        else:
            return ConstructionOutcome(cycle, cells_per_square)
    return ConstructionOutcome(_repaired_tour_cycle(points, p, r), None)


def _may_hold_dense_cell(points: np.ndarray, t: Tessellation) -> bool:
    """Whether some cell of t can hold DENSE_THRESHOLD points; exact.

    Counts the points per block of whole squares, s x s blocks with
    s = min(m, isqrt(n)), so at most n bins. A point's square comes from
    its cell as occupied_cells files it (truncate x * g, clamp to g - 1),
    so every cell lies in one block, whatever the rounding, and a block
    below the threshold holds no dense cell. Where n >= 48 s^2 some block
    reaches it, and nothing is counted.
    """
    n = len(points)
    m, k, g = t.squares_per_side, t.cells_per_side, t.grid
    s = min(m, math.isqrt(n))
    if n >= DENSE_THRESHOLD * s * s:
        return True
    col, row = (np.minimum((points[:, i] * g).astype(np.int64), g - 1)
                // k * s // m for i in (0, 1))
    return int(np.bincount(row * s + col).max()) >= DENSE_THRESHOLD


def _tessellation_cycle(points: np.ndarray, t: Tessellation,
                        cls: CellClassification) -> np.ndarray:
    dg = build_density_graph(t, cls)
    ag = attach_sparse_groups(t, cls, dg)
    tree = spanning_tree(ag)
    order = euler_traversal(tree)
    return construct_cycle(points, t, cls, ag, order)
