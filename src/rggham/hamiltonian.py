"""Hamiltonian cycle construction: the paper's tessellation path, and a
serpentine fallback for finite n.

Tessellation path. The cycle follows the euler order of a spanning tree of
the augmented graph. Each move between old vertices withdraws one vertex
from each side of the edge's witness cell pair; a visit to a group node
walks all vertices of the group's sparse cells between two hook
withdrawals. When a square is visited for the last time, all its remaining
vertices are stitched in with a serpentine sweep of its cells before
leaving.

Budget argument, and why the per-cell withdrawal cap equals the density
threshold: counted withdrawals from a cell happen only on edge steps
adjacent to the cell's square, at most one per step; a tree vertex of degree
d has 2d adjacent steps and d <= 24, so at most 48 vertices leave any single
cell before the final sweep. Witness and hook cells are dense, hence hold at
least 48 vertices, and the ledger never runs dry on the intended path. The
cap stays enforced anyway; a breach marks a logic error, reported as
LedgerExhausted rather than a corrupt cycle.

The tessellation path needs dense cells of 48 points, which near the
connectivity threshold only exist once log n is in the thousands; at any
practical n it stops at HookMissing. It also gives up, at any n, when its
augmented graph splits, which the point graph need not do. full_construction
then falls back to a serpentine tour: every vertex in rows of clique cells,
sorted along each row, with a return lane that closes the tour. The few
hops longer than r, at gaps in a row, are repaired locally with 2-opt moves
and single-vertex moves that use only edges within r (after Posa's
rotations). The fallback reports its failures with existing reasons:
Disconnected when a vertex at the unrepaired hop has no neighbour within r,
EdgeTooLong otherwise.

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
from .geometry import _lp_from_abs, lp_norms, unit_disk_area, validate_p
from .instance import VertexSet, validate_points
from .tessellation import (DENSE_THRESHOLD, CellClassification, CellId,
                           Tessellation, build_tessellation,
                           choose_cells_per_side, classify_cells)


class UsageLedger:
    """Tracks vertex withdrawals per cell.

    take() is a counted withdrawal, capped at the density threshold; going
    past the cap (or taking from an empty cell) raises LedgerExhausted.
    drain() hands over whatever is left, uncounted; it backs the final
    sweeps, which may empty any cell. Vertices leave in ascending index
    order either way.
    """

    def __init__(self, cls: CellClassification):
        self._cls = cls
        self._cursor = np.zeros(len(cls.counts), dtype=np.int64)
        self._taken = np.zeros(len(cls.counts), dtype=np.int64)

    def remaining(self, flat_cell):
        """Vertices left in a cell, or in each of an array of cells."""
        return self._cls.counts[flat_cell] - self._cursor[flat_cell]

    def take(self, flat_cell: int) -> int:
        cls = self._cls
        if (self._cursor[flat_cell] >= cls.counts[flat_cell]
                or self._taken[flat_cell] >= DENSE_THRESHOLD):
            raise ConstructionError(
                FailureReason.LEDGER_EXHAUSTED,
                {"cell": int(flat_cell),
                 "occupancy": int(cls.counts[flat_cell]),
                 "withdrawn": int(self._taken[flat_cell])})
        v = cls.order[cls.starts[flat_cell] + self._cursor[flat_cell]]
        self._cursor[flat_cell] += 1
        self._taken[flat_cell] += 1
        return int(v)

    def drain(self, flat_cells) -> np.ndarray:
        """What is left of one cell, or of each of a sequence of distinct
        cells in turn."""
        cls = self._cls
        cells = np.atleast_1d(flat_cells)
        lo = cls.starts[cells] + self._cursor[cells]
        size = cls.counts[cells] - self._cursor[cells]
        self._cursor[cells] = cls.counts[cells]
        # positions lo[i], ..., lo[i] + size[i] - 1 of each cell, in turn
        at = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
        return cls.order[at]


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


def _sweep_square(t: Tessellation, ledger: UsageLedger, flat_sq: int,
                  start_near: Optional[CellId],
                  end_near: Optional[CellId]) -> np.ndarray:
    """Drain every remaining vertex of the square, serpentine cell order.

    Returns them as one segment of the cycle, cell after cell. Picks the
    variant whose last occupied cell lands nearest end_near (and whose
    first lands nearest start_near as a tie break), so the hops into and
    out of the sweep stay short.
    """
    k = t.cells_per_side
    g = t.grid
    s = t.cell_side
    srow, scol = divmod(flat_sq, t.squares_per_side)
    orders = _serpentine_orders(k)
    # flat cell ids along each variant
    cells = (srow * k + orders[:, :, 1]) * g + (scol * k + orders[:, :, 0])
    left = ledger.remaining(cells) > 0
    # first and last occupied cell of each variant (any cell, if none is)
    ends = cells[np.arange(len(cells)),
                 [left.argmax(axis=1), k * k - 1 - left[:, ::-1].argmax(axis=1)]]
    cols, rows = (ends % g).tolist(), (ends // g).tolist()

    def gap(i: int, v: int, near: Optional[CellId]) -> float:
        """Sup distance between end i of variant v and the near cell."""
        if near is None:
            return 0.0
        return _lp_from_abs(t.p, (abs(cols[i][v] - near.col) + 1) * s,
                            (abs(rows[i][v] - near.row) + 1) * s)

    _, _, v = min((gap(1, v, end_near), gap(0, v, start_near), v)
                  for v in range(len(cells)))
    return ledger.drain(cells[v][left[v]])


# --------------------------------------------------------------------------
# cycle construction
# --------------------------------------------------------------------------

def _cell_of(t: Tessellation, flat_cell: int) -> CellId:
    return CellId(flat_cell % t.grid, flat_cell // t.grid)


def construct_cycle(points: np.ndarray, t: Tessellation,
                    cls: CellClassification, ag: AugmentedGraph,
                    order: list[Node]) -> np.ndarray:
    """Build the Hamiltonian cycle along an euler traversal of the tree.

    Returns the cycle as an int64 vertex permutation. It is assembled from
    array segments (one per withdrawal, square sweep and group walk) joined
    once at the end, so the Python work grows with squares and tree nodes,
    not with n. Raises ConstructionError (EdgeTooLong) when the self check
    finds an overlong edge; structural breakage surfaces as
    LedgerExhausted or an assertion.
    """
    ledger = UsageLedger(cls)
    last_pos: dict[Node, int] = {node: i for i, node in enumerate(order)}
    segments: list = []
    # cell of the most recent withdrawal, for sweep scoring
    prev_cell: Optional[CellId] = None

    def push(v: int, cell: int) -> None:
        nonlocal prev_cell
        segments.append([v])
        prev_cell = _cell_of(t, cell)

    if len(order) == 1:
        root = order[0]
        assert isinstance(root, int)
        segments = [_sweep_square(t, ledger, root, None, None)]
    else:
        i = 0
        while i < len(order) - 1:
            u, v = order[i], order[i + 1]
            assert isinstance(u, int), "traversal must move between old vertices"
            if isinstance(v, GroupKey):
                # leaf roundtrip: hook in, walk the sparse cells, hook out
                assert order[i + 2] == u
                cells = ag.groups[v]
                hook_in = ag.hooks[cells[0]]
                hook_out = ag.hooks[cells[-1]]
                push(ledger.take(hook_in), hook_in)
                segments.append(ledger.drain(cells))
                push(ledger.take(hook_out), hook_out)
                i += 2
                continue
            cu, cv = ag.density.witness_cells(u, v)
            if i == last_pos[u]:
                # final departure: empty the square before leaving
                exit_v = ledger.take(cu)
                segments.append(_sweep_square(t, ledger, u, prev_cell,
                                              _cell_of(t, cu)))
                push(exit_v, cu)
            else:
                push(ledger.take(cu), cu)
            push(ledger.take(cv), cv)
            i += 1
        root = order[-1]
        assert isinstance(root, int)
        first = segments[0][0]     # the first step withdraws a vertex
        first_cell = t.locate(points[first, 0], points[first, 1])
        segments.append(_sweep_square(t, ledger, root, prev_cell, first_cell))

    cycle = np.concatenate(segments).astype(np.int64, copy=False)
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


def verify_cycle(points: np.ndarray, r: float, p: float,
                 cycle: np.ndarray, tolerance: float = 0.0) -> VerificationReport:
    """Check that cycle is a vertex permutation with all hops <= r + tolerance.

    Reports the first violation: NotPermutation for a malformed sequence
    (wrong length, out-of-range or repeated vertex), EdgeTooLong for the
    first overlong hop, including the wraparound edge.
    """
    n = len(points)
    arr = np.asarray(cycle)
    if arr.ndim != 1 or len(arr) != n or not np.issubdtype(arr.dtype, np.integer):
        return VerificationReport(False, n, Violation(0, "NotPermutation", None))
    bad = (arr < 0) | (arr >= n)
    seen = np.zeros(n, dtype=bool)
    first_bad = int(np.argmax(bad)) if bad.any() else n
    seen[arr[~bad]] = True
    if bad.any() or not seen.all():
        # locate the first repeat to report a position
        if not bad.any():
            srt = np.argsort(arr, kind="stable")
            dup = srt[1:][arr[srt[1:]] == arr[srt[:-1]]]
            first_bad = int(dup.min()) if dup.size else n
        return VerificationReport(False, n, Violation(first_bad, "NotPermutation", None))
    # np.take gathers whole rows, much faster than fancy indexing here
    q = np.take(points, arr, axis=0)
    step = np.roll(q, -1, axis=0) - q
    d = lp_norms(p, step[:, 0], step[:, 1])
    over = d > r + tolerance
    if over.any():
        pos = int(np.argmax(over))
        return VerificationReport(False, n, Violation(pos, "EdgeTooLong", float(d[pos])))
    return VerificationReport(True, n, None)


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
    within r, so hops longer than r mostly sit at gaps in a row.
    """
    g = math.ceil(_lp_from_abs(p, 1.0, 1.0) / r)
    g += g % 2
    gx = points[:, 0] * g
    gy = points[:, 1] * g
    row = np.minimum(gy.astype(np.int64), g - 1)
    # each row's keys lie in (row * g, row * g + g]; the lane's come last
    key = row * g + np.where(row % 2 == 0, gx, g + 1 - gx)
    lane = gx < 1.0
    key[lane] = g * g + g - gy[lane]
    return _stable_argsort(key)


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """np.argsort(key, kind="stable"), through the faster default sort when
    no two keys are equal, where the two orders agree."""
    order = np.argsort(key)
    ranked = key[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(key, kind="stable")
    return order


class _TourRepair:
    """A closed tour as a position array, mended one long hop at a time.

    Hop i runs from tour[i] to tour[i + 1]. The closing hop, tour[-1] to
    tour[0], is kept within r, so no move has to wrap around the array.
    Every move creates only hops within r: a long hop, once taken out,
    never comes back.
    """

    def __init__(self, points: np.ndarray, p: float, r: float,
                 tour: np.ndarray):
        self.points, self.p, self.r = points, p, r
        self.tour = tour
        self.n = len(tour)
        self.pos = np.empty(self.n, dtype=np.int64)
        self.pos[tour] = np.arange(self.n)
        # buckets of width >= r: a neighbour lies in the 3x3 patch around v
        side = self.side = max(1, math.floor(1.0 / r))
        self.cell = np.minimum((points * side).astype(np.int64), side - 1)
        flat = self.cell[:, 1] * side + self.cell[:, 0]
        self.starts = np.zeros(side * side + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=side * side), out=self.starts[1:])
        # keys made unique by the vertex index: the plain sort is then stable
        self.order = np.argsort(flat * self.n + np.arange(self.n))
        self._near: dict[int, np.ndarray] = {}

    def near(self, v: int) -> np.ndarray:
        """Vertices within r of v, from the 3x3 bucket patch around it."""
        got = self._near.get(v)
        if got is None:
            (col, row), side = self.cell[v], self.side
            lo, hi = max(col - 1, 0), min(col + 1, side - 1) + 1
            cand = np.concatenate([
                self.order[self.starts[rr * side + lo]:self.starts[rr * side + hi]]
                for rr in range(max(row - 1, 0), min(row + 2, side))])
            got = cand[self._within(cand, v) & (cand != v)]
            self._near[v] = got
        return got

    def _within(self, a, b) -> np.ndarray:
        pts = self.points
        return lp_norms(self.p, pts[a, 0] - pts[b, 0],
                        pts[a, 1] - pts[b, 1]) <= self.r

    def _reverse(self, lo: int, hi: int) -> None:
        """Reverse tour[lo..hi]: a 2-opt move, and its own undo."""
        seg = self.tour[lo:hi + 1][::-1].copy()
        self.tour[lo:hi + 1] = seg
        self.pos[seg] = np.arange(lo, hi + 1)

    def _two_opt(self, i: int) -> bool:
        """Trade hop i = (a, b) and a hop (c, d) for (a, c) and (b, d)."""
        tour = self.tour
        at = self.pos[self.near(int(tour[i]))]
        at = at[self._within(tour[(at + 1) % self.n], tour[i + 1])]
        if not at.size:
            return False
        j = int(at[np.argmin(np.abs(at - i))])
        self._reverse(*((i + 1, j) if j > i else (j + 1, i)))
        return True

    def _move_vertex(self, i: int) -> bool:
        """Move a common neighbour v of hop i's ends in between them, from
        a place whose two tour neighbours are within r of each other."""
        tour, n = self.tour, self.n
        at = self.pos[np.intersect1d(self.near(int(tour[i])),
                                     self.near(int(tour[i + 1])))]
        at = at[self._within(tour[at - 1], tour[(at + 1) % n])]
        if not at.size:
            return False
        k = int(at[np.argmin(np.abs(at - i))])
        v = tour[k]
        if k > i:
            tour[i + 2:k + 1] = tour[i + 1:k].copy()
            tour[i + 1] = v
            lo, hi = i + 1, k
        else:
            tour[k:i] = tour[k + 1:i + 1].copy()
            tour[i] = v
            lo, hi = k, i
        self.pos[tour[lo:hi + 1]] = np.arange(lo, hi + 1)
        return True

    def _mend(self, i: int) -> bool:
        return self._two_opt(i) or self._move_vertex(i)

    def repair(self, i: int) -> bool:
        """Mend hop i by one move. Failing that, make a 2-opt from either
        end that leaves one new long hop, and mend that by one move."""
        if self._mend(i):
            return True
        tour, pos, n = self.tour, self.pos, self.n
        tries = []      # (lo, hi) to reverse, and the long hop it exposes
        for j in pos[self.near(int(tour[i]))].tolist():
            # a gets its neighbour c = tour[j]; (b, succ c) is exposed
            if i < j < n - 1:
                tries.append((i + 1, j, j))
            elif j < i:
                tries.append((j + 1, i, i))
        for j in ((pos[self.near(int(tour[i + 1]))] - 1) % n).tolist():
            # b gets its neighbour succ c; (a, c = tour[j]) is exposed
            tries.append((i + 1, j, i) if j > i else (j + 1, i, j))
        tries.sort(key=lambda t: (t[1] - t[0], t))
        for lo, hi, exposed in tries:
            if lo == hi:
                continue    # c or d is already next to a or b
            self._reverse(lo, hi)
            if self._mend(exposed):
                return True
            self._reverse(lo, hi)
        return False

    def failure(self, i: int) -> ConstructionError:
        """The typed failure for a hop i that no repair mends."""
        a, b = int(self.tour[i]), int(self.tour[(i + 1) % self.n])
        degrees = [len(self.near(a)), len(self.near(b))]
        if 0 in degrees:
            return ConstructionError(
                FailureReason.DISCONNECTED,
                {"detail": "a vertex has no neighbour within r",
                 "vertex": a if degrees[0] == 0 else b, "radius": self.r})
        pts = self.points
        return ConstructionError(
            FailureReason.EDGE_TOO_LONG,
            {"detail": "no local repair brings this hop within r",
             "position": i, "vertices": [a, b],
             "distance": float(_lp_from_abs(
                 self.p, abs(pts[a, 0] - pts[b, 0]), abs(pts[a, 1] - pts[b, 1]))),
             "radius": self.r, "degrees": degrees})


def _repaired_tour_cycle(points: np.ndarray, p: float, r: float) -> np.ndarray:
    """Serpentine tour, then a local repair of every hop longer than r.

    Long hops are mended longest first, so that a hop no repair can mend is
    met early. Stops at the first such hop: DISCONNECTED when one of its
    ends has no neighbour within r, EDGE_TOO_LONG otherwise. A vertex of
    degree below 2 lies on no Hamiltonian cycle, so a hop at one fails at
    once. Deterministic: stable sorts, and each move goes to the candidate
    nearest in the tour.
    """
    tour = _serpentine_tour(points, p, r)
    q = np.take(points, tour, axis=0)
    step = np.roll(q, -1, axis=0) - q
    hop = lp_norms(p, step[:, 0], step[:, 1])
    if (hop > r).all():
        raise _TourRepair(points, p, r, tour).failure(0)
    # rotate so that a short hop closes the tour
    shift = int(np.argmax(hop <= r)) + 1
    tour = np.roll(tour, -shift)
    hop = np.roll(hop, -shift)
    at = np.flatnonzero(hop > r)
    at = at[_stable_argsort(-hop[at])]
    mend = _TourRepair(points, p, r, tour)
    pos = mend.pos
    for u, v in zip(tour[at].tolist(), tour[at + 1].tolist()):
        i, j = int(pos[u]), int(pos[v])
        if abs(i - j) != 1:
            continue    # an earlier move took this hop out
        i = min(i, j)
        if (min(len(mend.near(u)), len(mend.near(v))) < 2
                or not mend.repair(i)):
            raise mend.failure(i)
    report = verify_cycle(points, r, p, mend.tour)
    if not report.valid:
        raise ConstructionError(
            FailureReason.EDGE_TOO_LONG,
            {"detail": "repaired tour failed its self check",
             "position": report.violation.position,
             "distance": report.violation.distance, "radius": r})
    return mend.tour


# --------------------------------------------------------------------------
# degenerate radius fallback and the full pipeline
# --------------------------------------------------------------------------

def _angular_cycle(points: np.ndarray, r: float, p: float) -> np.ndarray:
    """Order vertices by angle around the centroid; only usable when r is
    so large the tessellation degenerates (r > 1)."""
    centroid = points.mean(axis=0)
    ang = np.arctan2(points[:, 1] - centroid[1], points[:, 0] - centroid[0])
    cycle = np.lexsort((np.arange(len(points)), ang)).astype(np.int64)
    report = verify_cycle(points, r, p, cycle)
    if not report.valid:
        raise ConstructionError(
            FailureReason.RADIUS_DEGENERATE,
            {"detail": "angular order has an overlong hop at this radius",
             "position": report.violation.position,
             "distance": report.violation.distance})
    return cycle


class ConstructionOutcome(NamedTuple):
    """A verified cycle. cells_per_side is the tessellation's subdivision
    when the cycle came from the tessellation, and None whenever it did not:
    the degenerate-radius path (r > 1) and the serpentine fallback."""

    cycle: np.ndarray
    cells_per_side: Optional[int]


def full_construction(points: np.ndarray, p: float, r: float,
                      cells_per_square: Optional[int] = None) -> ConstructionOutcome:
    """Tessellate, classify, build the graphs, and construct the cycle.

    cells_per_square overrides the subdivision; otherwise it is chosen from
    the slack between r and the connectivity threshold (falling back to the
    minimum when r sits at or below threshold). When the tessellation path
    gives up, at HookMissing or because the augmented graph splits (which
    the point graph need not), the serpentine fallback builds the cycle
    instead, or raises Disconnected or EdgeTooLong; every other failure of
    the tessellation path is raised as it is. r > 1 takes an angular order.
    Raises ValueError for fewer than 3 points, points outside [0, 1]^2, and
    radii that are not positive or too small for the tessellation.
    """
    p = validate_p(p)
    n = len(points)
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    validate_points(points)
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    if r > 1.0:
        return ConstructionOutcome(_angular_cycle(points, r, p), None)
    if cells_per_square is None:
        eps = unit_disk_area(p) - math.log(n) / (r * r * n)
        if eps > 0.0:
            cells_per_square, _ = choose_cells_per_side(p, eps)
        else:
            cells_per_square = 4
    try:
        cycle = _tessellation_cycle(points, p, r, cells_per_square)
    except ConstructionError as exc:
        # the only Disconnected the tessellation path raises is a split of
        # the augmented graph: no certificate, so the fallback gets its turn
        if exc.reason not in (FailureReason.HOOK_MISSING,
                              FailureReason.DISCONNECTED):
            raise
    else:
        return ConstructionOutcome(cycle, cells_per_square)
    # the tessellation's arrays are released before the second constructor
    return ConstructionOutcome(_repaired_tour_cycle(points, p, r), None)


def _tessellation_cycle(points: np.ndarray, p: float, r: float,
                        cells_per_square: int) -> np.ndarray:
    t = build_tessellation(p, r, cells_per_square)
    cls = classify_cells(t, VertexSet(points))
    dg = build_density_graph(t, cls)
    ag = attach_sparse_groups(t, cls, dg)
    tree = spanning_tree(ag)
    order = euler_traversal(tree)
    return construct_cycle(points, t, cls, ag, order)
