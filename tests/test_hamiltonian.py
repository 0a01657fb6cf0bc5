import copy
import dataclasses
import hashlib
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from helpers import (CellId, cell_points, cells_close, corner_clusters,
                     grid_cells, grid_of_side, locate)
from rggham import hamiltonian, instance, tessellation
from rggham.auxgraphs import (GroupKey, attach_sparse_groups,
                               build_density_graph, euler_traversal,
                               spanning_tree)
from rggham.failures import ConstructionError, FailureReason
from rggham.geometry import _lp_from_abs, lp_norms
from rggham.hamiltonian import (_remainder_runs, _serpentine_orders,
                                _tessellation_cycle, _withdrawal_positions,
                                construct_cycle, full_construction,
                                verify_cycle)
from rggham.instance import (VertexSet, _isolated_vertex, build_spatial_index,
                             gather_runs, is_connected, threshold_radius)
from rggham.tessellation import (DENSE_THRESHOLD, build_tessellation,
                                 classify_cells, tessellation_fits)


def rand_points(n, seed):
    return np.random.Generator(np.random.PCG64(seed)).random((n, 2))


def tour_repair(pts, p, r, tour):
    """The fallback's repair of tour, on the fallback's grid."""
    return hamiltonian._TourRepair(instance._grid(pts, r, p), tour)


# --------------------------------------------------------------------------
# withdrawals and remainders
# --------------------------------------------------------------------------

def classified(t, blocks):
    return classify_cells(t, VertexSet(np.vstack(blocks)))


def withdraw(cls, cells):
    """The vertices a sequence of withdrawals takes, one per cell."""
    return cls.order[_withdrawal_positions(cls, cells)].tolist()


def test_ledger_takes_ascending_until_cap():
    t = build_tessellation(2.0, 0.5, 4)
    cls = classified(t, [cell_points(t, 0, 0, 60), cell_points(t, 5, 5, 2)])
    got = withdraw(cls, [0] * DENSE_THRESHOLD)
    assert got == sorted(set(got))
    assert set(got) <= set(range(60))
    with pytest.raises(ConstructionError) as err:
        withdraw(cls, [0] * (DENSE_THRESHOLD + 1))
    assert err.value.reason is FailureReason.LEDGER_EXHAUSTED
    assert err.value.context == {"cell": 0, "occupancy": 60,
                                 "withdrawn": DENSE_THRESHOLD}
    # interleaved cells rank apart, each in ascending vertex order
    small = 5 * t.grid + 5
    assert withdraw(cls, [0, small, 0, small, 0]) == [0, 60, 1, 61, 2]


def test_ledger_take_from_empty_cell():
    t = build_tessellation(2.0, 0.5, 4)
    cls = classified(t, [cell_points(t, 0, 0, 3)])
    with pytest.raises(ConstructionError) as err:
        withdraw(cls, [1])
    assert err.value.reason is FailureReason.LEDGER_EXHAUSTED
    assert err.value.context["occupancy"] == 0
    # a cell emptied by withdrawals stops them below the cap, and the
    # failure names the first withdrawal past the end, in sequence order
    with pytest.raises(ConstructionError) as err:
        withdraw(cls, [0, 0, 0, 0, 1])
    assert err.value.context == {"cell": 0, "occupancy": 3, "withdrawn": 3}


def test_ledger_drain_is_uncounted_remainder():
    t = build_tessellation(2.0, 0.5, 4)
    cls = classified(t, [cell_points(t, 0, 0, 60)])
    first = withdraw(cls, [0, 0, 0])
    lo, size = _remainder_runs(cls, [0], [0, 0, 0])
    assert size.tolist() == [57]
    rest = gather_runs(cls.order, lo, size).tolist()
    assert sorted(first + rest) == list(range(60))
    # every vertex withdrawn: nothing remains
    assert _remainder_runs(cls, [0], [0] * 60)[1].tolist() == [0]


def test_ledger_drains_cells_in_turn():
    t = build_tessellation(2.0, 0.5, 4)
    cls = classified(t, [cell_points(t, 0, 0, 5), cell_points(t, 2, 0, 4),
                         cell_points(t, 1, 0, 3)])
    taken = withdraw(cls, [1])
    got = gather_runs(cls.order, *_remainder_runs(cls, [2, 0, 1, 3], [1])).tolist()
    assert got == [5, 6, 7, 8, 0, 1, 2, 3, 4, 10, 11]
    assert taken == [9]
    lo, size = _remainder_runs(cls, [1, 2], [1, 1, 2, 1, 2, 2, 2])
    assert size.tolist() == [0, 0]
    assert gather_runs(cls.order, lo, size).size == 0


# --------------------------------------------------------------------------
# serpentine orders
# --------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4, 6])
def test_serpentine_orders_cover_grid_with_unit_steps(k):
    assert _serpentine_orders(k).shape == (8, k * k, 2)
    orders = [list(map(tuple, o)) for o in _serpentine_orders(k).tolist()]
    assert len(set(map(tuple, orders))) == 8
    cells = {(a, b) for a in range(k) for b in range(k)}
    for order in orders:
        assert set(order) == cells and len(order) == k * k
        for (c0, r0), (c1, r1) in zip(order, order[1:]):
            assert abs(c1 - c0) + abs(r1 - r0) == 1
        # even k: endpoints are corners sharing a square side
        first, last = order[0], order[-1]
        corners = {0, k - 1}
        assert set(first) <= corners and set(last) <= corners
        assert (first[0] == last[0]) != (first[1] == last[1])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
@pytest.mark.parametrize("r", [0.1, 0.2, 0.45])
def test_sweep_gaps_are_the_scalar_norms(p, r):
    # bit for bit: a gap one ulp off can break a tie between sweep variants
    # the other way; lp_norms differs from the scalar norm in the last bit
    # on some of these pairs at p = 1.5, 2, 3 and 7
    t = build_tessellation(p, r, 4)
    dcol, drow = np.meshgrid(np.arange(1, 13), np.arange(1, 13))
    want = [[_lp_from_abs(p, c * t.cell_side, d * t.cell_side)
             for c, d in zip(cs, ds)]
            for cs, ds in zip(dcol.tolist(), drow.tolist())]
    got = t.offset_norms[drow, dcol]    # as _sweep_runs reads it
    assert got.shape == dcol.shape
    assert got.tolist() == want


# --------------------------------------------------------------------------
# cycle verification
# --------------------------------------------------------------------------

def test_verify_accepts_small_triangle():
    pts = np.array([[0.10, 0.10], [0.20, 0.10], [0.15, 0.18]])
    rep = verify_cycle(pts, 0.15, 2.0, np.array([0, 1, 2]))
    assert rep.valid and rep.violation is None
    assert rep.to_json() == {"valid": True, "n": 3}


def test_verify_rejects_wrong_length_and_dtype():
    pts = rand_points(5, 0)
    for bad in (np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3, 4, 4]),
                np.array([0.0, 1.0, 2.0, 3.0, 4.0])):
        rep = verify_cycle(pts, 0.5, 2.0, bad)
        assert not rep.valid
        assert rep.violation.kind == "NotPermutation"


def test_verify_reports_first_duplicate_position():
    pts = rand_points(5, 1)
    rep = verify_cycle(pts, 10.0, 2.0, np.array([0, 1, 2, 1, 4]))
    assert not rep.valid
    assert rep.violation == (3, "NotPermutation", None)


def test_verify_reports_out_of_range_position():
    pts = rand_points(4, 2)
    rep = verify_cycle(pts, 10.0, 2.0, np.array([0, 1, 7, 2]))
    assert rep.violation.position == 2
    assert rep.violation.kind == "NotPermutation"


def test_verify_reports_first_long_edge_with_distance():
    pts = np.array([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5], [0.9, 0.5]])
    rep = verify_cycle(pts, 0.15, 2.0, np.array([0, 1, 2, 3]))
    assert not rep.valid
    assert rep.violation.kind == "EdgeTooLong"
    assert rep.violation.position == 2
    assert rep.violation.distance == pytest.approx(0.6)
    j = rep.to_json()
    assert j["violation"]["distance"] == pytest.approx(0.6)


def test_verify_catches_wraparound_edge():
    pts = np.array([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5]])
    rep = verify_cycle(pts, 0.15, 2.0, np.array([0, 1, 2]))
    assert rep.violation.position == 2     # edge back to the start
    assert rep.violation.distance == pytest.approx(0.2)


def test_verify_tolerance_slack():
    pts = np.array([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5]])
    cyc = np.array([0, 1, 2])
    assert not verify_cycle(pts, 0.1, 2.0, cyc).valid
    assert not verify_cycle(pts, 0.1, 2.0, cyc, tolerance=0.05).valid
    assert verify_cycle(pts, 0.1, 2.0, cyc, tolerance=0.11).valid


def test_verify_rejects_a_bound_that_is_not_a_length():
    # a NaN bound used to pass every hop, so any permutation was "valid"
    pts = np.array([[0.1, 0.5], [0.2, 0.5], [0.9, 0.5]])
    cyc = np.array([0, 1, 2])
    for r, tol in ((math.nan, 0.0), (0.1, math.nan), (0.0, 0.0), (-0.5, 0.0),
                   (0.1, -0.01)):
        with pytest.raises(ValueError, match="radius > 0"):
            verify_cycle(pts, r, 2.0, cyc, tolerance=tol)


def _reference_verdict(points, r, p, cycle, tolerance=0.0):
    """verify_cycle's verdict by its definition: the first out-of-range
    position, else the first repeat, else lp_norms over every hop and the
    first hop over r + tolerance."""
    n = len(points)
    cyc = np.asarray(cycle)
    if cyc.ndim != 1 or len(cyc) != n or not np.issubdtype(cyc.dtype, np.integer):
        return False, (0, "NotPermutation", None)
    vals = cyc.tolist()
    outside = [i for i, v in enumerate(vals) if not 0 <= v < n]
    if outside:
        return False, (outside[0], "NotPermutation", None)
    first_at = {}
    for i, v in enumerate(vals):
        if first_at.setdefault(v, i) != i:
            return False, (i, "NotPermutation", None)
    q = points[cyc]
    step = np.roll(q, -1, axis=0) - q
    d = lp_norms(p, step[:, 0], step[:, 1])
    over = np.flatnonzero(d > r + tolerance)
    if over.size:
        return False, (int(over[0]), "EdgeTooLong", float(d[over[0]]))
    return True, None


def _assert_same_verdict(points, r, p, cycle, tolerance=0.0):
    rep = verify_cycle(points, r, p, cycle, tolerance)
    assert (rep.valid, rep.violation) == _reference_verdict(
        points, r, p, cycle, tolerance)
    return rep


def _closed_walk(rng, n, long_at, v):
    """n points visited in index order, whose hops (the last one back to
    the start) are under 0.01 except hop long_at, about the vector v."""
    steps = rng.uniform(-0.004, 0.004, (n, 2))
    steps -= steps.mean(axis=0) + v / (n - 1)
    steps[long_at] = v
    return 0.5 + np.vstack([np.zeros(2), np.cumsum(steps[:-1], axis=0)])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0, math.inf])
@pytest.mark.parametrize("tolerance", [0.0, 1e-3])
def test_verify_matches_the_exact_norm_at_the_bound(p, tolerance):
    rng = np.random.default_rng(7)
    cycle = np.arange(200)
    # the longest hop inside the cycle, then the wraparound hop
    for long_at, v in ((57, np.array([0.05, 0.03])),
                       (199, np.array([-0.02, 0.07]))):
        pts = _closed_walk(rng, 200, long_at, v)
        hops = lp_norms(p, *(np.roll(pts, -1, axis=0) - pts).T)
        assert hops.argmax() == long_at
        longest = hops.max()
        # longest (1 + 1e-10) lies inside the screen's rounding margin
        for bound in (np.nextafter(longest, 0), longest,
                      np.nextafter(longest, 1), longest * (1.0 + 1e-10)):
            for r in (bound - tolerance, bound):
                rep = _assert_same_verdict(pts, float(r), p, cycle, tolerance)
            assert rep.valid == (bound + tolerance >= longest)
    # hops of exactly 0.125 along either axis, at radii an ulp either side
    line = np.column_stack([np.arange(8) * 0.125, np.zeros(8)])
    for r in (np.nextafter(0.875, 0), 0.875, np.nextafter(0.875, 1),
              np.nextafter(0.125, 0), 0.125):
        for pts in (line, line[:, ::-1]):
            _assert_same_verdict(pts, float(r), p, np.arange(8), tolerance)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_verify_matches_the_reference_on_odd_input(p):
    rng = np.random.default_rng(3)
    pts = rng.random((6, 2))
    odd = np.array([[0.5, 0.5], [math.nan, 0.5], [0.6, 0.5], [math.inf, 0.5],
                    [math.inf, 0.1], [0.2, -math.inf]])
    cases = [
        (np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
        (np.zeros((0, 2)), np.zeros(0)),
        (pts[:1], np.array([0])), (pts[:1], np.array([1])),
        (pts[:1], np.array([-1])),
        (pts[:2], np.array([0, 1])), (pts[:2], np.array([1, 0])),
        (pts[:2], np.array([1, 1])), (pts[:2], np.array([0], dtype=np.uint8)),
        (pts, np.array([0, 1, 5, 1, 9, 2])), (pts, np.array([0, 1, 5, 1, 4, 2])),
        (pts, np.array([3, 1, 2, 0, 4, -7])), (pts, np.arange(6, dtype=np.uint32)),
        (pts, np.arange(6).reshape(2, 3)), (pts, [5, 4, 3, 2, 1, 0]),
        (odd, np.arange(6)), (odd, np.array([0, 2, 1, 3, 4, 5])),
        (odd, np.array([3, 4, 0, 2, 1, 5])), (odd[:3], np.arange(3)),
    ]
    for points, cycle in cases:
        for r in (0.05, 0.3, 10.0, math.inf):
            _assert_same_verdict(points, r, p, cycle)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_long_hops_in_small_chunks(p, monkeypatch):
    # chunks of 3 hops: long hops fall on every chunk position, the closing
    # hop included, and every verdict and length is the reference's
    monkeypatch.setattr(hamiltonian, "_HOP_CHUNK", 3)
    rng = np.random.default_rng(11)
    pts = rng.random((20, 2))
    for r in (0.0, 0.2, 0.5, 2.0):
        for cycle in (np.arange(20), rng.permutation(20), rng.permutation(20)):
            q = pts[cycle]
            d = lp_norms(p, *(np.roll(q, -1, axis=0) - q).T)
            at, length = hamiltonian._long_hops(pts, p, r, cycle)
            assert at.tolist() == np.flatnonzero(d > r).tolist()
            assert np.array_equal(length, d[d > r])
            if r > 0.0:
                _assert_same_verdict(pts, r, p, cycle)
            else:
                # no radius: verify_cycle refuses to judge
                with pytest.raises(ValueError, match="radius > 0"):
                    verify_cycle(pts, r, p, cycle)


# --------------------------------------------------------------------------
# construction end to end
# --------------------------------------------------------------------------

WORKING = dict(n=20000, r=0.45)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_construction_working_regime(p, seed):
    pts = rand_points(WORKING["n"], seed)
    out = full_construction(pts, p, WORKING["r"])
    assert out.cells_per_side == 4
    rep = verify_cycle(pts, WORKING["r"], p, out.cycle)
    assert rep.valid, rep.violation


def test_construction_deterministic():
    pts = rand_points(WORKING["n"], 0)
    a = full_construction(pts, 2.0, WORKING["r"]).cycle
    b = full_construction(pts, 2.0, WORKING["r"]).cycle
    assert np.array_equal(a, b)


def test_construction_edge_locality():
    # stronger than the radius check: consecutive vertices always sit in
    # close cells (the construction never relies on a lucky long hop)
    pts = rand_points(WORKING["n"], 1)
    r = WORKING["r"]
    out = full_construction(pts, 2.0, r)
    t = build_tessellation(2.0, r, out.cells_per_side)
    cyc = out.cycle
    for u, v in zip(cyc, np.roll(cyc, -1)):
        cu = locate(t, pts[u, 0], pts[u, 1])
        cv = locate(t, pts[v, 0], pts[v, 1])
        assert cells_close(t, cu, cv)


def test_construction_single_dense_cell_drains_in_index_order():
    t = build_tessellation(2.0, 0.5, 4)
    pts = cell_points(t, 0, 0, 60)
    out = full_construction(pts, 2.0, 0.5)
    assert np.array_equal(out.cycle, np.arange(60))
    assert verify_cycle(pts, 0.5, 2.0, out.cycle).valid


def _grouped_instance(t):
    """Dense chain of squares 0-4-8 plus a sparse square with a 3-cell group.

    Returns (points, slices) where slices names the index range of each
    crafted block.
    """
    blocks = {
        "dense_a": cell_points(t, 3, 0, DENSE_THRESHOLD),
        "bridge": cell_points(t, 2, 4, DENSE_THRESHOLD),
        "dense_b": cell_points(t, 0, 8, DENSE_THRESHOLD),
        "g1": cell_points(t, 4, 4, 2),
        "g2": cell_points(t, 5, 4, 1),
        "g3": cell_points(t, 6, 6, 1),
    }
    out = {}
    pos = 0
    for name, arr in blocks.items():
        out[name] = range(pos, pos + len(arr))
        pos += len(arr)
    return np.vstack(list(blocks.values())), out


def test_construction_keeps_group_vertices_contiguous():
    t = build_tessellation(2.0, 0.5, 4)
    pts, idx = _grouped_instance(t)
    out = full_construction(pts, 2.0, 0.5)
    assert verify_cycle(pts, 0.5, 2.0, out.cycle).valid
    cyc = list(out.cycle)

    # cells (4,4) and (5,4) share hook (3,0): one group, visited as a block
    # in row-major cell order with ascending indices inside a cell, that is
    # cell (4,4)'s vertices g1, then cell (5,4)'s g2
    block = list(idx["g1"]) + list(idx["g2"])
    at = [cyc.index(v) for v in block]
    assert at == list(range(min(at), min(at) + len(block)))
    assert [cyc[i] for i in sorted(at)] == block
    # flanked by hook withdrawals from the dense cell (3,0)
    g = t.grid
    hook_cell = {int(v) for v in range(len(pts))
                 if locate(t, pts[v, 0], pts[v, 1]) == (3, 0)}
    assert cyc[min(at) - 1] in hook_cell
    assert cyc[(max(at) + 1) % len(cyc)] in hook_cell

    # cell (6,6) hooks into the bridge cell instead
    at3 = cyc.index(idx["g3"][0])
    bridge = set(idx["bridge"])
    assert cyc[at3 - 1] in bridge and cyc[(at3 + 1) % len(cyc)] in bridge


# --------------------------------------------------------------------------
# the per-step construction, kept as the reference for the array passes
# --------------------------------------------------------------------------

class ReferenceLedger:
    """Withdrawals one call at a time: take() counted and capped, drain()
    uncounted; ascending vertex index within a cell either way. It keeps
    its own arrays over every flat cell id, built from the points
    (grid_cells), so it shares no lookup with construct_cycle."""

    def __init__(self, t, points):
        self.counts, self.order, self.starts = grid_cells(t, points)
        self.cursor = np.zeros(len(self.counts), dtype=np.int64)
        self.taken = np.zeros(len(self.counts), dtype=np.int64)

    def take(self, cell):
        if (self.cursor[cell] >= self.counts[cell]
                or self.taken[cell] >= DENSE_THRESHOLD):
            raise ConstructionError(
                FailureReason.LEDGER_EXHAUSTED,
                {"cell": int(cell), "occupancy": int(self.counts[cell]),
                 "withdrawn": int(self.taken[cell])})
        v = self.order[self.starts[cell] + self.cursor[cell]]
        self.cursor[cell] += 1
        self.taken[cell] += 1
        return int(v)

    def drain(self, cells):
        out = []
        for c in np.atleast_1d(cells).tolist():
            members = self.order[self.starts[c]:self.starts[c + 1]]
            out.extend(members[self.cursor[c]:].tolist())
            self.cursor[c] = len(members)
        return out


def reference_sweep(t, ledger, square, start_near, end_near):
    """One square's serpentine sweep, its eight variants scored one by one."""
    k, g, s = t.cells_per_side, t.grid, t.cell_side
    srow, scol = divmod(square, t.squares_per_side)
    best = None
    for v, steps in enumerate(_serpentine_orders(k).tolist()):
        cells = [(srow * k + row) * g + scol * k + col for col, row in steps]
        left = [c for c in cells
                if ledger.counts[c] - ledger.cursor[c] > 0]
        ends = (left[0], left[-1]) if left else (cells[0], cells[-1])

        def gap(cell, near):
            if near is None:
                return 0.0
            return _lp_from_abs(t.p, (abs(cell % g - near.col) + 1) * s,
                                (abs(cell // g - near.row) + 1) * s)

        key = (gap(ends[1], end_near), gap(ends[0], start_near), v)
        if best is None or key < best[0]:
            best = (key, left)
    return ledger.drain(best[1])


def reference_cycle(points, t, cls, ag, order):
    """The cycle built one step of the euler walk at a time."""
    ledger = ReferenceLedger(t, points)
    last_pos = {node: i for i, node in enumerate(order)}
    cycle = []
    prev = None     # cell of the vertex placed last

    def place(v, cell):
        nonlocal prev
        cycle.append(v)
        prev = CellId(cell % t.grid, cell // t.grid)

    if len(order) == 1:
        cycle = reference_sweep(t, ledger, order[0], None, None)
    else:
        i = 0
        while i < len(order) - 1:
            u, v = order[i], order[i + 1]
            if isinstance(v, GroupKey):
                cells = ag.groups[v]
                place(ledger.take(ag.hooks[cells[0]]), ag.hooks[cells[0]])
                cycle.extend(ledger.drain(cells))
                place(ledger.take(ag.hooks[cells[-1]]), ag.hooks[cells[-1]])
                i += 2
                continue
            cu, cv = ag.density.witness_cells(u, v)
            if i == last_pos[u]:
                exit_v = ledger.take(cu)
                cycle.extend(reference_sweep(
                    t, ledger, u, prev, CellId(cu % t.grid, cu // t.grid)))
                place(exit_v, cu)
            else:
                place(ledger.take(cu), cu)
            place(ledger.take(cv), cv)
            i += 1
        first = cycle[0]
        cycle.extend(reference_sweep(t, ledger, order[-1], prev,
                                     locate(t, points[first, 0],
                                            points[first, 1])))
    cycle = np.array(cycle, dtype=np.int64)
    report = verify_cycle(points, t.radius, t.p, cycle)
    if not report.valid:
        raise ConstructionError(
            FailureReason.EDGE_TOO_LONG,
            {"position": report.violation.position,
             "distance": report.violation.distance, "radius": t.radius})
    return cycle


def tessellation_walk(points, p, r, k):
    """The tessellation path's inputs to construct_cycle, or None where it
    stops before construction."""
    t = build_tessellation(p, r, k)
    cls = classify_cells(t, VertexSet(points))
    try:
        ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
        order = euler_traversal(spanning_tree(ag))
    except ConstructionError:
        return None
    return t, cls, ag, order


def same_as_reference(points, walk):
    """construct_cycle's answer is the reference's, bit for bit: the same
    cycle, or the same failure."""
    try:
        want = reference_cycle(points, *walk)
    except ConstructionError as exc:
        with pytest.raises(ConstructionError) as err:
            construct_cycle(points, *walk)
        assert (err.value.reason, err.value.context) == (exc.reason,
                                                         exc.context)
        return
    got = construct_cycle(points, *walk)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("r", [0.3, 0.45, 0.6])
def test_construction_matches_the_per_step_reference(p, r):
    # every size and subdivision that reaches construction, at least three
    # of them for each (p, r)
    compared = 0
    for n in (2000, 10000, 50000):
        pts = rand_points(n, 0)
        for k in (2, 4):
            walk = tessellation_walk(pts, p, r, k)
            if walk is not None:
                same_as_reference(pts, walk)
                compared += 1
    assert compared >= 3


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_construction_matches_the_reference_through_group_nodes(p):
    pts = rand_points(10000, 1)
    walk = tessellation_walk(pts, p, 0.45, 4)
    assert walk[2].groups
    same_as_reference(pts, walk)


def test_construction_matches_the_reference_on_crafted_instances():
    t = build_tessellation(2.0, 0.5, 4)
    pts, _ = _grouped_instance(t)
    walk = tessellation_walk(pts, 2.0, 0.5, 4)
    assert len(walk[2].groups) == 2
    same_as_reference(pts, walk)
    # one dense square: the walk is a single sweep
    pts = np.vstack([cell_points(t, 0, 0, 60), cell_points(t, 3, 2, 5)])
    walk = tessellation_walk(pts, 2.0, 0.5, 4)
    assert walk[3] == [0]
    same_as_reference(pts, walk)


# --------------------------------------------------------------------------
# the self check, read off the cycle's runs
# --------------------------------------------------------------------------

# the check itself, which the spies below stand in for
CHECK_RUNS = hamiltonian._check_runs


def assert_run_check(points, t, cls, lo, size):
    """_check_runs on the runs is _long_hops on the gathered cycle, in
    positions and lengths, and its first hop is verify_cycle's violation.
    Returns its hops."""
    at, length = CHECK_RUNS(points, t, cls, lo, size)
    cycle = gather_runs(cls.order, lo, size)
    want_at, want_length = hamiltonian._long_hops(points, t.p, t.radius, cycle)
    assert at.tolist() == want_at.tolist()
    assert np.array_equal(length, want_length)
    report = verify_cycle(points, t.radius, t.p, cycle)
    assert report.valid == (at.size == 0)
    if at.size:
        assert report.violation == (int(at[0]), "EdgeTooLong",
                                    float(length[0]))
    return at, length


def checked_runs(monkeypatch, points, walk):
    """The runs construct_cycle checks on walk, each check compared with
    _long_hops and verify_cycle on the gathered cycle; and its hops."""
    seen = []

    def spy(points, t, cls, lo, size):
        hops = assert_run_check(points, t, cls, lo, size)
        seen.append((lo, size, hops))
        return hops

    with monkeypatch.context() as m:
        m.setattr(hamiltonian, "_check_runs", spy)
        try:
            construct_cycle(points, *walk)
        except ConstructionError as err:
            assert err.reason is FailureReason.EDGE_TOO_LONG
    assert len(seen) == 1
    return seen[0]


def run_mutants(cls, lo, size, rng):
    """Broken run lists, each with whether its runs tile cls.order: two
    runs swapped (three times), which tile; and, which do not, one run
    dropped, one duplicated, one run extended past its cell over the next
    run, and one extended while the run after it keeps its first vertex."""
    out = []
    for _ in range(3):
        i, j = rng.choice(len(lo), 2, replace=False)
        swap = np.arange(len(lo))
        swap[[i, j]] = swap[[j, i]]
        out.append((lo[swap], size[swap], True))
    i = rng.integers(len(lo))
    out.append((np.delete(lo, i), np.delete(size, i), False))
    out.append((np.insert(lo, i, lo[i]), np.insert(size, i, size[i]), False))
    # a run that ends where its cell does, and not at the end of order
    cell_end = np.isin(lo + size, cls.starts[1:-1])
    i = rng.choice(np.flatnonzero(cell_end))
    j = int(np.flatnonzero((lo == lo[i] + size[i]) & (size > 0))[0])
    lo2, size2 = lo.copy(), size.copy()
    size2[i] += 1
    lo2[j] += 1
    size2[j] -= 1
    out.append((lo2, size2, False))
    size3 = size.copy()
    size3[i] += 1
    out.append((lo, size3, False))
    return out


# tessellation cycles (n, r, seed) at k = 4 for every p: seed 1 at n = 1e4,
# r = 0.45 has group nodes (its augmented graph splits at p = 1), and at
# p = 1, r = 0.3 seeds 0 and 1 have a hop longer than r
CHECKED_WALKS = [(20000, 0.45, 0), (10000, 0.45, 1), (50000, 0.3, 0),
                 (50000, 0.3, 1)]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_run_check_reports_what_verify_cycle_reports(monkeypatch, p):
    rng = np.random.default_rng(3)
    cycles, mutants = [], []
    for n, r, seed in CHECKED_WALKS:
        pts = rand_points(n, seed)
        walk = tessellation_walk(pts, p, r, 4)
        if walk is None:
            assert (p, n, seed) == (1.0, 10000, 1)
            continue
        t, cls = walk[:2]
        lo, size, (at, _) = checked_runs(monkeypatch, pts, walk)
        cycles.append(at.size == 0)
        for mlo, msize, tiles in run_mutants(cls, lo, size, rng):
            if tiles:
                at, _ = assert_run_check(pts, t, cls, mlo, msize)
                mutants.append("EdgeTooLong" if at.size else "valid")
            else:
                with pytest.raises(AssertionError, match="not a permutation"):
                    CHECK_RUNS(pts, t, cls, mlo, msize)
    if p == 1.0:
        assert cycles == [True, False, False]
    else:
        assert cycles == [True] * 4
    assert "EdgeTooLong" in mutants


def test_run_check_failures_reach_construct_cycle(monkeypatch):
    # each mutant through construct_cycle: runs that do not tile raise
    # AssertionError, a long hop EdgeTooLong at _long_hops' first position
    # and length, which are verify_cycle's
    pts = rand_points(WORKING["n"], 0)
    walk = tessellation_walk(pts, 2.0, 0.45, 4)
    t, cls = walk[:2]
    lo, size, _ = checked_runs(monkeypatch, pts, walk)
    answers = set()
    for mlo, msize, tiles in run_mutants(cls, lo, size,
                                         np.random.default_rng(5)):
        monkeypatch.setattr(
            hamiltonian, "_check_runs",
            lambda points, t, cls, lo, size: CHECK_RUNS(points, t, cls, mlo,
                                                        msize))
        if not tiles:
            with pytest.raises(AssertionError, match="not a permutation"):
                construct_cycle(pts, *walk)
            answers.add("raised")
            continue
        at, length = assert_run_check(pts, t, cls, mlo, msize)
        if not at.size:
            construct_cycle(pts, *walk)
            answers.add("valid")
            continue
        with pytest.raises(ConstructionError) as err:
            construct_cycle(pts, *walk)
        ctx = err.value.context
        assert err.value.reason is FailureReason.EDGE_TOO_LONG
        assert (ctx["position"], ctx["distance"]) == (int(at[0]),
                                                      float(length[0]))
        answers.add("EdgeTooLong")
    assert {"raised", "EdgeTooLong"} <= answers


def test_non_permutation_raises_under_optimisation():
    # python -O strips assert statements: the check must still raise, not
    # pass a broken cycle on as EdgeTooLong, which full_construction would
    # answer with the fallback's cycle
    code = textwrap.dedent("""
        import numpy as np
        from rggham import hamiltonian
        check = hamiltonian._check_runs

        def duplicated(points, t, cls, lo, size):
            return check(points, t, cls, np.append(lo, lo[:1]),
                         np.append(size, size[:1]))

        hamiltonian._check_runs = duplicated
        print(__debug__)
        pts = np.random.Generator(np.random.PCG64(0)).random((20000, 2))
        try:
            out = hamiltonian.full_construction(pts, 2.0, 0.45)
            print("cycle", out.cells_per_side)
        except AssertionError as exc:
            print(type(exc).__name__, str(exc).split(":")[0])
    """)
    src = str(pathlib.Path(hamiltonian.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "False", "AssertionError constructed cycle is not a permutation"]


def edge_chain(g, i, j):
    """Points k (i, j) / g, k = 0, 1, ..., on cell edges up to 1.0, every
    other x and every other y the float just below its edge: each step
    spans i by j cells, give or take an ulp per axis."""
    k = np.arange(g // max(i, j) + 1)
    x, y = k * i / g, k * j / g
    x[1::2] = np.nextafter(x[1::2], 0.0)
    y[2::2] = np.nextafter(y[2::2], 0.0)
    return np.column_stack([x, y])


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_run_check_margin_on_cell_edges(p):
    # points on cell edges: at c / g, the float just below it and 1.0,
    # where floor(x g) can file a point an ulp outside its cell. r is an
    # offset_norms entry, one ulp either side of it, and the least r whose
    # margin clears the entry; at the (1, 1) entry, the cell's own
    # diameter, only the last two: build_tessellation refuses a cell whose
    # diameter misses the margin
    t0 = build_tessellation(p, 0.45, 4)
    g = t0.grid
    edges = np.arange(g + 1) / g
    axis = np.unique(np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                                     [1.0]]))
    xs, ys = np.meshgrid(axis, axis)
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    cls = classify_cells(t0, VertexSet(pts))
    # cycles over the lattice, one run per cell, and along chains of steps
    # of about (i, j) cells, one run per point
    rng = np.random.default_rng(0)
    cycles = [(pts, cls, cls.starts[:-1][by], cls.counts[by])
              for by in [np.arange(len(cls.cells)),
                         np.argsort(cls.cells % g, kind="stable")]
              + [rng.permutation(len(cls.cells)) for _ in range(3)]]
    for i, j in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        chain = edge_chain(g, i, j)
        chain_cls = classify_cells(t0, VertexSet(chain))
        at = np.empty(len(chain), dtype=np.int64)
        at[chain_cls.order] = np.arange(len(chain))
        cycles.append((chain, chain_cls, at, np.ones(len(chain), np.int64)))
    early = 0
    for i, j in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
        e = t0.offset_norms[j, i]
        cleared = (e + instance._ABS_SLACK) / (1.0 - instance._REL_SLACK)
        radii = [np.nextafter(e, 0.0), e, np.nextafter(e, np.inf), cleared,
                 np.nextafter(cleared, np.inf)]
        for r in radii[3:] if (i, j) == (1, 1) else radii:
            t = dataclasses.replace(t0, radius=float(r))
            assert t.offset_norms[1, 1] <= (
                r * (1.0 - instance._REL_SLACK) - instance._ABS_SLACK)
            for points, c, lo, size in cycles:
                at, _ = assert_run_check(points, t, c, lo, size)
                early += c is not cls and 0 < at.size and at[0] < len(points) - 1
    # some chain step is longer than r, and found before the closing hop
    assert early


def test_full_construction_validates_arguments():
    pts = rand_points(2, 0)
    with pytest.raises(ValueError):
        full_construction(pts, 2.0, 0.5)
    with pytest.raises(ValueError):
        full_construction(rand_points(10, 0), 2.0, 0.0)
    with pytest.raises(ValueError):
        full_construction(rand_points(10, 0), 0.5, 0.4)


def test_full_construction_k_override():
    # full_construction derives k = 4 here; a k = 6 tessellation built by
    # hand also gives a verified cycle (finer cells need more points per
    # cell to stay dense)
    pts = rand_points(40000, 2)
    out = full_construction(pts, 2.0, WORKING["r"])
    assert out.cells_per_side == 4
    assert verify_cycle(pts, WORKING["r"], 2.0, out.cycle).valid
    t = build_tessellation(2.0, WORKING["r"], 6)
    cycle = _tessellation_cycle(pts, t, classify_cells(t, VertexSet(pts)))
    assert verify_cycle(pts, WORKING["r"], 2.0, cycle).valid


def test_degenerate_radius_uses_the_fallback():
    # no tessellation exists for r > 1: the serpentine fallback answers
    pts = rand_points(50, 3)
    out = full_construction(pts, 2.0, 1.5)
    assert out.cells_per_side is None
    # every pair is within 1.5 in the unit square, so validity is certain
    assert verify_cycle(pts, 1.5, 2.0, out.cycle).valid


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("n", [3, 100])
@pytest.mark.parametrize("r", [1e8, 1e200, math.inf])
def test_huge_radius_uses_the_fallback(p, n, r):
    # ln n / (r n) / r vanishes below half an ulp of the disk area here, so
    # the slack eps equals the area, which choose_cells_per_side refuses;
    # no tessellation fits at r > 1, and the fallback answers
    pts = rand_points(n, 3)
    out = full_construction(pts, p, r)
    assert out.cells_per_side is None
    assert verify_cycle(pts, r, p, out.cycle).valid


def test_degenerate_radius_failure_is_typed():
    # two clusters in opposite corners: the graph is disconnected, and the
    # fallback, which no repair gets across the gap, says so
    pts = corner_clusters()
    assert not is_connected(build_spatial_index(VertexSet(pts), 1.01, 2.0))
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, 1.01)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context == {"detail": "the graph is disconnected",
                                 "radius": 1.01}


def test_degenerate_radius_cut_vertex_is_edge_too_long():
    # a point in the middle joins the two clusters: the graph is connected,
    # but the bridge is a cut vertex, so no Hamiltonian cycle exists. The
    # fallback stops at the hop between the clusters, whose ends each have
    # their four cluster mates and the bridge as neighbours
    pts = np.vstack([corner_clusters(), [[0.5, 0.5]]])
    assert is_connected(build_spatial_index(VertexSet(pts), 1.01, 2.0))
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, 1.01)
    assert err.value.reason is FailureReason.EDGE_TOO_LONG
    ctx = err.value.context
    assert ctx["degrees"] == [5, 5]
    assert ctx["distance"] == pytest.approx(1.401, abs=1e-3)
    assert ctx["distance"] > ctx["radius"] == 1.01
    assert ctx["connected"] is True


def test_midrange_fuzz_returns_cycle_or_typed_failure():
    for seed in range(12):
        pts = rand_points(2000, 100 + seed)
        try:
            out = full_construction(pts, 2.0, 0.139)
        except ConstructionError as err:
            assert err.reason in (
                FailureReason.HOOK_MISSING, FailureReason.DISCONNECTED,
                FailureReason.LEDGER_EXHAUSTED, FailureReason.EDGE_TOO_LONG)
        else:
            assert verify_cycle(pts, 0.139, 2.0, out.cycle).valid


# --------------------------------------------------------------------------
# the serpentine fallback, where the tessellation finds no hook
# --------------------------------------------------------------------------

def masked_serpentine_keys(points, p, r):
    """The float serpentine keys, odd rows flipped by a masked subtract: a
    reference whose stable argsort is _serpentine_tour's order."""
    g = math.ceil(min(_lp_from_abs(p, 1.0, 1.0) / r, 2.0 ** 32))
    g += g % 2
    gx = points[:, 0] * g
    key = points[:, 1] * g
    lane = gx < 1.0
    lane_key = g * g + g - key[lane]
    np.minimum(np.floor(key, out=key), g - 1, out=key)
    np.subtract(g + 1, gx, out=gx, where=key.astype(np.int64) % 2 == 1)
    key *= g
    key += gx
    key[lane] = lane_key
    return key


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("r", [0.3, 0.02, 1e-9, 1e-10, math.inf])
def test_serpentine_keys_match_the_masked_row_flip(p, r):
    # random points, the same points repeated (ties, which the sort breaks
    # by index), points in the return lane, x < 1 / g, and points on x = 1
    # and y = 1. At r = 1e-10, g is at its cap, 2^32; at r = inf it is 0,
    # and the tour is index order
    rng = np.random.default_rng(5)
    g = max(math.ceil(_lp_from_abs(p, 1.0, 1.0) / r), 1)
    edge = rng.random(60)
    cases = [rng.random((3000, 2)),
             np.repeat(rng.random((40, 2)), 6, axis=0)[rng.permutation(240)],
             np.column_stack((rng.random(300) / g, rng.random(300))),
             np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0],
                       [0.5, 1.0], [1.0, 0.5]] * 3),
             np.vstack([np.column_stack((np.ones(60), edge)),
                        np.column_stack((edge, np.ones(60))),
                        rng.random((60, 2))])[rng.permutation(180)]]
    for pts in cases:
        want = masked_serpentine_keys(pts, p, r)
        assert np.array_equal(hamiltonian._serpentine_tour(pts, p, r),
                              np.argsort(want, kind="stable"))


def test_serpentine_keys_are_exact_beyond_float_precision():
    # n = 4 and g = 2 leave b = 60 bits of x: row 1's keys lie in
    # [2^60, 2^61), where a float64 rounds by 256. Two points of row 1, one
    # ulp of x apart near 0.75, get keys 128 apart, which a float64 would
    # round to a tie; the index would then break it the wrong way, since
    # row 1 runs right to left and the higher index has the higher x
    x = 0.75
    below = np.nextafter(x, 0.0)
    assert x - below == 2.0 ** -53
    pts = np.array([[below, 0.75], [x, 0.75], [0.25, 0.5], [x, 0.25]])
    assert math.ceil(_lp_from_abs(2.0, 1.0, 1.0) / 1.0) == 2
    # row 0, row 1 right to left, then the lane (x < 0.5)
    tour = hamiltonian._serpentine_tour(pts, 2.0, 1.0)
    assert tour.tolist() == [3, 1, 0, 2]


def test_serpentine_ties_go_by_index_below_b_bits():
    # at r = 1e-10, g is capped at 2^32 (33 bits), so n = 4 (2 index bits)
    # leaves b = 29 bits of x: x that agree to 29 bits tie, and ties go by
    # index; x one unit of 2^-29 apart do not
    g, b = 2 ** 32, 29
    y = 0.5 + 0.5 / g   # row g / 2, even: left to right
    pts = np.array([[0.5 + 2.0 ** -31, y], [0.5, y],
                    [0.5 + 2.0 ** -29, y], [0.5 - 2.0 ** -29, y]])
    assert math.ceil(_lp_from_abs(2.0, 1.0, 1.0) / 1e-10) > g
    assert 64 - 2 - g.bit_length() == b
    tour = hamiltonian._serpentine_tour(pts, 2.0, 1e-10)
    assert tour.tolist() == [3, 0, 1, 2]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("seed", [0, 1])
def test_threshold_scale_gets_verified_cycle(p, seed):
    # 2x threshold at n = 500: no cell comes near 48 points, so the cycle
    # comes from the fallback, which reports no cells_per_side
    r = 2.0 * threshold_radius(500, p)
    pts = rand_points(500, seed)
    out = full_construction(pts, p, r)
    assert out.cells_per_side is None
    rep = verify_cycle(pts, r, p, out.cycle)
    assert rep.valid, rep.violation


def test_fallback_is_deterministic():
    r = 2.0 * threshold_radius(2000, 2.0)
    pts = rand_points(2000, 3)
    a = full_construction(pts, 2.0, r).cycle
    b = full_construction(pts.copy(), 2.0, r).cycle
    assert np.array_equal(a, b)


def test_subcritical_instance_fails_typed_and_fast():
    n = 20000
    r = 0.5 * threshold_radius(n, 2.0)
    pts = rand_points(n, 4)
    t0 = time.perf_counter()
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, r)
    assert time.perf_counter() - t0 < 2.0
    assert err.value.reason in (FailureReason.DISCONNECTED,
                                FailureReason.EDGE_TOO_LONG)


def _blob(count, centre, radius, seed):
    """count points within radius of centre, all within 2 * radius of
    each other."""
    rng = np.random.default_rng(seed)
    ang = rng.random(count) * 2.0 * math.pi
    rad = radius * np.sqrt(rng.random(count))
    return np.column_stack([centre[0] + rad * np.cos(ang),
                            centre[1] + rad * np.sin(ang)])


def test_fallback_isolated_vertex_is_disconnected():
    pts = np.vstack([_blob(100, (0.3, 0.3), 0.02, 0), [[0.9, 0.9]]])
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, 0.1)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context["vertex"] == 100
    # no hop of the tour is within r, so none can close it
    far_apart = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    with pytest.raises(ConstructionError) as err:
        full_construction(far_apart, 2.0, 0.1)
    assert err.value.reason is FailureReason.DISCONNECTED


def test_fallback_with_every_hop_long_asks_the_connectivity_check(monkeypatch):
    # all 4 serpentine hops are longer than r, yet 0 and 2 are within r of
    # each other, and so are 1 and 3: no vertex is isolated, no hop can be
    # rotated to close the tour, and the check on the whole tour decides
    r = 0.19787719060833087
    pts = np.array([[0.322, 0.617], [0.846, 0.473], [0.279, 0.662],
                    [0.944, 0.562]])
    tour = hamiltonian._serpentine_tour(pts, 2.0, r)
    at, _ = hamiltonian._long_hops(pts, 2.0, r, tour)
    assert at.tolist() == [0, 1, 2, 3]
    failures = []
    failure = hamiltonian._TourRepair.failure

    def spy(self, i):
        failures.append(i)
        return failure(self, i)

    monkeypatch.setattr(hamiltonian._TourRepair, "failure", spy)
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, r)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context["detail"] == "the graph is disconnected"
    assert failures == [0]


def test_fallback_gives_up_at_a_pendant_vertex():
    # vertex 101 is within r of vertex 100 only: it has degree 1, so no
    # Hamiltonian cycle exists, and the failure names the degrees
    pts = np.vstack([_blob(100, (0.3, 0.3), 0.02, 0),
                     [[0.35, 0.3], [0.44, 0.3]]])
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, 0.1)
    ctx = err.value.context
    assert err.value.reason is FailureReason.EDGE_TOO_LONG
    assert 101 in ctx["vertices"]
    assert 1 in ctx["degrees"]
    assert ctx["distance"] > ctx["radius"] == 0.1
    assert isinstance(ctx["position"], int)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("mult", [0.5, 0.7, 1.0])
def test_fallback_certifies_isolated_vertices_before_any_repair(
        monkeypatch, p, mult):
    # at and below the threshold almost every instance has a vertex with no
    # neighbour within r; the fallback must name one as Disconnected exactly
    # when a k-d tree finds one, and never start a repair on such an instance
    spatial = pytest.importorskip("scipy.spatial")
    n = 10 ** 4
    r = mult * threshold_radius(n, p)
    repair = hamiltonian._TourRepair.repair
    isolated = np.zeros(n, dtype=bool)

    def guarded(self, i):
        assert not isolated.any(), "a repair ran beside an isolated vertex"
        return repair(self, i)

    monkeypatch.setattr(hamiltonian._TourRepair, "repair", guarded)
    for seed in range(6):
        pts = rand_points(n, seed)
        second, _ = spatial.cKDTree(pts).query(pts, k=2, p=p)
        isolated[:] = second[:, 1] > r
        try:
            full_construction(pts, p, r)
        except ConstructionError as err:
            reason, ctx = err.reason, err.context
        else:
            reason = None
        assert (reason is FailureReason.DISCONNECTED) == isolated.any()
        if isolated.any():
            assert isolated[ctx["vertex"]]
            assert ctx["radius"] == r


def test_isolated_vertex_keys_beyond_float_precision():
    # at r = 1e-9 the fallback's grid has about 2.8e9 cells per side, and
    # keys near y = 0.9 about 7e18, where a float64 rounds by 1024: a uint64
    # key promoted to float64 would miss the neighbour in the next row. The
    # two points sit in adjacent rows of the serpentine tour, too
    r = 1e-9
    side = instance._grid_side(r, 2.0)
    g = math.ceil(_lp_from_abs(2.0, 1.0, 1.0) / r)
    g += g % 2  # rows of the serpentine tour, as _serpentine_tour cuts them
    tour_edge = round(0.9 * g) / g
    k = round(tour_edge * side)
    bucket_edge = k / side
    y = [min(bucket_edge, tour_edge) - 0.1 / side,
         max(bucket_edge, tour_edge) + 0.1 / side]
    c = round(0.5 * side)
    x = [(c - 0.1) / side, (c + 0.1) / side]
    pts = np.array([[x[0], y[0]], [x[1], y[1]], [0.1, 0.1]])
    assert _lp_from_abs(2.0, x[1] - x[0], y[1] - y[0]) <= r
    assert [math.floor(v * side) for v in y] == [k - 1, k]
    assert [math.floor(v * side) for v in x] == [c - 1, c]
    assert math.floor(y[1] * g) - math.floor(y[0] * g) == 1
    mend = tour_repair(pts, 2.0, r, np.arange(3))
    grid = mend.grid
    assert grid.side == side and grid.resolves
    assert grid.cells.dtype == np.uint64 and int(grid.cells[1]) > 2 ** 53
    # the keys, from Python ints: exact where a float64 is not
    assert grid.cells[1:].tolist() == [(k - 1) * side + c - 1, k * side + c]
    assert _isolated_vertex(grid, np.array([0, 1])) is None
    assert _isolated_vertex(grid, np.array([1, 0])) is None
    assert _isolated_vertex(grid, np.array([0, 2, 1])) == 2
    assert [mend.near(v).tolist() for v in range(3)] == [[1], [0], []]
    # vertex 0's window in the next row starts at vertex 1's key, reach[1]
    # columns to its left. That row's key rounds up as a float64, by more
    # than the window's start adds, so a float start would pass vertex 1
    w = int(grid.reach[1])
    ulp = 2 ** (math.floor(math.log2(k * side)) - 52)
    k = next(k for k in range(k, k + ulp)
             if ulp // 2 < k * side % ulp < ulp - 128)
    pts = np.array([[(101 + 0.1) / side, (k - 0.1) / side],
                    [(101 - w + 0.9) / side, (k + 0.1) / side]])
    assert _lp_from_abs(2.0, *np.abs(pts[1] - pts[0])) <= r
    assert float(k * side) + (101 - w) > k * side + 101 - w
    mend = tour_repair(pts, 2.0, r, np.arange(2))
    assert mend.grid.cells.tolist() == [(k - 1) * side + 101, k * side + 101 - w]
    assert _isolated_vertex(mend.grid, np.array([0, 1])) is None
    assert [mend.near(v).tolist() for v in range(2)] == [[1], [0]]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_isolated_vertex_sees_a_neighbour_two_buckets_away(p, axis):
    # on buckets 0.1 wide at r = 0.1, the float just below 0.2 and 0.3 are
    # r apart, yet rounding files them two apart; reach holds at any side
    r = 0.1
    pts = np.array([[np.nextafter(0.2, 0.0), 0.5], [0.3, 0.5], [0.9, 0.9]])
    pts = pts[:, ::-1].copy() if axis else pts
    assert _lp_from_abs(p, *np.abs(pts[1] - pts[0])) <= r
    grid = grid_of_side(pts, p, r, 10)
    buckets = np.minimum((pts[:2, axis] * grid.side).astype(int), grid.side - 1)
    assert buckets.tolist() == [1, 3]
    assert _isolated_vertex(grid, np.array([0, 1, 2])) == 2


def oracle_degrees(pts, p, r, vertices):
    """The number of other points within r of each vertex, by brute force."""
    return [int((lp_norms(p, pts[:, 0] - pts[v, 0], pts[:, 1] - pts[v, 1])
                 <= r).sum()) - 1 for v in vertices]


def test_fallback_certifies_no_vertex_whose_neighbour_rounds_far():
    # a path: vertex 0's one neighbour is vertex 1, r apart, and both of
    # its tour hops are long. The graph is connected, so the failure must
    # not be Disconnected
    r = 0.1
    pts = np.array([[np.nextafter(0.2, 0.0), 0.5], [0.3, 0.5], [0.29, 0.56],
                    [0.08, 0.5], [0.1, 0.59], [0.19, 0.62], [0.25, 0.63]])
    assert is_connected(build_spatial_index(VertexSet(pts), r, 2.0))
    assert tour_repair(pts, 2.0, r, np.arange(7)).near(0).tolist() == [1]
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, r)
    assert err.value.reason is FailureReason.EDGE_TOO_LONG
    ctx = err.value.context
    assert ctx["degrees"] == oracle_degrees(pts, 2.0, r, ctx["vertices"])


def _cell_edge_points(side, rng):
    """Points at and an ulp either side of the grid's cell edges, and
    at random places; rounding files the edge points either way."""
    edges = np.arange(side + 1) / side
    at_edge = np.concatenate([np.nextafter(edges, -1.0), edges,
                              np.nextafter(edges, 2.0)]).clip(0.0, 1.0)
    pts = rng.random((240, 2))
    pts[:80, 0] = rng.choice(at_edge, 80)
    pts[80:160, 1] = rng.choice(at_edge, 80)
    pts[160:200] = rng.choice(at_edge, (40, 2))
    return pts


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_near_is_the_brute_force_list(p):
    # every vertex within r, in the order neighbour_lists gives on the
    # fallback's grid: ascending cell key, then vertex index
    rng = np.random.default_rng(int(p) if p != math.inf else 4)
    radii = [0.5, 0.25, 0.2, 0.125, 0.1, 0.05] + rng.uniform(0.03, 0.6, 4).tolist()
    for r in radii:
        side = instance._grid_side(r, p)
        pts = _cell_edge_points(side, rng)
        n = len(pts)
        col, row = (np.minimum((pts[:, i] * side).astype(np.int64), side - 1)
                    for i in (0, 1))
        bucket = row * side + col
        within = lp_norms(p, pts[:, None, 0] - pts[None, :, 0],
                          pts[:, None, 1] - pts[None, :, 1]) <= r
        np.fill_diagonal(within, False)
        want = [sorted(np.flatnonzero(within[v]).tolist(),
                       key=lambda u: (bucket[u], u)) for v in range(n)]
        batched = tour_repair(pts, p, r, np.arange(n))
        batched.look_up(rng.permutation(n))
        assert [batched.near(v).tolist() for v in range(n)] == want
        single = tour_repair(pts, p, r, np.arange(n))
        for v in rng.permutation(n)[:40].tolist():
            assert single.near(v).tolist() == want[v]


class _KeysForbidden(dict):
    def keys(self):
        raise AssertionError("look_up walked every cached key")


def test_look_up_tests_each_vertex_not_every_cached_key():
    # a set difference with _near.keys() costs a walk of the whole cache
    # per call, which at tens of thousands of cached lists dominated trials
    rng = np.random.default_rng(3)
    pts = rng.random((400, 2))
    r = 0.1
    mend = tour_repair(pts, 2.0, r, np.arange(400))
    mend.look_up(np.arange(0, 400, 2))
    want = {v: mend.near(v).tolist() for v in range(0, 400, 2)}
    mend._near = _KeysForbidden(mend._near)
    mend.look_up(np.array([[5, 4], [5, 7]]))
    assert set(mend._near) == set(want) | {5, 7}
    assert all(mend.near(v).tolist() == near for v, near in want.items())
    fresh = tour_repair(pts, 2.0, r, np.arange(400))
    assert [mend.near(v).tolist() for v in (5, 7)] == [
        fresh.near(v).tolist() for v in (5, 7)]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_fallback_failure_degrees_are_the_oracle_degrees(p):
    # at 1.5x the fallback gives up on most instances; the degrees it
    # reports are those of the point graph
    n = 10 ** 4
    r = 1.5 * threshold_radius(n, p)
    failures = 0
    for seed in range(4):
        pts = rand_points(n, seed)
        try:
            hamiltonian._repaired_tour_cycle(instance._grid(pts, r, p))
        except ConstructionError as err:
            if err.reason is FailureReason.EDGE_TOO_LONG:
                ctx = err.context
                assert ctx["degrees"] == oracle_degrees(pts, p, r, ctx["vertices"])
                failures += 1
    assert failures


def test_fallback_failures_match_a_kd_tree():
    # every failure near the threshold says whether the graph is connected:
    # Disconnected only on a disconnected graph, EdgeTooLong only with
    # connected: true on a connected one. Seed 0 at n = 5e4, p = 1, 1.0x is
    # disconnected with no isolated vertex, so the screen misses it and the
    # verdict comes from the connectivity check
    sparse = pytest.importorskip("scipy.sparse")
    spatial = pytest.importorskip("scipy.spatial")
    from scipy.sparse.csgraph import connected_components
    seen = {"Disconnected": 0, "EdgeTooLong": 0, "no isolated vertex": 0}
    for n in (10 ** 4, 5 * 10 ** 4):
        for p in (1.0, 2.0, math.inf):
            for seed in range(2):
                pts = rand_points(n, seed)
                tree = spatial.cKDTree(pts)
                for mult in (1.0, 1.2, 1.5):
                    r = mult * threshold_radius(n, p)
                    try:
                        full_construction(pts, p, r)
                    except ConstructionError as err:
                        reason, ctx = err.reason, err.context
                    else:
                        continue
                    pairs = tree.query_pairs(r, p=p, output_type="ndarray")
                    graph = sparse.coo_matrix(
                        (np.ones(len(pairs), dtype=bool),
                         (pairs[:, 0], pairs[:, 1])), shape=(n, n))
                    connected = connected_components(graph, directed=False)[0] == 1
                    seen[reason.value] += 1
                    if reason is FailureReason.DISCONNECTED:
                        assert not connected, (n, p, seed, mult)
                        isolated = np.bincount(pairs.ravel(), minlength=n) == 0
                        seen["no isolated vertex"] += not isolated.any()
                    else:
                        assert reason is FailureReason.EDGE_TOO_LONG
                        assert ctx["connected"] is True and connected, (n, p, seed, mult)
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_fallback_cycle_does_not_depend_on_the_grid_side(monkeypatch, p, scale):
    # near lists are sets, and every move breaks its ties by tour position
    # or vertex index, so a grid of half or twice the side gives the same
    # cycles. Only the doubled grid resolves r, so only there could
    # is_connected run
    n = 2000
    r = 2.0 * threshold_radius(n, p)
    pts = [rand_points(n, seed) for seed in range(3)]
    want = [full_construction(q, p, r) for q in pts]
    assert all(out.cells_per_side is None for out in want)
    side = int(instance._grid_side(r, p) * scale)
    monkeypatch.setattr(instance, "_grid_side", lambda r, p: side)
    grid = instance._grid(pts[0], r, p)
    assert grid.side == side and grid.resolves is (scale > 1.0)
    for q, out in zip(pts, want):
        assert np.array_equal(full_construction(q, p, r).cycle, out.cycle)


@pytest.mark.parametrize("place", ["after", "before", "i - 1", "i + 2"])
def test_move_vertex_is_the_list_move(place):
    # hop (a, b) is 0.16 long at r = 0.1, v is their only common neighbour,
    # and the other points sit 0.04 apart left of a and right of b, so v's
    # tour neighbours are within r wherever it sits; the move takes v out
    # and puts it between a and b, as on a list
    a, b, v = 0, 1, 2
    left, right = list(range(3, 11)), list(range(11, 20))
    x = [0.40, 0.56, 0.48] + [0.05 + 0.04 * j for j in range(8)] + [
        0.60 + 0.04 * j for j in range(9)]
    pts = np.column_stack([x, np.full(len(x), 0.5)])
    tour = {"after": left[:3] + [a, b] + right[:2] + [v] + right[2:] + left[3:],
            "before": left[:2] + [v] + left[2:] + [a, b] + right,
            "i - 1": left + [v, a, b] + right,
            "i + 2": left + [a, b, v] + right}[place]
    want = [u for u in tour if u != v]
    want.insert(want.index(a) + 1, v)
    mend = tour_repair(pts, 2.0, 0.1, np.array(tour))
    assert mend._move_vertex(tour.index(a))
    assert mend.tour.tolist() == want
    assert mend.pos.tolist() == [want.index(u) for u in range(len(want))]


def _make_each_try(mend, i):
    """repair's tries, after its direct mend of hop i failed, as they
    stood when each was made, mended and undone in turn rather than tested
    through _passes: the reference for the tested path."""
    tour, pos, n = mend.tour, mend.pos, mend.n
    a, b = int(tour[i]), int(tour[i + 1])
    tries = []
    for j in pos[mend.near(a)].tolist():
        if i < j < n - 1:
            tries.append((i + 1, j, j))
        elif j < i:
            tries.append((j + 1, i, i))
    for j in ((pos[mend.near(b)] - 1) % n).tolist():
        tries.append((i + 1, j, i) if j > i else (j + 1, i, j))
    tries.sort(key=lambda t: (t[1] - t[0], t))
    for lo, hi, exposed in tries:
        if lo == hi:
            continue
        mend._reverse(lo, hi)
        if mend._mend(exposed):
            return True
        mend._reverse(lo, hi)
    return False


def test_tested_tries_make_the_moves_made_tries_make(monkeypatch):
    # every repair that falls through to its tries, on a copy of the tour
    # with each try made and undone, and on the tour itself through
    # _passes: the same answer, the same tour and the same positions
    repair = hamiltonian._TourRepair.repair
    compared = []

    def both(self, i):
        twin = copy.copy(self)
        twin.tour, twin.pos = self.tour.copy(), self.pos.copy()
        twin._near = dict(self._near)
        fell = not twin._mend(i)
        want = _make_each_try(twin, i) if fell else True
        got = repair(self, i)
        assert got == want
        assert np.array_equal(self.tour, twin.tour)
        assert np.array_equal(self.pos, twin.pos)
        if fell:
            compared.append(got)
        return got

    monkeypatch.setattr(hamiltonian._TourRepair, "repair", both)
    n = 10 ** 4
    for p in (1.0, 2.0, math.inf):
        for mult in (1.2, 1.5):
            r = mult * threshold_radius(n, p)
            for seed in range(5):
                try:
                    full_construction(rand_points(n, seed), p, r)
                except ConstructionError:
                    pass
    assert len(compared) >= 50
    assert True in compared and False in compared


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_passes_is_the_mend_after_the_reversal(p):
    # any block of tries, on random tours whose hops are long and short
    # alike: _passes says True exactly where reversing, then _mend, on a
    # copy of the tour succeeds
    rng = np.random.default_rng(3)
    for n, r in ((40, 0.3), (80, 0.2), (200, 0.12)):
        mend = tour_repair(rng.random((n, 2)), p, r, rng.permutation(n))
        lo = rng.integers(0, n, 400)
        hi = np.minimum(lo + rng.integers(0, n // 2, 400), n - 1)
        exposed = rng.integers(0, n - 1, 400)
        want = []
        for t in zip(lo.tolist(), hi.tolist(), exposed.tolist()):
            twin = copy.copy(mend)
            twin.tour, twin.pos = mend.tour.copy(), mend.pos.copy()
            twin._reverse(t[0], t[1])
            want.append(twin._mend(t[2]))
        assert mend._passes(lo, hi, exposed).tolist() == want
        assert 0 < sum(want) < len(want)


def _move_vertex_from_both_lists(mend, i):
    """The vertex move as it read both near lists: the common neighbours
    from intersect1d, by index, the first of those equally near i taken;
    the reference for _move_fits' read of near(x) alone."""
    tour, n = mend.tour, mend.n
    at = mend.pos[np.intersect1d(mend.near(int(tour[i])),
                                 mend.near(int(tour[i + 1])))]
    at = at[mend.grid.within(tour[at - 1], tour[(at + 1) % n])]
    if not at.size:
        return False
    k = int(at[np.argmin(np.abs(at - i))])
    if k > i:
        mend._reverse(i + 1, k)
        mend._reverse(i + 2, k)
    else:
        mend._reverse(k, i)
        mend._reverse(k, i - 1)
    return True


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_move_vertex_reads_the_common_neighbours_from_one_list(p):
    # every hop of tours along rows with a few vertices swapped, long and
    # short hops alike: the vertex move through _move_fits makes the move
    # that intersecting both near lists makes, ties to the lower index
    # included
    rng = np.random.default_rng(8)
    moved = ties = 0
    for n, r in ((40, 0.3), (80, 0.2), (200, 0.12)):
        pts = rng.random((n, 2))
        tour = np.lexsort((pts[:, 0], np.floor(pts[:, 1] / r)))
        for j, k in rng.integers(0, n, (n // 10, 2)):
            tour[[j, k]] = tour[[k, j]]
        mend = tour_repair(pts, p, r, tour)
        for i in range(n - 1):
            twin = copy.copy(mend)
            twin.tour, twin.pos = mend.tour.copy(), mend.pos.copy()
            want = _move_vertex_from_both_lists(twin, i)
            got = copy.copy(mend)
            got.tour, got.pos = mend.tour.copy(), mend.pos.copy()
            assert got._move_vertex(i) == want
            assert np.array_equal(got.tour, twin.tour)
            assert np.array_equal(got.pos, twin.pos)
            moved += want
            at = mend.pos[np.intersect1d(mend.near(int(mend.tour[i])),
                                         mend.near(int(mend.tour[i + 1])))]
            gap = np.abs(at - i)
            ties += bool(want) and (gap == gap.min()).sum() > 1
    assert moved > 50 and ties > 0


def _tries_spy(monkeypatch):
    """Record the first vertex of the hop of each repair, the repairs (by
    call number) that reach their tries, and every block of tries, as
    (tries, near-list entries)."""
    repair, passes = hamiltonian._TourRepair.repair, hamiltonian._TourRepair._passes
    seen = {"hops": [], "tried": set(), "blocks": []}

    def repair_spy(self, i):
        seen["hops"].append(int(self.tour[i]))
        return repair(self, i)

    def passes_spy(self, lo, hi, exposed):
        seen["tried"].add(len(seen["hops"]) - 1)
        x = self.tour[hamiltonian._reversed_at(lo, hi, exposed)]
        seen["blocks"].append((len(lo), sum(len(self.near(u)) for u in x.tolist())))
        return passes(self, lo, hi, exposed)

    monkeypatch.setattr(hamiltonian._TourRepair, "repair", repair_spy)
    monkeypatch.setattr(hamiltonian._TourRepair, "_passes", passes_spy)
    return seen


# cycles whose repairs fall through to their tries (p = 2, 1.5x): n, seed,
# the repairs that reach them, and sha256 of the cycle
TRIED_CYCLES = [
    (10 ** 4, 37, 22,
     "a9380bca14348182c92c5872179efa2c78fa7830bd786f44fda83c022ead2062"),
    (2 * 10 ** 4, 7, 25,
     "baf6e1c829aa443b90432f719e110c4a81f9ec3bee3940360e4bd243005d4d39"),
]


@pytest.mark.parametrize("n, seed, repairs, digest", TRIED_CYCLES)
def test_cycles_built_through_the_tries_are_pinned(monkeypatch, n, seed,
                                                   repairs, digest):
    seen = _tries_spy(monkeypatch)
    out = full_construction(rand_points(n, seed), 2.0,
                            1.5 * threshold_radius(n, 2.0))
    assert out.cells_per_side is None
    assert hashlib.sha256(out.cycle.tobytes()).hexdigest() == digest
    assert len(seen["tried"]) == repairs


# EdgeTooLong at n = 1e4, 1.5x, after a repair that tried every move it
# had: seed -> (position, vertices, degrees), per p
TRIED_FAILURES = {
    2.0: {0: (3870, [7157, 8838], [16, 15]), 3: (5536, [5896, 9435], [10, 13]),
          4: (7, [3534, 6292], [11, 9]), 5: (3781, [6321, 5821], [14, 17])},
    1.0: {0: (414, [4286, 4930], [18, 17]), 3: (2260, [4113, 5625], [8, 18]),
          4: (5934, [3476, 5975], [14, 19]), 5: (7519, [4045, 4711], [17, 12])},
    math.inf: {0: (3763, [8838, 7157], [13, 15]), 3: (8023, [5896, 5481], [8, 12]),
               4: (6519, [2105, 9684], [10, 16]), 5: (2215, [9430, 2130], [9, 11])},
}


@pytest.mark.parametrize("p", [2.0, 1.0, math.inf])
@pytest.mark.parametrize("seed", [0, 3, 4, 5])
def test_failures_after_the_tries_are_pinned(monkeypatch, p, seed):
    seen = _tries_spy(monkeypatch)
    n = 10 ** 4
    with pytest.raises(ConstructionError) as err:
        full_construction(rand_points(n, seed), p, 1.5 * threshold_radius(n, p))
    ctx = err.value.context
    assert err.value.reason is FailureReason.EDGE_TOO_LONG
    assert (ctx["position"], ctx["vertices"], ctx["degrees"]) == TRIED_FAILURES[p][seed]
    assert ctx["connected"] is True
    # the hop that failed went through its tries
    last = len(seen["hops"]) - 1
    assert last in seen["tried"] and seen["hops"][last] == ctx["vertices"][0]


@pytest.mark.parametrize("chunk", [None, 64])
def test_tries_go_in_blocks_of_at_most_pair_chunk_entries(monkeypatch, chunk):
    # two clusters 0.01 wide, 0.8 apart at r = 0.05: every vertex has about
    # n/2 neighbours, no try can mend the hop between the clusters, and
    # every block is tested before the answer, Disconnected
    if chunk is not None:
        monkeypatch.setattr(instance, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(hamiltonian, "_PAIR_CHUNK", chunk)
    cap = hamiltonian._PAIR_CHUNK
    seen = _tries_spy(monkeypatch)
    n = 2000
    rng = np.random.default_rng(11)
    pts = np.vstack([0.1 + 0.01 * rng.random((n // 2, 2)),
                     0.9 + 0.01 * rng.random((n // 2, 2))])
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, 0.05)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert sum(tries for tries, _ in seen["blocks"]) > n // 2
    assert len(seen["blocks"]) > 1
    assert all(tries == 1 or entries <= cap for tries, entries in seen["blocks"])


@pytest.mark.parametrize("first", [1, 2, 3, 256])
def test_isolated_vertex_is_the_first_in_the_order_given(monkeypatch, first):
    # batches only decide where the search stops, never which vertex it names
    monkeypatch.setattr(instance, "_FIRST_BATCH", first)
    rng = np.random.default_rng(7)
    for n, mult in ((300, 0.5), (300, 0.9), (1000, 0.7), (1000, 1.3)):
        pts = rng.random((n, 2))
        r = mult * threshold_radius(n, 2.0)
        near = lp_norms(2.0, pts[:, None, 0] - pts[None, :, 0],
                        pts[:, None, 1] - pts[None, :, 1]) <= r
        alone = near.sum(axis=1) == 1   # within r of itself only
        grid = build_spatial_index(VertexSet(pts), r, 2.0)
        for u in (np.arange(n), rng.permutation(n), rng.permutation(n)[:n // 3]):
            want = next((int(v) for v in u if alone[v]), None)
            assert _isolated_vertex(grid, u) == want


# instances where the tessellation path gives up without a certificate:
# a dense square with no close dense cell pair towards its friends splits
# the augmented graph; at p = 1, where a square's l_1 diameter 2/m exceeds
# r, a hop between two cells of one square can be longer than r
SPLIT = (FailureReason.DISCONNECTED, "augmented graph splits")
LONG_HOP = (FailureReason.EDGE_TOO_LONG, None)
TESSELLATION_GIVES_UP = {(10000, 1.0, 0.45, 0): SPLIT,
                         (10000, 1.0, 0.45, 1): SPLIT,
                         (60000, 2.0, 0.2, 0): SPLIT,
                         (50000, 1.0, 0.3, 0): LONG_HOP,
                         (50000, 1.0, 0.3, 1): LONG_HOP}
# the long hops, rggham gen's seeds 0 and 1 of 12 at n = 5e4, p = 1, r = 0.3
# (seed 0 also pinned in the CI smoke run): the attempt's first hop longer
# than r, its position and length, and the sha256 of the fallback's cycle
LONG_HOPS = {
    0: (16718, 0.30759793445730854,
        "4664bd9a16e4d2c8bbf69b564d2e80ef50ff2692cce052549fe9b86d5697c77a"),
    1: (45848, 0.3123048955369575,
        "91925ebd4dcc1b599709f2502b3be2b7051ae5542f82c4ece9497043a595bd4e")}


@pytest.mark.parametrize("n, p, r, seed", list(TESSELLATION_GIVES_UP))
def test_split_augmented_graph_falls_back(n, p, r, seed):
    # the points themselves are connected, so the tessellation's failure is
    # no certificate and the fallback builds the cycle
    pts = rand_points(n, seed)
    with pytest.raises(ConstructionError) as err:
        t = build_tessellation(p, r, 4)
        _tessellation_cycle(pts, t, classify_cells(t, VertexSet(pts)))
    reason, detail = TESSELLATION_GIVES_UP[n, p, r, seed]
    assert err.value.reason is reason
    assert err.value.context.get("detail") == detail
    out = full_construction(pts, p, r)
    assert out.cells_per_side is None
    assert verify_cycle(pts, r, p, out.cycle).valid
    if reason is FailureReason.EDGE_TOO_LONG:
        position, distance, digest = LONG_HOPS[seed]
        ctx = err.value.context
        assert (ctx["position"], ctx["distance"]) == (position, distance)
        assert hashlib.sha256(out.cycle.tobytes()).hexdigest() == digest


def test_hook_missing_beside_dense_squares_falls_back(monkeypatch):
    # seed 3 at n = 5e4, p = inf, 25x (rggham gen's points and radius): the
    # attempt finds 4 dense squares, hooks the first sparse cells, stops at
    # HookMissing at cell (7, 0), and the fallback builds the cycle, pinned
    # by its sha256 (also pinned in the CI smoke run)
    raised = []

    def spy(t, cls, dg):
        try:
            return attach_sparse_groups(t, cls, dg)
        except ConstructionError as err:
            raised.append((err.reason, err.context["cell"], len(dg.square_ids)))
            raise

    monkeypatch.setattr(hamiltonian, "attach_sparse_groups", spy)
    n = 50000
    out = full_construction(rand_points(n, 3), math.inf,
                            25 * threshold_radius(n, math.inf))
    assert raised == [(FailureReason.HOOK_MISSING, [7, 0], 4)]
    assert out.cells_per_side is None
    assert hashlib.sha256(out.cycle.tobytes()).hexdigest() == (
        "faf5080df51ad6a58d5c85a4de0886ba3e197764ca7eb987d4ad1af1fbb2b177")


# --------------------------------------------------------------------------
# the screen that skips the tessellation where no cell can be dense
# --------------------------------------------------------------------------

def spy_on_classify(monkeypatch):
    """A list that grows by one at every classify_cells call of
    full_construction."""
    calls = []

    def spy(t, vs):
        calls.append(t)
        return classify_cells(t, vs)

    monkeypatch.setattr(hamiltonian, "classify_cells", spy)
    return calls


def screen(pts, t):
    """_may_hold_dense_cell on the fallback's grid, as full_construction
    builds it."""
    return hamiltonian._may_hold_dense_cell(
        t, instance._grid(pts, t.radius, t.p))


def fullest_grid_cell(pts, t):
    return int(np.diff(instance._grid(pts, t.radius, t.p).starts).max())


@pytest.mark.parametrize("count", [DENSE_THRESHOLD - 1, DENSE_THRESHOLD])
def test_screen_skips_only_without_a_cell_of_48(monkeypatch, count):
    # the cell at the top right corner of a square whose right and top
    # edges are block edges of the screen, s = isqrt(count) = 6 blocks a side
    t = build_tessellation(2.0, 0.02, 4)
    m, k, s = t.squares_per_side, t.cells_per_side, math.isqrt(count)
    assert count < DENSE_THRESHOLD * s * s     # the screen counts
    q = next(q for q in range(m - 1) if q * s // m != (q + 1) * s // m)
    pts = cell_points(t, q * k + k - 1, q * k + k - 1, count)
    assert 4 * fullest_grid_cell(pts, t) >= DENSE_THRESHOLD    # undecided
    assert screen(pts, t) is (count == DENSE_THRESHOLD)
    calls = spy_on_classify(monkeypatch)
    out = full_construction(pts, 2.0, 0.02)
    # one dense cell and nothing else: the tessellation builds the cycle
    assert out.cells_per_side == (4 if count == DENSE_THRESHOLD else None)
    assert len(calls) == (count == DENSE_THRESHOLD)
    assert verify_cycle(pts, 0.02, 2.0, out.cycle).valid


@pytest.mark.parametrize("r, k", [(0.3, 6), (0.3, 4), (0.35, 6), (0.45, 4),
                                  (0.6, 4), (1.0, 4)])
def test_screen_files_edge_points_in_their_cells_square(r, k):
    # n = 48 and m <= 6 make every square its own block. A point an ulp
    # either side of a square edge, on it, or at 1.0 goes with 47 points
    # in the middle of the cell classify_cells files it in; at m = k = 6,
    # x = 5/6 lies in square 4, though floor(x * m) = 5
    t = build_tessellation(2.0, r, k)
    m, g = t.squares_per_side, t.grid
    assert min(m, math.isqrt(DENSE_THRESHOLD)) == m
    edges = [e for j in range(1, m) for e in
             (np.nextafter(j / m, 0.0), j / m, np.nextafter(j / m, 1.0))]
    for x in edges + [1.0]:
        for edge in ([x, 0.5], [0.5, x], [x, x]):
            cell = int(classify_cells(t, VertexSet(np.array([edge]))).cells[0])
            mid = [(cell % g + 0.5) / g, (cell // g + 0.5) / g]
            pts = np.array([edge] + [mid] * (DENSE_THRESHOLD - 1))
            assert classify_cells(t, VertexSet(pts)).dense_mask.any()
            assert screen(pts, t), (x, edge)


def worst_radii():
    """Radii r <= 1 either side of each jump of m = floor(2 / r): the
    least r of each m, where the grid side is the largest against the
    tessellation's, and the float below 2 / m."""
    for m in range(2, 60):
        low = np.nextafter(2.0 / (m + 1), 2.0)
        while math.floor(2.0 / low) != m:
            low = np.nextafter(low, 2.0)
        high = np.nextafter(2.0 / m, 0.0)
        yield from (float(low), float(high))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_grid_cells_are_wider_than_tessellation_cells(p):
    # the screen's grid bound needs the grid at most 7/8 as fine as the
    # tessellation; 7/8 is reached at p = 1, r an ulp above 2/3, k = 4
    worst = 0.0
    for r in list(worst_radii()) + [1e-3, 1e-6, 3e-9]:
        for k in (4, 5, 6, 8, 64):
            if tessellation_fits(r, k):
                t = build_tessellation(p, r, k)
                worst = max(worst, instance._grid_side(r, p) / t.grid)
    assert worst <= 7 / 8
    assert (worst == 7 / 8) is (p == 1.0)


def test_grid_bound_needs_the_coarser_grid(monkeypatch):
    # on a grid 4 times as fine as the tessellation, 48 points of one cell
    # spread over 16 grid cells, 3 or 4 each: the bound would skip the
    # dense cell, so only the block count may answer there
    t = build_tessellation(2.0, 0.02, 4)
    pts = cell_points(t, 5, 5, DENSE_THRESHOLD)
    monkeypatch.setattr(instance, "_grid_side", lambda r, p: 4 * t.grid)
    assert 4 * fullest_grid_cell(pts, t) < DENSE_THRESHOLD
    assert screen(pts, t)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_grid_bound_keeps_a_dense_cell_at_the_worst_radii(p, k):
    # 48 points in one cell of the tessellation: the cell (c, c) that holds
    # the grid's first line 1 / side, and the last cell. They sit at the
    # cell's centre and edges, on grid lines and at 1.0, and an ulp either
    # side of each, wherever classify_cells files that in the cell. The
    # grid bound must keep the attempt however they fall; with 12 points in
    # each of the 2 x 2 grid cells a cell straddles, the bound is tight
    straddled = 0
    for r in list(worst_radii())[:12]:
        if not tessellation_fits(r, k):
            continue
        t = build_tessellation(p, r, k)
        g, side = t.grid, instance._grid_side(r, p)
        for col in (g // side, g - 1):
            lines = [col / g, (col + 0.5) / g, (col + 1) / g, 1 / side,
                     (side - 1) / side, 1.0]
            near = sorted({float(v) for x in lines for v in
                           (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))
                           if 0.0 <= v <= 1.0 and min(int(v * g), g - 1) == col})
            spots = np.array([[x, y] for x in near for y in near])
            pts = spots[np.arange(DENSE_THRESHOLD) % len(spots)]
            assert classify_cells(t, VertexSet(pts)).cells.tolist() == [col * g + col]
            assert screen(pts, t), (r, col)
            # one coordinate per grid column the cell reaches: two at most
            by_grid = {min(int(v * side), side - 1): v for v in near}
            assert len(by_grid) <= 2
            if len(by_grid) == 2:
                pts = np.repeat([[x, y] for x in by_grid.values()
                                 for y in by_grid.values()], 12, axis=0)
                assert fullest_grid_cell(pts, t) == 12
                assert classify_cells(t, VertexSet(pts)).dense_mask.any()
                assert screen(pts, t), (r, col)
                straddled += 1
    assert straddled


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_screen_never_skips_a_dense_cell(p):
    # uniform points and up to 3 clusters of 30 to 70 about a cell wide;
    # the grid bound and the block count are each checked on their own
    rng = np.random.default_rng(11)
    skipped = {"grid": 0, "blocks": 0}
    kept = 0
    for _ in range(60):
        n = int(rng.integers(200, 3000))
        r = float(rng.uniform(0.005, 0.2))
        t = build_tessellation(p, r, int(rng.choice([4, 6, 8])))
        pts = rng.random((n, 2))
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(30, 70))
            centre = rng.random(2)
            blob = centre + rng.normal(scale=t.cell_side / 4, size=(size, 2))
            pts = np.vstack((pts, np.clip(blob, 0.0, 1.0)))
        dense = classify_cells(t, VertexSet(pts)).dense_mask.any()
        if 4 * fullest_grid_cell(pts, t) < DENSE_THRESHOLD:
            assert not dense
            skipped["grid"] += 1
        if hamiltonian._densest_block(pts, t) < DENSE_THRESHOLD:
            assert not dense
            skipped["blocks"] += 1
        if not screen(pts, t):
            assert not dense
        else:
            kept += 1
    assert all(skipped.values()) and kept


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_skipping_the_tessellation_changes_only_speed(monkeypatch, p):
    def answer(pts, r):
        try:
            out = full_construction(pts, p, r)
        except ConstructionError as exc:
            return exc.reason, exc.context
        return out.cells_per_side, out.cycle.tobytes()

    cases = [(rand_points(n, seed), mult * threshold_radius(n, p))
             for n, seed in ((2000, 0), (10000, 1))
             for mult in (0.5, 0.7, 1.0, 1.2, 1.5, 2.0)]
    calls = spy_on_classify(monkeypatch)
    screened = [answer(pts, r) for pts, r in cases]
    assert calls == []      # no cell can be dense: every attempt skipped
    monkeypatch.setattr(hamiltonian, "_may_hold_dense_cell",
                        lambda t, grid: True)
    assert [answer(pts, r) for pts, r in cases] == screened
    assert len(calls) == len(cases)


@pytest.mark.parametrize("mult", [0.7, 1.0, 1.5, 2.0])
def test_no_classification_near_the_threshold(monkeypatch, mult):
    calls = spy_on_classify(monkeypatch)
    n = 50000
    try:
        full_construction(rand_points(n, 3), 2.0, mult * threshold_radius(n, 2.0))
    except ConstructionError:
        pass
    assert calls == []


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("mult", [0.7, 1.0, 1.5, 2.0])
def test_one_bucketing_per_trial_near_the_threshold(monkeypatch, p, mult):
    # the screen, the repair and the connectivity check all read one grid;
    # at p = 2 the grid bound alone decides the screen
    bucketed, counted = [], []
    occupied, densest_block = instance.occupied_cells, hamiltonian._densest_block

    def spy(points, side):
        bucketed.append(side)
        return occupied(points, side)

    def densest(points, t):
        counted.append(t)
        return densest_block(points, t)

    monkeypatch.setattr(instance, "occupied_cells", spy)
    monkeypatch.setattr(tessellation, "occupied_cells", spy)
    monkeypatch.setattr(hamiltonian, "_densest_block", densest)
    n = 50000
    r = mult * threshold_radius(n, p)
    try:
        full_construction(rand_points(n, 1), p, r)
    except ConstructionError:
        pass
    assert bucketed == [instance._grid_side(r, p)]
    if p == 2.0:
        assert counted == []


def test_fallback_screen_names_the_isolated_vertex_at_threshold():
    # seed 0 at n = 5e4, p = 2, 1.0x: the fallback's screen names the
    # isolated vertex before any repair (also pinned in the CI smoke run)
    n = 50000
    with pytest.raises(ConstructionError) as err:
        full_construction(rand_points(n, 0), 2.0, threshold_radius(n, 2.0))
    ctx = err.value.context
    assert err.value.reason is FailureReason.DISCONNECTED
    assert (ctx["detail"], ctx["vertex"]) == (
        "a vertex has no neighbour within r", 35628)


# n = 2e4, 5x, seed 1, where the screen's grid bound does not decide (the
# fullest grid cell holds 20 points at p = 2 and 18 at p = 1): p, the
# densest block, whether the attempt runs, and sha256 of the int64 cycle
# (also pinned in the CI smoke run)
UNDECIDED_SCREENS = [
    (2.0, 35, False,
     "f64411a9c3b4ce511fe177bde1e473049b1c7960da5baaad6500fa7673d6291a"),
    (1.0, 49, True,
     "20a13e6b95872e29ccd61b8fcac0c2be63a03f2f9dc7fe8278b93ab9eaf06ff5"),
]


@pytest.mark.parametrize("p, block, attempted, digest", UNDECIDED_SCREENS)
def test_cycles_past_an_undecided_screen_are_pinned(monkeypatch, p, block,
                                                    attempted, digest):
    # at p = 2 the block count skips the attempt; at p = 1 the attempt runs
    # and fails, and the fallback reuses the screen's grid
    bucketed, counted = [], []
    occupied, densest_block = instance.occupied_cells, hamiltonian._densest_block

    def spy(points, side):
        bucketed.append(side)
        return occupied(points, side)

    def densest(points, t):
        counted.append(densest_block(points, t))
        return counted[-1]

    monkeypatch.setattr(instance, "occupied_cells", spy)
    monkeypatch.setattr(tessellation, "occupied_cells", spy)
    monkeypatch.setattr(hamiltonian, "_densest_block", densest)
    calls = spy_on_classify(monkeypatch)
    n = 20000
    r = 5 * threshold_radius(n, p)
    out = full_construction(rand_points(n, 1), p, r)
    assert out.cells_per_side is None
    assert counted == [block]
    assert len(calls) == attempted
    assert bucketed == [instance._grid_side(r, p)] + [t.grid for t in calls]
    assert out.cycle.dtype == np.int64
    assert hashlib.sha256(out.cycle.tobytes()).hexdigest() == digest


# --------------------------------------------------------------------------
# golden cycles: the construction's output, pinned bit for bit
# --------------------------------------------------------------------------

# sha256 of full_construction(PCG64(seed).random((n, 2)), p, r).cycle as
# int64 bytes, with the cells per square side it reports
GOLDEN = [
    # tessellation path, no group nodes
    (20000, 1.0, 0.45, 0, 4,
     "9d83c0ccec09bbed87b53434989d4e8840a934a5f4e57ec236095b1620ab764b"),
    (20000, 2.0, 0.45, 0, 4,
     "b35b8d50f10a96926654571d02827224ed5b72ff7b54de3e7be8d11a1dc4f26c"),
    (20000, 3.0, 0.45, 0, 4,
     "65ecb064223e2da566aeeb805965c95007166feafe079255b3dfc0b2ece72fcc"),
    (20000, math.inf, 0.45, 0, 4,
     "af12421946ce83f74e113388cdc1daf97245307cd03d34b409cbb1c407a57624"),
    # tessellation path through 15 and 8 group nodes
    (10000, 2.0, 0.45, 1, 4,
     "0d62903425cc616058ff65ee40b6d43bf0a8c2f457d252f64d2cc8985d5f3d8a"),
    (10000, math.inf, 0.45, 1, 4,
     "f4a2c107b85678ef8f5069453e0ba676b96276b902e8d27f2e20915dc4fb1b68"),
    # serpentine fallback at 2x threshold
    (10000, 2.0, 2.0 * threshold_radius(10000, 2.0), 0, None,
     "92328c1baceadfe0dd8b67659aaff57029fab500c96c16a1341d4ea6a5a46df2"),
]


@pytest.mark.parametrize("n, p, r, seed, k, digest", GOLDEN)
def test_golden_cycle(monkeypatch, n, p, r, seed, k, digest):
    calls = spy_on_classify(monkeypatch)
    out = full_construction(rand_points(n, seed), p, r)
    assert out.cells_per_side == k
    # the screen lets every tessellation case through, and skips the
    # fallback case, where no cell holds 48 points
    assert len(calls) == (k is not None)
    assert out.cycle.dtype == np.int64
    assert hashlib.sha256(out.cycle.tobytes()).hexdigest() == digest


# --------------------------------------------------------------------------
# input checks at the library boundary
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [(-0.1, 0.5), (1.5, 0.5), (0.5, math.nan),
                                 (math.inf, 0.5)])
@pytest.mark.parametrize("r", [0.3, 1.5])
def test_full_construction_rejects_points_outside_the_square(bad, r):
    pts = rand_points(200, 0)
    pts[7] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]\^2"):
        full_construction(pts, 2.0, r)


@pytest.mark.parametrize("p", [math.nan, 0.0, 0.5, -1.0])
def test_verify_cycle_rejects_an_exponent_below_1(p):
    # at NaN a random permutation of 1,000 points used to pass at r = 0.01;
    # at 0 the norm divided by zero; below 1 the l_1 screen is unsound
    pts = rand_points(1000, 0)
    cyc = np.random.default_rng(0).permutation(1000)
    with pytest.raises(ValueError, match="p >= 1"):
        verify_cycle(pts, 0.01, p, cyc)


@pytest.mark.parametrize("shape", [(50,), (50, 1), (50, 3)])
def test_point_arrays_must_have_two_columns(shape):
    # (50,) and (50, 1) used to raise IndexError; (50, 3) got a cycle at
    # r = 0.5 and 1.5 from its first two columns, and a ValueError at 0.05
    pts = np.random.default_rng(0).random(shape)
    for r in (0.05, 0.5, 1.5):
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            full_construction(pts, 2.0, r)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        verify_cycle(pts, 0.5, 2.0, np.arange(50))


def test_verify_cycle_takes_points_outside_the_square():
    pts = np.array([[-1.0, 0.0], [2.0, 0.0], [0.5, 3.0]])
    assert verify_cycle(pts, 4.0, 2.0, np.array([0, 1, 2])).valid


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("r", [1e-9, 2e-9, 1e-200, 5e-324])
def test_tiny_radius_is_a_value_error(p, r):
    # 2e-9 leaves fewer than 2^32 cells per side, but their flat ids squared
    # already overflow int64: build_tessellation refuses such radii, so
    # full_construction leaves the instance to the fallback (2 / 5e-324 is
    # infinite, and refused the same way)
    assert not tessellation_fits(r, 4)
    with pytest.raises(ValueError, match="int64"):
        build_tessellation(p, r, 4)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("r", [1e-6, 1e-9, 2e-9, 1e-200, 5e-324])
def test_tiny_radius_fails_typed(p, r):
    # 1e-6 tessellates sparsely and falls back at HookMissing; below that
    # the flat ids of the tessellation's cells would overflow int64, so the
    # fallback answers alone. Below about 1e-162 r * r underflows to 0, and
    # at 5e-324 2 / r is infinite. Spread points are isolated; coincident
    # ones are a clique, and get a cycle
    for pts in (rand_points(1000, 0), rand_points(10, 1)):
        with pytest.raises(ConstructionError) as err:
            full_construction(pts, p, r)
        assert err.value.reason is FailureReason.DISCONNECTED
        assert err.value.context["radius"] == r
    for xy in ([0.3, 0.7], [1.0, 1.0]):
        same = np.array([xy] * 10)
        out = full_construction(same, p, r)
        assert out.cells_per_side is None
        assert verify_cycle(same, r, p, out.cycle).valid


def test_tiny_radius_runs_in_little_memory():
    # about 466 TiB of per-cell arrays at r = 1e-6 before the grid was
    # sparse; every tiny radius now fits under a 2 GB address-space cap
    code = textwrap.dedent("""
        import math, resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        import numpy as np
        from rggham.failures import ConstructionError
        from rggham.hamiltonian import full_construction
        pts = np.random.Generator(np.random.PCG64(0)).random((1000, 2))
        for r in (1e-6, 1e-9, 2e-9):
            for p in (1.0, 2.0, math.inf):
                try:
                    full_construction(pts, p, r)
                except ConstructionError as exc:
                    print(exc.reason.value)
    """)
    src = str(pathlib.Path(hamiltonian.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["Disconnected"] * 9


def test_adjacent_clumps_at_k64_run_in_little_memory():
    # k = 64, where a square offset has 16.7M close cell pairs: under a
    # 400 MB address-space cap the construction must still end in its typed
    # failure, not in a MemoryError
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (400_000 << 10, 400_000 << 10))
        from helpers import adjacent_clumps
        from rggham.failures import ConstructionError
        from rggham.hamiltonian import full_construction
        pts, r = adjacent_clumps()
        try:
            full_construction(pts, 2.0, r)
        except ConstructionError as exc:
            print(exc.reason.value)
    """)
    src = pathlib.Path(hamiltonian.__file__).resolve().parents[1]
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["EdgeTooLong"]
