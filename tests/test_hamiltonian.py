import hashlib
import math
import time

import numpy as np
import pytest

from helpers import cell_points
from rggham.auxgraphs import (attach_sparse_groups, build_density_graph,
                               spanning_tree)
from rggham.failures import ConstructionError, FailureReason
from rggham.geometry import lp_norms
from rggham.hamiltonian import (UsageLedger, _serpentine_orders,
                                full_construction, verify_cycle)
from rggham.instance import VertexSet, threshold_radius
from rggham.tessellation import (DENSE_THRESHOLD, build_tessellation,
                                 cells_close, classify_cells)


def rand_points(n, seed):
    return np.random.Generator(np.random.PCG64(seed)).random((n, 2))


# --------------------------------------------------------------------------
# usage ledger
# --------------------------------------------------------------------------

def make_ledger(t, blocks):
    cls = classify_cells(t, VertexSet(np.vstack(blocks)))
    return cls, UsageLedger(cls)


def test_ledger_takes_ascending_until_cap():
    t = build_tessellation(2.0, 0.5, 4)
    cls, ledger = make_ledger(t, [cell_points(t, 0, 0, 60),
                                  cell_points(t, 5, 5, 2)])
    got = [ledger.take(0) for _ in range(DENSE_THRESHOLD)]
    assert got == sorted(got)
    assert set(got) <= set(range(60))
    with pytest.raises(ConstructionError) as err:
        ledger.take(0)
    assert err.value.reason is FailureReason.LEDGER_EXHAUSTED
    assert err.value.context == {"cell": 0, "occupancy": 60,
                                 "withdrawn": DENSE_THRESHOLD}


def test_ledger_take_from_empty_cell():
    t = build_tessellation(2.0, 0.5, 4)
    cls, ledger = make_ledger(t, [cell_points(t, 0, 0, 3)])
    with pytest.raises(ConstructionError) as err:
        ledger.take(1)
    assert err.value.reason is FailureReason.LEDGER_EXHAUSTED
    assert err.value.context["occupancy"] == 0


def test_ledger_drain_is_uncounted_remainder():
    t = build_tessellation(2.0, 0.5, 4)
    cls, ledger = make_ledger(t, [cell_points(t, 0, 0, 60)])
    first = [ledger.take(0) for _ in range(3)]
    assert ledger.remaining(0) == 57
    rest = list(ledger.drain(0))
    assert len(rest) == 57
    assert sorted(first + rest) == list(cls.cell_members(0))
    assert ledger.remaining(0) == 0
    with pytest.raises(ConstructionError):
        ledger.take(0)          # empty now, regardless of cap


def test_ledger_drains_cells_in_turn():
    t = build_tessellation(2.0, 0.5, 4)
    cls, ledger = make_ledger(t, [cell_points(t, 0, 0, 5),
                                  cell_points(t, 2, 0, 4),
                                  cell_points(t, 1, 0, 3)])
    taken = ledger.take(1)
    got = ledger.drain([2, 0, 1, 3]).tolist()
    assert got == [5, 6, 7, 8, 0, 1, 2, 3, 4, 10, 11]
    assert taken == 9
    assert ledger.drain([0, 2]).size == 0


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
        for bound in (np.nextafter(longest, 0), longest,
                      np.nextafter(longest, 1)):
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
        cu = t.locate(pts[u, 0], pts[u, 1])
        cv = t.locate(pts[v, 0], pts[v, 1])
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
                 if t.locate(pts[v, 0], pts[v, 1]) == (3, 0)}
    assert cyc[min(at) - 1] in hook_cell
    assert cyc[(max(at) + 1) % len(cyc)] in hook_cell

    # cell (6,6) hooks into the bridge cell instead
    at3 = cyc.index(idx["g3"][0])
    bridge = set(idx["bridge"])
    assert cyc[at3 - 1] in bridge and cyc[(at3 + 1) % len(cyc)] in bridge


def test_full_construction_validates_arguments():
    pts = rand_points(2, 0)
    with pytest.raises(ValueError):
        full_construction(pts, 2.0, 0.5)
    with pytest.raises(ValueError):
        full_construction(rand_points(10, 0), 2.0, 0.0)
    with pytest.raises(ValueError):
        full_construction(rand_points(10, 0), 0.5, 0.4)


def test_full_construction_k_override():
    # finer cells need more points per cell to stay dense
    pts = rand_points(40000, 2)
    out = full_construction(pts, 2.0, WORKING["r"], cells_per_square=6)
    assert out.cells_per_side == 6
    assert verify_cycle(pts, WORKING["r"], 2.0, out.cycle).valid


def test_degenerate_radius_uses_angular_order():
    pts = rand_points(50, 3)
    out = full_construction(pts, 2.0, 1.5)
    assert out.cells_per_side is None
    # every pair is within 1.5 in the unit square, so validity is certain
    assert verify_cycle(pts, 1.5, 2.0, out.cycle).valid


def test_degenerate_radius_failure_is_typed():
    rng = np.random.default_rng(4)
    a = 0.01 * rng.random((5, 2))
    b = 1.0 - 0.01 * rng.random((5, 2))
    pts = np.vstack([a, b])
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, 2.0, 1.01)
    assert err.value.reason is FailureReason.RADIUS_DEGENERATE
    assert err.value.context["distance"] > 1.01


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


@pytest.mark.parametrize("n, p, r, seed", [(10000, 1.0, 0.45, 0),
                                           (10000, 1.0, 0.45, 1),
                                           (60000, 2.0, 0.2, 0)])
def test_split_augmented_graph_falls_back(n, p, r, seed):
    # a dense square with no close dense cell pair towards its friends
    # splits the augmented graph; the points themselves are connected, so
    # the split is no certificate and the fallback builds the cycle
    pts = rand_points(n, seed)
    t = build_tessellation(p, r, 4)
    cls = classify_cells(t, VertexSet(pts))
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.context["detail"] == "augmented graph splits"
    out = full_construction(pts, p, r)
    assert out.cells_per_side is None
    assert verify_cycle(pts, r, p, out.cycle).valid


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
     "9452e1d9fbfbb6df69a427476d5199c6da8938b99948e57deb9a6a06bf77e031"),
]


@pytest.mark.parametrize("n, p, r, seed, k, digest", GOLDEN)
def test_golden_cycle(n, p, r, seed, k, digest):
    out = full_construction(rand_points(n, seed), p, r)
    assert out.cells_per_side == k
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


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("r", [1e-9, 2e-9])
def test_tiny_radius_is_a_value_error(p, r):
    # 2e-9 leaves fewer than 2^32 cells per side, but their flat ids squared
    # already overflow int64
    with pytest.raises(ValueError, match="resolution"):
        full_construction(rand_points(10, 0), p, r)
