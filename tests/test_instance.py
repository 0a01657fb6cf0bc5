import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_of_side, window_reach
from rggham import instance
from rggham.failures import ConstructionError, FailureReason
from rggham.geometry import lp_distance, lp_norms
from rggham.hamiltonian import full_construction
from rggham.instance import (EpsilonAbove, EpsilonBelow, ExplicitRadius,
                             InstanceConfig, ThresholdMultiple, VertexSet,
                             build_spatial_index, find_slots,
                             is_connected, max_radius, occupied_cells,
                             radix_sort, resolve_radius, sample_points,
                             threshold_radius, validate_points)

# frozen reference radii, checked against direct sqrt(log n / (area n))
THRESHOLD_CASES = [
    (100, 2.0, 0.1210731678679820),
    (100, math.inf, 0.1072983013144674),
    (3, 1.0, 0.4279042511022198),
]


@pytest.mark.parametrize("n,p,want", THRESHOLD_CASES)
def test_threshold_radius_frozen_values(n, p, want):
    assert threshold_radius(n, p) == pytest.approx(want, rel=1e-14)


def test_threshold_radius_rejects_tiny_n():
    with pytest.raises(ValueError):
        threshold_radius(2, 2.0)


def test_threshold_radius_decreases_in_n():
    radii = [threshold_radius(n, 2.0) for n in (10, 100, 1000, 10000)]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_resolve_explicit_radius_passthrough_and_bounds():
    assert resolve_radius(100, 2.0, ExplicitRadius(0.3)) == 0.3
    for bad in (0.0, -0.1, max_radius(2.0) * 1.01):
        with pytest.raises(ValueError):
            resolve_radius(100, 2.0, ExplicitRadius(bad))


def test_resolve_eps_above():
    # area shrunk by eps means a radius above threshold
    r = resolve_radius(100, 2.0, EpsilonAbove(math.pi / 2))
    assert r == pytest.approx(0.1712233160383746, rel=1e-14)
    assert r > threshold_radius(100, 2.0)
    with pytest.raises(ValueError):
        resolve_radius(100, 2.0, EpsilonAbove(math.pi))
    with pytest.raises(ValueError):
        resolve_radius(100, 2.0, EpsilonAbove(0.0))


def test_resolve_eps_below():
    r = resolve_radius(100, 2.0, EpsilonBelow(1.0))
    assert r < threshold_radius(100, 2.0)
    with pytest.raises(ValueError):
        resolve_radius(100, 2.0, EpsilonBelow(-1.0))


def test_resolve_threshold_multiple():
    t = threshold_radius(500, 1.0)
    assert resolve_radius(500, 1.0, ThresholdMultiple(2.0)) == 2.0 * t
    with pytest.raises(ValueError):
        resolve_radius(500, 1.0, ThresholdMultiple(0.0))


def test_max_radius_values():
    assert max_radius(math.inf) == pytest.approx(math.sqrt(2.0))
    assert max_radius(2.0) == pytest.approx(2.0)
    assert max_radius(1.0) == pytest.approx(2.0 * math.sqrt(2.0))


def test_instance_config_validation():
    with pytest.raises(ValueError):
        InstanceConfig(n=2, p=2.0, radius=ExplicitRadius(0.1), seed=0)
    with pytest.raises(ValueError):
        InstanceConfig(n=100, p=0.5, radius=ExplicitRadius(0.1), seed=0)
    # an n that is not an integer, even a whole float, is refused before
    # numpy's sampler sees it
    for n in (1000.5, 1000.0, np.float64(1000.0), "1000"):
        with pytest.raises(ValueError, match="integer"):
            InstanceConfig(n=n, p=2.0, radius=ExplicitRadius(0.1), seed=0)
    cfg = InstanceConfig(n=100, p=2.0, radius=ThresholdMultiple(2.0), seed=0)
    assert cfg.resolved_radius() == 2.0 * threshold_radius(100, 2.0)
    # numpy integers are integers
    for n in (np.int64(100), np.int32(100), np.uint16(100)):
        cfg = InstanceConfig(n=n, p=2.0, radius=ExplicitRadius(0.1), seed=0)
        assert len(sample_points(cfg)) == 100


def test_sampling_is_bit_reproducible():
    cfg = InstanceConfig(n=1000, p=2.0, radius=ExplicitRadius(0.1), seed=123)
    a = sample_points(cfg).points
    b = sample_points(cfg).points
    assert np.array_equal(a, b)
    c = sample_points(InstanceConfig(n=1000, p=2.0,
                                     radius=ExplicitRadius(0.1), seed=124)).points
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() < 1.0


def test_sampling_frozen_first_rows():
    # PCG64 stream stability: first draws for seed 0 are pinned
    pts = sample_points(InstanceConfig(n=3, p=2.0,
                                       radius=ExplicitRadius(0.1), seed=0)).points
    want = np.random.Generator(np.random.PCG64(0)).random((3, 2))
    assert np.array_equal(pts, want)


def test_vertex_set_shape_checks():
    with pytest.raises(ValueError):
        VertexSet(np.zeros((3, 3)))
    vs = VertexSet([[0.1, 0.2], [0.3, 0.4]])
    assert vs.points.dtype == np.float64
    assert len(vs) == 2


def test_csv_roundtrip_exact(tmp_path):
    cfg = InstanceConfig(n=257, p=2.0, radius=ExplicitRadius(0.1), seed=9)
    vs = sample_points(cfg)
    path = tmp_path / "pts.csv"
    vs.to_csv(path)
    back = VertexSet.from_csv(path)
    assert np.array_equal(vs.points, back.points)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        VertexSet.from_csv(path)


def test_csv_rejects_out_of_square_and_nonfinite(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("x,y\n0.5,0.5\n1.5,0.2\n")
    with pytest.raises(ValueError, match="line 3"):
        VertexSet.from_csv(path)
    path.write_text("x,y\n0.5,nan\n")
    with pytest.raises(ValueError, match="line 2"):
        VertexSet.from_csv(path)


def test_csv_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "fields.csv"
    path.write_text("x,y\n0.1,0.2,0.3\n")
    with pytest.raises(ValueError, match="line 2"):
        VertexSet.from_csv(path)


# --------------------------------------------------------------------------
# spatial index and connectivity
# --------------------------------------------------------------------------

def test_adjacent_matches_direct_distance():
    # two points are connected iff they are adjacent
    rng = np.random.default_rng(7)
    pts = rng.random((80, 2))
    r = 0.2
    for p in (1.0, 2.0, math.inf):
        for u in range(0, 80, 5):
            for v in range(u + 1, 80, 7):
                want = lp_distance(p, pts[u], pts[v]) <= r
                pair = VertexSet(pts[[u, v]])
                assert is_connected(build_spatial_index(pair, r, p)) == want


def _brute_connected(points, r, p):
    """Search over all pairs, with the edge test lp_norms(...) <= r.

    Pairs more than 2r apart in x are skipped: lp_norms is at least |dx| for
    every p, so they are never adjacent, rounding included.
    """
    by_x = np.argsort(points[:, 0], kind="stable")
    xs = points[by_x, 0]
    seen = np.zeros(len(points), dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        x = points[u, 0]
        w = by_x[np.searchsorted(xs, x - 2.0 * r):
                 np.searchsorted(xs, x + 2.0 * r, "right")]
        d = points[w] - points[u]
        new = w[~seen[w] & (lp_norms(p, d[:, 0], d[:, 1]) <= r)]
        seen[new] = True
        stack.extend(new.tolist())
    return bool(seen.all())


def test_is_connected_simple_cases():
    two_far = VertexSet(np.array([[0.05, 0.05], [0.95, 0.95]]))
    assert not is_connected(build_spatial_index(two_far, 0.2, 2.0))
    chain = VertexSet(np.array([[0.1, 0.5], [0.25, 0.5], [0.4, 0.5], [0.55, 0.5]]))
    assert is_connected(build_spatial_index(chain, 0.16, 2.0))
    one = VertexSet(np.array([[0.5, 0.5]]))
    assert is_connected(build_spatial_index(one, 0.1, 2.0))
    same = VertexSet(np.array([[0.3, 0.7], [0.3, 0.7]]))
    assert is_connected(build_spatial_index(same, 0.1, 2.0))


def _far_searches(monkeypatch):
    """Record the answers of is_connected's isolated-vertex exit, and the
    vertices each point-pair search starts from once an exit has answered."""
    exits, searched = [], []
    isolated_vertex, pairs_within = instance._isolated_vertex, instance._pairs_within

    def exit_(idx, u):
        exits.append(isolated_vertex(idx, u))
        return exits[-1]

    def search(idx, u, key, at, dr):
        if exits:
            searched.append(u[at])
        return pairs_within(idx, u, key, at, dr)

    monkeypatch.setattr(instance, "_isolated_vertex", exit_)
    monkeypatch.setattr(instance, "_pairs_within", search)
    return exits, searched


def test_is_connected_leaves_at_an_isolated_vertex(monkeypatch):
    cfg = InstanceConfig(n=2000, p=2.0, radius=ThresholdMultiple(0.7), seed=9)
    vs = sample_points(cfg)
    two_far = VertexSet(np.array([[0.05, 0.05], [0.95, 0.95]]))
    exits, searched = _far_searches(monkeypatch)
    for pts, r in ((vs, cfg.resolved_radius()), (two_far, 0.2)):
        exits.clear()
        assert not is_connected(build_spatial_index(pts, r, 2.0))
        assert len(exits) == 1 and exits[0] is not None
        assert not searched, "the far phase ran"


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("dx,dy", [(0.0, -0.15), (-0.15, 0.0), (-0.15, -0.04),
                                   (0.04, -0.15)])
def test_is_connected_sees_a_neighbour_at_a_negative_far_offset(p, dx, dy):
    # each point is alone in its 3x3 block of cells, and (0.505, 0.505) sees
    # its only neighbour at a far offset of negative sign, which reach
    # lists only by its absolute value
    pts = np.array([[0.505, 0.505], [0.505 + dx, 0.505 + dy]])
    r = 0.2
    assert lp_distance(p, pts[0], pts[1]) <= r
    idx = build_spatial_index(VertexSet(pts), r, p)
    row, col = np.divmod(idx.cells.astype(np.int64), idx.side)
    assert max(abs(np.diff(row)[0]), abs(np.diff(col)[0])) > 1
    assert is_connected(idx)


def _random_instances():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(3, 60))
        r = float(rng.uniform(0.05, 0.6))
        yield rng.random((n, 2)), r, [1.0, 1.5, 2.0, math.inf][trial % 4], None


def _ulp_either_way(x):
    return [np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)]


def _cell_edge_instances():
    """Two points (a, a) and (b, b) on the cell edges of a grid of side
    k = 2 ||(1, 1)||_p / r, two cells apart, each exact or one ulp off. Some
    pairs are just over r, yet cells of side exactly r / (2 ||(1, 1)||_p)
    can hold them in neighbouring cells."""
    for p in (1.0, 2.0, math.inf):
        for k in (5, 6, 7, 10, 13):
            r = 2.0 * lp_distance(p, (0.0, 0.0), (1.0, 1.0)) / k
            for i in range(k - 1):
                near, far = (_ulp_either_way(x) for x in (i / k, (i + 2) / k))
                for a, b in itertools.product(near, far):
                    if 0.0 <= a and b <= 1.0:
                        yield np.array([[a, a], [b, b]]), r, p, None


def _gap_instances():
    """Two chains of points 0.01 apart, then two blobs of 2000 points each
    (more than one slab of point pairs), with a gap just under or over r
    between their nearest points."""
    r = 0.05
    gaps = ((r * (1.0 - 1e-12), True), (r * (1.0 + 1e-12), False))
    chain = 0.01 * np.arange(20)
    for p in (1.0, 2.0, math.inf):
        for gap, joined in gaps:
            xs = np.concatenate([0.1 + chain, 0.1 + chain[-1] + gap + chain])
            yield np.column_stack([xs, np.full(40, 0.5)]), r, p, joined
    blob = np.random.default_rng(3).random((1999, 2)) * 0.005
    for gap, joined in gaps:
        left = np.vstack([[0.3, 0.5], [0.3, 0.4975] - blob])
        right = np.vstack([[0.3 + gap, 0.5], [0.3 + gap, 0.4975] + blob])
        yield np.vstack([left, right]), r, 2.0, joined


def _tiny_radius_instances():
    """r = 1e-9: spread points are isolated, coincident ones adjacent."""
    spread = np.random.default_rng(5).random((50, 2))
    for p in (1.0, 2.0, math.inf):
        yield spread, 1e-9, p, False
        for xy in ([0.3, 0.7], [1.0, 1.0]):
            yield np.array([xy, xy]), 1e-9, p, True


def _threshold_instances():
    """n = 10^4 from 0.5x to 1.2x the threshold, where most instances have
    isolated vertices and is_connected leaves at the first one, and two
    connected ones at 1.5x, where the far phase searches only from the
    cells outside the largest component."""
    for mult, p, seed, want in ((0.5, 1.0, 0, None), (0.7, 2.0, 1, None),
                                (1.0, math.inf, 2, None), (1.0, 2.0, 3, None),
                                (1.2, 2.0, 4, None), (1.2, 1.0, 5, None),
                                (1.5, 1.0, 6, True), (1.5, 2.0, 7, True)):
        cfg = InstanceConfig(n=10_000, p=p, radius=ThresholdMultiple(mult),
                             seed=seed)
        yield sample_points(cfg).points, cfg.resolved_radius(), p, want


def test_is_connected_matches_brute_force():
    for cases in (_random_instances(), _cell_edge_instances(), _gap_instances(),
                  _tiny_radius_instances(), _threshold_instances()):
        answers = set()
        for pts, r, p, want in cases:
            got = is_connected(build_spatial_index(VertexSet(pts), r, p))
            truth = _brute_connected(pts, r, p)
            assert got == truth, (pts, r, p)
            assert want in (None, truth)
            answers.add(truth)
        # each kind of case reaches both answers, so none of them is idle
        assert answers == {True, False}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("r", [1e-6, 0.05, 0.3])
def test_pairs_a_few_ulps_from_r_get_the_norm_test(p, r):
    # a centre at (1.01 r, 1.01 r), then 260 points around it at l_p length
    # r and r -+ 1 to 6 ulps of r, at random angles. Most coordinates lie in
    # r's binade or below, so their differences resolve an ulp of r
    angle = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 260)
    ux, uy = np.cos(angle), np.sin(angle)
    step = np.resize(np.arange(-6, 7), len(angle))
    length = (r + step * math.ulp(r)) / lp_norms(p, ux, uy)
    c = 1.01 * r
    pts = np.vstack([[c, c], np.column_stack((c + length * ux, c + length * uy))])
    off = np.round((lp_norms(p, pts[1:, 0] - c, pts[1:, 1] - c) - r) / math.ulp(r))
    for k in range(-4, 5):
        assert (off == k).any(), k
    near = lp_norms(p, pts[:, None, 0] - pts[None, :, 0],
                    pts[:, None, 1] - pts[None, :, 1]) <= r
    np.fill_diagonal(near, False)
    assert near[0].any() and not near[0, 1:].all()
    # the fallback's grid, and within with one vertex for b
    idx = instance._grid(pts, r, p)
    at, v = instance.neighbour_lists(idx, np.arange(len(pts)))
    got = np.zeros_like(near)
    got[at, v] = True
    assert np.array_equal(got, near)
    assert np.array_equal(idx.within(np.arange(1, len(pts)), 0), near[1:, 0])
    # two points at a time: the isolated-vertex exit, and the tour's hops
    for i in range(1, len(pts)):
        pair = build_spatial_index(VertexSet(pts[[0, i]]), r, p)
        assert is_connected(pair) == near[0, i]
        assert is_connected(pair, [0, 1]) == near[0, i]


def _kd_tree_connected(pts, r, p):
    """Whether the graph is connected, from cKDTree's pairs within r."""
    sparse = pytest.importorskip("scipy.sparse")
    spatial = pytest.importorskip("scipy.spatial")
    from scipy.sparse.csgraph import connected_components
    n = len(pts)
    pairs = spatial.cKDTree(pts).query_pairs(r, p=p, output_type="ndarray")
    graph = sparse.coo_matrix((np.ones(len(pairs), dtype=bool),
                               (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[0] == 1


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_is_connected_matches_a_kd_tree_at_n_5e4(p):
    # the size threshold_sweep runs, where brute force takes seconds: 1.0x
    # is disconnected, 1.2x and 1.5x are connected and reach the far phase,
    # and at p = 1, 1.2x the near joins leave no giant component
    n = 50_000
    pts = np.random.default_rng(17).random((n, 2))
    answers = []
    for mult in (1.0, 1.2, 1.5):
        r = mult * threshold_radius(n, p)
        truth = _kd_tree_connected(pts, r, p)
        assert is_connected(build_spatial_index(VertexSet(pts), r, p)) == truth
        answers.append(truth)
    assert answers == [False, True, True]


def test_is_connected_in_small_slabs(monkeypatch):
    # slabs of at most 3 point pairs, so that the exit and the far phase
    # both cross many slab boundaries
    monkeypatch.setattr(instance, "_PAIR_CHUNK", 3)
    # n = 2000: 0.9x is disconnected; 1.2x is connected, with one-point
    # cells alone in their 3x3 block that the exit must clear
    cfgs = [InstanceConfig(n=2000, p=2.0, radius=ThresholdMultiple(mult),
                           seed=seed) for mult, seed in ((0.9, 4), (1.2, 0))]
    cases = itertools.chain(_random_instances(), [
        (sample_points(cfg).points, cfg.resolved_radius(), 2.0, None)
        for cfg in cfgs])
    answers = set()
    for pts, r, p, _ in cases:
        got = is_connected(build_spatial_index(VertexSet(pts), r, p))
        assert got == _brute_connected(pts, r, p), (pts, r, p)
        answers.add(got)
    assert answers == {True, False}


def _near_reference(cells, side):
    """Every pair of slots (a, b) whose cells touch, b after a, found one
    near offset at a time in Python integers."""
    slot = {key: i for i, key in enumerate(cells.tolist())}
    want = set()
    for a, key in enumerate(cells.tolist()):
        row, col = divmod(key, side)
        for dc, dr in ((1, 0), (-1, 1), (0, 1), (1, 1)):
            if 0 <= col + dc < side and row + dr < side:
                b = slot.get((row + dr) * side + col + dc)
                if b is not None:
                    want.add((a, b))
    return want


def _near_cases():
    rng = np.random.default_rng(11)
    # every occupancy of the grids of side 1 to 3
    for side in (1, 2, 3):
        for mask in range(1, 1 << (side * side)):
            yield np.flatnonzero([mask >> i & 1 for i in range(side * side)]
                                 ).astype(np.uint64), side
    # lattice points and coincident points, filed as is_connected files them
    lattice = np.stack(np.meshgrid(np.arange(8) / 7, np.arange(8) / 7), -1)
    yield occupied_cells(lattice.reshape(-1, 2)[rng.random(64) < 0.6], 7)[0], 7
    yield occupied_cells(np.repeat(rng.random((6, 2)), 5, axis=0), 4)[0], 4
    yield occupied_cells(rng.random((300, 2)), 25)[0], 25
    # columns 0 and side - 1 and the last rows, at sides near 2^32, where
    # keys pass 2^53 and a float key would be rounded
    for side in (2**32 - 1, 2**32):
        edge = [0, 1, 2, side - 3, side - 2, side - 1]
        for _ in range(20):
            keys = {r * side + c for r in edge for c in edge if rng.random() < 0.5}
            yield np.array(sorted(keys), dtype=np.uint64), side


def test_near_pairs_match_a_per_offset_reference():
    for cells, side in _near_cases():
        pairs = instance._near_pairs(cells, cells % np.uint64(side), side)
        assert len(pairs) == 4
        got = []
        for a, b in pairs:
            # slots stay integers: keys mixed with int64 would turn float64
            assert a.dtype == b.dtype == np.intp, side
            got += zip(a.tolist(), b.tolist())
        assert len(got) == len(set(got)), side
        assert set(got) == _near_reference(cells, side), (side, cells)


def _block(x0, x1, y0, y1, step=0.02):
    """Lattice points filling a rectangle, every cell of side >= step
    within it occupied."""
    xs, ys = np.meshgrid(np.arange(x0, x1, step), np.arange(y0, y1, step))
    return np.column_stack([xs.ravel(), ys.ravel()])


def test_is_connected_two_components_joined_only_to_each_other():
    # a giant block, and two pairs of points 0.09 apart, 2 to 3 cells of
    # side r / (2 sqrt 2): the pairs join each other at a far offset, but
    # nothing joins them to the block
    r = 0.1
    pts = np.vstack([_block(0.05, 0.5, 0.05, 0.95),
                     [[0.8, 0.8], [0.801, 0.8], [0.89, 0.8], [0.891, 0.801]]])
    idx = build_spatial_index(VertexSet(pts), r, 2.0)
    assert len(np.unique(_near_components(idx))) == 3
    assert not is_connected(idx)
    assert not _brute_connected(pts, r, 2.0)


@pytest.mark.parametrize("dx,dy", [(0.09, 0.0), (0.0, 0.09), (-0.06, 0.09),
                                   (0.07, 0.06)])
def test_is_connected_joins_the_giant_at_a_negative_far_offset(dx, dy):
    # a pair of points beside or above the corner (0.5, 0.5) of a giant
    # block, whose neighbours in the block all lie at far offsets of
    # negative sign from the pair's cell: only the pair lies outside the
    # largest component, so the far phase searches from the pair alone,
    # and must take both signs
    r = 0.1
    pair = np.array([0.5 + dx, 0.5 + dy]) + [[0.0, 0.0], [0.001, 0.0]]
    block = _block(0.1, 0.5 + 1e-9, 0.1, 0.5 + 1e-9)
    pts = np.vstack([block, pair])
    idx = build_spatial_index(VertexSet(pts), r, 2.0)
    d = block - pair[0]
    close = lp_norms(2.0, d[:, 0], d[:, 1]) <= r
    assert close.any()
    row, col = (np.floor(xy * idx.side).astype(int) for xy in (pts[:, 1], pts[:, 0]))
    dr, dc = row[:-2][close] - row[-1], col[:-2][close] - col[-1]
    assert ((dr < 0) | ((dr == 0) & (dc < 0))).all()
    assert (np.maximum(abs(dr), abs(dc)) > 1).all()
    assert is_connected(idx)
    assert _brute_connected(pts, r, 2.0)


def _near_components(idx):
    parent = np.arange(len(idx.cells))
    for a, b in instance._near_pairs(idx.cells, idx.cells % np.uint64(idx.side),
                                     idx.side):
        instance._hook(parent, a, b)
    return parent


@pytest.mark.parametrize("p,mult,giant", [(2.0, 1.5, True),
                                          (1.0, 1.2, False)])
def test_far_phase_searches_outside_the_largest_component(monkeypatch, p,
                                                          mult, giant):
    # n = 2000, connected: at 1.5x, p = 2 a giant component holds all but
    # 124 of 1458 cells after the near joins; at 1.2x, p = 1 the near joins
    # leave no giant, yet the search still starts only outside the largest
    # component
    cfg = InstanceConfig(n=2000, p=p, radius=ThresholdMultiple(mult), seed=0)
    idx = build_spatial_index(sample_points(cfg), cfg.resolved_radius(), p)
    parent = _near_components(idx)
    outside = parent != np.bincount(parent).argmax()
    assert (2 * outside.sum() < len(parent)) == giant
    slot, _ = find_slots(idx.cells, instance._cell_keys(idx.points, idx.side))
    exits, searched = _far_searches(monkeypatch)
    assert is_connected(idx)
    assert exits == [None] and searched
    # the first row offset starts from every vertex outside it, and each
    # later one from some of the vertices before, as that component grows
    assert np.array_equal(np.sort(searched[0]), np.flatnonzero(outside[slot]))
    assert all(np.isin(b, a).all() for a, b in zip(searched, searched[1:]))


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 400),
       mult=st.floats(0.5, 2.5), p=st.sampled_from([1.0, 2.0, math.inf]))
def test_a_tour_never_changes_the_verdict(seed, n, mult, p):
    # random permutations, most of whose hops are longer than r, and a tour
    # sorted by x, many of whose hops are within r: is_connected joins only
    # the hops within r, so the verdict is the one without a tour
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    r = mult * threshold_radius(n, p)
    idx = build_spatial_index(VertexSet(pts), r, p)
    want = _kd_tree_connected(pts, r, p)
    assert is_connected(idx) == want
    for tour in (rng.permutation(n), rng.permutation(n),
                 np.argsort(pts[:, 0], kind="stable")):
        assert is_connected(idx, tour) == want


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_a_tour_between_two_clusters_stays_disconnected(monkeypatch, p, chunk):
    # two clusters 0.6 apart at r = 0.05; every hop of the tours below
    # jumps between them, or every other one does, and none is an edge
    monkeypatch.setattr(instance, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(7)
    a = 0.1 + 0.2 * rng.random((150, 2))
    b = 0.7 + 0.2 * rng.random((150, 2))
    pts = np.vstack([a, b])
    r = 0.05
    idx = build_spatial_index(VertexSet(pts), r, p)
    assert not _kd_tree_connected(pts, r, p)
    jumps = np.column_stack([np.arange(150), 150 + np.arange(150)]).ravel()
    pairs = np.column_stack([np.arange(0, 150, 2), np.arange(1, 150, 2),
                             150 + np.arange(0, 150, 2),
                             150 + np.arange(1, 150, 2)]).ravel()
    for tour in (jumps, pairs, rng.permutation(300)):
        assert not is_connected(idx, tour)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("chunk", [3, 4, 1 << 16])
def test_a_tour_of_edges_needs_no_far_search(monkeypatch, p, chunk):
    # a path of 40 points along a line, each s cells from the next, s the
    # most cells r spans: every hop is a bridge in cells that do not touch,
    # so only the tour joins them. The tour runs the path from point k,
    # jumps from its far end back to 0 and reaches k - 1, so that its
    # closing hop (k - 1, k) is the only one that joins those two points
    monkeypatch.setattr(instance, "_PAIR_CHUNK", chunk)
    r = 0.02
    side = instance._grid_side(r, p)
    s = math.floor(r * side * (1.0 - 1e-6))
    pts = np.column_stack([(5 + s * np.arange(40) + 0.5) / side,
                           np.full(40, 0.5)])
    d = np.diff(pts[:, 0])
    assert s >= 2 and (d <= r).all() and (d[1:] + d[:-1] > r).all()
    idx = build_spatial_index(VertexSet(pts), r, p)
    assert idx.side == side and len(idx.cells) == 40
    exits, searched = _far_searches(monkeypatch)
    for k in range(1, 40):
        tour = np.roll(np.arange(40), -k)
        assert is_connected(idx, tour)
        assert not exits and not searched, k
        # without point k - 1 the tour leaves it alone, to the far phase
        assert is_connected(idx, tour[:-1])
        assert exits == [None] and searched, k
        exits.clear()
        searched.clear()


def test_the_fallback_check_searches_from_few_vertices(monkeypatch):
    # seed 0 at n = 5e4, p = 1, 1.0x (test_fallback_failures_match_a_kd_tree)
    # is disconnected with no isolated vertex, so the fallback's verdict
    # comes from is_connected's far phase. Handed the fallback's tour, it
    # starts from fewer than 2,500 vertices; without it, from over 49,000
    n, p = 50_000, 1.0
    pts = np.random.Generator(np.random.PCG64(0)).random((n, 2))
    r = threshold_radius(n, p)
    exits, searched = _far_searches(monkeypatch)
    with pytest.raises(ConstructionError) as err:
        full_construction(pts, p, r)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert exits == [None] and len(searched[0]) < 2500
    exits.clear()
    searched.clear()
    assert not is_connected(build_spatial_index(VertexSet(pts), r, p))
    assert exits == [None] and len(searched[0]) > 49_000


# 3,000 keys take 12 index bits: keys below 2^20 pack into 32 bits, wider
# ones into 64, and below 2^52 at most; 2^62 takes the stable argsort
@pytest.mark.parametrize("bound", [1, 2**16 - 1, 2**16, 2**16 + 1,
                                   2**20 - 1, 2**20, 2**20 + 1, 2**32,
                                   2**40, 2**62])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_radix_argsort_is_the_stable_argsort(bound, dtype):
    rng = np.random.default_rng(bound % 1000)
    # a few values, both extremes among them, so that most keys tie
    values = np.concatenate([rng.integers(0, bound, 5, dtype=np.uint64),
                             np.array([0, bound - 1], dtype=np.uint64)]
                            ).astype(dtype)
    keyed = [rng.integers(0, bound, 3000, dtype=np.uint64).astype(dtype),
             rng.choice(values, 3000), np.zeros(0, dtype), values[-1:],
             np.full(50, values[-1])]
    for key in keyed:
        want = np.argsort(key, kind="stable")
        order, ranked = radix_sort(key, bound)
        assert np.array_equal(order, want)
        bits = max(len(key) - 1, 1).bit_length()
        packed32 = (bound - 1).bit_length() + bits <= 32
        assert ranked.dtype == (np.uint32 if packed32 else key.dtype)
        assert np.array_equal(ranked, key[want])


def _cell_key(x, y, side):
    """Flat cell key row * side + col of one point, in Python integers."""
    return min(int(y * side), side - 1) * side + min(int(x * side), side - 1)


@pytest.mark.parametrize("side", [1, 2, 2**16 + 1, 2**32])
def test_occupied_cells_is_a_stable_sort_by_cell(side):
    rng = np.random.default_rng(side % 1000)
    edges = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                      [1.0, 0.5], [0.5, 1.0], [1.0 - 1e-16, 1.0]])
    cases = {
        "random": rng.random((2000, 2)),
        # a few places, many points each, in shuffled order
        "coincident": np.repeat(rng.random((5, 2)), 40, axis=0)[
            rng.permutation(200)],
        "at 1.0": np.vstack([edges, rng.random((20, 2)), edges]),
        "empty": np.zeros((0, 2)),
    }
    for name, pts in cases.items():
        key = np.array([_cell_key(x, y, side) for x, y in pts.tolist()],
                       dtype=np.uint64)
        want_order = np.argsort(key, kind="stable")
        want_cells, first = np.unique(key[want_order], return_index=True)
        cells, order, starts = occupied_cells(pts, side)
        assert cells.dtype == np.uint64, name
        assert np.array_equal(cells, want_cells), name
        assert np.array_equal(order, want_order), name
        assert np.array_equal(starts, np.append(first, len(pts))), name
        # every occupied key is found in its slot; others are missed
        slot, hit = find_slots(cells, key)
        assert hit.all() and np.array_equal(cells[slot], key), name
        if len(cells):
            probe = np.setdiff1d(np.array([0, 1, 2**63, 2**64 - 1],
                                          dtype=np.uint64), cells)
            assert not find_slots(cells, probe)[1].any(), name


@pytest.mark.parametrize("bad", [(math.nan, 0.5), (0.5, math.nan),
                                 (-5e-324, 0.5), (0.5, 1.0000000000000002),
                                 (math.inf, 0.5), (0.5, -math.inf)])
def test_validate_points_checks_every_coordinate(bad):
    ok = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    validate_points(ok)
    validate_points(np.zeros((0, 2)))
    for at in range(len(ok)):
        pts = ok.copy()
        pts[at] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]\^2"):
            validate_points(pts)


def test_build_spatial_index_rejects_unusable_input():
    vs = VertexSet(np.array([[0.1, 0.2], [0.3, 0.4]]))
    with pytest.raises(ValueError, match="resolution"):
        build_spatial_index(vs, 1e-12, 2.0)
    with pytest.raises(ValueError, match="positive"):
        build_spatial_index(vs, 0.0, 2.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_spatial_index(VertexSet(np.array([[0.1, 1.5]])), 0.1, 2.0)


def grid_cases():
    """Random radii on a log scale with sides 1, 2, 3, about 1 / r (buckets
    r wide), about 2.83 / r (build_spatial_index's) and random; then radii
    exactly j cells wide, where a gap is exactly r."""
    rng = np.random.default_rng(15)
    cases = []
    for r in np.exp(rng.uniform(math.log(1e-4), math.log(1.6), 40)).tolist():
        sides = (1, 2, 3, max(1, math.floor(1 / r)), math.ceil(2.83 / r),
                 int(rng.integers(1, math.ceil(4 / r) + 1)))
        cases += [(r, side) for side in sides]
    return cases + [(j / side, side) for side in (1, 2, 3, 7, 10, 341, 5000)
                    for j in range(1, min(side, 5) + 1)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
def test_reach_is_the_window_rule(p):
    pts = np.array([[0.5, 0.5]])
    for r, side in grid_cases():
        idx = grid_of_side(pts, p, r, side)
        assert idx.reach.dtype == np.uint64
        assert idx.reach.tolist() == window_reach(p, r, side), (r, side)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
def test_resolves_from_the_side_build_spatial_index_chooses(p):
    # a grid resolves r exactly when it has at least build_spatial_index's
    # side, which is the least side that does
    pts = np.array([[0.5, 0.5]])
    for r, side in grid_cases():
        least = build_spatial_index(VertexSet(pts), r, p).side
        assert grid_of_side(pts, p, r, side).resolves is (side >= least), (r, side)
        assert grid_of_side(pts, p, r, least).resolves
        assert least == 1 or not grid_of_side(pts, p, r, least - 1).resolves


def test_is_connected_refuses_a_grid_that_does_not_resolve_r():
    # on 1 or 2 cells a side the three points' cells touch, so the near
    # joins would join them, though no two are within r
    pts = np.array([[0.05, 0.05], [0.5, 0.5], [0.95, 0.95]])
    for side in (1, 2):
        with pytest.raises(ValueError, match="too wide"):
            is_connected(grid_of_side(pts, 2.0, 0.1, side))
    assert not is_connected(build_spatial_index(VertexSet(pts), 0.1, 2.0))


def test_is_connected_fast_at_a_large_radius():
    cfg = InstanceConfig(n=20000, p=2.0, radius=ExplicitRadius(0.45), seed=5)
    vs = sample_points(cfg)
    t0 = time.perf_counter()
    assert is_connected(build_spatial_index(vs, 0.45, 2.0))
    assert time.perf_counter() - t0 < 2.0


def test_is_connected_dense_instance():
    cfg = InstanceConfig(n=4000, p=2.0, radius=ExplicitRadius(0.2), seed=3)
    vs = sample_points(cfg)
    assert is_connected(build_spatial_index(vs, 0.2, 2.0))
