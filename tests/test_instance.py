import itertools
import math
import time

import numpy as np
import pytest

from rggham.geometry import lp_distance, lp_norms
from rggham.instance import (EpsilonAbove, EpsilonBelow, ExplicitRadius,
                             InstanceConfig, ThresholdMultiple, VertexSet,
                             build_spatial_index, is_connected, max_radius,
                             radix_argsort, resolve_radius, sample_points,
                             threshold_radius)

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
    cfg = InstanceConfig(n=100, p=2.0, radius=ThresholdMultiple(2.0), seed=0)
    assert cfg.resolved_radius() == 2.0 * threshold_radius(100, 2.0)


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
    """Search over all pairs, with the edge test lp_norms(...) <= r."""
    seen = np.zeros(len(points), dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        d = points - points[stack.pop()]
        new = ~seen & (lp_norms(p, d[:, 0], d[:, 1]) <= r)
        seen |= new
        stack.extend(np.flatnonzero(new).tolist())
    return bool(seen.all())


def test_is_connected_simple_cases():
    two_far = VertexSet(np.array([[0.05, 0.05], [0.95, 0.95]]))
    assert not is_connected(build_spatial_index(two_far, 0.2, 2.0))
    chain = VertexSet(np.array([[0.1, 0.5], [0.25, 0.5], [0.4, 0.5], [0.55, 0.5]]))
    assert is_connected(build_spatial_index(chain, 0.16, 2.0))
    one = VertexSet(np.array([[0.5, 0.5]]))
    assert is_connected(build_spatial_index(one, 0.1, 2.0))


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


def test_is_connected_matches_brute_force():
    for cases in (_random_instances(), _cell_edge_instances(), _gap_instances(),
                  _tiny_radius_instances()):
        answers = set()
        for pts, r, p, want in cases:
            got = is_connected(build_spatial_index(VertexSet(pts), r, p))
            truth = _brute_connected(pts, r, p)
            assert got == truth, (pts, r, p)
            assert want in (None, truth)
            answers.add(truth)
        # each kind of case reaches both answers, so none of them is idle
        assert answers == {True, False}


@pytest.mark.parametrize("bound", [1, 2**16 - 1, 2**16, 2**16 + 1, 2**32,
                                   2**40])
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
        got = radix_argsort(key, bound)
        assert np.array_equal(got, np.argsort(key, kind="stable"))


def test_build_spatial_index_rejects_unusable_input():
    vs = VertexSet(np.array([[0.1, 0.2], [0.3, 0.4]]))
    with pytest.raises(ValueError, match="resolution"):
        build_spatial_index(vs, 1e-12, 2.0)
    with pytest.raises(ValueError, match="positive"):
        build_spatial_index(vs, 0.0, 2.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_spatial_index(VertexSet(np.array([[0.1, 1.5]])), 0.1, 2.0)


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
