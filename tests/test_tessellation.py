import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cell_points, filled_grid
from rggham.auxgraphs import build_density_graph
from rggham.geometry import max_box_distance, unit_disk_area
from rggham.instance import VertexSet
from rggham.tessellation import (DENSE_THRESHOLD, FRIEND_CHEBYSHEV,
                                 MAX_CELLS_PER_SIDE, MAX_FRIENDS, CellId,
                                 SquareId,
                                 build_tessellation, cells_close,
                                 choose_cells_per_side, classify_cells,
                                 close_offsets, density_diagnostics,
                                 quadrant_close_count)


@pytest.mark.parametrize("r,m", [(0.45, 4), (0.5, 4), (1.0, 2), (0.67, 2)])
def test_squares_per_side_is_floor_two_over_r(r, m):
    t = build_tessellation(2.0, r, 4)
    assert t.squares_per_side == m
    assert t.square_side == pytest.approx(1.0 / m)
    assert t.cell_side == pytest.approx(1.0 / (4 * m))
    assert t.grid == 4 * m


@pytest.mark.parametrize("r", [0.0, -0.2, 1.0000001, 2.0])
def test_build_rejects_bad_radius(r):
    with pytest.raises(ValueError):
        build_tessellation(2.0, r, 4)


def test_build_rejects_tiny_k():
    with pytest.raises(ValueError):
        build_tessellation(2.0, 0.4, 1)


def test_locate_boundaries():
    t = build_tessellation(2.0, 0.5, 4)
    g = t.grid
    assert t.locate(0.0, 0.0) == CellId(0, 0)
    # right/top edges fold into the last cell, never index g
    assert t.locate(1.0, 1.0) == CellId(g - 1, g - 1)
    assert t.locate(1.0, 0.0) == CellId(g - 1, 0)
    s = t.cell_side
    assert t.locate(s, s) == CellId(1, 1)          # shared boundary goes up
    assert t.locate(s - 1e-12, s - 1e-12) == CellId(0, 0)


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=40))
def test_locate_many_matches_scalar(pairs):
    t = build_tessellation(2.0, 0.37, 4)
    pts = np.array(pairs)
    col, row = t.locate_many(pts)
    for i, (x, y) in enumerate(pairs):
        assert (col[i], row[i]) == t.locate(x, y)


def test_square_of_and_cell_box():
    t = build_tessellation(2.0, 0.5, 4)
    assert t.square_of(CellId(0, 0)) == SquareId(0, 0)
    assert t.square_of(CellId(3, 3)) == SquareId(0, 0)
    assert t.square_of(CellId(4, 3)) == SquareId(1, 0)
    box = t.cell_box(CellId(2, 5))
    s = t.cell_side
    assert box.x_hi - box.x_lo == pytest.approx(s)
    assert t.locate((box.x_lo + box.x_hi) / 2, (box.y_lo + box.y_hi) / 2) \
        == CellId(2, 5)


def test_cells_close_same_cell_and_symmetry():
    for p in (1.0, 2.0, math.inf):
        t = build_tessellation(p, 0.45, 4)
        a, b = CellId(3, 7), CellId(5, 6)
        assert cells_close(t, a, a)
        assert cells_close(t, a, b) == cells_close(t, b, a)


def test_cells_close_agrees_with_box_sup_distance():
    # the index-offset rule is the exact-arithmetic version of the box sup
    # distance test; floats can disagree only within a hair of the radius
    for p in (1.0, 2.0, math.inf):
        t = build_tessellation(p, 0.43, 4)
        for dc in range(0, 5):
            for dr in range(0, 5):
                a, b = CellId(2, 2), CellId(2 + dc, 2 + dr)
                d = max_box_distance(p, t.cell_box(a), t.cell_box(b))
                if abs(d - t.radius) > 1e-9:
                    assert cells_close(t, a, b) == (d <= t.radius), (p, dc, dr)


def test_close_offsets_sorted_symmetric_contains_origin():
    for p in (1.0, 2.0, math.inf):
        t = build_tessellation(p, 0.45, 4)
        offs = close_offsets(t)
        assert (0, 0) in offs
        assert offs == sorted(offs, key=lambda o: (o[1], o[0]))
        have = set(offs)
        assert all((-dc, -dr) in have for dc, dr in offs)
        for dc, dr in offs:
            assert cells_close(t, CellId(10, 10), CellId(10 + dc, 10 + dr))


def friend_lists(r, m):
    """Each square's friends, as the density graph of a fully dense grid
    links them. l_inf, k = 4: cells up to 7 (m = 4) or 6 (m = 5) apart are
    close, so friends (cells from 5 apart) are linked and squares 3 apart
    (cells from 9 apart) are not."""
    t = build_tessellation(math.inf, r, 4)
    assert t.squares_per_side == m
    cls = classify_cells(t, VertexSet(filled_grid(t, DENSE_THRESHOLD)))
    return build_density_graph(t, cls).adjacency


def test_friend_counts_by_position():
    adj = friend_lists(0.35, 5)
    for s, nbrs in adj.items():
        assert set(nbrs) == {q for q in range(25) if q != s and max(
            abs(q // 5 - s // 5), abs(q % 5 - s % 5)) <= FRIEND_CHEBYSHEV}
    # centre, corner and edge squares
    assert [len(adj[s]) for s in (12, 0, 2)] == [MAX_FRIENDS, 8, 14]
    # m = 4: the window always clips one side
    assert len(friend_lists(0.5, 4)[1 * 4 + 1]) == 15


def test_friends_row_major_order():
    # flat square ids are row * m + col, so ascending is row-major
    adj = friend_lists(0.35, 5)
    assert all(nbrs == sorted(nbrs) for nbrs in adj.values())


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def test_classify_counts_and_density():
    t = build_tessellation(2.0, 0.5, 4)
    pts = np.vstack([
        cell_points(t, 0, 0, DENSE_THRESHOLD),       # exactly at the cut
        cell_points(t, 1, 0, DENSE_THRESHOLD - 1),   # one short
        cell_points(t, 5, 9, 3),
    ])
    cls = classify_cells(t, VertexSet(pts))
    g = t.grid
    assert cls.counts.sum() == len(pts)
    assert cls.counts[0] == DENSE_THRESHOLD
    assert cls.counts[1] == DENSE_THRESHOLD - 1
    assert cls.counts[9 * g + 5] == 3
    assert bool(cls.dense_mask[0]) is True
    assert bool(cls.dense_mask[1]) is False
    assert np.array_equal(cls.dense_mask, cls.counts >= DENSE_THRESHOLD)
    # square summaries
    m = t.squares_per_side
    assert cls.square_vertex_count[0] == 2 * DENSE_THRESHOLD - 1
    assert cls.square_dense_count[0] == 1
    assert cls.square_vertex_count.sum() == len(pts)
    srow, scol = 9 // 4, 5 // 4
    assert cls.square_vertex_count[srow * m + scol] == 3


def test_classify_members_grouped_and_ascending():
    t = build_tessellation(2.0, 0.5, 4)
    rng = np.random.default_rng(5)
    pts = rng.random((500, 2))
    cls = classify_cells(t, VertexSet(pts))
    g = t.grid
    seen = []
    for flat in range(g * g):
        mem = cls.cell_members(flat)
        assert len(mem) == cls.counts[flat]
        assert np.all(np.diff(mem) > 0) or len(mem) <= 1
        for v in mem:
            c = t.locate(pts[v, 0], pts[v, 1])
            assert c.row * g + c.col == flat
        seen.extend(mem.tolist())
    assert sorted(seen) == list(range(500))


# --------------------------------------------------------------------------
# quadrant counting and the choice of k
# --------------------------------------------------------------------------

def test_quadrant_close_count_frozen():
    # small radius, so the count sits at its scale-free limit
    assert quadrant_close_count(build_tessellation(1.0, 0.02, 4)) == 27
    assert quadrant_close_count(build_tessellation(2.0, 0.02, 4)) == 40
    assert quadrant_close_count(build_tessellation(math.inf, 0.02, 4)) == 63
    assert quadrant_close_count(build_tessellation(2.0, 0.02, 32)) == 3148


def test_quadrant_count_below_limit_near_boundary():
    # p = 1, k = 32: two offset pairs sit exactly on the scale-free boundary
    # A + B = 64; at finite r the threshold r/s < 64 excludes them
    assert quadrant_close_count(build_tessellation(1.0, 0.02, 32)) == 2013


def test_quadrant_count_needs_interior_cell():
    with pytest.raises(ValueError):
        quadrant_close_count(build_tessellation(2.0, 0.9, 4))


def test_choose_cells_per_side_frozen():
    for p in (1.0, 2.0, math.inf):
        eps = 0.75 * unit_disk_area(p)
        assert choose_cells_per_side(p, eps) == (4, True)


def test_choose_cells_per_side_monotone_and_even():
    for p in (1.0, 2.0):
        area = unit_disk_area(p)
        ks = []
        for f in (0.75, 0.5, 0.3, 0.2, 0.1, 0.05):
            k, ok = choose_cells_per_side(p, f * area)
            assert ok
            assert k % 2 == 0
            ks.append(k)
        assert ks == sorted(ks)


def test_choose_cells_per_side_gives_up_gracefully():
    area = unit_disk_area(2.0)
    k, ok = choose_cells_per_side(2.0, 0.001 * area)
    assert (k, ok) == (MAX_CELLS_PER_SIDE, False)


def test_choose_cells_per_side_rejects_out_of_range_eps():
    area = unit_disk_area(2.0)
    for eps in (0.0, -0.5, area, area * 2):
        with pytest.raises(ValueError):
            choose_cells_per_side(2.0, eps)


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

def test_diagnostics_clean_on_saturated_grid():
    t = build_tessellation(2.0, 0.5, 4)
    pts = filled_grid(t, DENSE_THRESHOLD)
    rep = density_diagnostics(t, classify_cells(t, VertexSet(pts)))
    g = t.grid
    assert rep.cell_counts == {"dense": g * g, "sparse": 0, "empty": 0}
    assert rep.square_counts["dense"] == t.squares_per_side ** 2
    assert rep.corner_violation_total == 0
    assert rep.hook_violation_total == 0
    assert rep.corner_violations == [] and rep.hook_violations == []


def test_diagnostics_flags_sparse_grid():
    t = build_tessellation(2.0, 0.5, 4)
    pts = filled_grid(t, 1)     # every cell occupied, none dense
    rep = density_diagnostics(t, classify_cells(t, VertexSet(pts)))
    g = t.grid
    assert rep.cell_counts == {"dense": 0, "sparse": g * g, "empty": 0}
    # no dense cell anywhere: every sparse cell lacks a hook
    assert rep.hook_violation_total == g * g
    assert len(rep.hook_violations) == 32    # capped
    assert rep.corner_violation_total > 0
    assert len(rep.corner_violations) <= 32


def test_diagnostics_hook_reachability_is_exact():
    t = build_tessellation(2.0, 0.5, 4)
    # one dense cell at (0, 0); cells close to it are covered, the far
    # corner is not
    pts = np.vstack([
        cell_points(t, 0, 0, DENSE_THRESHOLD),
        cell_points(t, 1, 0, 1),                    # close to the dense cell
        cell_points(t, t.grid - 1, t.grid - 1, 1),  # far corner, uncovered
    ])
    rep = density_diagnostics(t, classify_cells(t, VertexSet(pts)))
    assert rep.hook_violation_total == 1
    assert rep.hook_violations == [CellId(t.grid - 1, t.grid - 1)]


def test_diagnostics_json_shape():
    t = build_tessellation(2.0, 0.5, 4)
    rep = density_diagnostics(t, classify_cells(t, VertexSet(filled_grid(t, 1))))
    d = rep.to_json()
    assert d["cells_per_side"] == 4
    assert d["dense_threshold"] == DENSE_THRESHOLD
    assert d["max_friends"] == MAX_FRIENDS
    assert d["quadrant_close_count"] is None or isinstance(
        d["quadrant_close_count"], int)
    assert d["hook_violations"]["total"] == t.grid ** 2
    assert d["hook_violations"]["truncated"] is True
    assert len(d["hook_violations"]["first"]) == 32
    assert all(isinstance(c, list) and len(c) == 2
               for c in d["hook_violations"]["first"])
