import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (CellId, cell_box, cell_points, cells_close, filled_grid,
                     grid_cells, locate, square_cells)
from rggham import instance, tessellation
from rggham.auxgraphs import build_density_graph
from rggham.geometry import _lp_from_abs, max_box_distance, unit_disk_area
from rggham.instance import VertexSet, find_slots
from rggham.tessellation import (DENSE_THRESHOLD, FRIEND_CHEBYSHEV,
                                 MAX_CELLS_PER_SIDE, MAX_FRIENDS,
                                 _scale_free_quadrant_count,
                                 build_tessellation, choose_cells_per_side,
                                 classify_cells, density_diagnostics,
                                 quadrant_close_count)


@pytest.mark.parametrize("r,m", [(0.45, 4), (0.5, 4), (1.0, 2), (0.67, 2)])
def test_squares_per_side_is_floor_two_over_r(r, m):
    t = build_tessellation(2.0, r, 4)
    assert t.squares_per_side == m
    # bit for bit the side offset_norms and every closeness test read
    assert t.cell_side == 1.0 / m / 4
    assert t.cell_side == pytest.approx(1.0 / (4 * m))
    assert t.grid == 4 * m


@pytest.mark.parametrize("r", [0.0, -0.2, 1.0000001, 2.0])
def test_build_rejects_bad_radius(r):
    with pytest.raises(ValueError):
        build_tessellation(2.0, r, 4)


def test_build_rejects_tiny_k():
    with pytest.raises(ValueError):
        build_tessellation(2.0, 0.4, 1)


def test_build_bounds_k_by_the_search():
    # the offset tables grow as k^2, so k stops where the search stops
    with pytest.raises(ValueError, match="k <= 64"):
        build_tessellation(2.0, 0.45, MAX_CELLS_PER_SIDE + 1)
    t = build_tessellation(2.0, 0.45, MAX_CELLS_PER_SIDE)
    assert t.close_table.shape == (3 * MAX_CELLS_PER_SIDE,) * 2


def test_every_cell_is_a_clique_with_the_rounding_margin():
    # the premise the tessellation cycle's self check rests on: a cell's
    # diameter is at most 3r/(2k) (3r/4 at k = 2), under r less the grid's
    # rounding margin, at every radius build_tessellation accepts; 1,000
    # radii from 4e-9 to 1, and every boundary 2/j of m up to j = 1000 with
    # one ulp either side
    bounds = 2.0 / np.arange(2, 1001)
    radii = np.unique(np.concatenate([
        np.geomspace(4e-9, 1.0, 1000), bounds, np.nextafter(bounds, 0.0),
        np.nextafter(bounds, 2.0)]))
    radii = radii[radii <= 1.0].tolist()
    built = 0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for k in (2, 4, 6, 8, 16, 64):
            for r in radii:
                if not tessellation.tessellation_fits(r, k):
                    continue
                side = build_tessellation(p, r, k).cell_side
                diameter = _lp_from_abs(p, side, side)
                assert diameter <= 1.5 * r / k <= 0.75 * r, (p, k, r)
                assert diameter <= r * (1.0 - instance._REL_SLACK) \
                    - instance._ABS_SLACK, (p, k, r)
                built += 1
    # k = 64 cell ids overflow int64 below about 5e-7
    assert built > 110_000


def filed_cells(t, points):
    """The CellId classify_cells files each point into, in point order."""
    cls = classify_cells(t, VertexSet(np.array(points)))
    flat = np.empty(len(points), dtype=np.int64)
    flat[cls.order] = np.repeat(cls.cells, cls.counts)
    return [CellId(c % t.grid, c // t.grid) for c in flat.tolist()]


def test_classification_boundaries():
    t = build_tessellation(2.0, 0.5, 4)
    g, s = t.grid, t.cell_side
    assert filed_cells(t, [(0.0, 0.0),
                           # right/top edges fold into the last cell, never
                           # index g
                           (1.0, 1.0), (1.0, 0.0),
                           (s, s),                      # shared boundary goes up
                           (s - 1e-12, s - 1e-12)]) == [
        CellId(0, 0), CellId(g - 1, g - 1), CellId(g - 1, 0), CellId(1, 1),
        CellId(0, 0)]


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=40))
def test_classification_cells_match_scalar_locate(pairs):
    # the classification files every point where locate puts it
    t = build_tessellation(2.0, 0.37, 4)
    cls = classify_cells(t, VertexSet(np.array(pairs)))
    for i, flat in enumerate(cls.cells.tolist()):
        for v in cls.order[cls.starts[i]:cls.starts[i + 1]].tolist():
            x, y = pairs[v]
            assert CellId(flat % t.grid, flat // t.grid) == locate(t, x, y)


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
                d = max_box_distance(p, cell_box(t, a), cell_box(t, b))
                if abs(d - t.radius) > 1e-9:
                    assert cells_close(t, a, b) == (d <= t.radius), (p, dc, dr)
                assert t.close_table[dr, dc] == cells_close(t, a, b)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
@pytest.mark.parametrize("r", [0.45, 0.2, 0.1, 0.02])
@pytest.mark.parametrize("k", [2, 4, 6, 32])
def test_offset_table_is_the_scalar_rule(p, r, k):
    # bit for bit over the whole friend span: every entry against the scalar
    # norm, every close entry against the pair rule, and close_offsets
    # against a row-major scan of the pair rule
    t = build_tessellation(p, r, k)
    s, span = t.cell_side, 3 * k
    assert t.offset_norms.shape == (span + 1, span + 1)
    assert t.offset_norms.tolist() == [
        [_lp_from_abs(p, i * s, j * s) for i in range(span + 1)]
        for j in range(span + 1)]
    want = [[cells_close(t, CellId(0, 0), CellId(dc, dr))
             for dc in range(span)] for dr in range(span)]
    assert t.close_table.tolist() == want
    assert not t.offset_norms.flags.writeable
    assert not t.close_table.flags.writeable
    if k <= 6:
        assert t.close_offsets.tolist() == [
            [dc, dr] for dr in range(1 - span, span)
            for dc in range(1 - span, span)
            if cells_close(t, CellId(span, span), CellId(span + dc, span + dr))]
    if p == 1.0 and k == 32 and r == 0.02:
        # two pairs on the scale-free boundary (dc + 1) + (dr + 1) = 64
        # round above r; the table must leave out exactly those
        edge = [(dc, 62 - dc) for dc in range(63)]
        assert sum(not t.close_table[dr, dc] for dc, dr in edge) == 2
        assert quadrant_close_count(t) == 2013


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, math.inf])
def test_scale_free_count_is_the_scalar_rule(p):
    # offsets (a, b) with ((a+1)^p + (b+1)^p)^(1/p) <= 2k, the cell itself
    # left out, one scalar norm each
    for k in (4, 8, 32, 64):
        want = sum(_lp_from_abs(p, float(a), float(b)) <= 2 * k
                   for a in range(1, 2 * k + 1) for b in range(1, 2 * k + 1))
        assert _scale_free_quadrant_count(p, k) == want - 1


def test_close_offsets_sorted_symmetric_contains_origin():
    for p in (1.0, 2.0, math.inf):
        t = build_tessellation(p, 0.45, 4)
        offs = t.close_offsets.tolist()
        assert [0, 0] in offs
        assert offs == sorted(offs, key=lambda o: (o[1], o[0]))
        assert t.close_offsets is t.close_offsets
        assert not t.close_offsets.flags.writeable
        have = set(map(tuple, offs))
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
    # only the occupied cells are listed, by ascending flat id
    assert cls.cells.tolist() == [0, 1, 9 * g + 5]
    assert cls.counts.sum() == len(pts)
    assert cls.counts.tolist() == [DENSE_THRESHOLD, DENSE_THRESHOLD - 1, 3]
    assert cls.dense_mask.tolist() == [True, False, False]
    assert np.array_equal(cls.dense_mask, cls.counts >= DENSE_THRESHOLD)
    # the same values through the flat-id lookup
    slot, hit = find_slots(cls.cells, [0, 1, 9 * g + 5, 2])
    assert hit.tolist() == [True, True, True, False]
    assert cls.counts[slot[:3]].tolist() == [DENSE_THRESHOLD,
                                             DENSE_THRESHOLD - 1, 3]
    # square summaries
    m = t.squares_per_side
    srow, scol = 9 // 4, 5 // 4
    assert cls.squares.tolist() == [0, srow * m + scol]
    assert cls.square_vertex_count.tolist() == [2 * DENSE_THRESHOLD - 1, 3]
    assert cls.square_dense_count.tolist() == [1, 0]
    assert cls.square_vertex_count.sum() == len(pts)


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("with_dense", [False, True])
def test_classify_square_summaries_match_reshape_sums(k, with_dense):
    t = build_tessellation(2.0, 0.3, k)
    g, m = t.grid, t.squares_per_side
    blocks = [np.random.default_rng(k).random((3000, 2))]
    if with_dense:
        # dense cells in the four corner cells of the grid, on the last cell
        # row and column, and inside one interior square
        blocks += [cell_points(t, c, r, DENSE_THRESHOLD + 2)
                   for c, r in ((0, 0), (g - 1, 0), (0, g - 1), (g - 1, g - 1),
                                (k + 1, g - 1), (g - 1, k), (k, k))]
    pts = np.vstack(blocks)
    assert square_arrays_match_grid_cells(t, pts) == with_dense


def square_arrays_match_grid_cells(t, pts):
    """Check classify_cells' square arrays against the dense reference
    grid_cells, and return whether any cell is dense. The reference sums a
    dense per-cell array over the k x k cells of every square, lists the
    squares that hold a vertex, and reads each one's occupied cells off a
    (m, k, m, k) view of the flat ids, where square (scol, srow) holds
    [srow, :, scol, :] in row-major order."""
    m, k = t.squares_per_side, t.cells_per_side
    cls = classify_cells(t, VertexSet(pts))
    counts, _, _ = grid_cells(t, pts)
    vertex = counts.reshape(m, k, m, k).sum(axis=(1, 3)).reshape(-1)
    dense = (counts >= DENSE_THRESHOLD).reshape(m, k, m, k).sum(axis=(1, 3)).reshape(-1)
    occupied = np.flatnonzero(vertex)
    assert np.array_equal(cls.squares, occupied)
    for got, want in ((cls.square_vertex_count, vertex[occupied]),
                      (cls.square_dense_count, dense[occupied])):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    flat = np.arange(t.grid ** 2).reshape(m, k, m, k)
    starts = cls.square_starts
    assert len(starts) == len(occupied) + 1 and starts[0] == 0
    assert starts[-1] == len(cls.by_square) == len(cls.cells)
    for j, sq in enumerate(occupied.tolist()):
        cells = flat[sq // m, :, sq % m, :]
        got = cls.cells[cls.by_square[starts[j]:starts[j + 1]]]
        assert got.tolist() == cells[counts[cells] > 0].tolist()
    return bool(dense.any())


@pytest.mark.parametrize("case", ["filled, squares skipped", "sparse, small r",
                                  "three points"])
def test_classify_groups_cells_by_square(case):
    if case == "filled, squares skipped":
        # every cell holds two points but those of three squares and two
        # single cells, and one cell is dense
        t = build_tessellation(2.0, 0.5, 4)
        skip = (square_cells(t, 1, 0) | square_cells(t, 3, 1)
                | square_cells(t, 0, 3) | {(2, 5), (9, 14)})
        pts = np.vstack([filled_grid(t, 2, skip), cell_points(t, 6, 9, DENSE_THRESHOLD)])
    elif case == "sparse, small r":
        # m = 40: most squares empty, the rest hold a cell or two
        t = build_tessellation(2.0, 0.05, 4)
        pts = np.random.default_rng(11).random((900, 2))
    else:
        # square (0, 0)'s cells (3, 0) and (0, 1) sit either side of square
        # (1, 0)'s cell (4, 0) in flat id order
        t = build_tessellation(2.0, 0.5, 4)
        pts = np.vstack([cell_points(t, c, r, 1) for c, r in ((0, 1), (4, 0), (3, 0))])
    assert square_arrays_match_grid_cells(t, pts) == (case == "filled, squares skipped")


def test_classify_members_grouped_and_ascending():
    t = build_tessellation(2.0, 0.5, 4)
    rng = np.random.default_rng(5)
    pts = rng.random((500, 2))
    cls = classify_cells(t, VertexSet(pts))
    g = t.grid
    counts, order, starts = grid_cells(t, pts)
    assert np.array_equal(cls.cells, np.flatnonzero(counts))
    assert np.array_equal(cls.order, order)
    seen = []
    for i, flat in enumerate(cls.cells.tolist()):
        mem = cls.order[cls.starts[i]:cls.starts[i + 1]]
        assert len(mem) == cls.counts[i] == counts[flat]
        assert np.all(np.diff(mem) > 0) or len(mem) <= 1
        for v in mem:
            c = locate(t, pts[v, 0], pts[v, 1])
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


def test_choose_cells_per_side_builds_each_table_once(monkeypatch):
    # a new eps searches every k again, from the cached counts
    builds = []

    def counted(*args):
        builds.append(args)
        return real(*args)

    real = tessellation._offset_norms
    monkeypatch.setattr(tessellation, "_offset_norms", counted)
    choose_cells_per_side.cache_clear()
    _scale_free_quadrant_count.cache_clear()
    for eps in (1e-3, 2e-3):
        assert choose_cells_per_side(3.0, eps) == (MAX_CELLS_PER_SIDE, False)
        assert len(builds) == 31


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
    none = {"total": 0, "first": [], "truncated": False}
    assert rep.corner_violations == none
    assert rep.hook_violations == none


def test_diagnostics_flags_sparse_grid():
    t = build_tessellation(2.0, 0.5, 4)
    pts = filled_grid(t, 1)     # every cell occupied, none dense
    rep = density_diagnostics(t, classify_cells(t, VertexSet(pts)))
    g = t.grid
    assert rep.cell_counts == {"dense": 0, "sparse": g * g, "empty": 0}
    # no dense cell anywhere: every sparse cell lacks a hook
    assert rep.hook_violations["total"] == g * g
    assert len(rep.hook_violations["first"]) == 32    # capped
    # m = 4: the corner regions cover the grid, each cell counted once
    assert rep.corner_violations["total"] == g * g
    assert len(rep.corner_violations["first"]) == 32
    assert rep.corner_violations["truncated"] is True


def corner_union(t):
    """The cells of the four 4k x 4k corner blocks, one set member each."""
    g, block = t.grid, 4 * t.cells_per_side
    return {(c, r) for r0 in (0, g - block) for c0 in (0, g - block)
            for r in range(r0, r0 + block) for c in range(c0, c0 + block)}


@pytest.mark.parametrize("n, r", [(3000, 0.45), (8000, 0.3), (8000, 0.2)])
def test_diagnostics_corner_cells_counted_once(n, r):
    # m = 4 and 6: the corner blocks overlap, m = 10: they do not; a few
    # dense cells inside and outside the corners
    t = build_tessellation(2.0, r, 4)
    g = t.grid
    pts = np.vstack([np.random.default_rng(0).random((n, 2))]
                    + [cell_points(t, col, row, DENSE_THRESHOLD) for col, row
                       in ((0, 0), (g - 1, 5), (7, 7), (g // 2, g // 2))])
    rep = density_diagnostics(t, classify_cells(t, VertexSet(pts)))
    counts, _, _ = grid_cells(t, pts)
    bad = sorted((row, col) for col, row in corner_union(t)
                 if counts[row * g + col] < DENSE_THRESHOLD)
    assert rep.corner_violations == {
        "total": len(bad), "first": [[col, row] for row, col in bad[:32]],
        "truncated": len(bad) > 32}


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
    assert rep.hook_violations == {
        "total": 1, "first": [[t.grid - 1, t.grid - 1]], "truncated": False}


def test_diagnostics_json_shape():
    t = build_tessellation(2.0, 0.5, 4)
    rep = density_diagnostics(t, classify_cells(t, VertexSet(filled_grid(t, 1))))
    d = rep.to_json()
    assert json.loads(json.dumps(d)) == d
    assert list(d) == ["cells_per_side", "dense_threshold", "max_friends",
                       "cell_counts", "square_counts", "quadrant_close_count",
                       "corner_violations", "hook_violations"]
    assert d["cells_per_side"] == 4
    assert d["dense_threshold"] == DENSE_THRESHOLD
    assert d["max_friends"] == MAX_FRIENDS
    assert d["quadrant_close_count"] is None or isinstance(
        d["quadrant_close_count"], int)
    assert d["hook_violations"]["total"] == t.grid ** 2
    assert d["hook_violations"]["truncated"] is True
    assert len(d["hook_violations"]["first"]) == 32
    for key in ("corner_violations", "hook_violations"):
        assert all(isinstance(c, list) and len(c) == 2
                   for c in d[key]["first"])
