import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (CellId, adjacent_clumps, augmented_nodes, cell_points,
                     cells_close, grid_cells)
from rggham import auxgraphs, instance, tessellation
from rggham.auxgraphs import (AugmentedGraph, DensityGraph, GroupKey,
                              SpanningTree, attach_sparse_groups,
                              build_density_graph, euler_traversal,
                              spanning_tree)
from rggham.failures import ConstructionError, FailureReason
from rggham.instance import VertexSet, threshold_radius
from rggham.tessellation import (DENSE_THRESHOLD, build_tessellation,
                                 classify_cells, hook_cells, tessellation_for)

# p = 2, r = 0.5: m = 4, k = 4, g = 16; cells with index offsets (dc, dr)
# are close iff (|dc|+1)^2 + (|dr|+1)^2 <= 64, so offsets reach out to 6


def node_sort_key(node):
    """Node order: old vertices ascending, then group nodes by sparse
    square, then label square."""
    if isinstance(node, GroupKey):
        return (1, node.sparse_square, node.label_square)
    return (0, node, 0)


def assert_node_order(ag):
    for nbrs in ag.adjacency.values():
        assert nbrs == sorted(nbrs, key=node_sort_key)


@pytest.fixture
def t():
    return build_tessellation(2.0, 0.5, 4)


def classify(t, blocks):
    return classify_cells(t, VertexSet(np.vstack(blocks)))


def dense(t, col, row, extra=0):
    return cell_points(t, col, row, DENSE_THRESHOLD + extra)


def test_density_graph_edge_and_witness(t):
    cls = classify(t, [dense(t, 3, 3), dense(t, 4, 3)])
    dg = build_density_graph(t, cls)
    assert list(dg.square_ids) == [0, 1]
    assert dg.adjacency == {0: [1], 1: [0]}
    g = t.grid
    assert dg.witness == {(0, 1): (3 * g + 3, 3 * g + 4)}
    assert dg.witness_cells(0, 1) == (3 * g + 3, 3 * g + 4)
    assert dg.witness_cells(1, 0) == (3 * g + 4, 3 * g + 3)


def test_density_witness_takes_first_row_major_pair(t):
    # both squares fully dense: the scan must settle on the (0,0)/(0,0)
    # local pair, i.e. global cells 0 and 4
    blocks = [dense(t, c, r) for r in range(4) for c in range(8)]
    dg = build_density_graph(t, classify(t, blocks))
    assert dg.witness[(0, 1)] == (0, 4)


def _scanned_density_graph(t, pts):
    """Edges and witnesses by a scan: every dense square R, its dense
    friends S after it in row-major order, and the first close pair of
    dense cells, R's cells then S's cells, both row-major. Density comes
    from per-cell counts over the whole grid, built from the points."""
    m, k, g = t.squares_per_side, t.cells_per_side, t.grid
    dense_mask = grid_cells(t, pts)[0] >= DENSE_THRESHOLD
    # each square's dense cells; ascending flat ids are row-major
    cells = {}
    for row, col in zip(*np.divmod(np.flatnonzero(dense_mask), g)):
        cells.setdefault(row // k * m + col // k, []).append(
            CellId(int(col), int(row)))
    adjacency = {s: [] for s in sorted(cells)}
    witness = {}
    for r_sq in adjacency:
        r_row, r_col = divmod(r_sq, m)
        for s_row in range(r_row - 2, r_row + 3):
            for s_col in range(r_col - 2, r_col + 3):
                s_sq = s_row * m + s_col
                if (not (0 <= s_row < m and 0 <= s_col < m) or s_sq <= r_sq
                        or s_sq not in cells):
                    continue
                pair = next(((a, b) for a in cells[r_sq] for b in cells[s_sq]
                             if cells_close(t, a, b)), None)
                if pair is not None:
                    witness[(r_sq, s_sq)] = tuple(c.row * g + c.col
                                                  for c in pair)
                    adjacency[r_sq].append(s_sq)
                    adjacency[s_sq].append(r_sq)
    return adjacency, witness


# (k, r, share of dense cells, late): late layouts keep no dense cell in the
# first k / 2 cell rows of any square, so later rows of R's cells decide
_DENSE_LAYOUTS = (
    [pytest.param((4, 0.2, share, False), id=str(share))
     for share in (0.02, 0.1, 0.5)]
    + [pytest.param((k, r, share, late),
                    id=f"k{k}-{share}" + "-late" * late)
       for k, r, share, late in [(4, 0.2, 0.2, True), (6, 0.3, 0.03, False),
                                 (6, 0.3, 0.2, True), (8, 0.45, 0.03, False),
                                 (8, 0.45, 0.1, False), (8, 0.45, 0.2, True)]])


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("layout", _DENSE_LAYOUTS)
@pytest.mark.parametrize("chunk", [None, 7])
def test_density_graph_matches_a_scan_of_friend_pairs(p, layout, chunk,
                                                      monkeypatch):
    # random dense cells over m = floor(2 / r) squares of k cells a side;
    # chunk 7 tests a few close pairs at a time, so most square pairs need
    # several blocks, and a row of R's cells several
    if chunk is not None:
        monkeypatch.setattr(tessellation, "_TEST_CHUNK", chunk)
    k, r, share, late = layout
    t = build_tessellation(p, r, k)
    rng = np.random.default_rng(int(share * 100))
    cells = np.flatnonzero(rng.random(t.grid ** 2) < share)
    if late:
        cells = cells[cells // t.grid % k >= k // 2]
    pts = np.vstack([dense(t, c % t.grid, c // t.grid) for c in cells])
    dg = build_density_graph(t, classify_cells(t, VertexSet(pts)))
    adjacency, witness = _scanned_density_graph(t, pts)
    assert dg.adjacency == {s: sorted(v) for s, v in adjacency.items()}
    assert list(dg.witness.items()) == list(witness.items())
    assert len(witness) > 0


def test_density_graph_without_dense_squares_is_empty(t):
    cls = classify(t, [cell_points(t, 5, 3, DENSE_THRESHOLD - 1)])
    dg = build_density_graph(t, cls)
    assert dg.square_ids.dtype == np.int64 and not dg.square_ids.size
    assert dg.adjacency == {} and dg.witness == {}


def test_density_graph_searches_in_little_memory():
    # at k = 64 the square offset (1, 0) has 16.7M close cell pairs, 510 MB
    # as an int64 table of four columns: the search holds one row's at most
    pts, r = adjacent_clumps()
    t = tessellation_for(len(pts), 2.0, r)
    assert t.cells_per_side == 64
    cls = classify_cells(t, VertexSet(pts))
    tracemalloc.start()
    try:
        dg = build_density_graph(t, cls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dg.witness == {(0, 1): (0, 64)}
    assert peak < 64 << 20


def test_density_graph_needs_close_dense_pair(t):
    # friends at Chebyshev 2, but the only dense cells sit 11 columns apart
    # ((11+1)^2 > 64), so no witness and no edge
    cls = classify(t, [dense(t, 0, 0), dense(t, 11, 0)])
    dg = build_density_graph(t, cls)
    assert dg.adjacency == {0: [], 2: []}
    assert dg.witness == {}


def test_density_graph_ignores_non_friends(t):
    cls = classify(t, [dense(t, 0, 0), dense(t, 15, 15)])
    dg = build_density_graph(t, cls)
    assert dg.adjacency == {0: [], 15: []}


def test_find_hook_prefers_smallest_row_then_col(t):
    cls = classify(t, [dense(t, 5, 3), dense(t, 3, 5), dense(t, 6, 5),
                       cell_points(t, 5, 5, 1)])
    g = t.grid
    assert hook_cells(t, cls, np.array([5 * g + 5])).tolist() == [3 * g + 5]
    cls2 = classify(t, [dense(t, 3, 5), dense(t, 6, 5),
                        cell_points(t, 5, 5, 1)])
    assert hook_cells(t, cls2, np.array([5 * g + 5])).tolist() == [5 * g + 3]


def test_find_hook_missing_reports_context(t):
    cls = classify(t, [cell_points(t, 5, 5, 1)])
    g = t.grid
    assert hook_cells(t, cls, np.array([5 * g + 5])).tolist() == [-1]
    with pytest.raises(ConstructionError) as err:
        attach_sparse_groups(t, cls, build_density_graph(t, cls))
    assert err.value.reason is FailureReason.HOOK_MISSING
    ctx = err.value.context
    assert ctx["cell"] == [5, 5]
    assert ctx["square"] == [1, 1]
    assert ctx["occupancy"] == 1


def _per_cell_groups(t, pts):
    """Groups and hooks one cell at a time: sparse squares ascending, each
    one's occupied cells row-major, each cell's hook the first dense cell
    in a row-major scan of the cells around it that cells_close accepts.
    Returns the HookMissing context of the first cell without one instead."""
    m, k, g = t.squares_per_side, t.cells_per_side, t.grid
    counts = grid_cells(t, pts)[0]
    dense_mask = counts >= DENSE_THRESHOLD
    square_dense = dense_mask.reshape(m, k, m, k).any(axis=(1, 3)).ravel()
    groups, hooks = {}, {}
    reach = 2 * k    # (|dcol| + 1) * cell_side <= r <= 2k * cell_side
    for sq in np.flatnonzero(~square_dense).tolist():
        srow, scol = divmod(sq, m)
        for row in range(srow * k, srow * k + k):
            for col in range(scol * k, scol * k + k):
                if not counts[row * g + col]:
                    continue
                hook = next((hr * g + hc
                             for hr in range(max(row - reach, 0), min(row + reach + 1, g))
                             for hc in range(max(col - reach, 0), min(col + reach + 1, g))
                             if dense_mask[hr * g + hc]
                             and cells_close(t, CellId(col, row), CellId(hc, hr))),
                            None)
                if hook is None:
                    return {"detail": "no dense cell close to an occupied cell",
                            "cell": [col, row], "square": [scol, srow],
                            "occupancy": int(counts[row * g + col])}
                hooks[row * g + col] = hook
                label = hook // g // k * m + hook % g // k
                groups.setdefault(GroupKey(sq, label), []).append(row * g + col)
    return groups, hooks


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("dense_share", [0.0, 0.3, 0.6, 0.9])
def test_attach_groups_match_a_per_cell_search(monkeypatch, p, dense_share):
    # over m = 10 squares of k = 4 cells a side, a square holds one or two
    # dense cells with chance dense_share; every square holds a few one- to
    # three-point cells. The rarer the dense squares, the more layouts stop
    # at HookMissing, which must name the same first cell whatever batches
    # the cells are hooked in: batches decide only where the search stops
    t = build_tessellation(p, 0.2, 4)
    m, k = t.squares_per_side, t.cells_per_side
    outcomes = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        blocks = []
        for sq in range(m * m):
            base = np.array([sq % m * k, sq // m * k])
            cells = rng.integers(0, k, (rng.integers(1, 6), 2)) + base
            blocks += [cell_points(t, c, r, rng.integers(1, 4)) for c, r in cells]
            if rng.random() < dense_share:
                cells = rng.integers(0, k, (rng.integers(1, 3), 2)) + base
                blocks += [dense(t, c, r) for c, r in cells]
        pts = np.vstack(blocks)
        cls = classify_cells(t, VertexSet(pts))
        want = _per_cell_groups(t, pts)
        for first in (1, 5, 256):
            monkeypatch.setattr(instance, "_FIRST_BATCH", first)
            try:
                ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
            except ConstructionError as err:
                assert err.reason is FailureReason.HOOK_MISSING
                assert err.context == want
                outcomes.add("missing")
                continue
            groups, hooks = want
            assert list(ag.groups.items()) == list(groups.items())
            assert ag.hooks == hooks
            for key in groups:
                assert ag.adjacency[key] == [key.label_square]
                assert key in ag.adjacency[key.label_square]
            outcomes.add("groups" if groups else "none")
    assert outcomes <= {"groups", "missing"}


def test_attach_stops_at_the_first_batch_with_a_hookless_cell(monkeypatch):
    # seed 0 at n = 5e4, p = inf, 25x: a few dense squares, and the first
    # sparse cell has no hook. The search must stop after the first batch,
    # not hook every sparse cell first, and still name the cell that a
    # search over every sparse cell, in square order, finds first
    n = 50000
    pts = np.random.Generator(np.random.PCG64(0)).random((n, 2))
    t = tessellation_for(n, math.inf, 25 * threshold_radius(n, math.inf))
    m, k, g = t.squares_per_side, t.cells_per_side, t.grid
    cls = classify_cells(t, VertexSet(pts))
    dg = build_density_graph(t, cls)
    assert dg.square_ids.size
    square = cls.cells // g // k * m + cls.cells % g // k
    by = np.lexsort((cls.cells, square))
    cells = cls.cells[by][~np.isin(square[by], dg.square_ids)]
    assert len(cells) > 2 * instance._FIRST_BATCH
    missing = np.flatnonzero(hook_cells(t, cls, cells) < 0)
    assert missing[0] == 0
    c = int(cells[missing[0]])
    rows = []

    def spy(t, cls, cells):
        rows.append(len(cells))
        return hook_cells(t, cls, cells)

    monkeypatch.setattr(auxgraphs, "hook_cells", spy)
    with pytest.raises(ConstructionError) as err:
        attach_sparse_groups(t, cls, dg)
    assert err.value.reason is FailureReason.HOOK_MISSING
    assert sum(rows) <= instance._FIRST_BATCH
    assert err.value.context == {
        "detail": "no dense cell close to an occupied cell",
        "cell": [c % g, c // g], "square": [c % g // k, c // g // k],
        "occupancy": int(cls.counts[np.searchsorted(cls.cells, c)])}


def test_attach_groups_row_major_membership(t):
    # dense cell (3,0) in square 0; sparse square (2,0) holds cells (8,0)
    # and (9,1), both close to the dense cell
    cls = classify(t, [dense(t, 3, 0),
                       cell_points(t, 8, 0, 2), cell_points(t, 9, 1, 1)])
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
    g = t.grid
    key = GroupKey(sparse_square=2, label_square=0)
    assert set(ag.groups) == {key}
    assert ag.groups[key] == [8, g + 9]
    assert ag.hooks == {8: 3, g + 9: 3}
    assert ag.adjacency[0] == [key]
    assert ag.adjacency[key] == [0]
    assert sorted(augmented_nodes(ag), key=node_sort_key) == [0, key]
    assert_node_order(ag)
    assert spanning_tree(ag).size() == 2


def _two_cluster_blocks(t, bridged):
    # dense cells (3,0) and (0,8); sparse square (1,1) holds cells (4,4)
    # (hooks up to (3,0)) and (6,6) (reaches (0,8), or the bridge (2,4)
    # when present); the bridge chains squares 0 - 4 - 8 together
    blocks = [dense(t, 3, 0), dense(t, 0, 8),
              cell_points(t, 4, 4, 1), cell_points(t, 6, 6, 1)]
    if bridged:
        blocks.append(dense(t, 2, 4))
    return blocks


def test_attach_groups_split_by_label_square(t):
    cls = classify(t, _two_cluster_blocks(t, bridged=False))
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
    g = t.grid
    assert set(ag.groups) == {GroupKey(5, 0), GroupKey(5, 8)}
    assert ag.groups[GroupKey(5, 0)] == [4 * g + 4]
    assert ag.groups[GroupKey(5, 8)] == [6 * g + 6]
    assert ag.hooks[4 * g + 4] == 3
    assert ag.hooks[6 * g + 6] == 8 * g
    assert_node_order(ag)
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.reason is FailureReason.DISCONNECTED


def test_attach_groups_lists_are_in_node_order():
    # squares are dense (one dense cell) or sparse (a few one-point cells)
    # at random, so that label squares gather several group nodes; the
    # lists must come out in node order without a sort
    t = build_tessellation(2.0, 0.2, 4)
    m, k = t.squares_per_side, t.cells_per_side
    groups = shared = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        blocks = []
        for sq in range(m * m):
            dense_square = rng.random() < 0.75
            for _ in range(1 if dense_square else rng.integers(1, 4)):
                c, r = rng.integers(0, k, 2) + (sq % m * k, sq // m * k)
                blocks.append(cell_points(t, c, r, DENSE_THRESHOLD
                                          if dense_square else 1))
        cls = classify(t, blocks)
        try:
            ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
        except ConstructionError as err:
            assert err.reason is FailureReason.HOOK_MISSING
            continue
        assert_node_order(ag)
        groups += len(ag.groups)
        shared += sum(sum(isinstance(node, GroupKey) for node in nbrs) > 1
                      for nbrs in ag.adjacency.values())
    assert groups > 200 and shared > 30


def test_spanning_tree_on_split_graph_reports_sizes(t):
    cls = classify(t, _two_cluster_blocks(t, bridged=False))
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context["reached"] == 2
    assert err.value.context["total"] == 4


def test_spanning_tree_without_old_vertices():
    dg = DensityGraph(square_ids=np.array([], dtype=np.int64),
                      adjacency={}, witness={})
    ag = AugmentedGraph(density=dg, adjacency={}, groups={}, hooks={})
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context["old_vertices"] == 0


def test_spanning_tree_and_euler_on_chained_instance(t):
    cls = classify(t, _two_cluster_blocks(t, bridged=True))
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
    assert_node_order(ag)
    tree = spanning_tree(ag)
    assert tree.root == 0
    assert tree.size() == 5
    assert tree.children[0] == [4, GroupKey(5, 0)]
    assert tree.children[4] == [8, GroupKey(5, 4)]

    seq = euler_traversal(tree)
    assert len(seq) == 2 * (tree.size() - 1) + 1
    assert seq[0] == seq[-1] == tree.root
    assert seq == [0, 4, 8, 4, GroupKey(5, 4), 4, 0, GroupKey(5, 0), 0]

    # every step is a tree edge, and every tree edge is walked exactly twice
    edges = Counter(frozenset(e) for e in zip(seq, seq[1:]))
    tree_edges = {frozenset((child, parent))
                  for child, parent in tree.parent.items()}
    assert set(edges) == tree_edges
    assert all(cnt == 2 for cnt in edges.values())

    # appearance count equals tree degree, plus one for the root
    appear = Counter(seq)
    for node in augmented_nodes(ag):
        deg = len(tree.children[node]) + (node != tree.root)
        assert appear[node] == deg + (node == tree.root)


def test_euler_single_node_tree():
    tree = SpanningTree(root=7, parent={}, children={7: []})
    assert euler_traversal(tree) == [7]


def test_euler_hand_case():
    g = GroupKey(2, 0)
    tree = SpanningTree(root=0, parent={1: 0, g: 0, 5: 1},
                        children={0: [1, g], 1: [5], 5: [], g: []})
    assert euler_traversal(tree) == [0, 1, 5, 1, 0, g, 0]
