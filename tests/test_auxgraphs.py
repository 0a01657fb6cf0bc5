import math
from collections import Counter

import numpy as np
import pytest

from helpers import cell_points, filled_grid
from rggham import auxgraphs
from rggham.auxgraphs import (AugmentedGraph, DensityGraph, GroupKey,
                              SpanningTree, _close_cell_pairs, _closeness,
                              attach_sparse_groups,
                              build_density_graph, euler_traversal,
                              find_hook_cell, node_sort_key, spanning_tree)
from rggham.failures import ConstructionError, FailureReason
from rggham.instance import VertexSet
from rggham.tessellation import (DENSE_THRESHOLD, CellId, build_tessellation,
                                 cells_close, classify_cells)

# p = 2, r = 0.5: m = 4, k = 4, g = 16; cells with index offsets (dc, dr)
# are close iff (|dc|+1)^2 + (|dr|+1)^2 <= 64, so offsets reach out to 6


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("r, k", [(0.5, 4), (0.2, 4), (0.45, 6)])
def test_close_cell_pairs_match_a_scan_of_cells_close(p, r, k):
    # every friend offset later in row-major order, against the scan over
    # R's cells then S's cells, both row-major
    t = build_tessellation(p, r, k)
    g = t.grid
    close = _closeness(t)
    for dsr in range(3):
        for dsc in range(-2, 3):
            if dsr == 0 and dsc <= 0:
                continue
            want = [(lr_r * g + lc_r, lr_s * g + lc_s)
                    for lr_r in range(k) for lc_r in range(k)
                    for lr_s in range(k) for lc_s in range(k)
                    if cells_close(t, CellId(lc_r, lr_r),
                                   CellId(dsc * k + lc_s, dsr * k + lr_s))]
            da, db = _close_cell_pairs(t, close, dsc, dsr)
            assert list(zip(da.tolist(), db.tolist())) == want


def _scanned_density_graph(t, cls):
    """Edges and witnesses by a scan: every dense square R, its dense
    friends S after it in row-major order, and the first close pair of
    dense cells, R's cells then S's cells, both row-major."""
    m, k, g = t.squares_per_side, t.cells_per_side, t.grid
    dense = [s for s in range(m * m) if cls.square_dense_count[s] > 0]
    adjacency = {s: [] for s in dense}
    witness = {}
    for r_sq in dense:
        r_row, r_col = divmod(r_sq, m)
        for s_row in range(r_row - 2, r_row + 3):
            for s_col in range(r_col - 2, r_col + 3):
                s_sq = s_row * m + s_col
                if (not (0 <= s_row < m and 0 <= s_col < m) or s_sq <= r_sq
                        or cls.square_dense_count[s_sq] == 0):
                    continue
                pairs = ((ra * g + rc, sa * g + sc)
                         for ra in range(r_row * k, r_row * k + k)
                         for rc in range(r_col * k, r_col * k + k)
                         for sa in range(s_row * k, s_row * k + k)
                         for sc in range(s_col * k, s_col * k + k)
                         if cells_close(t, CellId(rc, ra), CellId(sc, sa)))
                for ca, cb in pairs:
                    if cls.dense_mask[ca] and cls.dense_mask[cb]:
                        witness[(r_sq, s_sq)] = (ca, cb)
                        adjacency[r_sq].append(s_sq)
                        adjacency[s_sq].append(r_sq)
                        break
    return adjacency, witness


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("share", [0.02, 0.1, 0.5])
@pytest.mark.parametrize("chunk", [None, 7])
def test_density_graph_matches_a_scan_of_friend_pairs(p, share, chunk,
                                                      monkeypatch):
    # random dense cells over m = 10 squares of k = 4 cells a side; chunk 7
    # tests a few table entries at a time, so most pairs need several blocks
    if chunk is not None:
        monkeypatch.setattr(auxgraphs, "_TEST_CHUNK", chunk)
    t = build_tessellation(p, 0.2, 4)
    rng = np.random.default_rng(int(share * 100))
    cells = np.flatnonzero(rng.random(t.grid ** 2) < share)
    cls = classify(t, [dense(t, c % t.grid, c // t.grid) for c in cells])
    dg = build_density_graph(t, cls)
    adjacency, witness = _scanned_density_graph(t, cls)
    assert dg.adjacency == {s: sorted(v) for s, v in adjacency.items()}
    assert list(dg.witness.items()) == list(witness.items())
    assert len(witness) > 0


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
    assert find_hook_cell(t, cls, CellId(5, 5)) == 3 * g + 5
    cls2 = classify(t, [dense(t, 3, 5), dense(t, 6, 5),
                        cell_points(t, 5, 5, 1)])
    assert find_hook_cell(t, cls2, CellId(5, 5)) == 5 * g + 3


def test_find_hook_missing_reports_context(t):
    cls = classify(t, [cell_points(t, 5, 5, 1)])
    with pytest.raises(ConstructionError) as err:
        find_hook_cell(t, cls, CellId(5, 5))
    assert err.value.reason is FailureReason.HOOK_MISSING
    ctx = err.value.context
    assert ctx["cell"] == [5, 5]
    assert ctx["square"] == [1, 1]
    assert ctx["occupancy"] == 1


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
    assert sorted(ag.nodes(), key=node_sort_key) == [0, key]
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
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.reason is FailureReason.DISCONNECTED


def test_spanning_tree_on_split_graph_reports_sizes(t):
    cls = classify(t, _two_cluster_blocks(t, bridged=False))
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context["reached"] == 2
    assert err.value.context["total"] == 4


def test_spanning_tree_without_old_vertices(t):
    dg = DensityGraph(tessellation=t, square_ids=np.array([], dtype=np.int64),
                      adjacency={}, witness={})
    ag = AugmentedGraph(tessellation=t, density=dg,
                        old_vertices=dg.square_ids, adjacency={},
                        groups={}, hooks={})
    with pytest.raises(ConstructionError) as err:
        spanning_tree(ag)
    assert err.value.reason is FailureReason.DISCONNECTED
    assert err.value.context["old_vertices"] == 0


def test_spanning_tree_and_euler_on_chained_instance(t):
    cls = classify(t, _two_cluster_blocks(t, bridged=True))
    ag = attach_sparse_groups(t, cls, build_density_graph(t, cls))
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
    for node in ag.nodes():
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
