"""Auxiliary graphs over tessellation squares and the traversal order.

Two graphs drive the cycle construction:

  * the density graph has one vertex per dense square and an edge between
    friend squares that own a close pair of dense cells (the witness pair,
    one cell in each square);
  * the augmented graph adds one leaf node per (sparse square S, label
    square R) where R is a dense square holding hook cells for some of S's
    vertices. Every vertex of S is hooked to its lexicographically smallest
    close dense cell, and the hook's square is provably a friend of S.

A square contributes at most one edge per friend to an old vertex (a friend
is either dense, giving a density edge, or sparse, giving at most one group
node labelled by that vertex), so degrees stay at most 24. A spanning tree
of the augmented graph, walked in euler order (each tree edge twice), is the
skeleton the cycle follows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .failures import ConstructionError, FailureReason
from .tessellation import (FRIEND_CHEBYSHEV, MAX_FRIENDS, CellClassification,
                           CellId, Tessellation, cells_close, close_offsets)


class GroupKey(NamedTuple):
    """Identity of a sparse-square group node: (sparse square, label square)."""
    sparse_square: int
    label_square: int


Node = Union[int, GroupKey]  # old vertices are flat square ids


def node_sort_key(node: Node) -> tuple:
    if isinstance(node, GroupKey):
        return (1, node.sparse_square, node.label_square)
    return (0, node, 0)


# --------------------------------------------------------------------------
# density graph
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGraph:
    """Dense squares, friendship edges with dense witness pairs.

    witness maps a canonical edge (lower flat id first) to the flat cell ids
    of its close dense pair, aligned with the edge orientation.
    """

    tessellation: Tessellation
    square_ids: np.ndarray
    adjacency: dict
    witness: dict

    def witness_cells(self, a: int, b: int) -> tuple[int, int]:
        """Witness pair oriented (cell in a, cell in b)."""
        if a < b:
            return self.witness[(a, b)]
        cb, ca = self.witness[(b, a)]
        return ca, cb


def _closeness(t: Tessellation) -> np.ndarray:
    """close[|drow|, |dcol|] tells whether cells at that index offset are
    close, for every offset between cells of friend squares (below 3k)."""
    span = (FRIEND_CHEBYSHEV + 1) * t.cells_per_side
    return np.array([[cells_close(t, CellId(0, 0), CellId(dc, dr))
                      for dc in range(span)] for dr in range(span)])


def _close_cell_pairs(t: Tessellation, close: np.ndarray, dsc: int,
                      dsr: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell pairs close across square offset (dsc, dsr), as two aligned
    arrays of flat id offsets (of R's cell from R's first cell, of S's cell
    from S's first cell).

    Scan order is row-major over R's cells, then row-major over S's cells,
    so taking the first dense hit is deterministic. Closeness depends on the
    index offset only, hence the table is shared by all square pairs at the
    same offset.
    """
    k, g = t.cells_per_side, t.grid
    lr_r, lc_r, lr_s, lc_s = (a.ravel() for a in np.meshgrid(
        *[np.arange(k)] * 4, indexing="ij"))
    hit = close[np.abs(dsr * k + lr_s - lr_r), np.abs(dsc * k + lc_s - lc_r)]
    return (lr_r * g + lc_r)[hit], (lr_s * g + lc_s)[hit]


# friend offsets (dcol, drow) of the squares after a square in row-major order
_FORWARD_FRIENDS = [(dc, dr) for dr in range(FRIEND_CHEBYSHEV + 1)
                    for dc in range(-FRIEND_CHEBYSHEV, FRIEND_CHEBYSHEV + 1)
                    if dr > 0 or dc > 0]
# ceiling on the (square pair, cell pair) tests made at once
_TEST_CHUNK = 1 << 20


def _first_dense_pair(dense: np.ndarray, base_r: np.ndarray,
                      base_s: np.ndarray, da: np.ndarray,
                      db: np.ndarray) -> np.ndarray:
    """For each square pair i, the first j with dense cells base_r[i] + da[j]
    and base_s[i] + db[j], or -1 if none.

    Tests the pairs still without a hit against a block of the table at
    once. The first block is one entry, which settles most pairs where
    most cells are dense; each next block is twice as long, up to
    _TEST_CHUNK tests a block.
    """
    first = np.full(len(base_r), -1)
    todo = np.arange(len(base_r))
    lo, step = 0, 1
    while todo.size and lo < len(da):
        hit = (dense[base_r[todo, None] + da[lo:lo + step]]
               & dense[base_s[todo, None] + db[lo:lo + step]])
        got = hit.any(axis=1)
        first[todo[got]] = lo + hit[got].argmax(axis=1)
        todo = todo[~got]
        lo += step
        step = max(1, min(2 * step, _TEST_CHUNK // max(todo.size, 1)))
    return first


def build_density_graph(t: Tessellation, cls: CellClassification) -> DensityGraph:
    """Link dense friend squares that own a close pair of dense cells.

    The witness of an edge is the first such pair in _close_cell_pairs'
    scan order. For each of the 12 forward friend offsets, all dense square
    pairs at that offset are tested at once against its table.
    """
    m = t.squares_per_side
    k = t.cells_per_side
    g = t.grid
    dense_squares = np.nonzero(cls.square_dense_count > 0)[0]
    if not dense_squares.size:
        return DensityGraph(tessellation=t, square_ids=dense_squares,
                            adjacency={}, witness={})
    close = _closeness(t)
    r_row, r_col = np.divmod(dense_squares, m)
    # columns (R, S, R's witness cell, S's witness cell), one per edge
    blocks = [np.zeros((4, 0), dtype=np.int64)]
    for dc, dr in _FORWARD_FRIENDS:
        s_col, s_row = r_col + dc, r_row + dr
        at = np.flatnonzero((s_col >= 0) & (s_col < m) & (s_row < m))
        at = at[cls.square_dense_count[s_row[at] * m + s_col[at]] > 0]
        if not at.size:
            continue
        base_r = r_row[at] * k * g + r_col[at] * k
        base_s = s_row[at] * k * g + s_col[at] * k
        da, db = _close_cell_pairs(t, close, dc, dr)
        j = _first_dense_pair(cls.dense_mask, base_r, base_s, da, db)
        hit = j >= 0
        j = j[hit]
        blocks.append(np.stack((dense_squares[at[hit]],
                                s_row[at[hit]] * m + s_col[at[hit]],
                                base_r[hit] + da[j], base_s[hit] + db[j])))
    edges = np.concatenate(blocks, axis=1)
    # R ascending, then S ascending: the order a scan of R's friends finds
    r_sq, s_sq, ca, cb = edges[:, np.lexsort((edges[1], edges[0]))].tolist()
    witness = dict(zip(zip(r_sq, s_sq), zip(ca, cb)))
    # each edge in both directions, sorted by end, then by neighbour
    end = np.concatenate((edges[0], edges[1]))
    nbr = np.concatenate((edges[1], edges[0]))
    by_end = np.lexsort((nbr, end))
    hi = np.searchsorted(end[by_end], dense_squares, side="right")
    lo = np.append(0, hi[:-1])
    assert (hi - lo).max(initial=0) <= MAX_FRIENDS
    nbr = nbr[by_end].tolist()
    adjacency = {s: nbr[a:b] for s, a, b in
                 zip(dense_squares.tolist(), lo.tolist(), hi.tolist())}
    return DensityGraph(tessellation=t, square_ids=dense_squares,
                        adjacency=adjacency, witness=witness)


# --------------------------------------------------------------------------
# hooks and the augmented graph
# --------------------------------------------------------------------------

def find_hook_cell(t: Tessellation, cls: CellClassification, cell: CellId) -> int:
    """Flat id of the lexicographically smallest dense cell close to cell.

    Raises ConstructionError(HOOK_MISSING) when no close dense cell exists;
    in the intended density regime every sparse cell has one.
    """
    g = t.grid
    for dc, dr in close_offsets(t):
        col = cell.col + dc
        row = cell.row + dr
        if 0 <= col < g and 0 <= row < g:
            flat = row * g + col
            if cls.dense_mask[flat]:
                return flat
    sq = t.square_of(cell)
    raise ConstructionError(
        FailureReason.HOOK_MISSING,
        {"detail": "no dense cell close to an occupied cell",
         "cell": [cell.col, cell.row],
         "square": [sq.col, sq.row],
         "occupancy": int(cls.counts[cell.row * g + cell.col])})


@dataclass(frozen=True)
class AugmentedGraph:
    """Density graph plus one leaf node per (sparse square, label square).

    groups maps each GroupKey to the flat ids of the sparse square's cells
    hooked into the label square, in row-major order; hooks maps each such
    cell to its hook cell. Group nodes attach only to their label vertex.
    """

    tessellation: Tessellation
    density: DensityGraph
    old_vertices: np.ndarray
    adjacency: dict
    groups: dict
    hooks: dict

    def nodes(self) -> list[Node]:
        out: list[Node] = [int(s) for s in self.old_vertices]
        out.extend(self.groups.keys())
        return out


def attach_sparse_groups(t: Tessellation, cls: CellClassification,
                         dg: DensityGraph) -> AugmentedGraph:
    m = t.squares_per_side
    g = t.grid
    k = t.cells_per_side
    adjacency: dict[Node, list[Node]] = {s: list(nbrs)
                                         for s, nbrs in dg.adjacency.items()}
    groups: dict[GroupKey, list[int]] = {}
    hooks: dict[int, int] = {}

    sparse_squares = np.nonzero((cls.square_vertex_count > 0)
                                & (cls.square_dense_count == 0))[0]
    for s_flat in sparse_squares:
        s_flat = int(s_flat)
        s_row, s_col = divmod(s_flat, m)
        labels_seen = set()
        for lr in range(k):
            base = (s_row * k + lr) * g + s_col * k
            for lc in range(k):
                flat_cell = base + lc
                if cls.counts[flat_cell] == 0:
                    continue
                cell = CellId(s_col * k + lc, s_row * k + lr)
                hook = find_hook_cell(t, cls, cell)
                hook_sq = (hook // g) // k * m + (hook % g) // k
                assert max(abs(hook_sq % m - s_col), abs(hook_sq // m - s_row)) <= 2, \
                    "hook square must be a friend of the sparse square"
                hooks[flat_cell] = hook
                key = GroupKey(s_flat, hook_sq)
                if key not in groups:
                    groups[key] = []
                    adjacency.setdefault(hook_sq, []).append(key)
                    adjacency[key] = [hook_sq]
                    labels_seen.add(hook_sq)
                groups[key].append(flat_cell)
        assert len(labels_seen) <= MAX_FRIENDS

    for node, nbrs in adjacency.items():
        nbrs.sort(key=node_sort_key)
        assert len(nbrs) <= MAX_FRIENDS
    return AugmentedGraph(tessellation=t, density=dg,
                          old_vertices=dg.square_ids,
                          adjacency=adjacency, groups=groups, hooks=hooks)


# --------------------------------------------------------------------------
# spanning tree and euler order
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanningTree:
    root: Node
    parent: dict
    children: dict

    def size(self) -> int:
        return len(self.parent) + 1


def spanning_tree(ag: AugmentedGraph) -> SpanningTree:
    """BFS tree rooted at the smallest old vertex.

    Raises ConstructionError(DISCONNECTED) when the augmented graph does not
    reach every node (or has no old vertex at all).
    """
    total = len(ag.old_vertices) + len(ag.groups)
    if len(ag.old_vertices) == 0:
        raise ConstructionError(FailureReason.DISCONNECTED,
                                {"detail": "no dense square exists",
                                 "old_vertices": 0,
                                 "group_nodes": len(ag.groups)})
    root: Node = int(ag.old_vertices.min())
    parent: dict[Node, Node] = {}
    children: dict[Node, list[Node]] = {root: []}
    queue = deque([root])
    seen = {root}
    while queue:
        u = queue.popleft()
        for v in ag.adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                children[u].append(v)
                children[v] = []
                queue.append(v)
    if len(seen) != total:
        raise ConstructionError(
            FailureReason.DISCONNECTED,
            {"detail": "augmented graph splits",
             "reached": len(seen), "total": total})
    return SpanningTree(root=root, parent=parent, children=children)


def euler_traversal(tree: SpanningTree) -> list[Node]:
    """Nodes in depth-first euler order: each tree edge walked both ways.

    A node of degree d appears d times, the root d+1 times; the sequence has
    2(V-1)+1 entries and consecutive entries are tree neighbours.
    """
    seq: list[Node] = [tree.root]
    stack: list[tuple[Node, int]] = [(tree.root, 0)]
    while stack:
        node, idx = stack.pop()
        kids = tree.children[node]
        if idx < len(kids):
            stack.append((node, idx + 1))
            seq.append(kids[idx])
            stack.append((kids[idx], 0))
        elif stack:
            seq.append(stack[-1][0])
    assert len(seq) == 2 * (tree.size() - 1) + 1
    return seq
