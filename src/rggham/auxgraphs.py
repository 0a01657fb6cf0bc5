"""Auxiliary graphs over tessellation squares and the traversal order.

Two graphs drive the cycle construction:

  * the density graph has one vertex per dense square and an edge between
    friend squares R < S that own a close pair of dense cells. The witness
    pair is the first one, R's cells then S's cells, both row-major,
    searched one row of R's cells at a time;
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
from .instance import doubling_batches, find_slots, gather_runs
from .tessellation import (FRIEND_CHEBYSHEV, MAX_FRIENDS, CellClassification,
                           Tessellation, first_hits, hook_cells)


class GroupKey(NamedTuple):
    """Identity of a sparse-square group node: (sparse square, label square)."""
    sparse_square: int
    label_square: int


Node = Union[int, GroupKey]  # old vertices are flat square ids


# --------------------------------------------------------------------------
# density graph
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGraph:
    """Dense squares, friendship edges with dense witness pairs.

    witness maps a canonical edge (lower flat id first) to the flat cell ids
    of its close dense pair, aligned with the edge orientation.
    """

    square_ids: np.ndarray
    adjacency: dict
    witness: dict

    def witness_cells(self, a: int, b: int) -> tuple[int, int]:
        """Witness pair oriented (cell in a, cell in b)."""
        if a < b:
            return self.witness[(a, b)]
        cb, ca = self.witness[(b, a)]
        return ca, cb


# friend offsets (dcol, drow) of the squares after a square in row-major order
_FORWARD_FRIENDS = [(dc, dr) for dr in range(FRIEND_CHEBYSHEV + 1)
                    for dc in range(-FRIEND_CHEBYSHEV, FRIEND_CHEBYSHEV + 1)
                    if dr > 0 or dc > 0]


def build_density_graph(t: Tessellation, cls: CellClassification) -> DensityGraph:
    """Link dense friend squares that own a close pair of dense cells.

    The witness of an edge (R, S), R before S, is the first such pair, R's
    cells row-major, then S's cells row-major. Each of the 12 forward friend
    offsets is searched one row of R's cells at a time: the row's close
    pairs come off close_table (at most k^3), and the square pairs at that
    offset still without a witness are searched at once along them
    (first_hits).
    """
    m = t.squares_per_side
    k = t.cells_per_side
    g = t.grid
    dense_squares = cls.squares[cls.square_dense_count > 0]
    r_row, r_col = np.divmod(dense_squares, m)
    first_cell = r_row * k * g + r_col * k
    lc_r, lr_s, lc_s = np.ogrid[:k, :k, :k]
    # columns (R, S, R's witness cell, S's witness cell), one per edge
    blocks = [np.zeros((4, 0), dtype=np.int64)]
    for dc, dr in _FORWARD_FRIENDS:
        s_col, s_row = r_col + dc, r_row + dr
        at = np.flatnonzero((s_col >= 0) & (s_col < m) & (s_row < m))
        at = at[find_slots(dense_squares, s_row[at] * m + s_col[at])[1]]
        for lr_r in range(k):
            if not at.size:
                break
            # the row's close pairs: R's cell (lr_r, cr), S's cell (sr, sc)
            cr, sr, sc = np.nonzero(t.close_table[
                np.abs(dr * k + lr_s - lr_r), np.abs(dc * k + lc_s - lc_r)])
            if not cr.size:
                continue
            # both cells as flat id offsets from R's first cell
            da, db = lr_r * g + cr, (dr * k + sr) * g + dc * k + sc
            base = first_cell[at]
            j = first_hits(len(at), len(da), lambda rows, lo, hi: (
                cls.dense(base[rows, None] + da[lo:hi])
                & cls.dense(base[rows, None] + db[lo:hi])))
            hit = j >= 0
            sq, sq_base, j = dense_squares[at[hit]], base[hit], j[hit]
            blocks.append(np.stack((sq, sq + dr * m + dc,
                                    sq_base + da[j], sq_base + db[j])))
            at = at[~hit]
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
    return DensityGraph(square_ids=dense_squares, adjacency=adjacency,
                        witness=witness)


# --------------------------------------------------------------------------
# hooks and the augmented graph
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentedGraph:
    """Density graph plus one leaf node per (sparse square, label square).

    groups maps each GroupKey to the flat ids of the sparse square's cells
    hooked into the label square, in row-major order; hooks maps each such
    cell to its hook cell. Group nodes attach only to their label vertex.
    Every adjacency list is in node order: old vertices ascending, then
    group nodes by sparse square, then label square.
    """

    density: DensityGraph
    adjacency: dict
    groups: dict
    hooks: dict


def attach_sparse_groups(t: Tessellation, cls: CellClassification,
                         dg: DensityGraph) -> AugmentedGraph:
    """Hook every occupied cell of a sparse square to its smallest close
    dense cell (hook_cells), and group the cells by (square, hook square).

    The cells come off cls.by_square, sparse squares ascending, each one's
    cells row-major, in doubling_batches: the first batch that holds a cell
    without a hook raises ConstructionError(HOOK_MISSING) for the first
    such cell; in the intended density regime every sparse cell has one.
    """
    m, g, k = t.squares_per_side, t.grid, t.cells_per_side
    adjacency: dict[Node, list[Node]] = {s: list(nbrs)
                                         for s, nbrs in dg.adjacency.items()}
    groups: dict[GroupKey, list[int]] = {}

    sparse = cls.square_dense_count == 0
    size = np.diff(cls.square_starts)[sparse]
    slot = gather_runs(cls.by_square, cls.square_starts[:-1][sparse], size)
    cells, square = cls.cells[slot], np.repeat(cls.squares[sparse], size)
    hook = np.empty_like(cells)
    for at in doubling_batches(len(cells)):
        hook[at] = hook_cells(t, cls, cells[at])
        missing = np.flatnonzero(hook[at] < 0)
        if missing.size:
            i = at.start + int(missing[0])
            c = int(cells[i])
            raise ConstructionError(
                FailureReason.HOOK_MISSING,
                {"detail": "no dense cell close to an occupied cell",
                 "cell": [c % g, c // g],
                 "square": [c % g // k, c // g // k],
                 "occupancy": int(cls.counts[slot[i]])})
    hook_sq = hook // g // k * m + hook % g // k
    assert (np.maximum(abs(hook_sq % m - square % m),
                       abs(hook_sq // m - square // m)) <= FRIEND_CHEBYSHEV).all(), \
        "hook square must be a friend of the sparse square"
    for cell, s_flat, label in zip(cells.tolist(), square.tolist(),
                                   hook_sq.tolist()):
        key = GroupKey(s_flat, label)
        if key not in groups:
            groups[key] = []
            adjacency.setdefault(label, []).append(key)
            adjacency[key] = [label]
        groups[key].append(cell)

    # lists are in node order as built: sparse squares are taken ascending;
    # a square has at most 24 friends, so at most 24 group nodes
    assert all(len(nbrs) <= MAX_FRIENDS for nbrs in adjacency.values())
    return AugmentedGraph(density=dg, adjacency=adjacency, groups=groups,
                          hooks=dict(zip(cells.tolist(), hook.tolist())))


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
    old_vertices = ag.density.square_ids
    total = len(old_vertices) + len(ag.groups)
    if len(old_vertices) == 0:
        raise ConstructionError(FailureReason.DISCONNECTED,
                                {"detail": "no dense square exists",
                                 "old_vertices": 0,
                                 "group_nodes": len(ag.groups)})
    root: Node = int(old_vertices.min())
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
