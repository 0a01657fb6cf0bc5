"""Crafted-instance builders and reference rules shared across test modules."""

from typing import NamedTuple

import numpy as np

from rggham.geometry import Box, _lp_from_abs
from rggham.instance import (_ABS_SLACK, _REL_SLACK, SpatialIndex,
                             occupied_cells, threshold_radius)
from rggham.tessellation import tessellation_for


class CellId(NamedTuple):
    col: int
    row: int


def locate(t, x, y):
    """The cell of point (x, y), one point at a time: half-open on interior
    boundaries, and a coordinate exactly 1.0 belongs to the last cell."""
    g = t.grid
    return CellId(min(int(x * g), g - 1), min(int(y * g), g - 1))


def cell_box(t, cell):
    """The closed box of a cell, as a geometry.Box."""
    s = t.cell_side
    return Box(cell.col * s, (cell.col + 1) * s, cell.row * s, (cell.row + 1) * s)


def cell_points(t, col, row, count):
    """count points strictly inside cell (col, row), on a small lattice."""
    side = int(np.ceil(np.sqrt(count)))
    i = np.arange(count)
    xs = (col + (i % side + 0.5) / side) * t.cell_side
    ys = (row + (i // side + 0.5) / side) * t.cell_side
    return np.column_stack([xs, ys])


def filled_grid(t, per_cell, skip=frozenset()):
    """Every cell of the grid holds per_cell points, except the skipped ones.

    skip is a set of global (col, row) cell ids left empty.
    """
    blocks = [cell_points(t, c, r, per_cell)
              for r in range(t.grid) for c in range(t.grid)
              if (c, r) not in skip]
    return np.vstack(blocks)


def square_cells(t, scol, srow):
    """All global (col, row) cell ids of one square."""
    k = t.cells_per_side
    return {(scol * k + lc, srow * k + lr)
            for lr in range(k) for lc in range(k)}


def grid_cells(t, points):
    """A dense reference for the classification, built from the points
    alone: over every flat cell id row * g + col of the g x g grid, the
    occupancy, and order / starts listing each cell's vertices in ascending
    index order (order[starts[c]:starts[c + 1]] for cell c)."""
    col, row = (np.minimum((np.asarray(points)[:, i] * t.grid).astype(np.int64),
                           t.grid - 1) for i in (0, 1))
    flat = row * t.grid + col
    counts = np.bincount(flat, minlength=t.grid ** 2)
    starts = np.concatenate([[0], np.cumsum(counts)])
    return counts, np.argsort(flat, kind="stable"), starts


def cells_close(t, a, b):
    """The closeness rule one cell pair at a time, with the scalar norm:
    True iff the sup over point pairs of cells a and b is <= r."""
    s = t.cell_side
    sx = (abs(a.col - b.col) + 1) * s
    sy = (abs(a.row - b.row) + 1) * s
    return _lp_from_abs(t.p, sx, sy) <= t.radius


def window_reach(p, r, side):
    """SpatialIndex.reach one offset at a time, as the grid once listed its
    window: the offsets (dc, dr), dr >= 0, whose gap to cell (0, 0) is at
    most r plus the rounding margin, and the widest |dc| at each dr."""
    s = 1.0 / side
    most = int(min(r * side + 2, side - 1))
    window = [(dc, dr) for dr in range(most + 1) for dc in range(-most, most + 1)
              if _lp_from_abs(p, max(abs(dc) - 1, 0) * s, max(dr - 1, 0) * s)
              <= r * (1.0 + _REL_SLACK) + _ABS_SLACK]
    reach = [0] * (max(dr for _, dr in window) + 1)
    for dc, dr in window:
        reach[dr] = max(reach[dr], abs(dc))
    return reach


def grid_of_side(points, p, r, side):
    """A SpatialIndex of the points on side x side cells, a side that
    build_spatial_index need not choose: reach and the searches that read
    it hold at every side."""
    return SpatialIndex(points, r, p, side, *occupied_cells(points, side))


def augmented_nodes(ag):
    """Every node of an AugmentedGraph: its old vertices ascending, then
    its group nodes."""
    return [int(s) for s in ag.density.square_ids] + list(ag.groups)


def adjacent_clumps():
    """10,096 points and r = 1.01 x threshold at p = 2, where
    tessellation_for picks k = 64: 10,000 uniform points and two clumps of
    48 in the middle halves of cells (0, 0) and (64, 0), the first cells of
    squares 0 and 1. The clumps are the only dense cells."""
    n = 10_096
    r = 1.01 * threshold_radius(n, 2.0)
    s = tessellation_for(n, 2.0, r).cell_side
    clumps = [s * (0.25 + 0.5 * np.random.default_rng(c).random((48, 2))
                   + [c, 0]) for c in (0, 64)]
    uniform = np.random.default_rng(5).random((n - 96, 2))
    return np.vstack([uniform] + clumps), r


def corner_clusters():
    """Five points near (0, 0) and five near (1, 1), about 1.4 apart."""
    rng = np.random.default_rng(4)
    a = 0.01 * rng.random((5, 2))
    b = 1.0 - 0.01 * rng.random((5, 2))
    return np.vstack([a, b])
