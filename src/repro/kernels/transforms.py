"""Batched grid geometry: split ranges, ownership, gaps and ``f2`` sets.

Columnar twins of the per-rectangle methods on
:class:`repro.grid.partitioning.GridPartitioning`.  The grid's boundary
lists are mirrored once into float64 arrays (cached on the grid
instance); ``searchsorted`` with the matching ``side`` reproduces
``bisect_left``/``bisect_right`` exactly, and every distance expression
is the scalar formula evaluated elementwise, so the results are
identical to the scalar methods value-for-value.

The scalar ``fourth_quadrant_within`` stops its row/col loops at the
first cell past the bound; within the quadrant both gaps grow
monotonically with row/col, so the early exit equals a plain filter —
which is what the broadcast mask computes.
"""

from __future__ import annotations

__all__ = [
    "cell_ids_of_starts",
    "col_ranges",
    "cols_of_x",
    "grid_edges",
    "min_gaps_to_other_cell",
    "min_gaps_to_own_cells",
    "overlap_cell_lists",
    "quadrant_cell_lists",
    "row_ranges",
    "rows_of_y",
    "two_way_owner_cells",
]


def grid_edges(np, grid):
    """Float64 mirrors of the grid's boundary lists, cached on the grid.

    Returns ``(x_edges, y_edges, row_edges, col_edges)`` where
    ``row_edges[j]`` / ``col_edges[i]`` are the scalar ``_row_edge(j)``
    / ``_col_edge(i)`` values used by the ``f2`` distance tests.
    """
    cached = getattr(grid, "_kernel_edges", None)
    if cached is None:
        cached = (
            np.array(grid._x_edges, dtype=np.float64),
            np.array(grid._y_edges, dtype=np.float64),
            np.array([grid._row_edge(j) for j in range(grid.rows)], dtype=np.float64),
            np.array([grid._col_edge(i) for i in range(grid.cols)], dtype=np.float64),
        )
        grid._kernel_edges = cached
    return cached


def cols_of_x(np, grid, px):
    """``col_of_x`` for an array of x coordinates."""
    x_edges = grid_edges(np, grid)[0]
    c = np.searchsorted(x_edges, px, side="right") - 1
    # minimum(maximum(...)) is np.clip by definition, minus clip's
    # per-call dtype-limit construction — these run once per cell batch.
    return np.minimum(np.maximum(c, 0), grid.cols - 1)


def rows_of_y(np, grid, py):
    """``row_of_y`` for an array of y coordinates."""
    y_edges = grid_edges(np, grid)[1]
    p = np.searchsorted(y_edges, py, side="left")
    return np.minimum(np.maximum(grid.rows - p, 0), grid.rows - 1)


def cell_ids_of_starts(np, grid, batch):
    """``cell_id_of`` (start-point ownership) for a whole batch."""
    return rows_of_y(np, grid, batch.y) * grid.cols + cols_of_x(np, grid, batch.x)


def two_way_owner_cells(np, grid, anchor_batch, ia, base_batch, ib, d):
    """``two_way_range_owner(anchor_i, base_i, d, grid)`` for aligned row
    pairs (Sections 5.2 / 5.3): the cell owning the start-point of
    ``anchor^e(d) ∩ base``, or ``-1`` where the two are disjoint (the
    scalar ``None``).

    The float expressions are the scalar ones verbatim: ``Rect.enlarge``
    moves the corner first and then widens the sides, ``intersection``
    takes the max of the left edges and the min of the top edges, and
    ``cell_id_of`` looks up that point.
    """
    if d > 0:
        ex_min = anchor_batch.x[ia] - d
        ex_max = ex_min + (anchor_batch.length[ia] + 2 * d)
        ey_max = anchor_batch.y[ia] + d
        ey_min = ey_max - (anchor_batch.breadth[ia] + 2 * d)
    else:
        ex_min = anchor_batch.x_min[ia]
        ex_max = anchor_batch.x_max[ia]
        ey_max = anchor_batch.y_max[ia]
        ey_min = anchor_batch.y_min[ia]
    x_min = np.maximum(ex_min, base_batch.x_min[ib])
    x_max = np.minimum(ex_max, base_batch.x_max[ib])
    y_min = np.maximum(ey_min, base_batch.y_min[ib])
    y_max = np.minimum(ey_max, base_batch.y_max[ib])
    owners = rows_of_y(np, grid, y_max) * grid.cols + cols_of_x(np, grid, x_min)
    return np.where((x_max < x_min) | (y_max < y_min), -1, owners)


def col_ranges(np, grid, batch):
    """``col_range`` for a whole batch: two int arrays ``(lo, hi)``."""
    x_edges = grid_edges(np, grid)[0]
    last = grid.cols - 1
    lo = np.minimum(np.maximum(np.searchsorted(x_edges, batch.x_min, side="left") - 1, 0), last)
    hi = np.minimum(np.maximum(np.searchsorted(x_edges, batch.x_max, side="right") - 1, 0), last)
    return lo, np.maximum(lo, hi)


def row_ranges(np, grid, batch):
    """``row_range`` for a whole batch: two int arrays ``(lo, hi)``."""
    y_edges = grid_edges(np, grid)[1]
    rows = grid.rows
    a_hi = np.minimum(np.maximum(np.searchsorted(y_edges, batch.y_max, side="right") - 1, 0), rows - 1)
    a_lo = np.minimum(np.maximum(np.searchsorted(y_edges, batch.y_min, side="left") - 1, 0), rows - 1)
    lo = rows - 1 - a_hi
    hi = rows - 1 - a_lo
    return lo, np.maximum(lo, hi)


def min_gaps_to_other_cell(np, grid, batch, cell):
    """``min_gap_to_other_cell(rect, cell)`` for a whole batch."""
    return min_gaps_to_own_cells(np, grid, batch, np.full(batch.n, cell.cell_id))


def min_gaps_to_own_cells(np, grid, batch, cell_ids):
    """``min_gap_to_other_cell(rect, cell)`` for a whole batch, row ``i``
    against the cell ``cell_ids[i]`` (the rows of a physical reduce
    range, each measured in its own cell).

    A side counts where the row's cell has a neighbour across it; the
    cell extents are the grid's edges, the scalar ``Cell`` fields."""
    n = batch.n
    if grid.num_cells == 1:
        return np.full(n, np.inf)
    x_edges, y_edges = grid_edges(np, grid)[:2]
    cols, rows = grid.cols, grid.rows
    col = cell_ids % cols
    row = cell_ids // cols
    c_lo, c_hi = col_ranges(np, grid, batch)
    r_lo, r_hi = row_ranges(np, grid, batch)
    inside = (c_lo == c_hi) & (c_hi == col) & (r_lo == r_hi) & (r_hi == row)
    gap = np.full(n, np.inf)
    for has_side, side_gap in (
        (col > 0, batch.x_min - x_edges[col]),
        (col < cols - 1, x_edges[col + 1] - batch.x_max),
        (row > 0, y_edges[rows - row] - batch.y_max),
        (row < rows - 1, batch.y_min - y_edges[rows - row - 1]),
    ):
        gap = np.where(has_side, np.minimum(gap, side_gap), gap)
    return np.where(inside, gap, 0.0)


def overlap_cell_lists(np, grid, batch):
    """Per-record overlapped cells (the ``split`` targets), flattened.

    Columnar twin of ``split(rect, grid)``'s cell enumeration: for every
    record of ``batch``, the cells of ``row_range × col_range`` in the
    scalar row-major order.  Returns ``(cell_ids, counts)`` int64
    arrays — ``counts[k]`` cells per record ``k``, concatenated in
    record order, ready for ``MapContext.emit_batch``.
    """
    rows = grid.rows
    cols = grid.cols
    c_lo, c_hi = col_ranges(np, grid, batch)
    r_lo, r_hi = row_ranges(np, grid, batch)
    ar = np.arange(rows)
    ac = np.arange(cols)
    rmask = (ar >= r_lo[:, None]) & (ar <= r_hi[:, None])
    cmask = (ac >= c_lo[:, None]) & (ac <= c_hi[:, None])
    mask = rmask[:, :, None] & cmask[:, None, :]
    rec, row, col = np.nonzero(mask)
    counts = np.bincount(rec, minlength=batch.n)
    return row * cols + col, counts


def quadrant_cell_lists(np, grid, batch, d=None, metric="euclidean"):
    """Per-record ``f1``/``f2`` target cells, flattened.

    Computes ``fourth_quadrant(cell_of(rect))`` (when ``d`` is None,
    the ``f1`` set) or ``fourth_quadrant_within(rect, d, metric=...)``
    for every record of ``batch``.  Returns ``(cell_ids, counts)``
    int64 arrays: ``counts[k]`` cells per record ``k``, concatenated in
    record order with each record's cells in the scalar row-major order.
    """
    rows = grid.rows
    cols = grid.cols
    row_a = rows_of_y(np, grid, batch.y)
    col_a = cols_of_x(np, grid, batch.x)
    rmask = np.arange(rows) >= row_a[:, None]
    cmask = np.arange(cols) >= col_a[:, None]
    if d is None:
        mask = rmask[:, :, None] & cmask[:, None, :]
    else:
        row_edges, col_edges = grid_edges(np, grid)[2:]
        dy = np.maximum(0.0, batch.y_min[:, None] - row_edges)
        dx = np.maximum(0.0, col_edges - batch.x_max[:, None])
        rok = rmask & (dy <= d)
        if metric == "chebyshev":
            mask = rok[:, :, None] & (cmask & (dx <= d))[:, None, :]
        else:
            mask = (
                rok[:, :, None]
                & cmask[:, None, :]
                & (dx[:, None, :] * dx[:, None, :] + dy[:, :, None] * dy[:, :, None] <= d * d)
            )
    rec, row, col = np.nonzero(mask)
    counts = np.bincount(rec, minlength=batch.n)
    return row * cols + col, counts
