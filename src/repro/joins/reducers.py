"""Shared map/reduce pieces of the one-shot join jobs.

All-Replicate's single reduce and Controlled-Replicate's second-round
reduce are the same computation: rebuild per-slot rectangle bags from the
shuffled values, enumerate the local multi-way join, and report only the
tuples this cell owns under the Section 6.2 rule.

Rectangles cross the shuffle as ``(dataset, rid, Rect)`` triples.  On
the numpy kernel a map task hands the engine all of them as one
:class:`~repro.kernels.batch.RectColumns` bundle (:func:`rect_values`),
the shuffle moves row indices into it, and the reducers — *segmented*:
one call per physical range of cells — split the range's gathered
columns per dataset, cell by cell (:func:`range_bags`), without ever
building the triples; every row consumer still sees exactly those
triples.  Byte accounting reports the string-era layout
``(dataset, rid, x, y, l, b)`` through :data:`RECT_SHUFFLE_CODEC`, so
shuffle volumes (and the simulated cost derived from them) are identical
to the seed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.data.io import encode_result, encode_result_columns
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins.base import CNT_OUTPUT_TUPLES, JOIN_COUNTERS, dataset_from_path
from repro.joins.dedup import tuple_owner
from repro.joins.local import LocalJoiner
from repro.kernels import transforms as _kt
from repro.kernels.batch import RectBatch, RectColumns, ResultColumns
from repro.mapreduce.job import MapContext, ReduceContext, ShuffleCodec
from repro.query.query import Query

__all__ = [
    "rect_value",
    "rect_values",
    "staged_rect_values",
    "dataset_codes",
    "range_bags",
    "group_values",
    "RECT_SHUFFLE_CODEC",
    "result_records",
    "make_local_join_reducer",
    "per_cell",
]


def rect_value(dataset: str, rid: int, rect: Rect) -> tuple:
    """The shuffle value carrying one tagged rectangle."""
    return (dataset, rid, rect)


#: Sizes a ``(cell_id, rect_value(...))`` pair exactly like the generic
#: estimate sized the old flat tuple: int key -> 8; value -> 2 bytes of
#: framing + dataset name + five 8-byte numbers (rid and 4 coordinates).
RECT_SHUFFLE_CODEC = ShuffleCodec(
    key_size=lambda key: 8,
    value_size=lambda value: 42 + len(value[0]),
)


# ----------------------------------------------------------------------
# Map side: a split's records as one column bundle
# ----------------------------------------------------------------------
def dataset_codes(np, labels: list[str]):
    """``(names, codes)`` of a per-record dataset column: the distinct
    names in order of first appearance and each record's index into
    them (``codes`` is ``None`` when there is only one name)."""
    if labels.count(labels[0]) == len(labels):
        return (labels[0],), None
    code_of: dict[str, int] = {}
    codes = np.fromiter(
        (code_of.setdefault(label, len(code_of)) for label in labels),
        dtype=np.intp,
        count=len(labels),
    )
    return tuple(code_of), codes


def rect_values(np, ctx: MapContext, values: RectColumns):
    """``(values, sizes)`` for :meth:`MapContext.emit_batch`: the split's
    records as the ``rect_value`` tuples they stand for, and the charged
    bytes of one pair per record.

    ``values`` is the split's :class:`RectColumns` (whose batch must
    carry ids, as :meth:`RectBatch.from_records` builds it) — replaced
    by the plain tuple list when the record ids are not integers.
    :data:`RECT_SHUFFLE_CODEC` sizes a pair by its dataset name alone,
    so one record per dataset is sized.
    """
    codes = values.codes
    if type(values.batch.ids) is list:
        values = list(values)
    n = len(values)
    if codes is None:
        return values, np.full(n, ctx.pair_nbytes(0, values[0]), dtype=np.int64)
    used, first = np.unique(codes, return_index=True)
    per_name = np.zeros(int(used[-1]) + 1, dtype=np.int64)
    per_name[used] = [ctx.pair_nbytes(0, values[i]) for i in first.tolist()]
    return values, per_name[codes]


def staged_rect_values(np, ctx: MapContext, split_entries, batch: RectBatch | None):
    """``(batch, values, sizes)`` for a mapper over staged rectangle
    files: the split's columns (built here unless the engine staged
    them) and :func:`rect_values` with each record's dataset taken from
    its input path."""
    if batch is None:
        batch = RectBatch.from_records(np, [e[2] for e in split_entries])
    paths, codes = dataset_codes(np, [e[0] for e in split_entries])
    names = tuple(dataset_from_path(path) for path in paths)
    return batch, *rect_values(np, ctx, RectColumns(names, codes, batch))


# ----------------------------------------------------------------------
# Reduce side
# ----------------------------------------------------------------------
def range_bags(np, values, bounds) -> tuple[dict[str, RectBatch], dict, dict]:
    """The rectangles of a physical reduce range, one bag per dataset.

    ``values`` are the range's reduce groups (one per cell) concatenated
    in group order — a :class:`RectColumns`, or a plain list of
    ``(dataset, rid, rect)`` values (the scalar mapper, non-integer
    rids) — and ``bounds`` cut them into the groups.  Returns ``(bags,
    bag_bounds, firsts)``: per dataset, a :class:`RectBatch` of its rows,
    group by group and in received order within a group; the int64 row
    bounds cutting it into the groups; and per group the position of
    the dataset's first row among ``values`` (``-1``: none), which
    orders a group's datasets as its own values do.
    """
    merged = values if isinstance(values, RectColumns) else _columns_of(np, values)
    group_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    edges = np.arange(len(bounds))
    bags: dict[str, RectBatch] = {}
    bag_bounds: dict[str, Any] = {}
    firsts: dict[str, Any] = {}
    codes = merged.codes
    for code, name in enumerate(merged.names):
        rows = np.arange(len(group_of)) if codes is None else np.flatnonzero(codes == code)
        if not len(rows):
            continue
        cut = np.searchsorted(group_of[rows], edges)
        bags[name] = merged.batch if codes is None else merged.batch.take(rows)
        bag_bounds[name] = cut
        firsts[name] = np.where(
            cut[1:] > cut[:-1], rows[np.minimum(cut[:-1], len(rows) - 1)], -1
        )
    return bags, bag_bounds, firsts


def group_values(values, bounds, g: int):
    """Group ``g`` of a range's concatenated values: a view of a column
    bundle's rows, or a list slice."""
    lo, hi = int(bounds[g]), int(bounds[g + 1])
    return values.take(slice(lo, hi)) if hasattr(values, "take") else values[lo:hi]


def _columns_of(np, values) -> RectColumns:
    """A plain list of ``(dataset, rid, rect)`` values as columns."""
    names, codes = dataset_codes(np, [value[0] for value in values])
    return RectColumns(
        names, codes, RectBatch.from_records(np, [value[1:] for value in values])
    )


def result_records(np, slot_order, batches, rows):
    """A numpy reducer's join output: result row ``k`` binds each slot
    to row ``rows[slot][k]`` of ``batches[slot]``.

    One :class:`ResultColumns` bundle of the record-id columns, which
    stands for the output records (``rid<TAB>rid...`` in query slot
    order) — or those lines themselves when some id column is not
    integers.
    """
    picked = [(batches[slot], rows[slot]) for slot in slot_order]
    if any(type(batch.ids) is list for batch, __ in picked):
        return encode_result_columns(batch.ids_at(at) for batch, at in picked)
    return ResultColumns(np.stack([batch.ids[at] for batch, at in picked]))


def make_local_join_reducer(
    query: Query, grid: GridPartitioning, joiner: LocalJoiner, kernel: str = "python"
):
    """Reducer: local multi-way join + owner-cell duplicate avoidance.

    On the numpy kernel the reducer is *segmented* (its job sets
    ``segmented``): one call joins every cell of a physical reduce range
    at once — one frontier search over the range's bags, each cell
    searched on its own rows — and each result row is kept where the
    row's own cell owns it.  Where that frontier cannot run (a non-grid
    index, non-integer rids under distinctness) the range's cells are
    joined one by one, as the scalar kernel joins them.
    """
    slot_order = query.slots
    slot_datasets = [(slot, query.dataset_of(slot)) for slot in slot_order]

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        # One bag per dataset — slots reading the same dataset share it
        # (and, inside the joiner, its index).
        by_dataset: dict[str, list] = {}
        for dataset, rid, rect in values:
            by_dataset.setdefault(dataset, []).append((rid, rect))
        assignments, ops = joiner.enumerate(
            {slot: by_dataset.get(dataset, ()) for slot, dataset in slot_datasets}
        )
        ctx.add_compute(ops)
        for assignment in assignments:
            if tuple_owner((r for __, r in assignment.values()), grid) != cell_id:
                continue
            ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES)
            ctx.emit(
                encode_result(
                    slot_order, {s: rid for s, (rid, __) in assignment.items()}
                )
            )

    if kernel != "numpy":
        return reducer

    def segmented_reducer(cell_ids: list[int], values, bounds, contexts: list) -> None:
        bags, bag_bounds, __ = range_bags(np, values, bounds)
        empty = RectBatch.from_pairs(np, ())
        none = np.zeros(len(bounds), dtype=np.int64)
        fr, checks = joiner.enumerate_columnar(
            {slot: bags.get(dataset, empty) for slot, dataset in slot_datasets},
            {slot: bag_bounds.get(dataset, none) for slot, dataset in slot_datasets},
        )
        if fr is None:
            for g, (cell_id, ctx) in enumerate(zip(cell_ids, contexts)):
                reducer(cell_id, group_values(values, bounds, g), ctx)
            return
        for ctx, ops in zip(contexts, checks.tolist()):
            ctx.add_compute(ops)
        if not fr.count:
            return
        # Owner of every row at once straight from the frontier's
        # coordinate columns: tuple_owner is the cell of the
        # bottom-right-most start point (max x, min y).  A row is kept
        # where its own cell owns it.
        pos = fr.positions
        first, *rest = fr.slots
        xs = fr.batches[first].x[pos[first]]
        ys = fr.batches[first].y[pos[first]]
        for s in rest:  # pairwise: no slots x rows temporary
            xs = np.maximum(xs, fr.batches[s].x[pos[s]])
            ys = np.minimum(ys, fr.batches[s].y[pos[s]])
        owners = _kt.rows_of_y(np, grid, ys) * grid.cols + _kt.cols_of_x(np, grid, xs)
        mine = np.flatnonzero(owners == np.asarray(cell_ids)[fr.segments])
        if not len(mine):
            return
        records = result_records(
            np, slot_order, fr.batches, {s: pos[s][mine] for s in slot_order}
        )
        cuts = np.searchsorted(fr.segments[mine], np.arange(len(bounds)))
        for g, ctx in enumerate(contexts):
            if cuts[g + 1] > cuts[g]:
                ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES, int(cuts[g + 1] - cuts[g]))
                ctx.emit_all(group_values(records, cuts, g))

    return segmented_reducer


def per_cell(segmented_reducer):
    """A segmented reducer run on one cell at a time: a plain reducer
    whose every call is a range of one.  All-Replicate's cells are large
    already (every rectangle is replicated to its whole fourth
    quadrant): fused into ranges, its local join measured 10–20 %
    slower on chain3-dense-3k, where one range enumerates millions of
    candidate pairs."""

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        segmented_reducer([cell_id], values, np.array([0, len(values)]), [ctx])

    return reducer
