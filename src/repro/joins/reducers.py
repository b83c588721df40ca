"""Shared map/reduce pieces of the one-shot join jobs.

All-Replicate's single reduce and Controlled-Replicate's second-round
reduce are the same computation: rebuild per-slot rectangle bags from the
shuffled values, enumerate the local multi-way join, and report only the
tuples this cell owns under the Section 6.2 rule.

Rectangles cross the shuffle as ``(dataset, rid, Rect)`` triples.  On
the numpy kernel a map task hands the engine all of them as one
:class:`~repro.kernels.batch.RectColumns` bundle (:func:`rect_values`),
the shuffle moves row indices into it, and the reducers split a group's
gathered columns per dataset (:func:`dataset_batches`) without ever
building the triples; every row consumer still sees exactly those
triples.  Byte accounting reports the string-era layout
``(dataset, rid, x, y, l, b)`` through :data:`RECT_SHUFFLE_CODEC`, so
shuffle volumes (and the simulated cost derived from them) are identical
to the seed.
"""

from __future__ import annotations

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
    "dataset_batches",
    "RECT_SHUFFLE_CODEC",
    "result_records",
    "make_local_join_reducer",
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
def dataset_batches(np, values) -> dict[str, RectBatch]:
    """One :class:`RectBatch` per dataset of a reduce group — received
    order within a dataset, datasets in order of first appearance.

    A columnar group is split with one code mask per dataset; a plain
    value list (spill merge, the scalar mapper, non-integer rids) is
    walked once.  Either way the numpy reducers run the same code
    downstream.
    """
    if isinstance(values, RectColumns):
        return values.by_dataset()
    by_dataset: dict[str, list[tuple[int, Rect]]] = {}
    for dataset, rid, rect in values:
        by_dataset.setdefault(dataset, []).append((rid, rect))
    return {
        dataset: RectBatch.from_records(np, pairs)
        for dataset, pairs in by_dataset.items()
    }


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
    """Reducer: local multi-way join + owner-cell duplicate avoidance."""
    slot_order = query.slots
    slot_datasets = [(slot, query.dataset_of(slot)) for slot in slot_order]
    columnar = kernel == "numpy"

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        # One bag per dataset — slots reading the same dataset share it
        # (and, inside the joiner, its index).
        if columnar:
            by_dataset = dataset_batches(np, values)
        else:
            by_dataset = {}
            for dataset, rid, rect in values:
                by_dataset.setdefault(dataset, []).append((rid, rect))
        rects_by_slot = {
            slot: by_dataset.get(dataset, ()) for slot, dataset in slot_datasets
        }
        if columnar:
            fr, assignments, ops = joiner.enumerate_columnar(rects_by_slot)
        else:
            fr = None
            assignments, ops = joiner.enumerate(rects_by_slot)
        ctx.add_compute(ops)
        if fr is not None:
            if not fr.count:
                return
            # Owner of every row at once straight from the frontier's
            # coordinate columns: tuple_owner is the cell of the
            # bottom-right-most start point (max x, min y).
            pos = fr.positions
            xs = np.maximum.reduce([fr.batches[s].x[pos[s]] for s in fr.slots])
            ys = np.minimum.reduce([fr.batches[s].y[pos[s]] for s in fr.slots])
            owners = (
                _kt.rows_of_y(np, grid, ys) * grid.cols
                + _kt.cols_of_x(np, grid, xs)
            )
            mine = np.flatnonzero(owners == cell_id)
            if len(mine):
                ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES, len(mine))
                ctx.emit_all(
                    result_records(
                        np, slot_order, fr.batches, {s: pos[s][mine] for s in slot_order}
                    )
                )
            return
        owners = None
        if columnar and len(assignments) >= 4:
            # tuple_owner for every assignment at once: owner of the
            # bottom-right-most start point (max x, min y).
            m = len(slot_order)
            flat = [
                c for a in assignments for __, r in a.values() for c in (r.x, r.y)
            ]
            coords = np.array(flat, dtype=np.float64).reshape(-1, m, 2)
            owners = (
                _kt.rows_of_y(np, grid, coords[:, :, 1].min(axis=1)) * grid.cols
                + _kt.cols_of_x(np, grid, coords[:, :, 0].max(axis=1))
            ).tolist()
        for k, assignment in enumerate(assignments):
            owner = (
                owners[k]
                if owners is not None
                else tuple_owner((r for __, r in assignment.values()), grid)
            )
            if owner != cell_id:
                continue
            ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES)
            ctx.emit(
                encode_result(
                    slot_order, {s: rid for s, (rid, __) in assignment.items()}
                )
            )

    return reducer
