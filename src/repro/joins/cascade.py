"""The *2-way Cascade* naive multi-way join (Section 6).

Evaluates the query as a left-deep chain of 2-way map-reduce joins: one
job per slot after the first.  Step ``i`` joins the partially-bound
tuples (slots bound so far) against the dataset of the next slot of a
connected evaluation order; the tuple side is routed through the 2-way
rules of Section 5 (split for overlap anchors, enlarged split for range
anchors) and every further triple between the new slot and an
already-bound slot is checked in the same reduce, so any connected query
graph — trees and cycles alike — compiles to exactly ``m - 1`` jobs.

This is the paper's first naive baseline: each step materialises its
intermediate result on the DFS and the next step reads, re-routes and
re-shuffles it, so as intermediate results grow the read/write and
communication costs blow up (Tables 2-5 and 7).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.data.io import (
    RECT_CODEC,
    TUPLE_CODEC,
    TupleRecord,
    encode_result,
    tuple_fragments,
)
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.grid.transforms import split
from repro.index import GridIndex, make_index
from repro.joins.base import (
    CNT_OUTPUT_TUPLES,
    JOIN_COUNTERS,
    Datasets,
    JoinResult,
    JoinStats,
    MultiWayJoinAlgorithm,
    stage_datasets,
)
from repro.joins.dedup import two_way_range_owner
from repro.joins.local import SlotPlan, frontier_level, plan_is_vectorized, slot_plans
from repro.joins.reducers import result_records
from repro.joins.sweep import sweep_pairs
from repro.kernels import transforms as _kt
from repro.kernels.batch import (
    RectBatch,
    RectColumns,
    TupleColumns,
    TupleFileColumns,
)
from repro.kernels.sweep import sweep_pairs_batch
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import (
    MapContext,
    MapReduceJob,
    ReduceContext,
    ShuffleCodec,
    ValueRuns,
)
from repro.mapreduce.workflow import Workflow
from repro.query.query import Query

__all__ = ["CascadeJoin"]

#: Charged shuffle bytes, matching the string-era layout: an int
#: cell-id key; a tuple-side ``("T", TupleRecord)`` as ``("T", line)``
#: was — 2 bytes framing + 1-char tag + the encoded line; a base-side
#: ``("B", rid, Rect)`` as the old flat ``("B", rid, x, y, l, b)`` —
#: 2 + 1 + five 8-byte numbers.
_KEY_BYTES = 8
_TUPLE_FRAMING_BYTES = 3
_BASE_VALUE_BYTES = 43


def _cascade_value_size(value: tuple) -> int:
    if value[0] == "T":
        return _TUPLE_FRAMING_BYTES + len(value[1].line)
    return _BASE_VALUE_BYTES


CASCADE_SHUFFLE_CODEC = ShuffleCodec(
    key_size=lambda key: _KEY_BYTES, value_size=_cascade_value_size
)


class CascadeJoin(MultiWayJoinAlgorithm):
    """A cascade of 2-way spatial joins, one map-reduce job per step."""

    name = "two-way-cascade"

    def __init__(
        self, index_kind: str = "grid", order: tuple[str, ...] | None = None
    ) -> None:
        self.index_kind = index_kind
        self.order = order

    def run(
        self,
        query: Query,
        datasets: Datasets,
        grid: GridPartitioning,
        cluster: Cluster | None = None,
    ) -> JoinResult:
        cluster = cluster or Cluster()
        self._check_inputs(query, datasets)
        paths = stage_datasets(cluster, datasets)
        # One plan per slot: the first slot seeds the tuples, every
        # later plan is one 2-way join step binding its slot.
        plans = slot_plans(query, self.order)
        first_slot = plans[0].slot
        kernel = cluster.resolved_kernel

        workflow = Workflow(cluster)
        left_path = paths[query.dataset_of(first_slot)]
        left_is_tuples = False
        output_path = f"{self.name}/output"
        for i, step in enumerate(plans[1:]):
            is_final = i == len(plans) - 2
            step_output = output_path if is_final else f"{self.name}/step-{i}"
            # Under resume step outputs are restorable checkpoints.
            if not cluster.resume and cluster.dfs.exists(step_output):
                cluster.dfs.delete(step_output)
            right_path = paths[query.dataset_of(step.slot)]
            if left_is_tuples:
                input_codec = {left_path: TUPLE_CODEC, right_path: RECT_CODEC}
            else:
                input_codec = RECT_CODEC  # both sides are base relations
            # A first step reading one dataset on both sides emits T and
            # B per record, interleaved: only the scalar mapper keeps
            # that per-bucket emission order (and its spill points).
            self_first = left_path == right_path and not left_is_tuples
            bound = tuple(p.slot for p in plans[: i + 1])
            job = MapReduceJob(
                name=f"{self.name}-step{i}-{step.slot}",
                input_paths=[left_path] if self_first else [left_path, right_path],
                output_path=step_output,
                mapper=_make_step_mapper(
                    grid, step, left_path, right_path, left_is_tuples, first_slot
                ),
                reducer=_make_step_reducer(
                    grid, query, step, bound, is_final, self.index_kind, kernel
                ),
                num_reducers=grid.num_cells,
                input_codec=input_codec,
                output_codec=None if is_final else TUPLE_CODEC,
                shuffle_codec=CASCADE_SHUFFLE_CODEC,
                batch_mapper=(
                    _make_step_batch_mapper(grid, step, bound, left_path, left_is_tuples)
                    if kernel == "numpy" and not self_first
                    else None
                ),
            )
            workflow.run(job)
            left_path = step_output
            left_is_tuples = True

        tuples = self._collect_tuples(cluster, output_path)
        return JoinResult(
            tuples=tuples,
            stats=JoinStats.from_workflow(workflow.result),
            workflow=workflow.result,
        )


# ----------------------------------------------------------------------
# Map side: route tuples through the anchor rectangle, split base rects
# ----------------------------------------------------------------------
def _is_under(path: str, root: str) -> bool:
    return path == root or path.startswith(root + "/")


def _make_step_mapper(
    grid: GridPartitioning,
    step: SlotPlan,
    left_path: str,
    right_path: str,
    left_is_tuples: bool,
    first_slot: str,
):
    d = step.anchor.predicate.distance
    self_first = left_path == right_path and not left_is_tuples

    def emit_tuple_side(record: TupleRecord, ctx: MapContext) -> None:
        routing = record.bindings[step.anchor_slot][1]
        if d > 0:
            routing = routing.enlarge(d)
        for cell_id, __ in split(routing, grid):
            ctx.emit(cell_id, ("T", record))

    def emit_base_side(rid: int, rect: Rect, ctx: MapContext) -> None:
        for cell_id, __ in split(rect, grid):
            ctx.emit(cell_id, ("B", rid, rect))

    def mapper(key: tuple[str, int], record, ctx: MapContext) -> None:
        path, __ = key
        if _is_under(path, left_path):
            if left_is_tuples:
                emit_tuple_side(record, ctx)
                return
            # First step: the left side is a base relation; wrap each
            # rectangle as a singleton tuple bound to the first slot.
            rid, rect = record
            emit_tuple_side(TupleRecord({first_slot: (rid, rect)}), ctx)
            if self_first:
                emit_base_side(rid, rect, ctx)
            return
        rid, rect = record
        emit_base_side(rid, rect, ctx)

    return mapper


def _make_step_batch_mapper(
    grid: GridPartitioning,
    step: SlotPlan,
    bound: tuple[str, ...],
    left_path: str,
    left_is_tuples: bool,
):
    """Columnar twin of :func:`_make_step_mapper` (a split never spans
    files, so a task is all tuple side or all base side).

    The split's records become one column bundle — ``TupleColumns`` for
    the tuple side (the slice of the ``TupleFileColumns`` the previous
    step's reducer wrote; step 0: singleton tuples straight from the
    staged rectangle batch), ``RectColumns`` tagged ``"B"`` for the base
    side — which is also the emitted values; the routing cells of the whole
    split come from one ``overlap_cell_lists`` call on the anchor
    slot's batch (``d``-enlarged for a range anchor) or on the base
    batch, and go out in one ``emit_batch``: the exact pairs, per-bucket
    order and byte totals of the scalar mapper.
    """
    d = step.anchor.predicate.distance

    def batch_mapper(split_entries, ctx: MapContext, batch=None) -> None:
        if not split_entries:
            return
        if isinstance(batch, TupleFileColumns):
            from_left = True
            values = batch.shuffle_values(bound)
        else:
            from_left = _is_under(split_entries[0][0], left_path)
            if from_left and left_is_tuples:
                values = TupleColumns.from_records(
                    np, bound, [e[2] for e in split_entries]
                )
            else:
                if batch is None:
                    batch = RectBatch.from_records(np, [e[2] for e in split_entries])
                if from_left:
                    # First step: the left side is a base relation; every
                    # rectangle is a singleton tuple bound to the first slot.
                    lines = tuple_fragments(bound[0], batch.id_list(), batch.csvs())
                    values = TupleColumns(bound, (batch,), np.array(lines, dtype=object))
                else:
                    values = RectColumns(("B",), None, batch)
        if from_left:
            batches = values.batches
            routing = values.batch(step.anchor_slot)
            if d > 0:
                # Rect.enlarge, by column.
                routing = RectBatch(
                    np,
                    None,
                    routing.x - d,
                    routing.length + 2 * d,
                    routing.y + d,
                    routing.breadth + 2 * d,
                )
            sizes = (_KEY_BYTES + _TUPLE_FRAMING_BYTES) + np.fromiter(
                map(len, values.lines), dtype=np.int64, count=len(values)
            )
        else:
            batches = (batch,)
            routing = batch
            sizes = np.full(batch.n, _KEY_BYTES + _BASE_VALUE_BYTES, dtype=np.int64)
        keys, counts = _kt.overlap_cell_lists(np, grid, routing)
        if any(type(b.ids) is list for b in batches):
            # Non-integer rids form no int64 column: ship the plain rows.
            values = list(values)
        ctx.emit_batch(keys, counts, values, sizes)

    return batch_mapper


# ----------------------------------------------------------------------
# Reduce side: 2-way join with the Section 5 duplicate avoidance
# ----------------------------------------------------------------------
def _make_step_reducer(
    grid: GridPartitioning,
    query: Query,
    step: SlotPlan,
    bound: tuple[str, ...],
    is_final: bool,
    index_kind: str,
    kernel: str = "python",
):
    """The step reducer: columnar on the numpy kernel with the grid
    index and vectorized predicates, else the scalar reference."""
    scalar = _make_scalar_step_reducer(grid, query, step, is_final, index_kind, kernel)
    if kernel != "numpy" or index_kind != "grid" or not plan_is_vectorized(step):
        return scalar
    d = step.anchor.predicate.distance
    slot_order = query.slots
    new_slot = step.slot
    frontier = dict.fromkeys(bound)  # tuple row i binds row i of every slot

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        """One level of the local join's frontier search — the group's
        tuples are the frontier, the base rectangles the new slot's bag —
        plus the Section 5 owner rule as the level's admit mask."""
        tuples, base = _group_columns(np, bound, values)
        if tuples is None or base is None:
            return
        batches = dict(zip(tuples.slots, tuples.batches))
        rid_arrays = {s: batches[s].int_ids(np) for s in step.same_dataset}
        if step.same_dataset and (
            base.int_ids(np) is None
            or any(ids is None for ids in rid_arrays.values())
        ):
            # Distinctness compares int64 rid columns.
            scalar(cell_id, values, ctx)
            return
        anchor_batch = batches[step.anchor_slot]
        # Tuples sharing an anchor rectangle repeat it under their own row
        # numbers; named by one row, the bulk probe probes it once.
        shared = _first_rows_of_rectangles(np, anchor_batch)
        rows = frontier if shared is None else {**frontier, step.anchor_slot: shared}

        def owned_here(anchor_rows, entries):
            # Section 5 dedup: only the cell owning the start of
            # (enlarged anchor) ∩ candidate reports the pair.
            return (
                _kt.two_way_owner_cells(
                    np, grid, anchor_batch, anchor_rows, base, entries, d
                )
                == cell_id
            )

        index = GridIndex(kernel="numpy", batch=base)
        parents, entries, ops = frontier_level(
            np, step, index, batches, rows, rid_arrays.__getitem__, owned_here
        )
        ctx.add_compute(ops)
        if not len(parents):
            return
        if is_final:
            ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES, len(parents))
            ctx.emit_all(
                result_records(
                    np,
                    slot_order,
                    {**batches, new_slot: base},
                    {**dict.fromkeys(bound, parents), new_slot: entries},
                )
            )
        else:
            ctx.emit_all(_merged_columns(np, tuples, parents, new_slot, base, entries))

    return reducer


def _first_rows_of_rectangles(np, batch: RectBatch):
    """Per row of ``batch``, the first row holding the same rectangle,
    found by rid (one sort of the int64 id column); ``None`` when no rid
    repeats, when the ids are not all integers, or when some rid names
    unequal rectangles — nothing makes a dataset's rids unique."""
    ids = batch.int_ids(np)
    if ids is None:
        return None
    __, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    if len(first) == len(ids):
        return None
    rows = first[inverse]
    columns = (batch.x, batch.length, batch.y, batch.breadth)
    return rows if all((col[rows] == col).all() for col in columns) else None


def _group_columns(np, bound: tuple[str, ...], values):
    """``(tuple side, base side)`` of a step's reduce group as columns:
    a :class:`TupleColumns` over the ``bound`` slots and a
    :class:`RectBatch`, rows in received order; ``None`` for an empty
    side.

    A columnar group is taken apart by run; a plain value list (spill
    merge, the scalar mapper, non-integer rids) is walked once.  Either
    way the reducer runs the same code downstream.
    """
    runs = values.runs if isinstance(values, ValueRuns) else [values]
    if all(isinstance(run, (TupleColumns, RectColumns)) for run in runs):
        tuple_runs = [run for run in runs if isinstance(run, TupleColumns)]
        base_runs = [run.batch for run in runs if isinstance(run, RectColumns)]
        return (
            TupleColumns.concat(tuple_runs)
            if len(tuple_runs) > 1
            else next(iter(tuple_runs), None),
            RectBatch.concat(np, base_runs)
            if len(base_runs) > 1
            else next(iter(base_runs), None),
        )
    records: list[TupleRecord] = []
    pairs: list[tuple] = []
    for value in values:
        if value[0] == "T":
            records.append(value[1])
        else:
            pairs.append(value[1:])
    return (
        TupleColumns.from_records(np, bound, records) if records else None,
        RectBatch.from_records(np, pairs) if pairs else None,
    )


def _merged_columns(
    np, tuples: TupleColumns, parents, new_slot: str, base, entries
) -> TupleFileColumns:
    """The step's output tuples: row ``parents[k]`` of ``tuples``
    extended by ``new_slot`` = row ``entries[k]`` of ``base``.

    The bindings are column gathers.  Line fragments are built once per
    received row that reaches the output — a carried tuple's line is cut
    at the new slot's sorted position, a base rectangle formatted once —
    and an output line is the concatenation ``head + fragment + tail``.
    """
    tuple_rows, tuple_of = np.unique(parents, return_inverse=True)
    base_rows, base_of = np.unique(entries, return_inverse=True)
    at = bisect_left(sorted(tuples.slots), new_slot)
    heads = []
    tails = []
    for line in tuples.lines[tuple_rows].tolist():
        parts = line.split(";")
        heads.append(";".join([*parts[:at], ""]))
        tails.append(";".join(["", *parts[at:]]))
    new_rows = base.take(base_rows)
    fragments = tuple_fragments(new_slot, new_rows.id_list(), new_rows.csvs())
    lines = [
        heads[t] + fragments[b] + tails[t]
        for t, b in zip(tuple_of.tolist(), base_of.tolist())
    ]
    return TupleFileColumns(
        (*tuples.slots, new_slot),
        [*(batch.take(parents) for batch in tuples.batches), base.take(entries)],
        np.array(lines, dtype=object),
    )


def _make_scalar_step_reducer(
    grid: GridPartitioning,
    query: Query,
    step: SlotPlan,
    is_final: bool,
    index_kind: str,
    kernel: str,
):
    """The record-at-a-time reference reducer."""
    d = step.anchor.predicate.distance
    slot_order = query.slots
    new_slot = step.slot

    def candidate_pairs(tuple_records, base_pairs):
        """Yield (bindings, rid, rect, anchor_rect) candidate pairs.

        Two kernels: per-tuple probes of a spatial index over the base
        side (default) or one plane sweep over both sides
        (``index_kind="sweep"`` — the kernel ablation's winner on dense
        reducers).  Both return the same Chebyshev-``d`` superset.
        Under ``kernel="numpy"`` the sweep runs its columnar batch
        variant and the grid index builds its buckets columnarly; the
        pair sequence is identical either way.
        """
        decoded = [record.bindings for record in tuple_records]
        if index_kind == "sweep":
            left = [
                (t, bindings[step.anchor_slot][1])
                for t, bindings in enumerate(decoded)
            ]
            by_rid = dict(base_pairs)
            if kernel == "numpy":
                pairs = sweep_pairs_batch(left, base_pairs, d)
            else:
                pairs = sweep_pairs(left, base_pairs, d)
            for t, rid in pairs:
                bindings = decoded[t]
                yield bindings, rid, by_rid[rid], bindings[step.anchor_slot][1]
            return
        index = make_index(index_kind, kernel=kernel, pairs=base_pairs)
        for bindings in decoded:
            anchor_rect = bindings[step.anchor_slot][1]
            for entry in index.search(anchor_rect, d):
                yield bindings, entry.payload, entry.rect, anchor_rect

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        tuple_records: list[TupleRecord] = []
        base_pairs: list[tuple[int, Rect]] = []
        for value in values:
            if value[0] == "T":
                tuple_records.append(value[1])
            else:
                base_pairs.append(value[1:])
        if not tuple_records or not base_pairs:
            return
        ops = 0
        for bindings, rid, rect, anchor_rect in candidate_pairs(
            tuple_records, base_pairs
        ):
            ops += 1
            if not step.anchor.holds_with(new_slot, rect, anchor_rect):
                continue
            # Section 5 dedup: only the cell owning the start of
            # (enlarged anchor) ∩ candidate reports the pair.
            owner = two_way_range_owner(anchor_rect, rect, d, grid)
            if owner != cell_id:
                continue
            if any(bindings[s][0] == rid for s in step.same_dataset):
                continue
            ok = True
            for triple, other in step.checks:
                ops += 1
                if not triple.holds_with(new_slot, rect, bindings[other][1]):
                    ok = False
                    break
            if not ok:
                continue
            merged = dict(bindings)
            merged[new_slot] = (rid, rect)
            if is_final:
                ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES)
                ctx.emit(
                    encode_result(
                        slot_order,
                        {s: r for s, (r, __) in merged.items()},
                    )
                )
            else:
                # Encodes the line once, in the TupleRecord constructor —
                # the part-file write reuses it verbatim.
                ctx.emit(TupleRecord(merged))
        ctx.add_compute(ops)

    return reducer
