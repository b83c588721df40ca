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
from repro.joins.reducers import group_values, result_records
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
    KindRuns,
    MapContext,
    MapReduceJob,
    ReduceContext,
    ShuffleCodec,
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
            # that per-bucket emission order.
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
                segmented=_columnar_step(step, self.index_kind, kernel),
                num_reducers=grid.num_cells,
                input_codec=input_codec,
                output_codec=None if is_final else TUPLE_CODEC,
                shuffle_codec=CASCADE_SHUFFLE_CODEC,
                batch_mapper=(
                    _make_step_batch_mapper(grid, step, bound, left_path)
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
):
    """Columnar twin of :func:`_make_step_mapper` (a split never spans
    files, so a task is all tuple side or all base side).

    The split's records become one column bundle — ``TupleColumns`` for
    the tuple side (the slice of the ``TupleFileColumns`` the previous
    step's reducer wrote; step 0: singleton tuples straight from the
    split's slice of the staged rectangle file), ``RectColumns`` tagged
    ``"B"`` for the base side — which is also the emitted values; the
    routing cells of the whole
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
        elif batch is None:
            # A tuple file written as records (a scalar step reducer, or
            # decoded from text).
            from_left = True
            values = TupleColumns.from_records(np, bound, [e[2] for e in split_entries])
        else:
            # A rectangle file: the split's slice of its bundle.
            batch = batch.batch
            from_left = _is_under(split_entries.path, left_path)
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
def _columnar_step(step: SlotPlan, index_kind: str, kernel: str) -> bool:
    """Whether a step's reducer is the segmented numpy one: the grid
    index and vectorized predicates on the numpy kernel."""
    return kernel == "numpy" and index_kind == "grid" and plan_is_vectorized(step)


def _make_step_reducer(
    grid: GridPartitioning,
    query: Query,
    step: SlotPlan,
    bound: tuple[str, ...],
    is_final: bool,
    index_kind: str,
    kernel: str = "python",
):
    """The step reducer: on the numpy kernel with the grid index and
    vectorized predicates a *segmented* reducer (its job sets
    ``segmented``) — one call joins every cell of a physical reduce
    range — else the scalar reference, one call per cell."""
    scalar = _make_scalar_step_reducer(grid, query, step, is_final, index_kind, kernel)
    if not _columnar_step(step, index_kind, kernel):
        return scalar
    d = step.anchor.predicate.distance
    slot_order = query.slots
    new_slot = step.slot

    def reducer(cell_ids: list[int], values, bounds, contexts: list) -> None:
        """One level of the local join's frontier search over every cell
        of the range — each cell's tuples are its frontier rows, its base
        rectangles one segment of the new slot's index — plus the
        Section 5 owner rule as the level's admit mask, checked against
        each candidate's own cell."""
        tuples, t_bounds, base, b_bounds = _range_sides(np, bound, values, bounds)
        if tuples is None or base is None:
            return
        live = np.flatnonzero((np.diff(t_bounds) > 0) & (np.diff(b_bounds) > 0))
        if not len(live):
            return
        batches = dict(zip(tuples.slots, tuples.batches))
        rid_arrays = {s: batches[s].int_ids(np) for s in step.same_dataset}
        if step.same_dataset and (
            base.int_ids(np) is None
            or any(ids is None for ids in rid_arrays.values())
        ):
            # Distinctness compares int64 rid columns: the range's cells
            # join one by one on the scalar reducer.
            for g in live.tolist():
                rows = _cell_rows(tuples, t_bounds, base, b_bounds, g)
                scalar(cell_ids[g], rows, contexts[g])
            return
        ncell = len(cell_ids)
        t_seg = np.repeat(np.arange(ncell), np.diff(t_bounds))
        frontier_rows = None  # every tuple row, in order
        row_seg = t_seg
        if len(live) < ncell:
            frontier_rows = np.flatnonzero(np.isin(t_seg, live))
            row_seg = t_seg[frontier_rows]
        anchor_batch = batches[step.anchor_slot]
        # Tuples of one cell sharing an anchor rectangle repeat it under
        # their own row numbers; named by one row, the bulk probe probes
        # it once.
        shared = _first_rows_of_rectangles(np, anchor_batch, t_seg)
        frontier = dict.fromkeys(bound, frontier_rows)
        if shared is not None:
            frontier[step.anchor_slot] = (
                shared if frontier_rows is None else shared[frontier_rows]
            )
        base_cell = np.asarray(cell_ids)[np.repeat(np.arange(ncell), np.diff(b_bounds))]

        def owned_here(anchor_rows, entries):
            # Section 5 dedup: only the cell owning the start of
            # (enlarged anchor) ∩ candidate reports the pair.
            return (
                _kt.two_way_owner_cells(
                    np, grid, anchor_batch, anchor_rows, base, entries, d
                )
                == base_cell[entries]
            )

        index = GridIndex(kernel="numpy", batch=base, segments=b_bounds)
        parents, entries, checks = frontier_level(
            np,
            step,
            index,
            batches,
            frontier,
            rid_arrays.__getitem__,
            owned_here,
            seg=t_seg,
            bins=(lambda parents, __: row_seg[parents], ncell),
        )
        for g in live.tolist():
            contexts[g].add_compute(int(checks[g]))
        if not len(parents):
            return
        cuts = np.searchsorted(row_seg[parents], np.arange(ncell + 1))
        if frontier_rows is not None:
            parents = frontier_rows[parents]
        if is_final:
            records = result_records(
                np,
                slot_order,
                {**batches, new_slot: base},
                {**dict.fromkeys(bound, parents), new_slot: entries},
            )
        else:
            records = _merged_columns(np, tuples, parents, new_slot, base, entries)
        for g, ctx in enumerate(contexts):
            if cuts[g + 1] > cuts[g]:
                if is_final:
                    ctx.counter(JOIN_COUNTERS, CNT_OUTPUT_TUPLES, int(cuts[g + 1] - cuts[g]))
                ctx.emit_all(group_values(records, cuts, g))

    return reducer


def _first_rows_of_rectangles(np, batch: RectBatch, seg):
    """Per row of ``batch``, the first row of its segment (``seg``: each
    row's) holding the same rectangle, found by rid (one stable sort of
    the segment and int64 id columns); ``None`` when no rid repeats in a
    segment, when the ids are not all integers, or when some rid names
    unequal rectangles — nothing makes a dataset's rids unique."""
    ids = batch.int_ids(np)
    if ids is None or not len(ids):
        return None
    order = np.lexsort((ids, seg))
    starts = np.ones(len(ids), dtype=bool)
    starts[1:] = (ids[order][1:] != ids[order][:-1]) | (seg[order][1:] != seg[order][:-1])
    if starts.all():
        return None
    # The sort is stable: each run of equal (segment, rid) starts at its
    # lowest row.
    rows = np.empty_like(order)
    rows[order] = order[starts][np.cumsum(starts) - 1]
    columns = (batch.x, batch.length, batch.y, batch.breadth)
    return rows if all((col[rows] == col).all() for col in columns) else None


def _range_sides(np, bound: tuple[str, ...], values, bounds):
    """``(tuples, tuple_bounds, base, base_bounds)``: a physical range's
    tuple side and base side, each gathered once, and the int64 row
    bounds cutting each into the range's cells.

    ``values`` are the range's reduce groups concatenated in group order
    and ``bounds`` cut them into the groups.  The tuple side is a
    :class:`TupleColumns` over the ``bound`` slots, the base side a
    :class:`RectBatch`, rows in received order; ``None`` for a side no
    cell of the range received.  On the columnar shuffle the engine
    hands over a range holding both sides as their :class:`KindRuns`
    and a range holding one side as that side's bundle; a plain value
    list (the scalar mapper, non-integer rids) is walked once.
    """
    none = np.zeros(len(bounds), dtype=np.int64)
    if isinstance(values, KindRuns):
        tuples, t_bounds, base, b_bounds = None, none, None, none
        for bundle, side_bounds in zip(values.bundles, values.bounds):
            if isinstance(bundle, TupleColumns):
                tuples, t_bounds = bundle, side_bounds
            else:
                base, b_bounds = bundle.batch, side_bounds
        return tuples, t_bounds, base, b_bounds
    if isinstance(values, TupleColumns):
        return values, bounds, None, none
    if isinstance(values, RectColumns):
        return None, none, values.batch, bounds
    records: list[TupleRecord] = []
    pairs: list[tuple] = []
    is_tuple = np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        if value[0] == "T":
            records.append(value[1])
            is_tuple[i] = True
        else:
            pairs.append(value[1:])
    before = np.concatenate(([0], np.cumsum(is_tuple)))
    t_bounds = before[np.asarray(bounds)]
    return (
        TupleColumns.from_records(np, bound, records) if records else None,
        t_bounds,
        RectBatch.from_records(np, pairs) if pairs else None,
        np.asarray(bounds) - t_bounds,
    )


def _cell_rows(tuples: TupleColumns, t_bounds, base: RectBatch, b_bounds, g: int) -> list:
    """Cell ``g``'s values as the scalar reducer reads them: its
    ``("T", TupleRecord)`` rows, then its ``("B", rid, rect)`` rows."""
    cell_tuples = group_values(tuples, t_bounds, g)
    cell_base = base.take(slice(int(b_bounds[g]), int(b_bounds[g + 1])))
    return [*cell_tuples, *(("B", rid, rect) for rid, rect in cell_base.pairs())]


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
