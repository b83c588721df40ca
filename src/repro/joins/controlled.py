"""*Controlled-Replicate* and *C-Rep-L* (Sections 7, 8 and 9).

A round of two map-reduce jobs:

**Round 1 (mark).**  Map splits every relation, so reducer ``c`` sees
every rectangle overlapping its cell.  The reducer runs the C1-C4
marking test (:class:`~repro.joins.marking.MarkingEngine`) and emits
each rectangle *starting* in its cell exactly once, tagged with the
replication flag — every rectangle leaves round 1 exactly once globally.

**Round 2 (join).**  Map replicates marked rectangles — with ``f1``
(plain C-Rep) or distance-limited ``f2`` (C-Rep-L, bounds from
:class:`~repro.joins.limits.ReplicationLimits`) — and projects unmarked
ones.  Reducers evaluate the local multi-way join and the owner cell of
Section 6.2 reports each tuple once.

Correctness rests on two facts proved in DESIGN.md: every member of an
output tuple that does *not* reach its owner cell by projection is
necessarily marked (the restriction of the tuple to any cell where some
member is missing satisfies C1-C3), and the owner cell lies in the 4th
quadrant of every member within the C-Rep-L Chebyshev bound.  The
property-based tests drive both algorithms against the brute-force
oracle on adversarial random workloads.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.io import RECT_CODEC, TAGGED_CODEC, TaggedRect
from repro.grid.partitioning import GridPartitioning
from repro.grid.transforms import replicate_f2, split
from repro.joins.base import (
    CNT_AFTER_REPLICATION,
    CNT_MARKED,
    JOIN_COUNTERS,
    Datasets,
    JoinResult,
    JoinStats,
    MultiWayJoinAlgorithm,
    dataset_from_path,
    stage_datasets,
)
from repro.joins.limits import ReplicationLimits
from repro.joins.local import LocalJoiner
from repro.joins.marking import MarkingEngine
from repro.kernels import transforms as _kt
from repro.kernels.batch import RectBatch, RectColumns, TaggedColumns
from repro.joins.reducers import (
    RECT_SHUFFLE_CODEC,
    dataset_codes,
    group_values,
    range_bags,
    make_local_join_reducer,
    rect_value,
    rect_values,
    staged_rect_values,
)
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import MapContext, MapReduceJob, ReduceContext
from repro.mapreduce.workflow import Workflow
from repro.query.query import Query

__all__ = ["ControlledReplicateJoin"]


class ControlledReplicateJoin(MultiWayJoinAlgorithm):
    """C-Rep (no limits) or C-Rep-L (with :class:`ReplicationLimits`)."""

    name = "controlled-replicate"

    def __init__(
        self,
        limits: ReplicationLimits | None = None,
        index_kind: str = "grid",
        marking_factory=None,
    ) -> None:
        """``marking_factory(query, grid) -> engine`` lets experiments swap
        the marking strategy (the marking ablation benchmark uses a
        crossing-only variant); the default is the full C1-C4 engine.
        """
        self.limits = limits or ReplicationLimits.unlimited()
        self.index_kind = index_kind
        self.marking_factory = marking_factory
        if not self.limits.is_unlimited:
            self.name = "controlled-replicate-limit"

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
        marked_path = f"{self.name}/marked"
        output_path = f"{self.name}/output"
        # Under resume the previous run's outputs ARE the checkpoints —
        # the workflow decides per job whether to restore or re-run.
        if not cluster.resume:
            for path in (marked_path, output_path):
                if cluster.dfs.exists(path):
                    cluster.dfs.delete(path)

        kernel = cluster.resolved_kernel
        batched = kernel == "numpy"
        if self.marking_factory is not None:
            # Custom marking strategies predate the kernel parameter;
            # they run whatever kernel they were built with.
            marking = self.marking_factory(query, grid)
        else:
            marking = MarkingEngine(query, grid, self.index_kind, kernel=kernel)
        segmented_marking = batched and self.marking_factory is None
        round1 = MapReduceJob(
            name=f"{self.name}-mark",
            input_paths=[paths[k] for k in query.dataset_keys],
            output_path=marked_path,
            mapper=_make_mark_mapper(grid),
            reducer=_make_mark_reducer(grid, marking, segmented=segmented_marking),
            num_reducers=grid.num_cells,
            input_codec=RECT_CODEC,
            output_codec=TAGGED_CODEC,
            shuffle_codec=RECT_SHUFFLE_CODEC,
            batch_mapper=_make_mark_batch_mapper(grid) if batched else None,
            segmented=segmented_marking,
        )

        joiner = LocalJoiner(query, self.index_kind, kernel=kernel)
        round2 = MapReduceJob(
            name=f"{self.name}-join",
            input_paths=[marked_path],
            output_path=output_path,
            mapper=_make_route_mapper(grid, self.limits),
            reducer=make_local_join_reducer(query, grid, joiner, kernel=kernel),
            num_reducers=grid.num_cells,
            input_codec=TAGGED_CODEC,
            shuffle_codec=RECT_SHUFFLE_CODEC,
            batch_mapper=(
                _make_route_batch_mapper(grid, self.limits) if batched else None
            ),
            segmented=batched,
        )

        workflow = Workflow(cluster)
        workflow.run_all([round1, round2])
        tuples = self._collect_tuples(cluster, output_path)
        return JoinResult(
            tuples=tuples,
            stats=JoinStats.from_workflow(workflow.result),
            workflow=workflow.result,
        )


# ----------------------------------------------------------------------
# Round 1: mark
# ----------------------------------------------------------------------
def _make_mark_mapper(grid: GridPartitioning):
    """Split every rectangle so each overlapped cell can inspect it."""

    def mapper(key: tuple[str, int], record: tuple, ctx: MapContext) -> None:
        path, __ = key
        dataset = dataset_from_path(path)
        rid, rect = record
        for cell_id, __rect in split(rect, grid):
            ctx.emit(cell_id, rect_value(dataset, rid, rect))

    return mapper


def _make_mark_batch_mapper(grid: GridPartitioning):
    """Columnar twin of :func:`_make_mark_mapper`.

    One vectorized col/row-range computation covers the whole split —
    on the cached columnar ``batch`` when the engine staged one — and
    the flattened per-record cell lists go out in a single
    ``emit_batch`` call whose values are the split's columns: record
    ``k``'s cells row-major, the exact pairs, per-bucket order and byte
    totals of the scalar mapper.
    """

    def batch_mapper(split_entries, ctx: MapContext, batch=None) -> None:
        if not split_entries:
            return
        batch, values, sizes = staged_rect_values(np, ctx, split_entries, batch)
        keys, counts = _kt.overlap_cell_lists(np, grid, batch)
        ctx.emit_batch(keys, counts, values, sizes)

    return batch_mapper


def _make_mark_reducer(
    grid: GridPartitioning, marking: MarkingEngine, segmented: bool = False
):
    """Run C1-C4; emit each rectangle starting here, flagged.

    When ``segmented`` (the numpy kernel and the stock
    :class:`MarkingEngine`; the job sets ``segmented``) one call marks
    every cell of a physical reduce range: the engine is handed the
    range's column bags and answers in columns, and each cell's slice
    goes out as one :class:`TaggedColumns` bundle.  Where the batched
    search cannot serve the range, and for a custom marking strategy,
    each cell is decided on its own with the ``(rid, rect)`` lists a
    strategy is written against.
    """

    def reducer(cell_id: int, values, ctx: ReduceContext) -> None:
        received: dict[str, list] = {}
        for dataset, rid, rect in values:
            received.setdefault(dataset, []).append((rid, rect))
        decision = marking.select_marked(grid.cell_by_id(cell_id), received)
        ctx.add_compute(decision.ops)
        # ``starts_here`` is exactly the received rectangles this cell
        # owns, in received order — the ownership filter already ran
        # inside select_marked — and ``marked_flags`` tags them one for
        # one.  Custom strategies may omit either.
        starts = decision.starts_here
        flags = decision.marked_flags
        if isinstance(starts, RectColumns):
            n_marked = int(np.count_nonzero(flags))
            if n_marked:
                ctx.counter(JOIN_COUNTERS, CNT_MARKED, n_marked)
            ctx.emit_all(TaggedColumns(starts, flags))
            return
        if starts is None:
            starts = [
                (dataset, rid, rect)
                for dataset, rects in received.items()
                for rid, rect in rects
                if grid.cell_id_of(rect) == cell_id
            ]
            flags = None
        if flags is None:
            marked_set = decision.marked
            flags = [(dataset, rid) in marked_set for dataset, rid, __ in starts]
        tagged = [
            TaggedRect(dataset, rid, rect, flag)
            for (dataset, rid, rect), flag in zip(starts, flags)
        ]
        n_marked = flags.count(True)
        if n_marked:
            ctx.counter(JOIN_COUNTERS, CNT_MARKED, n_marked)
        ctx.emit_all(tagged)

    if not segmented:
        return reducer

    def segmented_reducer(cell_ids: list[int], values, bounds, contexts: list) -> None:
        bags, bag_bounds, firsts = range_bags(np, values, bounds)
        decision = marking.select_marked(
            [grid.cell_by_id(cell_id) for cell_id in cell_ids], bags, bag_bounds, firsts
        )
        if decision is None:
            for g, (cell_id, ctx) in enumerate(zip(cell_ids, contexts)):
                reducer(cell_id, group_values(values, bounds, g), ctx)
            return
        starts = decision.starts_here
        flags = decision.marked_flags
        cuts = decision.start_bounds.tolist()
        marked_before = np.concatenate(([0], np.cumsum(flags))).tolist()
        for ctx, ops, lo, hi in zip(contexts, decision.ops.tolist(), cuts, cuts[1:]):
            ctx.add_compute(ops)
            n_marked = marked_before[hi] - marked_before[lo]
            if n_marked:
                ctx.counter(JOIN_COUNTERS, CNT_MARKED, n_marked)
            ctx.emit_all(TaggedColumns(starts.take(slice(lo, hi)), flags[lo:hi]))

    return segmented_reducer


# ----------------------------------------------------------------------
# Round 2: route and join
# ----------------------------------------------------------------------
def _make_route_mapper(grid: GridPartitioning, limits: ReplicationLimits):
    """Replicate marked rectangles (f1 / limited f2), project the rest."""

    def mapper(key: tuple[str, int], tagged: TaggedRect, ctx: MapContext) -> None:
        value = rect_value(tagged.dataset, tagged.rid, tagged.rect)
        if tagged.marked:
            bound = limits.bound_for(tagged.dataset)
            for cell_id, __rect in replicate_f2(
                tagged.rect, grid, bound, metric=limits.metric
            ):
                ctx.emit(cell_id, value)
                ctx.counter(JOIN_COUNTERS, CNT_AFTER_REPLICATION)
        else:
            ctx.emit(grid.cell_id_of(tagged.rect), value)
            # The paper's "rectangles after replication" metric counts all
            # rectangles communicated to round-2 reducers, projections
            # included (Table 2: 0.05m marked -> 3.9m ≈ 3m projected +
            # 0.9m replicated copies).
            ctx.counter(JOIN_COUNTERS, CNT_AFTER_REPLICATION)

    return mapper


def _make_route_batch_mapper(grid: GridPartitioning, limits: ReplicationLimits):
    """Columnar twin of :func:`_make_route_mapper`.

    The split's columns — rectangle fields, rids, dataset codes, mark
    flags — arrive as the :class:`TaggedColumns` slice round 1 wrote (or
    are built once from the records) and are also the emitted values.
    Owner cells come from one ownership batch; marked records — gathered per
    replication bound, which differs per dataset under C-Rep-L — get
    their ``f2`` cell lists instead.  The targets are laid out
    record-major and flushed in a single ``emit_batch`` call,
    reproducing the scalar mapper's per-bucket emission order exactly.
    """
    metric = limits.metric

    def batch_mapper(split_entries, ctx: MapContext, batch=None) -> None:
        n = len(split_entries)
        if not n:
            return
        if isinstance(batch, TaggedColumns):
            # The slice of the bundle round 1's reducer wrote: its
            # columns are the values to emit.
            columns, marked = batch.columns, batch.marked
        else:
            records = [e[2] for e in split_entries]
            names, codes = dataset_codes(np, [t.dataset for t in records])
            columns = RectColumns(
                names,
                codes,
                RectBatch.from_records(np, [(t.rid, t.rect) for t in records]),
            )
            marked = np.fromiter((t.marked for t in records), dtype=bool, count=n)
        names, codes, batch = columns.names, columns.codes, columns.batch
        values, sizes = rect_values(np, ctx, columns)
        owners = _kt.cell_ids_of_starts(np, grid, batch)
        key_counts = np.ones(n, dtype=np.int64)
        if not marked.any():
            ctx.emit_batch(owners, key_counts, values, sizes)
            ctx.counter(JOIN_COUNTERS, CNT_AFTER_REPLICATION, n)
            return
        bounds = [limits.bound_for(name) for name in names]
        groups = []
        for bound in dict.fromkeys(bounds):
            rows = marked
            if codes is not None:
                same = [c for c, b in enumerate(bounds) if b == bound]
                rows = marked & np.isin(codes, same)
            rows = np.flatnonzero(rows)
            if not len(rows):
                continue
            cids, counts = _kt.quadrant_cell_lists(
                np,
                grid,
                batch.take(rows),
                d=None if math.isinf(bound) else bound,
                metric=metric,
            )
            key_counts[rows] = counts
            groups.append((rows, cids, counts))
        first = np.cumsum(key_counts) - key_counts
        flat_keys = np.empty(int(first[-1] + key_counts[-1]), dtype=np.int64)
        flat_keys[first[~marked]] = owners[~marked]
        for rows, cids, counts in groups:
            run = np.repeat(np.cumsum(counts) - counts, counts)
            flat_keys[
                np.repeat(first[rows], counts) + np.arange(len(cids)) - run
            ] = cids
        ctx.emit_batch(flat_keys, key_counts, values, sizes)
        ctx.counter(JOIN_COUNTERS, CNT_AFTER_REPLICATION, len(flat_keys))

    return batch_mapper
