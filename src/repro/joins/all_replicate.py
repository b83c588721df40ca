"""The *All-Replicate* naive multi-way join (Section 6).

One map-reduce job: every rectangle of every relation is replicated with
``f1`` to all cells in the 4th quadrant of its start cell, every reducer
evaluates the full multi-way join over what it received, and the
duplicate-avoidance rule of Section 6.2 keeps exactly one reporter per
output tuple.

Correct but naive: a rectangle near the top-left of the space is shipped
to almost every reducer whether or not it can contribute to any output
tuple, so the shuffle volume — and the per-reducer join work — explodes.
The Table 2 benchmark shows exactly this blow-up.
"""

from __future__ import annotations

import numpy as np

from repro.grid.partitioning import GridPartitioning
from repro.grid.transforms import replicate_f1
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
from repro.joins.local import LocalJoiner
from repro.joins.reducers import (
    RECT_SHUFFLE_CODEC,
    make_local_join_reducer,
    make_nested_join_reducer,
    rect_value,
    staged_rect_values,
)
from repro.data.io import RECT_CODEC
from repro.kernels import transforms as _kt
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import MapContext, MapReduceJob
from repro.mapreduce.workflow import Workflow
from repro.query.query import Query

__all__ = ["AllReplicateJoin"]


class AllReplicateJoin(MultiWayJoinAlgorithm):
    """Replicate everything, join everywhere, dedup at the owner cell."""

    name = "all-replicate"

    def __init__(self, index_kind: str = "grid") -> None:
        self.index_kind = index_kind

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
        output_path = f"{self.name}/output"
        # Under resume the previous output is a restorable checkpoint.
        if not cluster.resume and cluster.dfs.exists(output_path):
            cluster.dfs.delete(output_path)

        kernel = cluster.resolved_kernel
        joiner = LocalJoiner(query, self.index_kind, kernel=kernel)
        numpy = kernel == "numpy"
        if numpy:
            reducer = make_nested_join_reducer(query, grid, joiner)
        else:
            reducer = make_local_join_reducer(query, grid, joiner)
        job = MapReduceJob(
            name=self.name,
            input_paths=[paths[k] for k in query.dataset_keys],
            output_path=output_path,
            mapper=_make_mapper(grid),
            reducer=reducer,
            num_reducers=grid.num_cells,
            input_codec=RECT_CODEC,
            shuffle_codec=RECT_SHUFFLE_CODEC,
            batch_mapper=_make_batch_mapper(grid) if numpy else None,
            segmented=numpy,
            distinct_rows=numpy,
        )
        workflow = Workflow(cluster)
        workflow.run(job)
        tuples = self._collect_tuples(cluster, output_path)
        return JoinResult(
            tuples=tuples,
            stats=JoinStats.from_workflow(workflow.result),
            workflow=workflow.result,
        )


def _make_mapper(grid: GridPartitioning):
    """Replicate every rectangle with ``f1``, tagged with its dataset."""

    def mapper(key: tuple[str, int], record: tuple, ctx: MapContext) -> None:
        path, __ = key
        dataset = dataset_from_path(path)
        rid, rect = record
        ctx.counter(JOIN_COUNTERS, CNT_MARKED)
        for cell_id, __rect in replicate_f1(rect, grid):
            ctx.emit(cell_id, rect_value(dataset, rid, rect))
            ctx.counter(JOIN_COUNTERS, CNT_AFTER_REPLICATION)

    return mapper


def _make_batch_mapper(grid: GridPartitioning):
    """Columnar twin of :func:`_make_mapper`.

    One vectorized 4th-quadrant mask covers the whole split — on its
    slice ``batch`` of the file's column bundle — and the
    flattened per-record cell lists go out in a single ``emit_batch``
    call whose values are the split's columns: the exact pairs,
    per-bucket order, byte totals and join counters of the scalar
    mapper.
    """

    def batch_mapper(split_entries, ctx: MapContext, batch=None) -> None:
        if not split_entries:
            return
        batch, values, sizes = staged_rect_values(np, ctx, split_entries, batch)
        cids, counts = _kt.quadrant_cell_lists(np, grid, batch)
        ctx.counter(JOIN_COUNTERS, CNT_MARKED, len(split_entries))
        ctx.emit_batch(cids, counts, values, sizes)
        ctx.counter(JOIN_COUNTERS, CNT_AFTER_REPLICATION, len(cids))

    return batch_mapper
