"""The map-reduce execution engine (the Hadoop stand-in).

Runs one :class:`~repro.mapreduce.job.MapReduceJob` at a time, faithfully
reproducing the data flow of Section 2:

1. input files are read from the DFS and partitioned into *splits*, one
   map task per split;
2. each map task applies the map function to every record and buckets
   its emissions by the partitioner;
3. the shuffle merges the buckets per reducer and sorts them by key;
4. each reduce task folds over its key groups and writes one
   ``part-NNNNN`` file back to the DFS.

Records cross this pipeline as Python objects when the job declares
record codecs (the typed record path of PR 2): map input is decoded at
most once per file version, shuffle values are whatever the mapper
emitted, and reduce output is encoded exactly once at part-file write —
with byte accounting identical to the string path at every stage (the
job's shuffle codec reproduces the string-era sizes, and DFS volumes are
always the encoded lines).

With a ``memory_budget`` the engine runs under *memory governance*
(Hadoop's ``io.sort.mb``): each map task bounds its buffered shuffle
bytes — measured by the job's shuffle codec, the same sizing the
canonical ``MAP_OUTPUT_BYTES`` counter charges — and spills its buffered
bucket slices to the DFS, in emission order, when the budget is
exceeded.  A task's runs followed by its resident remainder are its
unbounded bucket, so the reduce task reads each run back in place and
groups exactly as an unbudgeted run does (see
:mod:`repro.mapreduce.spill`): a budgeted run writes byte-identical part
files and differs only in the ``spill*`` telemetry and the
non-canonical spill-overhead cost term.

Tasks are dispatched through a pluggable
:class:`~repro.mapreduce.executor.TaskExecutor` (``serial``, ``thread``
or ``process``), so the k-way parallelism the cost model *assumes* can
be backed by real cores.  Each *logical* task is a self-contained unit:
it runs against its own :class:`Counters` shard and returns its
buckets/output lines as a result instead of mutating shared state, and
the engine merges shards and results in task-id order.  *Physically*
the engine dispatches contiguous ranges of logical tasks: a reduce
phase is cut into a few ranges by the shuffle bytes its tasks read
(:func:`_task_ranges`), and a job whose reducer is ``segmented`` sees
one call per range instead of one per task — each task still gets its
own context, counters, part file and timing share.  Everything therefore stays
deterministic at any worker count: splits are formed in file order,
sorting is stable, part files are written in reducer-id order — a job
run twice, with any executor, produces byte-identical output, which the
test-suite asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby, repeat
from operator import itemgetter
from typing import Any

import numpy as np

from repro.data.io import RECT_CODEC
from repro.errors import BadRecordError, JobError, TaskRetryExhausted
from repro.kernels import check_kernel, resolve_kernel
from repro.kernels.batch import RectBatch
from repro.mapreduce.blocks import BlockPlane
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.cost import CostModel, JobCostBreakdown, TaskStats
from repro.mapreduce.dfs import InMemoryDFS, codec_name, text_bytes, typed_form
from repro.mapreduce.executor import default_workers, make_executor
from repro.mapreduce.faults import (
    FaultPlan,
    PhaseReport,
    RetryPolicy,
    WorkerManager,
    run_phase_with_recovery,
)
from repro.mapreduce.job import (
    BucketSegment,
    MapContext,
    MapReduceJob,
    ReduceContext,
    SpillingMapContext,
    SplitEntries,
    default_sort_key,
    gather_values,
)
from repro.mapreduce.spill import SpillRun, SpillStore, spill_dir
from repro.mapreduce.workers import WorkerPool
from repro.obs.ledger import NullLedger
from repro.obs.profile import TaskProfiler, run_profiled
from repro.obs.trace import NullRecorder

__all__ = ["Cluster", "JobResult", "PhaseTimings"]


@dataclass
class PhaseTimings:
    """Measured wall-clock decomposition of one job's execution stages.

    The stages partition (almost all of) ``JobResult.wall_clock_seconds``:
    split construction, map task execution, shuffle merge, reduce task
    execution and part-file writes.  Map-only jobs report their
    partitioned output write under ``write_s`` and 0 for
    ``shuffle_s``/``reduce_s``.  The tiny remainder of the total is
    executor construction and result bookkeeping.
    """

    split_s: float = 0.0
    map_s: float = 0.0
    shuffle_s: float = 0.0
    reduce_s: float = 0.0
    write_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Sum of the measured stages (<= the job's wall clock)."""
        return self.split_s + self.map_s + self.shuffle_s + self.reduce_s + self.write_s

    def as_dict(self) -> dict[str, float]:
        return {
            "split_s": self.split_s,
            "map_s": self.map_s,
            "shuffle_s": self.shuffle_s,
            "reduce_s": self.reduce_s,
            "write_s": self.write_s,
            "total_s": self.total_s,
        }


@dataclass
class JobResult:
    """Outcome of one job run: counters, per-task volumes and timing."""

    job_name: str
    output_path: str
    counters: Counters
    map_tasks: list[TaskStats]
    reduce_tasks: list[TaskStats]
    cost: JobCostBreakdown
    output_records: int = 0
    #: ``True`` when the job was *not* re-executed: the workflow restored
    #: this result from its checkpoint manifest (see
    #: :meth:`repro.mapreduce.workflow.Workflow.resume`)
    resumed: bool = False
    #: measured end-to-end duration of the job on the host machine
    wall_clock_seconds: float = 0.0
    #: wall-clock decomposition of the total (split/map/shuffle/reduce/write)
    phases: PhaseTimings = field(default_factory=PhaseTimings)
    #: per-task ``(start, end)`` wall-clock offsets from job start,
    #: measured *inside* the workers (true durations on any executor)
    map_task_wall: list[tuple[float, float]] = field(default_factory=list)
    reduce_task_wall: list[tuple[float, float]] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Modelled end-to-end duration of the job."""
        return self.cost.total_s

    @property
    def shuffled_records(self) -> int:
        """Intermediate key-value pairs — the paper's communication cost."""
        return self.counters.engine(C.MAP_OUTPUT_RECORDS)


# ----------------------------------------------------------------------
# Task units.  Workers are module-level pure functions of
# (phase payload, task index) so any executor back-end can run them;
# results carry everything the engine needs to merge deterministically.
# ----------------------------------------------------------------------
@dataclass
class _MapPhase:
    """Immutable payload shared by every map task of one job.

    Split entries are ``(path, lineno, record, nbytes)``: the map input
    record (a text line, or a typed record when the job declares an
    input codec) plus its encoded size, so map-side byte accounting is
    identical on both paths; a split is a list of them, or the lazy
    :class:`~repro.mapreduce.job.SplitEntries` over a column bundle.
    ``memory_budget`` (bytes, ``None`` =
    unbounded) switches emission buffering to the spilling context,
    which spills at the same points whether the map body emits record
    by record or in batches.
    ``split_batches`` optionally carries each split's columns — a
    :class:`~repro.kernels.batch.RectBatch` slice of a rectangle file,
    or the slice of the bundle an upstream reducer wrote.
    ``profile`` wraps the task body in cProfile (the cluster's
    profiler); the stats dict rides back in the result.
    """

    job: MapReduceJob
    splits: list[list[tuple[str, int, Any, int]] | SplitEntries]
    memory_budget: int | None = None
    split_batches: list[Any] | None = None
    profile: bool = False


@dataclass
class _MapTaskResult:
    """What one map task hands back to the engine.

    ``t_start``/``t_end`` are :func:`time.perf_counter` stamps taken
    inside the worker, so thread/process back-ends report true per-task
    durations (CLOCK_MONOTONIC is system-wide on Linux, making forked
    workers' stamps comparable with the parent's).
    """

    buckets: list[list[tuple[Any, Any]]]
    bucket_bytes: list[int]
    counters: Counters
    stats: TaskStats
    t_start: float = 0.0
    t_end: float = 0.0
    #: encoded runs per reducer (tasks that spilled only) — the lines
    #: ride the result because process-pool children write to a *copy*
    #: of the DFS; the engine persists them parent-side and puts the
    #: :class:`SpillRun` naming each file in its line's place
    spill_runs: list[list[str | SpillRun]] | None = None
    #: columnar buckets (per-reducer :class:`BucketSegment` runs) from
    #: tasks that emitted through ``emit_batch`` — ``buckets`` is then
    #: all-empty and the shuffle merges segments instead of pairs
    segments: list[list[BucketSegment]] | None = None
    #: raw cProfile stats of the task body (profiled runs only);
    #: a plain dict, so it pickles across the process executor
    profile: dict | None = None


@dataclass
class _ReducePhase:
    """Immutable payload shared by every reduce task of one job.

    ``buckets[r]`` is reducer ``r``'s merged (map-task order) but not
    yet sorted input.  When every map task emitted columnar,
    ``seg_buckets[r]`` holds reducer ``r``'s :class:`BucketSegment` runs
    in map-task order (``buckets`` is empty) and the reduce task groups
    keys with a numpy stable argsort instead of the Python sort.  Under
    a memory budget that spilled, either form holds a
    :class:`~repro.mapreduce.spill.SpillRun` where each spilled run was
    emitted, and ``store`` snapshots the spill side files they name.
    """

    job: MapReduceJob
    buckets: list[list[tuple[Any, Any]]]
    seg_buckets: list[list[BucketSegment]] | None = None
    store: SpillStore | None = None
    profile: bool = False


@dataclass
class _ReduceTaskResult:
    """What one reduce task hands back to the engine.

    ``records`` is the part file's typed form — the emitted records of a
    job with an ``output_codec``, or the column bundle the reducer
    emitted — and ``None`` when the lines are all there is.  ``lines``
    is the text the task encoded itself: its record objects', a plain
    reducer's own lines, and ``None`` for a column bundle, which ships
    as columns only (the DFS sizes it and formats its text when read).
    ``t_start``/``t_end`` are worker-side stamps, as on the map side.
    """

    lines: list[str] | None
    records: Any
    input_records: int
    compute_ops: int
    counters: Counters
    t_start: float = 0.0
    t_end: float = 0.0
    #: raw cProfile stats of the task body (profiled runs only)
    profile: dict | None = None


def _sorted_by_key(
    bucket: list[tuple[Any, Any]], sort_key
) -> list[tuple[Any, Any]]:
    """Stable-sort a bucket by ``sort_key`` of the record key.

    Decorate-sort-undecorate: the key function runs exactly once per
    record and the original index breaks ties, so equal-key records keep
    map emission order (the engine's stability guarantee).
    """
    decorated = sorted((sort_key(kv[0]), i) for i, kv in enumerate(bucket))
    return [bucket[i] for __, i in decorated]


def _grouped(ordered: list[tuple[Any, Any]]):
    """Yield ``(key, [values])`` runs of adjacent equal keys."""
    for key, run in groupby(ordered, key=itemgetter(0)):
        yield key, [v for __, v in run]


def _segment_group_parts(segs: list[BucketSegment], sort_key):
    """Yield ``(key, parts)`` groups of one reducer's segment runs, each
    part the slice of one segment the group's values come from, ungathered.

    Segments arrive concatenated map-task-major with emission order
    inside each task, so a *stable* sort by key reproduces the scalar
    path's ``(sort_key(key), map_task, seq)`` order exactly: a numpy
    stable argsort when the sort key provably is the key itself (the
    job default), the reference decorate-sort over the key column for
    a custom ordering.  The join jobs' one-distinct-key-per-reducer
    layout takes the no-sort fast path: a single group of every
    segment, whole.
    """
    if not segs:
        return
    keys = segs[0].keys if len(segs) == 1 else np.concatenate(
        [seg.keys for seg in segs]
    )
    n = len(keys)
    if n == 0:
        return
    if sort_key is default_sort_key:
        if int(keys.min()) == int(keys.max()):
            # One distinct key: the concatenation already is the group.
            yield int(keys[0]), segs
            return
        order = np.argsort(keys, kind="stable")
    else:
        decorated = sorted((sort_key(k), i) for i, k in enumerate(keys.tolist()))
        order = np.array([i for __, i in decorated], dtype=np.int64)
    sk = keys[order]
    bounds = np.flatnonzero(sk[1:] != sk[:-1]) + 1
    starts = np.concatenate(([0], bounds)).tolist()
    ends = np.append(bounds, n).tolist()
    seg_end = np.cumsum([len(seg) for seg in segs])
    seg_start = (seg_end - [len(seg) for seg in segs]).tolist()
    for lo, hi in zip(starts, ends):
        # Ties keep concatenation order, so a group's rows ascend and
        # fall into one contiguous run per segment they touch.
        rows = order[lo:hi]
        seg_of = np.searchsorted(seg_end, rows, side="right")
        cuts = (np.flatnonzero(seg_of[1:] != seg_of[:-1]) + 1).tolist()
        parts = []
        for a, b in zip([0, *cuts], [*cuts, hi - lo]):
            seg = segs[int(seg_of[a])]
            at = rows[a:b] - seg_start[int(seg_of[a])]
            parts.append(BucketSegment(seg.keys[at], seg.source, seg.members[at]))
        yield int(sk[lo]), parts


def _gathered(parts: list):
    """One group's values: its parts gathered and concatenated
    (:func:`gather_values`) — the plain list of emitted values the row
    path would hand the reducer, or, when the map tasks emitted columnar
    bundles, one such bundle (the ordered runs of a
    :class:`~repro.mapreduce.job.ValueRuns` when the tasks' bundles
    differ in type), a lazy sequence of those same values."""
    return gather_values(
        [part.gather() if isinstance(part, BucketSegment) else part for part in parts]
    )


def _gather_range(groups: list[list]) -> tuple[Any, Any]:
    """A physical range's reduce groups, gathered in one piece.

    ``groups`` holds each group's parts — :class:`BucketSegment` slices,
    or plain value lists (the row shuffle) — in group order.  Returns
    ``(values, bounds)``: every group's values concatenated in group
    order, and the int64 bounds cutting them into the groups.  When
    every part is a slice of one columnar source type, each source is
    gathered once for the whole range (one ``take`` of all the members
    the range wants from it) and one more ``take`` puts the rows in
    group order — instead of one ``take`` per part and one ``concat``
    per group.  Otherwise the parts are gathered one by one.
    """
    parts = [part for group in groups for part in group]
    sizes = np.array([len(part) for part in parts], dtype=np.int64)
    group_sizes = [sum(len(part) for part in group) for group in groups]
    bounds = np.concatenate(([0], np.cumsum(group_sizes, dtype=np.int64)))
    kinds = {type(getattr(part, "source", None)) for part in parts}
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is None or not hasattr(kind, "concat"):
        return (_gathered(parts) if parts else []), bounds
    # Sources in order of first use; each part's rows sit at ``at`` in
    # the sources' gathered rows, concatenated source by source.
    members: dict[int, list] = {}
    sources: dict[int, Any] = {}
    for part in parts:
        members.setdefault(id(part.source), []).append(part.members)
        sources.setdefault(id(part.source), part.source)
    before: dict[int, int] = {}
    taken = []
    at = 0
    for key, source in sources.items():
        wanted = members[key][0] if len(members[key]) == 1 else np.concatenate(members[key])
        taken.append(source.take(wanted))
        before[key] = at
        at += len(wanted)
    # each part's first row among the gathered rows
    start = np.empty(len(parts), dtype=np.int64)
    seen: dict[int, int] = {}
    for i, part in enumerate(parts):
        key = id(part.source)
        start[i] = before[key] + seen.get(key, 0)
        seen[key] = seen.get(key, 0) + len(part)
    merged = taken[0] if len(taken) == 1 else kind.concat(taken)
    order = np.repeat(start - (np.cumsum(sizes) - sizes), sizes) + np.arange(at)
    if len(taken) == 1 or bool((order[1:] > order[:-1]).all()):
        return merged, bounds
    return merged.take(order), bounds


#: shuffle bytes a physical reduce range reads at most (unless it is one
#: task): about 10k rows of a join job's ``(cell, rectangle)`` pairs.  It
#: bounds the segmented kernels' arrays — an All-Replicate range of dense
#: cells enumerates millions of candidate pairs, and twice this budget
#: raised the benchmark's ``peak_rss_mb`` on chain3-dense-3k by ~16 % —
#: while cutting a 64-cell phase of the benchmark's sizes into a few ranges
_RANGE_BYTES = 1 << 19


def _task_ranges(sizes: list[int], floor: int) -> list[range]:
    """Cut tasks ``0 .. len(sizes) - 1`` into contiguous ranges.

    ``sizes`` is each task's input volume.  The phase gets enough ranges
    that none reads much more than :data:`_RANGE_BYTES`, and at least
    ``floor`` (the executor's workers) so no worker idles — never more
    than one per task, never an empty one.  Cuts fall where the running
    volume crosses an equal share of the total.
    """
    n = len(sizes)
    if not n:
        return []
    total = sum(sizes)
    k = min(n, max(floor, 1, -(-total // _RANGE_BYTES)))
    cuts = [0]
    running = 0
    for t, size in enumerate(sizes[:-1]):
        running += size
        j = len(cuts)
        # close range j once its share is reached, leaving one task per
        # range still to come
        if j < k and (running * k >= total * j or n - (t + 1) == k - j):
            cuts.append(t + 1)
    cuts.append(n)
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _singletons(n: int) -> list[range]:
    """Tasks ``0 .. n - 1`` as ranges of one (the map side's dispatch)."""
    return [range(t, t + 1) for t in range(n)]


def _profiled(body, phase, tasks, *args) -> list:
    """Run ``body(phase, tasks, *args)`` — one physical range — optionally
    under the per-task profiler.

    The cProfile wrapper lives here — outside the body — so the
    unprofiled path is a single attribute check and the profiled stats
    cover exactly the range's body on every executor back-end.  They
    ride on the range's first task's result; its other tasks carry an
    empty stats dict, so every logical task still counts as profiled.
    """
    if not phase.profile:
        return body(phase, tasks, *args)
    results, stats = run_profiled(body, phase, tasks, *args)
    for result in results:
        result.profile = stats
        stats = {}
    return results


def _run_map_task(phase: _MapPhase, tasks, skips=(), poison=()) -> list[_MapTaskResult]:
    """Run the map tasks ``tasks`` (one physical range), one result each.

    ``skips`` / ``poison`` hold, per task, the split offsets the
    recovery layer quarantined / an injected fault declared bad (empty:
    none for any task).
    """
    skips = skips or [()] * len(tasks)
    poison = poison or [()] * len(tasks)
    return _profiled(_map_range_body, phase, tasks, skips, poison)


def _map_range_body(phase: _MapPhase, tasks, skips, poison) -> list[_MapTaskResult]:
    return [
        _map_task_body(phase, index, task_skips, task_poison)
        for index, task_skips, task_poison in zip(tasks, skips, poison)
    ]


def _map_task_body(
    phase: _MapPhase,
    index: int,
    skips: tuple[int, ...] = (),
    poison: tuple[int, ...] = (),
) -> _MapTaskResult:
    """One self-contained map task: split in, buckets + counter shard out.

    A job's one map body is its ``batch_mapper`` over the whole split
    when it declares one (and no combiner), the record loop otherwise.
    ``skips`` are split offsets quarantined by earlier attempts of this
    task (Hadoop's skipping mode): those records are not read, mapped or
    counted — the loop passes over them, and the batch mapper gets the
    split with their rows masked out of the entries and the columns.
    ``poison`` are offsets an injected ``poison-record`` fault declared
    bad; the first one not skipped raises :class:`BadRecordError` —
    before the batch mapper runs, or when the loop reaches it — so the
    recovery layer can locate the record.  A scalar mapper's failure is
    located the same way; a batch mapper's stays an unlocated
    :class:`JobError` (its records were decoded at split time).
    """
    t_start = time.perf_counter()
    job = phase.job
    split = phase.splits[index]
    counters = Counters()
    budget = phase.memory_budget
    if budget is not None and (job.reducer is not None or job.combiner is not None):
        # Map-only jobs have no sort buffer to bound (their emissions
        # stream straight to partitioned output), like Hadoop.
        ctx: MapContext = SpillingMapContext(
            counters,
            job.num_reducers,
            job.partitioner,
            job.shuffle_codec,
            budget=budget,
        )
    else:
        ctx = MapContext(
            counters, job.num_reducers, job.partitioner, job.shuffle_codec
        )
    if job.batch_mapper is not None and job.combiner is None:
        # The record loop checks skips before poison: stop where it would.
        bad = [o for o in poison if o not in skips and o < len(split)]
        if bad:
            offset = min(bad)
            raise _bad_record(job, offset, split[offset], "injected poison record")
        batch = None if phase.split_batches is None else phase.split_batches[index]
        if skips:
            split, batch = _without_rows(split, batch, skips)
        nbytes = split.nbytes if isinstance(split, SplitEntries) else sum(e[3] for e in split)
        processed = len(split)
        try:
            job.batch_mapper(split, ctx, batch)
        except Exception as exc:  # noqa: BLE001 - wrap task failures
            raise JobError(
                f"map task failed in job {job.name!r}: {exc}"
            ) from exc
        if ctx.mixed_emission():
            raise JobError(
                f"batch mapper of job {job.name!r} mixed emit() and "
                f"emit_batch() in one task"
            )
    else:
        mapper = job.mapper
        nbytes = 0
        processed = 0
        for offset, entry in enumerate(split):
            if offset in skips:
                continue
            if offset in poison:
                raise _bad_record(job, offset, entry, "injected poison record")
            path, lineno, record, record_bytes = entry
            nbytes += record_bytes
            processed += 1
            try:
                mapper((path, lineno), record, ctx)
            except Exception as exc:  # noqa: BLE001 - wrap task failures
                raise _bad_record(job, offset, entry, exc) from exc
    ctx.input_records = processed
    # One add per task, not one per record — the map inner loop stays
    # free of counter bookkeeping.
    counters.add(C.GROUP_ENGINE, C.MAP_INPUT_RECORDS, processed)
    spill_runs = None
    if isinstance(ctx, SpillingMapContext):
        if job.combiner is not None:
            # The combiner contract is whole-bucket grouping: restore
            # the unbounded bucket shape first (spill telemetry stays —
            # the spills did happen).
            ctx.unspill()
        elif ctx.spilled:
            spill_runs = ctx.spill_runs
    if job.combiner is not None:
        _apply_combiner(job, ctx, counters)
    return _MapTaskResult(
        buckets=ctx.buckets,
        bucket_bytes=ctx.bucket_bytes,
        counters=counters,
        stats=TaskStats(
            input_records=processed,
            input_bytes=nbytes,
            output_records=ctx.output_records,
            output_bytes=ctx.output_bytes,
            compute_ops=ctx.compute_ops,
        ),
        t_start=t_start,
        t_end=time.perf_counter(),
        spill_runs=spill_runs,
        segments=ctx.segments,
    )


def _bad_record(job: MapReduceJob, offset: int, entry, reason) -> BadRecordError:
    """The located failure of split record ``offset`` (keeps the seed's
    message shape: ``BadRecordError`` is a :class:`JobError`)."""
    path, lineno, record, __ = entry
    return BadRecordError(
        f"map task failed in job {job.name!r} on {path}:{lineno}: {reason}",
        offset=offset,
        path=path,
        lineno=lineno,
        record=repr(record),
    )


def _without_rows(split, batch, skips: tuple[int, ...]):
    """``(split, batch)`` with the rows at offsets ``skips`` dropped.

    A column-bundle split stays columnar: its records and sizes are
    taken by row, and its records are its staged columns.  (Its kept
    rows are renumbered from ``lo``; no batch mapper reads line numbers.)
    """
    keep = np.setdiff1d(np.arange(len(split)), skips)
    if isinstance(split, SplitEntries):
        records = split.records.take(keep)
        sizes = [split.sizes[i] for i in keep.tolist()]
        return SplitEntries(split.path, split.lo, records, sizes), records
    return (
        [split[i] for i in keep.tolist()],
        None if batch is None else batch.take(keep),
    )


# Opt in to the recovery layer's skipping mode (Hadoop's
# ``mapred.skip.mode``): retries of a failed attempt are re-dispatched
# with the located bad record quarantined.
_run_map_task.supports_record_skipping = True


def _apply_combiner(job: MapReduceJob, ctx: MapContext, counters: Counters) -> None:
    """Map-side pre-aggregation: rewrite the task's buckets in place.

    Counters are adjusted so MAP_OUTPUT_* reflect the *shuffled*
    (post-combine) volume — what the cost model charges — while the
    pre-combine volume is recorded under COMBINE_INPUT_RECORDS.  Byte
    accounting reuses the per-bucket totals tracked at emission time and
    sizes each combined key once per group, not once per record.
    """
    key_size = job.shuffle_codec.key_size
    value_size = job.shuffle_codec.value_size
    for r, bucket in enumerate(ctx.buckets):
        if not bucket:
            continue
        combined: list[tuple] = []
        new_bytes = 0
        for key, values in _grouped(_sorted_by_key(bucket, job.sort_key)):
            key_bytes = key_size(key)
            for value in job.combiner(key, values):
                combined.append((key, value))
                new_bytes += key_bytes + value_size(value)
        old_bytes = ctx.bucket_bytes[r]
        counters.add(C.GROUP_ENGINE, C.COMBINE_INPUT_RECORDS, len(bucket))
        counters.add(C.GROUP_ENGINE, C.COMBINE_OUTPUT_RECORDS, len(combined))
        counters.add(
            C.GROUP_ENGINE, C.MAP_OUTPUT_RECORDS, len(combined) - len(bucket)
        )
        counters.add(C.GROUP_ENGINE, C.MAP_OUTPUT_BYTES, new_bytes - old_bytes)
        ctx.output_records += len(combined) - len(bucket)
        ctx.output_bytes += new_bytes - old_bytes
        ctx.buckets[r] = combined
        ctx.bucket_bytes[r] = new_bytes


def _run_reduce_task(phase: _ReducePhase, tasks) -> list[_ReduceTaskResult]:
    """Run the reduce tasks ``tasks`` (one physical range), one result each."""
    return _profiled(_reduce_range_body, phase, tasks)


def _task_group_parts(phase: _ReducePhase, r: int):
    """Reduce task ``r``'s ``(key, parts)`` groups, in key order: a part
    is a :class:`BucketSegment` slice, or on the row shuffle the group's
    value list."""
    job = phase.job
    store = phase.store
    if phase.seg_buckets is not None:
        # Columnar shuffle: group contiguous key slices of the
        # concatenated segments (numpy stable argsort, or the scalar
        # sort when the job customises its ordering).
        segs = phase.seg_buckets[r]
        if store is not None:
            segs = store.read_back(segs)
        return _segment_group_parts(segs, job.sort_key)
    # Stable sort: same-key values keep map emission order.
    bucket = phase.buckets[r]
    if store is not None:
        bucket = store.read_back(bucket, rows=True)
    return ((key, [values]) for key, values in _grouped(_sorted_by_key(bucket, job.sort_key)))


def _reduce_range_body(phase: _ReducePhase, tasks) -> list[_ReduceTaskResult]:
    """Self-contained reduce tasks: merged buckets in, lines out.

    Every task of the range gets its own :class:`ReduceContext` and
    counter shard.  A ``segmented`` reducer is called once for the whole
    range, with every task's groups gathered in one piece
    (:func:`_gather_range`) and each group's task context; any other
    reducer once per group.  The range's wall time is shared out to its
    tasks in task order, in proportion to their input records.
    """
    t_start = time.perf_counter()
    job = phase.job
    reducer = job.reducer
    #: per task: its context, counter shard and number of groups
    shards: list[tuple[ReduceContext, Counters, int]] = []
    keys: list[Any] = []
    groups: list[list] = []
    group_contexts: list[ReduceContext] = []
    for r in tasks:
        counters = Counters()
        rctx = ReduceContext(counters, r)
        before = len(groups)
        for key, parts in _task_group_parts(phase, r):
            rctx.input_records += sum(len(part) for part in parts)
            keys.append(key)
            groups.append(parts)
            group_contexts.append(rctx)
        shards.append((rctx, counters, len(groups) - before))
    if job.segmented and keys:
        values, bounds = _gather_range(groups)
        try:
            reducer(keys, values, bounds, group_contexts)
        except Exception as exc:  # noqa: BLE001 - wrap task failures
            where = f"task {tasks[0]}" if len(tasks) == 1 else f"tasks {list(tasks)}"
            on = f" on key {keys[0]!r}" if len(keys) == 1 else ""
            raise JobError(
                f"reduce {where} failed in job {job.name!r}{on}: {exc}"
            ) from exc
        del values
    elif not job.segmented:
        for key, parts, rctx in zip(keys, groups, group_contexts):
            try:
                reducer(key, _gathered(parts), rctx)
            except Exception as exc:  # noqa: BLE001 - wrap task failures
                raise JobError(
                    f"reduce task {rctx.reducer_id} failed in job {job.name!r} "
                    f"on key {key!r}: {exc}"
                ) from exc
    del keys, groups, group_contexts
    results = []
    for rctx, counters, num_groups in shards:
        counters.add(C.GROUP_ENGINE, C.REDUCE_INPUT_GROUPS, num_groups)
        counters.add(C.GROUP_ENGINE, C.REDUCE_INPUT_RECORDS, rctx.input_records)
        # Encode-once: each task formats its own record objects (in
        # parallel on the parallel executors); a column bundle is left
        # to the DFS.
        records = rctx.output()
        if hasattr(records, "take"):
            lines = None
        elif job.output_codec is not None:
            lines = job.output_codec.encode_lines(records)
        else:
            lines, records = records, None
        results.append(
            _ReduceTaskResult(
                lines=lines,
                records=records,
                input_records=rctx.input_records,
                compute_ops=rctx.compute_ops,
                counters=counters,
            )
        )
    _share_wall(results, t_start, time.perf_counter())
    return results


def _share_wall(results: list, t_start: float, t_end: float) -> None:
    """Stamp each task of a range with its share of the range's wall:
    consecutive, in task order, in proportion to input records (plus
    one, so that a task that read nothing still spans a moment), ending
    exactly at ``t_end``."""
    weights = [result.input_records + 1 for result in results]
    total = sum(weights)
    span = t_end - t_start
    done = 0
    for result, weight in zip(results, weights):
        result.t_start = t_start + span * done / total
        done += weight
        result.t_end = t_start + span * done / total
    if results:
        results[-1].t_end = t_end


class _WriteRecovery:
    """Absorbs injected part-file commit failures (plan phase ``write``).

    A matching ``fail`` spec makes the commit of part ``r`` raise
    *before* any byte reaches the DFS (Hadoop's failed output commit),
    so absorbed write faults leave ``DFS_BYTES_WRITTEN`` untouched.  The
    engine calls :meth:`precommit` in front of every part write; it
    loops attempts until one is fault-free, charging simulated backoff
    per retry, and raises :class:`~repro.errors.TaskRetryExhausted` when
    the part burned ``max_attempts`` failures.
    """

    __slots__ = (
        "_job", "_plan", "_policy", "_rec", "_led", "failures", "backoff_s"
    )

    def __init__(
        self,
        job_name: str,
        plan: FaultPlan | None,
        policy: RetryPolicy,
        recorder: NullRecorder,
        ledger: NullLedger | None = None,
    ) -> None:
        self._job = job_name
        self._plan = plan
        self._policy = policy
        self._rec = recorder
        self._led = ledger if ledger is not None else NullLedger()
        self.failures = 0
        self.backoff_s = 0.0

    def precommit(self, r: int, part_path: str) -> None:
        if self._plan is None or self._plan.is_empty:
            return
        attempt = 0
        while any(
            spec.kind == "fail"
            for spec in self._plan.matching(self._job, "write", r, attempt)
        ):
            self.failures += 1
            if self._led.enabled:
                self._led.event(
                    "task_attempt",
                    phase="write",
                    task=r,
                    attempt=attempt,
                    outcome="failed",
                    charged=True,
                    error=f"injected DFS write failure: {part_path}",
                )
            attempt += 1
            if attempt >= self._policy.max_attempts:
                raise TaskRetryExhausted(
                    f"injected DFS write failure: commit of {part_path} in job "
                    f"{self._job!r} failed {attempt} attempt(s)"
                )
            backoff = self._policy.backoff_before(attempt)
            self.backoff_s += backoff
            if self._led.enabled:
                self._led.event(
                    "task_retry",
                    phase="write",
                    task=r,
                    attempt=attempt,
                    backoff_s=backoff,
                )
            if self._rec.enabled:
                self._rec.instant(
                    "retry-backoff",
                    cat="attempt",
                    track="write attempts",
                    args={
                        "part": r,
                        "attempt": attempt,
                        "backoff_simulated_s": backoff,
                    },
                )


@dataclass
class Cluster:
    """A simulated map-reduce cluster bound to one DFS instance.

    Parameters
    ----------
    dfs:
        The file system jobs read from / write to.
    cost_model:
        Rates used to convert job volumes into simulated seconds.
    split_records:
        Map-split granularity in records; the paper's 64 MB HDFS blocks
        become a record-count split since our records are tiny.
    executor:
        Task dispatch back-end: ``"serial"`` (default), ``"thread"`` or
        ``"process"``.  All three produce byte-identical output; see
        :mod:`repro.mapreduce.executor`.
    num_workers:
        Worker count for the parallel back-ends (``None`` = usable CPUs).
    recorder:
        Observability sink (:mod:`repro.obs.trace`).  The default
        :class:`~repro.obs.trace.NullRecorder` reduces every
        instrumentation point to a no-op; a
        :class:`~repro.obs.trace.TraceRecorder` collects job/phase/task
        spans for Perfetto export.  Recording never changes counters,
        part files or simulated seconds.
    ledger:
        Run-event journal (:mod:`repro.obs.ledger`).  The default
        :class:`~repro.obs.ledger.NullLedger` reduces every journal
        point to one attribute check; a
        :class:`~repro.obs.ledger.RunLedger` appends typed events —
        run manifest, job start/commit, task attempts, spills,
        speculation — to its sink.  Like the recorder, the ledger only
        observes.
    profiler:
        Optional :class:`~repro.obs.profile.TaskProfiler`.  When set,
        every map/reduce task body runs under cProfile and the stats
        ride back in the task results (picklable, so all three
        executors ship them) to be merged per phase × kernel.
    retry:
        The :class:`~repro.mapreduce.faults.RetryPolicy` governing task
        re-dispatch and speculation.  The default (``max_attempts=1``,
        no speculation) keeps the seed's fail-fast dispatch with zero
        overhead; Hadoop 0.20's own default allows 4 attempts.
    fault_plan:
        Optional :class:`~repro.mapreduce.faults.FaultPlan` injecting
        deterministic chaos into every job this cluster runs.  Any plan
        the retry policy absorbs leaves part files, pre-existing
        counters and simulated seconds byte-identical to a fault-free
        run (the determinism contract).
    checkpoint_dir:
        DFS directory where :class:`~repro.mapreduce.workflow.Workflow`
        persists its per-job completion manifest (``None`` disables
        checkpointing).
    resume:
        ``True`` makes workflows restore completed jobs from the
        checkpoint manifest instead of re-running them, and makes the
        join algorithms keep (rather than delete) existing output
        directories on startup.  Requires a DFS with durable state to
        resume *from*: constructing a resuming cluster on a fresh
        in-memory DFS raises immediately (use a ``LocalFSDFS`` root).
    memory_budget:
        Per-map-task shuffle buffer bound in bytes (``None`` =
        unbounded, the seed behaviour), measured in the job's shuffle
        bytes like ``MAP_OUTPUT_BYTES``.  A task exceeding it spills its
        buffered bucket slices, in emission order, to the DFS, and the
        reduce task reads each run back where it was emitted; output
        stays byte-identical and the canonical counters and simulated
        seconds are unchanged — the pressure shows up only in
        ``spilled_records``/``spill_files``/``spill_bytes`` (the spilled
        emissions' shuffle bytes) and the cost breakdown's non-canonical
        ``spill_overhead_s``.
    kernel:
        Compute kernel for the join algorithms and batch map paths:
        ``"numpy"`` (default) or ``"python"``, the scalar reference.
        The ``REPRO_KERNEL`` environment variable overrides the
        constructor value.  On ``"numpy"``, jobs with batch mappers move
        record *batches* end to end — split inputs arrive as cached
        columnar :class:`~repro.kernels.batch.RectBatch` slices,
        emissions are routed vectorized into per-bucket
        :class:`BucketSegment` runs, and reduce tasks group keys with a
        numpy stable argsort.  Both kernels produce byte-identical part
        files, canonical counters and simulated seconds — the kernel
        only changes wall-clock speed.
    worker_pool:
        Optional :class:`~repro.mapreduce.workers.WorkerPool` of named
        virtual workers (the cluster's failure domains).  ``None``
        (default) lazily builds a pool sized to the executor's worker
        count the first time a job *engages* it — which happens only
        under recovery dispatch when the fault plan carries
        ``fail-worker``/``join-worker`` specs, or
        ``retry.blacklist_after > 0``, or an explicit pool was passed.
        Disengaged jobs never touch the pool: zero new counters, zero
        new ledger events, behaviour bit-for-bit the pre-worker
        dispatch.  The pool persists across the jobs of a workflow, so
        deaths and blacklists carry over like real node state.
    replication:
        Block replication factor of the durable-storage plane
        (:mod:`repro.mapreduce.blocks`).  ``None`` (default) leaves the
        DFS exactly as before — no blocks, no checksums, byte-for-byte
        the unreplicated dispatch.  Setting ``N >= 1`` chunks every DFS
        file into ``split_records``-record blocks placed on ``N``
        distinct workers of the pool, verifies a CRC-32 checksum on
        every read (corrupt replicas fail over and count
        ``BLOCK_CORRUPTIONS``), re-replicates after worker deaths
        before the next job's barrier, and makes map scheduling
        locality-aware (``LOCALITY_HITS``/``LOCALITY_MISSES``), with
        remote-read and healing traffic charged to the cost
        breakdown's non-canonical ``network_overhead_s``.  Canonical
        part files, counters and simulated seconds stay byte-identical
        to the unreplicated run.
    """

    dfs: InMemoryDFS = field(default_factory=InMemoryDFS)
    cost_model: CostModel = field(default_factory=CostModel)
    split_records: int = 20_000
    executor: str = "serial"
    num_workers: int | None = None
    recorder: NullRecorder = field(default_factory=NullRecorder)
    ledger: NullLedger = field(default_factory=NullLedger)
    profiler: TaskProfiler | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: FaultPlan | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    memory_budget: int | None = None
    kernel: str = "numpy"
    worker_pool: WorkerPool | None = None
    replication: int | None = None
    #: cumulative canonical simulated seconds of every job this cluster
    #: has committed — the simulated clock ``at_s`` worker faults
    #: trigger against (never wall time, so replays are deterministic)
    simulated_elapsed_s: float = field(default=0.0, init=False, repr=False)
    #: the lazily attached durable-storage plane (``replication`` set)
    _block_plane: BlockPlane | None = field(default=None, init=False, repr=False)

    @property
    def resolved_kernel(self) -> str:
        """The concrete kernel this cluster runs: ``"numpy"`` or ``"python"``.

        Resolved per call so a ``REPRO_KERNEL`` override set after
        construction still applies.
        """
        return resolve_kernel(self.kernel)

    def __post_init__(self) -> None:
        check_kernel(self.kernel)
        if self.split_records < 1:
            raise JobError(f"split_records must be >= 1, got {self.split_records}")
        if self.num_workers is not None and self.num_workers < 1:
            raise JobError(f"num_workers must be None or >= 1, got {self.num_workers}")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise JobError(
                f"memory_budget must be positive, got {self.memory_budget}"
            )
        if self.replication is not None and self.replication < 1:
            raise JobError(
                f"replication must be >= 1, got {self.replication}"
            )
        if (
            self.resume
            and type(self.dfs) is InMemoryDFS
            and self.dfs.is_empty
        ):
            # The same mistake the CLI rejects as `--resume` without
            # `--dfs-root`: a fresh in-memory DFS starts empty, so there
            # is no checkpoint manifest or prior output to resume from.
            raise JobError(
                "resume=True needs durable DFS state (e.g. a LocalFSDFS "
                "root): a fresh in-memory DFS has nothing to resume from"
            )

    def run_job(self, job: MapReduceJob) -> JobResult:
        """Execute one job; raises :class:`JobError` on task failure.

        With a fault plan or an active retry policy, tasks run under
        recovery dispatch (:func:`repro.mapreduce.faults.run_phase_with_recovery`):
        failed attempts are retried up to ``retry.max_attempts``, part
        writes absorb injected commit failures, stragglers may race
        speculative backups — every attempt priced by the cost model,
        so those decisions are made on the simulated clock — and the
        recovery telemetry lands in the
        ``task_*``/``speculative_*`` counters plus the cost breakdown's
        fault-overhead term.  Otherwise the dispatch is byte-for-byte
        the seed fast path.
        """
        started = time.perf_counter()
        rec = self.recorder
        led = self.ledger
        if led.enabled:
            led.manifest(
                kernel=self.resolved_kernel,
                executor=self.executor,
                num_workers=self.num_workers,
                memory_budget=self.memory_budget,
                split_records=self.split_records,
            )
            led.event(
                "job_start",
                job=job.name,
                inputs=list(job.input_paths),
                output=job.output_path,
                num_reducers=job.num_reducers,
                map_only=job.reducer is None,
            )
        executor = make_executor(self.executor, self.num_workers)
        counters = Counters()
        timings = PhaseTimings()
        plane = self._ensure_block_plane()
        if (
            plane is None
            and self.fault_plan is not None
            and self.fault_plan.has_storage_faults
        ):
            raise JobError(
                "corrupt-block/lose-replica faults need the storage plane: "
                "set Cluster(replication=N)"
            )
        recovery_active = (
            (self.fault_plan is not None and not self.fault_plan.is_empty)
            or self.retry.active
            or plane is not None
        )
        wrec = (
            _WriteRecovery(job.name, self.fault_plan, self.retry, rec, led)
            if recovery_active
            else None
        )
        workers = self._worker_manager(job, rec, led) if recovery_active else None
        reduce_report: PhaseReport | None = None

        with rec.span(f"job:{job.name}", cat="job", track="engine") as job_span:
            if plane is not None:
                # The disk rots before the job reads: storage faults are
                # enacted at the job-start barrier so detection happens
                # deterministically during this job's verified reads.
                plane.enact_faults(self.fault_plan, job.name)
                plane.flush()
            read_before = self.dfs.bytes_read
            t0 = time.perf_counter()
            with rec.span("split", cat="phase", track="engine") as sp:
                splits = self._input_splits(job)
                sp.set("splits", len(splits))
                sp.set("records", sum(len(s) for s in splits))
            timings.split_s = time.perf_counter() - t0
            localities = (
                plane.split_localities(splits) if plane is not None else None
            )

            t0 = time.perf_counter()
            with rec.span("map", cat="phase", track="engine") as sp:
                map_results, map_tasks, map_report = self._run_map_phase(
                    job, splits, counters, executor, workers, localities
                )
                sp.set("tasks", len(map_tasks))
                sp.set("output_records", counters.engine(C.MAP_OUTPUT_RECORDS))
            timings.map_s = time.perf_counter() - t0
            counters.add(
                C.GROUP_ENGINE, C.DFS_BYTES_READ, self.dfs.bytes_read - read_before
            )
            map_task_wall = self._task_wall(map_results, started, rec, "map")
            self._counter_timeline(rec, "map", map_results)

            written_before = self.dfs.bytes_written
            reduce_task_wall: list[tuple[float, float]] = []
            if job.reducer is None:
                t0 = time.perf_counter()
                with rec.span("write", cat="phase", track="engine") as sp:
                    reduce_tasks, output_records = self._write_map_only_output(
                        job, map_results, counters, wrec
                    )
                    sp.set("records", output_records)
                timings.write_s = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                with rec.span("shuffle", cat="phase", track="engine") as sp:
                    store = self._stage_spills(job, map_results, rec)
                    merged, seg_buckets, input_bytes = self._shuffle_merge(
                        job, map_results
                    )
                    sp.set("records", counters.engine(C.MAP_OUTPUT_RECORDS))
                    sp.set("bytes", sum(input_bytes))
                timings.shuffle_s = time.perf_counter() - t0

                t0 = time.perf_counter()
                with rec.span("reduce", cat="phase", track="engine") as sp:
                    reduce_phase = _ReducePhase(
                        job,
                        merged,
                        seg_buckets=seg_buckets,
                        store=store,
                        profile=self.profiler is not None,
                    )
                    if workers is not None:
                        workers.begin_phase(
                            "reduce",
                            reexec=lambda tasks: self._reexecute_maps(
                                job, splits, tasks, executor
                            ),
                        )
                    task_results, reduce_report = run_phase_with_recovery(
                        executor,
                        _run_reduce_task,
                        _task_ranges(
                            input_bytes, getattr(executor, "num_workers", 1)
                        ),
                        reduce_phase,
                        job=job.name,
                        phase="reduce",
                        policy=self.retry,
                        plan=self.fault_plan,
                        recorder=rec,
                        ledger=led,
                        workers=workers,
                        price=partial(self._reduce_price, job.output_codec),
                        slots=self.cost_model.reduce_slots,
                    )
                    sp.set("tasks", job.num_reducers)
                timings.reduce_s = time.perf_counter() - t0
                if workers is not None:
                    # Upstream re-execution deferred past the rounds:
                    # map outputs invalidated *during* the reduce phase
                    # are recomputed now that the dispatch has drained.
                    workers.run_deferred_reexecution()
                reduce_task_wall = self._task_wall(task_results, started, rec, "reduce")
                self._counter_timeline(rec, "reduce", task_results)
                if self.profiler is not None:
                    kern = self.resolved_kernel
                    for tr in task_results:
                        if tr.profile is not None:
                            self.profiler.add("reduce", kern, tr.profile)

                t0 = time.perf_counter()
                with rec.span("write", cat="phase", track="engine") as sp:
                    reduce_tasks, output_records = self._write_reduce_output(
                        job, task_results, input_bytes, counters, wrec, reduce_report
                    )
                    sp.set("records", output_records)
                timings.write_s = time.perf_counter() - t0
            counters.add(
                C.GROUP_ENGINE,
                C.DFS_BYTES_WRITTEN,
                self.dfs.bytes_written - written_before,
            )

            cost = self.cost_model.job_seconds(
                map_tasks,
                reduce_tasks,
                shuffle_records=counters.engine(C.MAP_OUTPUT_RECORDS),
                shuffle_bytes=counters.engine(C.MAP_OUTPUT_BYTES),
            )
            if recovery_active:
                cost = self._merge_recovery(
                    counters, cost, (map_report, reduce_report), wrec, job_span
                )
                self._quarantine_skipped(job, map_report)
            if workers is not None:
                cost = self._merge_worker_recovery(
                    counters, cost, workers, map_tasks, job_span
                )
            if plane is not None:
                # Self-healing runs at the job barrier: dead workers'
                # replicas are swept and the target factor restored
                # before the next job can read, like HDFS's namenode
                # re-replication queue draining between jobs.
                cost = self._merge_storage(
                    counters, cost, plane, workers, job_span
                )
            spill_bytes = counters.engine(C.SPILL_BYTES)
            if spill_bytes:
                # Spill I/O is wasted work the unbounded run never does:
                # charge it outside total_s, like fault overhead, so the
                # canonical simulated seconds stay budget-independent.
                overhead = self.cost_model.spill_overhead_seconds(spill_bytes)
                cost = replace(cost, spill_overhead_s=overhead)
                job_span.set("spilled_records", counters.engine(C.SPILLED_RECORDS))
                job_span.set("spill_files", counters.engine(C.SPILL_FILES))
                job_span.set("spill_overhead_s", overhead)
                # The runs were read into committed part files above;
                # drop the scratch dir like Hadoop's task cleanup.
                self.dfs.delete(spill_dir(job.name))
            # Advance the simulated clock ``at_s`` worker faults fire
            # against — canonical seconds only, so chaos runs keep the
            # clean run's schedule.
            self.simulated_elapsed_s += cost.total_s
            job_span.set("simulated_s", cost.total_s)
            job_span.set("map_output_records", counters.engine(C.MAP_OUTPUT_RECORDS))
            job_span.set("reduce_input_records", counters.engine(C.REDUCE_INPUT_RECORDS))
            job_span.set("dfs_bytes_read", counters.engine(C.DFS_BYTES_READ))
            job_span.set("dfs_bytes_written", counters.engine(C.DFS_BYTES_WRITTEN))
            if led.enabled:
                led.event(
                    "job_commit",
                    job=job.name,
                    simulated_s=cost.total_s,
                    output_records=output_records,
                    counters=counters.as_dict(),
                )
        return JobResult(
            job_name=job.name,
            output_path=job.output_path,
            counters=counters,
            map_tasks=map_tasks,
            reduce_tasks=reduce_tasks,
            cost=cost,
            output_records=output_records,
            wall_clock_seconds=time.perf_counter() - started,
            phases=timings,
            map_task_wall=map_task_wall,
            reduce_task_wall=reduce_task_wall,
        )

    def _worker_manager(self, job: MapReduceJob, rec, led) -> WorkerManager | None:
        """Build the job's worker-domain coordinator when the pool engages.

        Engagement needs recovery dispatch (the caller's check) *and* a
        reason to name workers: ``fail-worker``/``join-worker`` specs in
        the plan, ``retry.blacklist_after > 0``, or an explicitly
        supplied pool.  Everything else returns ``None`` and the
        dispatch stays bit-for-bit the pre-worker behaviour — no new
        counters, no new ledger events.  The pool itself is cluster-scoped (lazily built
        at the executor's worker count) so node state persists across a
        workflow's jobs.
        """
        engaged = (
            self.worker_pool is not None
            or self.replication is not None
            or self.retry.blacklist_after > 0
            or (self.fault_plan is not None and self.fault_plan.has_worker_faults)
        )
        if not engaged:
            return None
        if self.worker_pool is None:
            self.worker_pool = WorkerPool(self.num_workers or default_workers())
        return WorkerManager(
            self.worker_pool,
            self.fault_plan,
            job.name,
            self.retry,
            rec,
            led,
            elapsed_s=self.simulated_elapsed_s,
        )

    def _ensure_block_plane(self) -> BlockPlane | None:
        """Attach the durable-storage plane once ``replication`` is set.

        Built lazily on the first job (like the worker pool, which it
        forces into existence — blocks need named workers to live on)
        and hooked onto the DFS so every write/read/delete from then on
        flows through chunking, checksums and failover.  The lazy pool
        is sized at least ``replication`` wide, so a clean run can meet
        its factor even on a one-CPU host; an explicitly supplied pool
        smaller than that stays under-replicated, loudly.  ``None``
        when ``replication`` is unset: the DFS never sees a hook and
        behaviour stays byte-for-byte the unreplicated dispatch.
        """
        if self.replication is None:
            return None
        if self._block_plane is None:
            if self.worker_pool is None:
                self.worker_pool = WorkerPool(
                    max(
                        self.replication,
                        self.num_workers or default_workers(),
                    )
                )
            self._block_plane = BlockPlane(
                self.dfs,
                self.worker_pool,
                self.replication,
                self.split_records,
                self.ledger,
            )
            self.dfs.block_plane = self._block_plane
        return self._block_plane

    def _merge_storage(
        self,
        counters: Counters,
        cost: JobCostBreakdown,
        plane: BlockPlane,
        workers: WorkerManager | None,
        job_span,
    ) -> JobCostBreakdown:
        """Heal the store, then fold its telemetry into counters/cost.

        Runs re-replication first (so the restored copies are counted
        in this job's report), then merges the storage and locality
        counters — each appearing only when its event actually happened
        — and charges the wire traffic (remote map reads plus healing
        copies) to the non-canonical ``network_overhead_s`` bucket.
        """
        plane.rereplicate()
        plane.flush()
        rep = plane.drain_report()
        wrep = workers.report if workers is not None else None
        pairs = [
            (C.BLOCK_CORRUPTIONS, rep.block_corruptions),
            (C.REPLICAS_LOST, rep.replicas_lost),
            (C.BLOCKS_REREPLICATED, rep.blocks_rereplicated),
            (C.BLOCKS_UNDER_REPLICATED, rep.under_replicated),
        ]
        if wrep is not None:
            pairs.append((C.LOCALITY_HITS, wrep.locality_hits))
            pairs.append((C.LOCALITY_MISSES, wrep.locality_misses))
        for name, value in pairs:
            if value:
                counters.add(C.GROUP_ENGINE, name, value)
                job_span.set(name, value)
        net_bytes = rep.rereplicated_bytes + (
            wrep.remote_read_bytes if wrep is not None else 0
        )
        if net_bytes:
            overhead = self.cost_model.network_transfer_seconds(net_bytes)
            cost = replace(cost, network_overhead_s=overhead)
            job_span.set("network_overhead_s", overhead)
        return cost

    def _reexecute_maps(
        self,
        job: MapReduceJob,
        splits: list[list[tuple[str, int, Any, int]]],
        tasks: list[int],
        executor,
    ) -> None:
        """Recompute map tasks whose committed output died with a worker.

        The recomputed results are *discarded*: map tasks are pure
        functions of ``(payload, index)``, so they are byte-identical
        to the lost originals the surviving reduce attempts already
        consumed.  Only the non-canonical recovery-overhead charge and
        the worker telemetry observe that the work happened — exactly
        Hadoop re-running maps of a lost TaskTracker while the job's
        output stays the same.  They run the job's one map body, on the
        same staged columns (cached per file version).
        """
        sub = self._map_phase(job, [splits[t] for t in tasks])
        executor.run_phase(_run_map_task, _singletons(len(tasks)), sub)
        if self.recorder.enabled:
            self.recorder.instant(
                "maps-reexecuted",
                cat="worker",
                track="workers",
                args={"tasks": list(tasks)},
            )

    def _merge_worker_recovery(
        self,
        counters: Counters,
        cost: JobCostBreakdown,
        workers: WorkerManager,
        map_tasks: list[TaskStats],
        job_span,
    ) -> JobCostBreakdown:
        """Fold the worker-domain report into counters and the cost term.

        Each counter appears only when its event actually happened, so
        an engaged-but-quiet job stays counter-identical to a pool-less
        run.  The wasted work — recomputed map tasks, heartbeat
        detection latency, attempts that died in flight — lands in the
        non-canonical ``recovery_overhead_s`` bucket, outside
        ``total_s`` per the determinism contract.
        """
        rep = workers.report
        for name, value in (
            (C.WORKER_FAILURES, rep.worker_failures),
            (C.WORKERS_BLACKLISTED, rep.workers_blacklisted),
            (C.WORKERS_JOINED, rep.workers_joined),
            (C.MAP_OUTPUT_LOST, rep.map_output_lost),
            (C.TASKS_REEXECUTED, rep.tasks_reexecuted),
        ):
            if value:
                counters.add(C.GROUP_ENGINE, name, value)
                job_span.set(name, value)
        reexec_s = sum(
            self.cost_model.map_task_seconds(map_tasks[t])
            for t in rep.reexec_map_tasks
        )
        overhead = self.cost_model.recovery_overhead_seconds(
            reexec_s, rep.detection_s, rep.lost_attempts
        )
        if overhead:
            job_span.set("recovery_overhead_s", overhead)
            cost = replace(cost, recovery_overhead_s=overhead)
        if rep.engaged:
            job_span.set("workers_active", len(workers.pool.active()))
        return cost

    def _merge_recovery(
        self,
        counters: Counters,
        cost: JobCostBreakdown,
        reports: tuple[PhaseReport | None, ...],
        wrec: _WriteRecovery,
        job_span,
    ) -> JobCostBreakdown:
        """Fold phase recovery telemetry into counters and the cost term.

        The new counters live alongside the seed set but never appear on
        the fast path; the wasted work (extra attempts, failed commits,
        simulated backoff) is charged to the breakdown's
        ``fault_overhead_s`` — outside ``total_s``, per the determinism
        contract.
        """
        launched = failures = wasted = 0
        spec_launched = spec_wins = 0
        timeouts = skipped = 0
        backoff_s = 0.0
        for report in reports:
            if report is None:
                continue
            launched += report.launched
            failures += report.failures
            wasted += report.extra_attempts
            spec_launched += report.speculative_launched
            spec_wins += report.speculative_wins
            timeouts += report.timeouts
            skipped += report.skipped_records
            backoff_s += report.backoff_s
        failures += wrec.failures
        wasted += wrec.failures
        backoff_s += wrec.backoff_s
        counters.add(C.GROUP_ENGINE, C.TASK_ATTEMPTS, launched)
        counters.add(C.GROUP_ENGINE, C.TASK_FAILURES, failures)
        counters.add(C.GROUP_ENGINE, C.SPECULATIVE_LAUNCHES, spec_launched)
        counters.add(C.GROUP_ENGINE, C.SPECULATIVE_WINS, spec_wins)
        job_span.set("task_attempts", launched)
        job_span.set("task_failures", failures)
        if timeouts:
            counters.add(C.GROUP_ENGINE, C.TASK_TIMEOUTS, timeouts)
            job_span.set("task_timeouts", timeouts)
        if skipped:
            counters.add(C.GROUP_ENGINE, C.SKIPPED_RECORDS, skipped)
            job_span.set("skipped_records", skipped)
        overhead = self.cost_model.fault_overhead_seconds(wasted, backoff_s)
        if overhead:
            job_span.set("fault_overhead_s", overhead)
            cost = replace(cost, fault_overhead_s=overhead)
        return cost

    def _quarantine_skipped(
        self, job: MapReduceJob, report: PhaseReport | None
    ) -> None:
        """Persist skipped bad records as DFS side files (the post-mortem).

        One quarantine file per map task that skipped anything, holding
        ``path:lineno<TAB>record`` lines — Hadoop's skip "side file" in
        ``_logs/skip``.  Quarantines survive the job (unlike spill runs)
        so a data engineer can repair and re-ingest the records.
        """
        if report is None or not report.skipped_records:
            return
        for task, bad in enumerate(report.skipped):
            if not bad:
                continue
            self.dfs.write_side_file(
                f"_quarantine/{job.name}/map-{task:05d}",
                [
                    f"{path}:{lineno}\t{record}"
                    for __, path, lineno, record in bad
                ],
            )
            if self.recorder.enabled:
                self.recorder.instant(
                    "bad-records-quarantined",
                    cat="attempt",
                    track="map attempts",
                    args={"task": task, "records": len(bad)},
                )

    def _stage_spills(
        self, job: MapReduceJob, map_results: list[_MapTaskResult], rec: NullRecorder
    ) -> SpillStore | None:
        """Persist map-side spill runs for the reduce phase to read back.

        Spilled lines travel in the task results (process-pool children
        write to a DFS *copy*), so the engine commits them to the real
        DFS here, parent-side, before the reduce phase forks, replacing
        each line in its result by the :class:`SpillRun` naming its
        file.  Returns the snapshot of the files, ``None`` when no task
        spilled.
        """
        store = SpillStore()
        for t, result in enumerate(map_results):
            for r, runs in enumerate(result.spill_runs or ()):
                for j, line in enumerate(runs):
                    path = f"{spill_dir(job.name)}/map-{t:05d}/r-{r:05d}-run-{j:03d}"
                    self.dfs.write_side_file(path, [line])
                    store.files[path] = [line]
                    runs[j] = SpillRun(path)
        if not store.files:
            return None
        if rec.enabled:
            rec.instant(
                "spill-runs-staged",
                cat="phase",
                track="engine",
                args={"files": len(store.files)},
            )
        return store

    def _counter_timeline(
        self, rec: NullRecorder, phase: str, results: list
    ) -> None:
        """Emit the phase's counter timelines from worker task stamps.

        Deterministic given the stamps: in-flight/occupancy gauges come
        from the sorted ``(t, ±1)`` task-boundary sweep, and the map
        side adds cumulative shuffle-byte (plus spill/buffer, under a
        memory budget) totals in task-end order.  Pure observation —
        nothing here feeds back into the computation.
        """
        if not rec.enabled or not results:
            return
        bounds: list[tuple[float, int]] = []
        for r in results:
            bounds.append((r.t_start, 1))
            bounds.append((r.t_end, -1))
        bounds.sort()
        in_flight = 0
        for t, delta in bounds:
            in_flight += delta
            rec.counter_sample(f"in-flight {phase} tasks", t, in_flight)
            rec.counter_sample("worker occupancy", t, in_flight)
        if phase != "map":
            return
        budgeted = self.memory_budget is not None
        for r in sorted(results, key=lambda res: res.t_end):
            out_bytes = r.stats.output_bytes
            rec.counter_add("shuffle bytes (cumulative)", r.t_end, out_bytes)
            if budgeted:
                spilled = r.counters.engine(C.SPILL_BYTES)
                rec.counter_add("spill bytes (cumulative)", r.t_end, spilled)
                # A combiner task un-spilled before combining: all resident.
                resident = out_bytes if r.spill_runs is None else out_bytes - spilled
                rec.counter_add("shuffle buffer bytes", r.t_end, resident)

    @staticmethod
    def _task_wall(
        results: list, job_started: float, rec: NullRecorder, phase: str
    ) -> list[tuple[float, float]]:
        """Collect worker-measured task intervals; trace them if recording.

        Intervals are offsets from job start; the trace gets the raw
        stamps so task spans line up with the engine's phase spans.
        """
        if rec.enabled:
            for i, r in enumerate(results):
                rec.add_span(
                    f"{phase}-{i}",
                    cat="task",
                    track=f"{phase} tasks",
                    start=r.t_start,
                    end=r.t_end,
                    args={"task": i},
                )
        return [(r.t_start - job_started, r.t_end - job_started) for r in results]

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def _input_splits(self, job: MapReduceJob) -> list[list[tuple[str, int, Any, int]]]:
        """Split input files into map tasks of ``split_records`` records.

        Entries are ``(path, lineno, record, nbytes)``.  Reads are always
        charged at the encoded line size — via :meth:`InMemoryDFS.read_file`,
        or via :meth:`InMemoryDFS.charge_read` when the file's entry rows
        are already cached as a derived artifact (repeated inputs, e.g.
        the Cascade's base relations, then skip line materialisation and
        tuple rebuilding entirely) or when the file's typed records are
        a bundle that sizes its own lines (``line_sizes``: its text is
        never formatted).  With an input codec the record is the decoded
        object — taken from the DFS typed store when the upstream job
        wrote through a codec, decoded once and cached otherwise.  Typed
        records held as a column bundle stay one: the file's entries are
        the lazy :class:`SplitEntries` over it, and its splits slices of
        that.
        """
        splits: list[list[tuple[str, int, Any, int]] | SplitEntries] = []
        chunk = self.split_records
        for path in job.input_paths:
            codec = job.input_codec_for(path)
            tag = f"entries:{codec_name(codec)}"
            for f in self.dfs.resolve(path):
                entries = self.dfs.derived_get(f, tag)
                if entries is None:
                    entries = self._file_entries(job, f, codec)
                    self.dfs.derived_put(f, tag, entries)
                else:
                    self.dfs.charge_read(f)
                # A split never spans files, like HDFS blocks.
                n = len(entries)
                if not n:
                    continue
                if n <= chunk:
                    splits.append(entries)
                else:
                    splits.extend(
                        entries[lo : lo + chunk] for lo in range(0, n, chunk)
                    )
        return splits

    def _file_entries(
        self, job: MapReduceJob, f: str, codec
    ) -> list[tuple[str, int, Any, int]] | SplitEntries:
        """The split entries of one whole file, its read charged."""
        bundle = None if codec is None else self.dfs.typed_records(f, codec)
        sizes = bundle.line_sizes() if hasattr(bundle, "line_sizes") else None
        if sizes is not None:
            self.dfs.charge_read(f)
            return SplitEntries(f, 0, bundle, sizes.tolist())
        lines = self.dfs.read_file(f)
        records = self._file_records(job, f, lines, codec)
        sizes = [text_bytes(line) + 1 for line in lines]
        if hasattr(records, "take"):
            return SplitEntries(f, 0, records, sizes)
        return list(zip(repeat(f), range(len(lines)), records, sizes))

    def _file_records(
        self, job: MapReduceJob, f: str, lines: list[str], codec
    ) -> list[Any]:
        """The map-input records of one file (lines, or decoded objects)."""
        if codec is None:
            return lines
        records = self.dfs.typed_records(f, codec)
        if records is None:
            records = self._decode_lines(job, f, lines, codec)
            self.dfs.cache_records(f, records, codec)
        return records

    @staticmethod
    def _decode_lines(job: MapReduceJob, f: str, lines: list[str], codec) -> list[Any]:
        """Decode a file's lines, wrapping failures as map-task errors.

        Record decoding belongs to the map task (Hadoop's RecordReader
        runs inside it), so a malformed record fails with the same
        located error a mapper-side parse failure used to raise.  The
        happy path is one bulk ``decode_lines`` call; only when it
        raises does the scalar loop re-run to locate the first bad line
        (decoding is deterministic, so it fails on the same record).
        """
        try:
            return codec.decode_lines(lines)
        except Exception:  # noqa: BLE001 - re-run scalar to locate the line
            pass
        records = []
        for lineno, line in enumerate(lines):
            try:
                records.append(codec.decode(line))
            except Exception as exc:  # noqa: BLE001 - wrap task failures
                raise JobError(
                    f"map task failed in job {job.name!r} on "
                    f"{f}:{lineno}: {exc}"
                ) from exc
        return records

    def _run_map_phase(
        self,
        job: MapReduceJob,
        splits: list[list[tuple[str, int, Any, int]]],
        counters: Counters,
        executor,
        workers: WorkerManager | None = None,
        localities: dict[int, tuple[tuple[str, ...], int]] | None = None,
    ) -> tuple[list[_MapTaskResult], list[TaskStats], PhaseReport | None]:
        if workers is not None:
            workers.begin_phase("map", localities=localities)
        results, report = run_phase_with_recovery(
            executor,
            _run_map_task,
            _singletons(len(splits)),
            self._map_phase(job, splits, profile=self.profiler is not None),
            job=job.name,
            phase="map",
            policy=self.retry,
            plan=self.fault_plan,
            recorder=self.recorder,
            ledger=self.ledger,
            workers=workers,
            price=self._map_price,
            slots=self.cost_model.map_slots,
        )
        led = self.ledger
        kern = self.resolved_kernel if self.profiler is not None else ""
        for t, result in enumerate(results):  # merge shards in task-id order
            counters.merge(result.counters)
            if led.enabled:
                # Spill telemetry lives in the task's counter shard (a
                # combiner job un-spills its buckets but keeps the
                # counters — the spills did happen).
                spilled = result.counters.engine(C.SPILLED_RECORDS)
                if spilled:
                    led.event(
                        "spill",
                        task=t,
                        records=spilled,
                        files=result.counters.engine(C.SPILL_FILES),
                        bytes=result.counters.engine(C.SPILL_BYTES),
                    )
            if self.profiler is not None and result.profile is not None:
                self.profiler.add("map", kern, result.profile)
        stats = [result.stats for result in results]
        if report is not None:  # attach per-task attempt histories
            stats = [
                replace(s, attempts=tuple(report.attempts[i]))
                for i, s in enumerate(stats)
            ]
        return results, stats, report

    def _map_price(self, result: _MapTaskResult | None) -> float:
        """Simulated seconds of one map attempt (``None``: it failed)."""
        if result is None:
            return self.cost_model.task_startup_s
        return self.cost_model.map_task_seconds(result.stats)

    def _reduce_price(self, codec, result: _ReduceTaskResult | None) -> float:
        """Simulated seconds of one reduce attempt (``None``: it failed),
        its DFS write sized as the write stage will size it."""
        if result is None:
            return self.cost_model.task_startup_s
        lines, sizes = result.lines, None
        if lines is None:  # a column bundle: sized like write_records
            sizes = getattr(result.records, "line_sizes", lambda: None)()
            if sizes is None:
                lines = typed_form(result.records, codec, None)[2]
        nbytes = (
            int(sizes.sum())
            if sizes is not None
            else sum(map(text_bytes, lines)) + len(lines)
        )
        return self.cost_model.reduce_task_seconds(
            TaskStats(
                input_records=result.input_records,
                output_bytes=nbytes,
                compute_ops=result.compute_ops,
            )
        )

    def _map_phase(self, job: MapReduceJob, splits, profile: bool = False) -> _MapPhase:
        """The payload of ``job``'s map tasks over ``splits``: with their
        staged columns when the job declares a batch mapper."""
        batches = None if job.batch_mapper is None else self._stage_split_batches(job, splits)
        return _MapPhase(job, splits, self.memory_budget, batches, profile)

    def _stage_split_batches(
        self,
        job: MapReduceJob,
        splits: list[list[tuple[str, int, Any, int]] | SplitEntries],
    ) -> list[Any] | None:
        """Each split's columns, for the batch mappers.

        A split of a file an upstream reducer wrote as a column bundle
        already is a slice of it (:class:`SplitEntries`) and hands that
        slice over.  For every split whose file reads through the
        rectangle codec, build (or fetch) the whole file's
        :class:`RectBatch` — cached as a derived artifact, so each file
        version is columnarised exactly once — and hand the split its
        zero-copy row slice.  Other splits get ``None`` and their batch
        mappers fall back to building columns from the entry records.
        Purely an execution cache: byte accounting happened at split
        time and the columns hold the same values the records do.
        """
        rect_files: set[str] = set()
        for path in job.input_paths:
            codec = job.input_codec_for(path)
            if codec is not None and codec.name == "rect":
                rect_files.update(self.dfs.resolve(path))
        batches: list[Any] = []
        staged = False
        for split in splits:
            if isinstance(split, SplitEntries):
                batches.append(split.records)
                staged = True
                continue
            f = split[0][0] if split else None
            if f is None or f not in rect_files:
                batches.append(None)
                continue
            whole = self.dfs.derived_get(f, "rect-batch")
            if whole is None:
                records = self.dfs.typed_records(f, RECT_CODEC)
                if records is None:
                    batches.append(None)
                    continue
                whole = RectBatch.from_records(np, records)
                self.dfs.derived_put(f, "rect-batch", whole)
            lo = split[0][1]  # linenos are file row indices
            batches.append(whole.slice(lo, lo + len(split)))
            staged = True
        return batches if staged else None

    # ------------------------------------------------------------------
    # Shuffle, reduce and write stages
    # ------------------------------------------------------------------
    @staticmethod
    def _shuffle_merge(
        job: MapReduceJob, map_results: list[_MapTaskResult]
    ) -> tuple[list[list[tuple]], list[list[BucketSegment]] | None, list[int]]:
        """Merge each reducer's buckets from every map task.

        Merged in task-id order; the reduce task sorts its own bucket.
        Returns ``(merged, seg_buckets, input_bytes)``: when every
        emitting task produced columnar segments, ``seg_buckets[r]``
        carries reducer ``r``'s :class:`BucketSegment` runs (task-major,
        emission order inside a task — the same total order the row
        concatenation would have) and ``merged`` stays empty; any task
        on the row path degrades the whole merge to row form, converting
        segments back to pairs so order is preserved regardless.  A
        task's staged spill runs go in front of its resident slice,
        where they were emitted.
        """
        num_reducers = job.num_reducers
        input_bytes = [0] * num_reducers
        for result in map_results:
            for r, nbytes in enumerate(result.bucket_bytes):
                input_bytes[r] += nbytes
        merged: list[list[tuple]] = [[] for __ in range(num_reducers)]
        if any(result.segments is not None for result in map_results) and not any(
            result.segments is None
            and (result.spill_runs is not None or any(result.buckets))
            for result in map_results
        ):
            seg_buckets: list[list[BucketSegment]] = [
                [] for __ in range(num_reducers)
            ]
            for result in map_results:
                for r, runs in enumerate(result.spill_runs or ()):
                    seg_buckets[r].extend(runs)
                if result.segments is None:
                    continue
                for r, segs in enumerate(result.segments):
                    if segs:
                        seg_buckets[r].extend(segs)
            return merged, seg_buckets, input_bytes
        for result in map_results:
            for r, runs in enumerate(result.spill_runs or ()):
                merged[r].extend(runs)
            if result.segments is not None:
                for r, segs in enumerate(result.segments):
                    for seg in segs:
                        merged[r].extend(seg.pairs())
            else:
                for r, bucket in enumerate(result.buckets):
                    if bucket:
                        merged[r].extend(bucket)
        return merged, None, input_bytes

    def _write_reduce_output(
        self,
        job: MapReduceJob,
        task_results: list[_ReduceTaskResult],
        input_bytes: list[int],
        counters: Counters,
        wrec: _WriteRecovery | None = None,
        report: PhaseReport | None = None,
    ) -> tuple[list[TaskStats], int]:
        """Merge reduce-task shards and write part files in reducer order."""
        stats: list[TaskStats] = []
        total_output = 0
        for r, result in enumerate(task_results):
            counters.merge(result.counters)
            part_path = f"{job.output_path}/part-{r:05d}"
            if wrec is not None:
                wrec.precommit(r, part_path)
            if result.records is not None:
                # The lines are the durable, accounted form; the records
                # stay resident for the next job's map.
                nbytes = self.dfs.write_records(
                    part_path, result.records, job.output_codec, lines=result.lines
                )
                written = len(result.records)
            else:
                nbytes = self.dfs.write_file(part_path, result.lines)
                written = len(result.lines)
            total_output += written
            stats.append(
                TaskStats(
                    input_records=result.input_records,
                    input_bytes=input_bytes[r],
                    output_records=written,
                    output_bytes=nbytes,
                    compute_ops=result.compute_ops,
                    attempts=tuple(report.attempts[r]) if report is not None else (),
                )
            )
        return stats, total_output

    def _write_map_only_output(
        self,
        job: MapReduceJob,
        map_results: list[_MapTaskResult],
        counters: Counters,
        wrec: _WriteRecovery | None = None,
    ) -> tuple[list[TaskStats], int]:
        """Map-only jobs write partitioned but unsorted/unreduced output.

        Without an ``output_codec`` map emissions must already be text
        lines (``value`` is written verbatim, the key only drives
        partitioning); with one, emissions are typed records encoded
        once at write time.
        """
        stats: list[TaskStats] = []
        total_output = 0
        for r in range(job.num_reducers):
            lines: list[Any] = []
            input_bytes = 0
            for result in map_results:
                input_bytes += result.bucket_bytes[r]
                if result.segments is not None:
                    values = [v for seg in result.segments[r] for v in seg.values]
                else:
                    values = [v for __, v in result.buckets[r]]
                for value in values:
                    if job.output_codec is None and not isinstance(value, str):
                        raise JobError(
                            f"map-only job {job.name!r} emitted a non-string "
                            f"value: {value!r}"
                        )
                    lines.append(value)
            part_path = f"{job.output_path}/part-{r:05d}"
            if wrec is not None:
                wrec.precommit(r, part_path)
            if job.output_codec is not None:
                nbytes = self.dfs.write_records(part_path, lines, job.output_codec)
            else:
                nbytes = self.dfs.write_file(part_path, lines)
            counters.add(C.GROUP_ENGINE, C.REDUCE_OUTPUT_RECORDS, len(lines))
            total_output += len(lines)
            stats.append(
                TaskStats(
                    input_records=len(lines),
                    input_bytes=input_bytes,
                    output_records=len(lines),
                    output_bytes=nbytes,
                )
            )
        return stats, total_output
