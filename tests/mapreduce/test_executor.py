"""Unit tests for the pluggable task executors."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import JobError
from repro.mapreduce.executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    TaskExecutor,
    ThreadExecutor,
    default_workers,
    make_executor,
)

ALL_EXECUTORS = sorted(EXECUTORS)


def square_worker(payload, index):
    return payload["base"] + index * index


def pid_worker(payload, index):
    return os.getpid()


def failing_worker(payload, index):
    if index == payload:
        raise JobError(f"task {index} failed")
    return index


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", 2), ThreadExecutor)
        assert isinstance(make_executor("process", 2), ProcessExecutor)

    def test_unknown_name_raises(self):
        with pytest.raises(JobError, match="unknown executor"):
            make_executor("gpu")

    def test_registry_covers_all_backends(self):
        assert set(EXECUTORS) == {"serial", "thread", "process"}
        for cls in EXECUTORS.values():
            assert issubclass(cls, TaskExecutor)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_none_workers_defaults_to_cpus(self):
        assert make_executor("thread", None).num_workers == default_workers()
        assert make_executor("process", 0).num_workers == default_workers()


class TestRunPhase:
    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_ordered_by_task_id(self, name, workers):
        ex = make_executor(name, workers)
        results = ex.run_phase(square_worker, range(7), {"base": 100})
        assert results == [100 + i * i for i in range(7)]

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    def test_zero_tasks(self, name):
        assert make_executor(name, 2).run_phase(square_worker, range(0), {"base": 0}) == []

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    def test_single_task(self, name):
        assert make_executor(name, 4).run_phase(square_worker, range(1), {"base": 5}) == [5]

    @pytest.mark.parametrize("name", ALL_EXECUTORS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_error_propagates(self, name, workers):
        ex = make_executor(name, workers)
        with pytest.raises(JobError, match="task 2 failed"):
            ex.run_phase(failing_worker, range(5), 2)

    def test_more_workers_than_tasks(self):
        ex = make_executor("process", 64)
        assert ex.run_phase(square_worker, range(3), {"base": 0}) == [0, 1, 4]

    def test_process_executor_parent_is_a_worker(self):
        """``num_workers`` counts the parent: 3 workers are the parent
        plus up to two forked children, and all of them run tasks."""

        def slow_pid_worker(payload, index):
            time.sleep(0.02)
            return os.getpid()

        pids = set(make_executor("process", 3).run_phase(slow_pid_worker, range(8), None))
        assert os.getpid() in pids
        assert 2 <= len(pids) <= 3

    def test_thread_executor_shares_process(self):
        pids = set(make_executor("thread", 2).run_phase(pid_worker, range(4), None))
        assert pids == {os.getpid()}

    def test_process_single_worker_stays_inline(self):
        pids = set(make_executor("process", 1).run_phase(pid_worker, range(4), None))
        assert pids == {os.getpid()}

    def test_payload_shared_not_copied_in_threads(self):
        payload = {"base": 1}
        results = make_executor("thread", 4).run_phase(
            lambda p, i: p is payload, range(4), payload
        )
        assert all(results)

    def test_closure_worker_survives_fork(self):
        """Fork inherits closures: no pickling of the worker or payload."""
        grid = {"cells": [1, 2, 3]}

        def worker(payload, index):
            return payload["cells"][index] * 10

        assert make_executor("process", 2).run_phase(worker, range(3), grid) == [10, 20, 30]


class TestThreadCancelOnFailure:
    def test_failure_cancels_queued_tail(self):
        """A failing task must stop the phase without first running every
        still-queued task to completion (regression: the seed executor
        awaited ALL_COMPLETED, so a long tail ran pointlessly after an
        early failure)."""
        started: list[int] = []
        gate = threading.Event()

        def worker(payload, index):
            started.append(index)
            if index == 0:
                gate.wait(5.0)  # hold a worker slot until task 1 fails
                raise JobError("task 0 failed")
            if index == 1:
                time.sleep(0.05)
                gate.set()
                raise JobError("task 1 failed")
            time.sleep(0.01)
            return index

        with pytest.raises(JobError, match="task 0 failed"):
            # 2 workers, 24 tasks: 0 and 1 occupy the pool; once they
            # fail, the remaining 22 must be cancelled, not drained.
            ThreadExecutor(num_workers=2).run_phase(worker, range(24), None)
        assert len(started) < 24

    def test_lowest_failing_task_still_raises(self):
        """Cancellation must not change *which* error surfaces."""
        with pytest.raises(JobError, match="task 2 failed"):
            ThreadExecutor(num_workers=4).run_phase(failing_worker, range(16), 2)


class _Unpicklable(Exception):
    def __init__(self, index):
        super().__init__(f"task {index} cannot travel")
        self.callback = lambda: None  # a lambda does not pickle


class TestForkedDispatch:
    """``ProcessExecutor.run_phase``: the parent and its forked children
    claim task ids from one counter; errors follow the serial contract
    and no child outlives the phase."""

    def test_lowest_failing_id_raises_after_a_higher_child_failure(self, tmp_path):
        parent = os.getpid()
        marker = tmp_path / "child-failed"

        def worker(payload, index):
            if index == 1:
                # still running when a higher id has already failed
                deadline = time.monotonic() + 5.0
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.005)
                raise JobError("task 1 failed")
            if os.getpid() == parent:
                time.sleep(0.05)  # leave the higher ids to the children
            elif index > 1:
                marker.touch()
                raise JobError(f"task {index} failed")
            return index

        with pytest.raises(JobError, match="task 1 failed"):
            ProcessExecutor(num_workers=3).run_phase(worker, range(8), None)
        assert marker.exists()

    def test_unpicklable_child_exception_names_the_task(self):
        parent = os.getpid()

        def worker(payload, index):
            if os.getpid() != parent:
                raise _Unpicklable(index)
            time.sleep(0.05)
            return index

        with pytest.raises(JobError, match=r"task \d+ raised _Unpicklable"):
            ProcessExecutor(num_workers=2).run_phase(worker, range(4), None)

    def test_parent_task_failure_leaves_no_child(self):
        parent = os.getpid()

        def worker(payload, index):
            if os.getpid() == parent:
                raise JobError(f"task {index} failed in the parent")
            time.sleep(0.02)
            return index

        with pytest.raises(JobError, match="failed in the parent"):
            ProcessExecutor(num_workers=3).run_phase(worker, range(8), None)
        time.sleep(0.1)  # an unreaped child would be a zombie by now
        try:
            leftover = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            leftover = (0, 0)
        assert leftover == (0, 0)

    def test_every_task_claimed_exactly_once_under_contention(self, tmp_path):
        """More workers than cores racing for 200 ids: a lost update on
        the shared counter would run some id twice (the exclusive create
        fails) or skip it (its slot would not hold its own id)."""

        def worker(payload, index):
            os.close(os.open(tmp_path / str(index), os.O_CREAT | os.O_EXCL))
            return index

        previous = signal.signal(signal.SIGALRM, signal.default_int_handler)
        signal.alarm(60)
        try:
            results = ProcessExecutor(num_workers=8).run_phase(worker, range(200), None)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert results == list(range(200))
        assert len(list(tmp_path.iterdir())) == 200

    def test_dead_child_raises_instead_of_hanging(self):
        """Regression: the Pool dispatcher waited forever for a task whose
        worker process died."""
        parent = os.getpid()

        def worker(payload, index):
            if os.getpid() == parent:
                time.sleep(0.3)
            elif index >= 2:
                os._exit(3)
            return index

        def hung(signum, frame):
            raise TimeoutError("run_phase hung on a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(
                JobError,
                match=r"forked worker pid \d+ exited with status 3, "
                r"losing task\(s\) \[\d\]",
            ):
                ProcessExecutor(num_workers=2).run_phase(worker, range(5), None)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_nested_run_phase_keeps_outer_payload(self):
        """Process phases forked from inside an outer thread phase's
        workers (two forks racing in one process) must each see their
        own payload: the children inherit it as a local of the call."""

        def inner(payload, index):
            return payload + index

        def outer(payload, index):
            base = ProcessExecutor(num_workers=2).run_phase(inner, range(2), index * 100)
            return sum(base)

        results = ThreadExecutor(num_workers=3).run_phase(outer, range(3), None)
        assert results == [1, 201, 401]

    def test_concurrent_clusters_do_not_cross_payloads(self):
        """Two threads forking process phases at once: each phase must
        see its own payload."""
        errors: list[str] = []
        barrier = threading.Barrier(2, timeout=10.0)

        def drive(tag: int) -> None:
            def worker(payload, index):
                return (payload, index)

            for round_no in range(4):
                barrier.wait()
                got = ProcessExecutor(num_workers=2).run_phase(worker, range(3), tag)
                want = [(tag, i) for i in range(3)]
                if got != want:
                    errors.append(f"thread {tag} round {round_no}: {got}")

        threads = [threading.Thread(target=drive, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert errors == []


# Module-level twins of Rect/TaggedRect *without* the compact
# ``__getstate__`` forms: the baseline the packing regression test
# compares against (module level so worker pickling can import them).
import dataclasses as _dataclasses


@_dataclasses.dataclass(frozen=True, slots=True)
class _PlainRect:
    x: float
    y: float
    l: float
    b: float


@_dataclasses.dataclass(frozen=True, slots=True)
class _PlainTagged:
    dataset: str
    rid: int
    rect: _PlainRect
    marked: bool


class TestTaskResultPacking:
    """Protocol-5 IPC packing: smaller payloads, identical results."""

    @staticmethod
    def _segments(rect_cls, tagged_cls):
        """A result shaped like a real map task's: segments of tagged rects."""
        from repro.mapreduce.job import BucketSegment

        segments = []
        for seg in range(4):
            keys = np.arange(seg * 100, seg * 100 + 100, dtype=np.int64)
            values = [
                tagged_cls(
                    dataset=f"R{seg % 3 + 1}",
                    rid=seg * 100 + i,
                    rect=rect_cls(float(i), float(i + 1), 0.5, 0.25),
                    marked=bool(i % 2),
                )
                for i in range(100)
            ]
            segments.append(BucketSegment(keys, values, np.arange(100)))
        return {"segments": segments, "counters": {"MAP_OUTPUT_RECORDS": 400}}

    def test_roundtrip_preserves_result(self):
        from repro.data.io import TaggedRect
        from repro.geometry.rectangle import Rect
        from repro.mapreduce.executor import pack_task_result, unpack_task_result

        result = self._segments(Rect, TaggedRect)
        restored = unpack_task_result(pack_task_result(result))
        assert restored["counters"] == result["counters"]
        for orig, back in zip(result["segments"], restored["segments"]):
            assert back.keys.tolist() == orig.keys.tolist()
            assert back.values == orig.values

    def test_compact_state_shrinks_task_payload(self):
        """The compact ``__getstate__`` forms must keep the task payload
        no bigger than the pre-PR wire format.  Two guards: (1) the
        memoised ``_csv`` codec cache never ships — packing a result whose
        rectangles have all been encoded yields byte-for-byte the same
        payload size as packing fresh ones; (2) the 4-tuple state still
        undercuts the default dataclass state (``_PlainRect``/
        ``_PlainTagged`` reconstruct it for the same logical payload)."""
        from repro.data.io import TaggedRect, encode_tagged
        from repro.geometry.rectangle import Rect
        from repro.mapreduce.executor import pack_task_result

        def total(packed):
            data, buffers = packed
            return len(data) + sum(len(b) for b in buffers)

        result = self._segments(Rect, TaggedRect)
        fresh = total(pack_task_result(result))
        for segment in result["segments"]:
            for tagged in segment.values:
                encode_tagged(tagged)  # populates tagged.rect._csv
        cached = total(pack_task_result(result))
        assert cached == fresh
        plain = total(pack_task_result(self._segments(_PlainRect, _PlainTagged)))
        assert fresh < plain

    def test_packed_no_larger_than_pool_default(self):
        """data + out-of-band buffers never exceed what the pool's
        default ForkingPickler protocol would have shipped in one blob."""
        from multiprocessing.reduction import ForkingPickler

        from repro.data.io import TaggedRect
        from repro.geometry.rectangle import Rect
        from repro.mapreduce.executor import pack_task_result

        result = self._segments(Rect, TaggedRect)
        data, buffers = pack_task_result(result)
        packed_bytes = len(data) + sum(len(b) for b in buffers)
        default_bytes = len(bytes(ForkingPickler.dumps(result)))
        assert packed_bytes <= default_bytes

    def test_process_executor_ships_packed_results(self):
        ex = ProcessExecutor(num_workers=2)
        results = ex.run_phase(square_worker, range(4), {"base": 3})
        assert results == [3, 4, 7, 12]


class _ParentSegment:
    """The previous wire form of a bucket segment: raw int64 keys plus
    the materialised ``[values[g] for g in members]`` list."""

    def __init__(self, segment):
        self.keys = segment.keys
        self.values = list(segment.values)

    def __getstate__(self):
        return (self.keys.tobytes(), self.values)


class TestColumnarSegmentTransport:
    """Segments of one map task share one source: it crosses the pipe
    once, with per-bucket index arrays beside it."""

    @staticmethod
    def _all_replicate_map_result():
        """What an All-Replicate map task hands the engine (8x8 grid,
        400 rectangles of one dataset, every record replicated)."""
        from repro.geometry.rectangle import Rect
        from repro.grid.partitioning import GridPartitioning
        from repro.joins.all_replicate import _make_batch_mapper
        from repro.joins.reducers import RECT_SHUFFLE_CODEC
        from repro.mapreduce.counters import Counters
        from repro.mapreduce.job import MapContext, identity_partitioner

        grid = GridPartitioning(Rect.from_corners(0.0, 0.0, 800.0, 800.0), 8, 8)
        rng = np.random.default_rng(7)
        split = [
            (
                "input/R1",
                i,
                (i, Rect(float(x), float(y), 20.0, 20.0)),
                40,
            )
            for i, (x, y) in enumerate(rng.uniform(20.0, 780.0, size=(400, 2)))
        ]
        ctx = MapContext(
            Counters(), grid.num_cells, identity_partitioner, RECT_SHUFFLE_CODEC
        )
        _make_batch_mapper(grid)(split, ctx, None)
        return {"segments": ctx.segments, "bucket_bytes": ctx.bucket_bytes}

    def test_roundtrip_shares_one_source(self, monkeypatch):
        from repro.kernels.batch import RectColumns
        from repro.mapreduce.executor import pack_task_result, unpack_task_result

        result = self._all_replicate_map_result()
        restored_sources = []
        real = RectColumns.__setstate__

        def counting(self, state):
            restored_sources.append(self)
            real(self, state)

        monkeypatch.setattr(RectColumns, "__setstate__", counting)
        restored = unpack_task_result(pack_task_result(result))
        assert restored["bucket_bytes"] == result["bucket_bytes"]
        flat = [seg for per_r in result["segments"] for seg in per_r]
        back = [seg for per_r in restored["segments"] for seg in per_r]
        assert len(back) == len(flat) > 1
        # deserialised once per task, not once per bucket
        assert len(restored_sources) == 1
        assert all(seg.source is restored_sources[0] for seg in back)
        for orig, got in zip(flat, back):
            assert got.keys.tolist() == orig.keys.tolist()
            assert got.members.tolist() == orig.members.tolist()
            assert list(got.values) == list(orig.values)
        for column in ("x", "length", "y", "breadth", "x_max", "y_min", "ids"):
            assert (
                getattr(back[0].source.batch, column).tolist()
                == getattr(flat[0].source.batch, column).tolist()
            )
        assert back[0].source.names == flat[0].source.names

    def test_payload_no_larger_than_list_of_values_form(self):
        from repro.mapreduce.executor import pack_task_result

        def total(packed):
            data, buffers = packed
            return len(data) + sum(len(b) for b in buffers)

        result = self._all_replicate_map_result()
        parent_form = dict(
            result,
            segments=[
                [_ParentSegment(seg) for seg in per_r] for per_r in result["segments"]
            ],
        )
        assert total(pack_task_result(result)) <= total(pack_task_result(parent_form))


class TestCascadeStepTransport:
    """A Cascade step's map result: ``TupleColumns`` (tuple-file tasks)
    or ``RectColumns`` (base-file tasks) as the one shared source, and a
    reduce group that holds both as ordered column runs."""

    STEP = 1  # second job of a 3-way chain: tuple side binds two slots

    @classmethod
    def _contexts(cls, which: str):
        """``(columnar ctx, row ctx)`` of one map task of step 1 —
        ``which`` = "tuples" (a step-0 part file) or "base" (``R3``) —
        run through the batch mapper and through the scalar mapper."""
        from repro.data.io import TupleRecord
        from repro.geometry.rectangle import Rect
        from repro.grid.partitioning import GridPartitioning
        from repro.joins.cascade import (
            CASCADE_SHUFFLE_CODEC,
            _make_step_batch_mapper,
            _make_step_mapper,
        )
        from repro.joins.local import slot_plans
        from repro.mapreduce.counters import Counters
        from repro.mapreduce.job import MapContext, identity_partitioner
        from repro.query.predicates import Overlap
        from repro.query.query import Query

        grid = GridPartitioning(Rect.from_corners(0.0, 0.0, 800.0, 800.0), 8, 8)
        plans = slot_plans(Query.chain(["R1", "R2", "R3"], Overlap()))
        step = plans[1 + cls.STEP]
        bound = tuple(p.slot for p in plans[: 1 + cls.STEP])
        rng = np.random.default_rng(7)
        rects = [
            Rect(float(x), float(y), 150.0, 150.0)
            for x, y in rng.uniform(20.0, 600.0, size=(300, 2))
        ]
        left_path, right_path = "two-way-cascade/step-0", "input/R3"
        if which == "tuples":
            records = [
                TupleRecord({"R1": (i, r), "R2": (1000 + i, rects[-1 - i])})
                for i, r in enumerate(rects)
            ]
            split = [
                (f"{left_path}/part-00000", i, record, len(record.line) + 1)
                for i, record in enumerate(records)
            ]
        else:
            split = [(right_path, i, (i, r), 40) for i, r in enumerate(rects)]
        contexts = []
        for batched in (True, False):
            ctx = MapContext(
                Counters(), grid.num_cells, identity_partitioner, CASCADE_SHUFFLE_CODEC
            )
            if batched:
                _make_step_batch_mapper(grid, step, bound, left_path, True)(
                    split, ctx, None
                )
            else:
                mapper = _make_step_mapper(grid, step, left_path, right_path, True, "R1")
                for path, lineno, record, __ in split:
                    mapper((path, lineno), record, ctx)
            contexts.append(ctx)
        return contexts

    @staticmethod
    def _total(packed):
        data, buffers = packed
        return len(data) + sum(len(b) for b in buffers)

    @pytest.mark.parametrize("which", ["tuples", "base"])
    def test_roundtrip_rows_equal_the_scalar_mappers(self, monkeypatch, which):
        from repro.kernels.batch import RectColumns, TupleColumns
        from repro.mapreduce.executor import pack_task_result, unpack_task_result

        col_ctx, row_ctx = self._contexts(which)
        assert col_ctx.bucket_bytes == row_ctx.bucket_bytes
        assert col_ctx.output_bytes == row_ctx.output_bytes
        kind = TupleColumns if which == "tuples" else RectColumns
        restored_sources = []
        real = kind.__setstate__

        def counting(self, state):
            restored_sources.append(self)
            real(self, state)

        monkeypatch.setattr(kind, "__setstate__", counting)
        restored = unpack_task_result(pack_task_result({"segments": col_ctx.segments}))
        # deserialised once per task, not once per bucket
        assert len(restored_sources) == 1
        buckets = 0
        for r, segs in enumerate(restored["segments"]):
            pairs = [pair for seg in segs for pair in seg.pairs()]
            # value for value what the scalar mapper put in the bucket:
            # ("T", TupleRecord) compares by line, ("B", rid, Rect) by value
            assert pairs == row_ctx.buckets[r]
            for (__, got), (__, ref) in zip(pairs, row_ctx.buckets[r]):
                if got[0] == "T":
                    assert got[1].bindings == ref[1].bindings
            assert all(seg.source is restored_sources[0] for seg in segs)
            buckets += bool(segs)
        assert buckets > 1

    @pytest.mark.parametrize("which", ["tuples", "base"])
    def test_payload_no_larger_than_row_form(self, which):
        from repro.mapreduce.executor import pack_task_result

        col_ctx, row_ctx = self._contexts(which)
        columnar = self._total(pack_task_result({"segments": col_ctx.segments}))
        rows = self._total(pack_task_result({"buckets": row_ctx.buckets}))
        assert columnar <= rows

    def test_mixed_type_group_iterates_to_the_row_list(self):
        """Tuple-file tasks then base-file tasks: the group stays
        columnar as two runs and reads, in order, as the rows the row
        shuffle would deliver."""
        from repro.kernels.batch import RectColumns, TupleColumns
        from repro.mapreduce.engine import (
            _gathered,
            _grouped,
            _segment_group_parts,
            _sorted_by_key,
        )
        from repro.mapreduce.job import ValueRuns, default_sort_key

        tasks = [self._contexts("tuples"), self._contexts("tuples"), self._contexts("base")]
        mixed = 0
        for r in range(64):
            segs = [seg for col_ctx, __ in tasks for seg in col_ctx.segments[r]]
            bucket = [pair for __, row_ctx in tasks for pair in row_ctx.buckets[r]]
            expected = list(_grouped(_sorted_by_key(bucket, default_sort_key)))
            got = [
                (key, _gathered(parts))
                for key, parts in _segment_group_parts(segs, default_sort_key)
            ]
            assert [k for k, __ in got] == [k for k, __ in expected]
            for (__, values), (__, rows) in zip(got, expected):
                assert len(values) == len(rows)
                assert list(values) == rows
                if isinstance(values, ValueRuns):
                    assert [type(run) for run in values.runs] == [
                        TupleColumns,
                        RectColumns,
                    ]
                    assert values[0] == rows[0] and values[-1] == rows[-1]
                    mixed += 1
        assert mixed


class TestReduceOutputTransport:
    """A reduce task's result: on the numpy kernel the column bundle the
    reducer emitted — no text, which the DFS formats when the part file
    is read, and never the record objects."""

    TASKS = 64
    RECORDS = 586  # x 64 tasks = 37.5k, round 1 of the sparse bench workload

    @staticmethod
    def _result(records):
        from repro.mapreduce.counters import Counters
        from repro.mapreduce.engine import _ReduceTaskResult

        return _ReduceTaskResult(
            lines=None,
            records=records,
            input_records=len(records),
            compute_ops=0,
            counters=Counters(),
        )

    @classmethod
    def _task_results(cls, task: int):
        """``(object form, column form)`` of one round-1 reduce result:
        ``TaggedRect`` records for the parent to encode (an older wire
        form), and the ``TaggedColumns`` bundle alone."""
        from repro.data.io import TAGGED_CODEC, TaggedRect
        from repro.geometry.rectangle import Rect
        from repro.kernels.batch import RectBatch, RectColumns, TaggedColumns

        n = cls.RECORDS
        rng = np.random.default_rng(task)
        coords = rng.uniform(100.0, 30_000.0, size=(n, 2)).tolist()
        sides = rng.uniform(0.0, 100.0, size=(n, 2)).tolist()
        records = [
            TaggedRect(f"R{1 + i % 3}", task * n + i, Rect(x, y, l, b), i % 7 == 0)
            for i, ((x, y), (l, b)) in enumerate(zip(coords, sides))
        ]
        bundle = TaggedColumns(
            RectColumns(
                ("R1", "R2", "R3"),
                np.arange(n, dtype=np.intp) % 3,
                RectBatch.from_records(np, [(t.rid, t.rect) for t in records]),
            ),
            np.array([t.marked for t in records]),
        )
        assert TAGGED_CODEC.encode_lines(bundle) == TAGGED_CODEC.encode_lines(records)
        return cls._result(records), cls._result(bundle)

    def test_mark_reducer_result_unpickles_without_building_a_record(self, monkeypatch):
        """The real round-1 reduce task's result, through the pipe:
        columns in, columns out — no line of text among them — and the
        row view still reads as the records the scalar reducer emits."""
        from repro.data.io import TAGGED_CODEC, TaggedRect, rect_csv
        from repro.geometry.rectangle import Rect
        from repro.grid.partitioning import GridPartitioning
        from repro.joins.controlled import _make_mark_reducer
        from repro.joins.marking import MarkingEngine
        from repro.kernels.batch import RectBatch, RectColumns, TaggedColumns
        from repro.mapreduce.counters import Counters
        from repro.mapreduce.engine import _ReducePhase, _run_reduce_task
        from repro.mapreduce.executor import pack_task_result, unpack_task_result
        from repro.mapreduce.job import MapReduceJob, ReduceContext
        from repro.query.predicates import Overlap
        from repro.query.query import Query

        grid = GridPartitioning(Rect.from_corners(0.0, 0.0, 800.0, 800.0), 2, 2)
        query = Query.chain(["R1", "R2", "R3"], Overlap())
        rng = np.random.default_rng(3)
        values = [
            (f"R{1 + i % 3}", i, Rect(float(x), float(y), 60.0, 60.0))
            for i, (x, y) in enumerate(rng.uniform(0.0, 400.0, size=(240, 2)) + (0.0, 400.0))
        ]
        names = ("R1", "R2", "R3")
        group = RectColumns(
            names,
            np.array([names.index(d) for d, __, __ in values]),
            RectBatch.from_records(np, [(rid, rect) for __, rid, rect in values]),
        )
        reference_reducer = _make_mark_reducer(
            grid, MarkingEngine(query, grid, kernel="python")
        )
        ctx = ReduceContext(Counters(), 0)
        reference_reducer(0, values, ctx)
        reference = ctx.output()
        reducer = _make_mark_reducer(
            grid, MarkingEngine(query, grid, kernel="numpy"), segmented=True
        )
        job = MapReduceJob(
            name="mark",
            input_paths=["input"],
            output_path="marked",
            mapper=lambda key, record, ctx: None,
            # the shuffle's one columnar group for the cell
            reducer=lambda keys, __, ___, contexts: reducer(
                keys, group, np.array([0, len(group)]), contexts
            ),
            num_reducers=1,
            output_codec=TAGGED_CODEC,
            segmented=True,
        )
        [result] = _run_reduce_task(_ReducePhase(job, [[(0, None)]]), range(1))
        assert result.lines is None
        assert isinstance(result.records, TaggedColumns)
        assert any(t.marked for t in reference) and len(reference) > 50
        lines = TAGGED_CODEC.encode_lines(reference)
        data, buffers = pack_task_result(result)
        payload = data + b"".join(buffers)
        assert not any(line.encode() in payload for line in lines)
        assert not any(rect_csv(t.rect).encode() in payload for t in reference)

        built = []
        for method in ("__init__", "__setstate__"):
            real = getattr(TaggedRect, method)

            def counting(self, *args, _real=real):
                built.append(self)
                _real(self, *args)

            monkeypatch.setattr(TaggedRect, method, counting)
        restored = unpack_task_result((data, buffers))
        assert not built
        assert restored.lines is None
        assert isinstance(restored.records, TaggedColumns)
        assert TAGGED_CODEC.encode_lines(restored.records) == lines
        assert not built  # encoding by column builds none either
        assert list(restored.records) == reference
        assert len(built) == len(reference)

    def test_unpack_time_and_bytes_bounded_against_the_object_form(self):
        """37.5k round-1 records in 64 task results: the parent unpacks
        the column form several times faster than it unpickled the
        objects (measured ~45x; the bound leaves room for a noisy host),
        and the columns, shipped without their text, are fewer bytes
        than the objects (measured 0.79x)."""
        from repro.mapreduce.executor import pack_task_result, unpack_task_result

        forms = list(zip(*(self._task_results(t) for t in range(self.TASKS))))
        measured = []
        for results in forms:
            packed = [pack_task_result(result) for result in results]
            nbytes = sum(len(data) + sum(map(len, bufs)) for data, bufs in packed)
            best = float("inf")
            for __ in range(5):
                t0 = time.perf_counter()
                for item in packed:
                    unpack_task_result(item)
                best = min(best, time.perf_counter() - t0)
            measured.append((best, nbytes))
        (object_s, object_bytes), (column_s, column_bytes) = measured
        assert column_s * 3 < object_s
        assert column_bytes < object_bytes
