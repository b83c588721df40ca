"""Spill primitives: run format, read-back, budgeted map context.

The memory-governance invariant under test: a task's spilled runs, in
emission order, followed by its resident remainder are exactly its
unbounded buckets — for any placement of the spill points and whether
the task emits record by record or in batches.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import JobError
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.engine import _sorted_by_key
from repro.mapreduce.job import (
    BucketSegment,
    MapContext,
    SpillingMapContext,
    identity_partitioner,
)
from repro.mapreduce.spill import (
    SpillRun,
    SpillStore,
    decode_run,
    encode_run,
    spill_dir,
)


def _identity_sort_key(key):
    return key


class TestSpillRecordCodec:
    """A run file is one line: ``base64(pickle(run))``."""

    def test_round_trip_arbitrary_objects(self):
        run = [(7, ("cell", 3)), (2, {"payload": [1.5, None, "x"]})]
        line = encode_run(run)
        assert "\n" not in line
        assert decode_run(line) == run

    def test_spill_dir_is_job_scoped(self):
        assert spill_dir("my-job") == "_spill/my-job"

    def test_read_back_puts_each_run_where_it_was_emitted(self):
        segment = BucketSegment(np.array([4, 4]), ["c", "d"], np.arange(2))
        store = SpillStore(
            {"rows": [encode_run([(1, "a"), (2, "b")])], "seg": [encode_run(segment)]}
        )
        items = [SpillRun("rows"), (3, "x"), SpillRun("seg")]
        assert store.read_back(items, rows=True) == [
            (1, "a"), (2, "b"), (3, "x"), (4, "c"), (4, "d")
        ]
        back = store.read_back([SpillRun("seg")])
        assert len(back) == 1 and back[0].pairs() == [(4, "c"), (4, "d")]


class TestMergeRuns:
    """Runs read back in place, then the reduce task's stable sort ==
    ``_sorted_by_key`` of the concatenated unbounded buckets, always."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("spill_every", [1, 3, 7])
    def test_reproduces_stable_sort(self, seed, spill_every):
        rng = random.Random(seed)
        store = SpillStore()
        bucket = []  # the reducer's merged input: runs, then resident, per task
        combined = []  # records in (task, emission) order, the unbounded bucket
        for task in range(3):
            emitted = [
                (rng.randrange(5), f"t{task}v{i}") for i in range(rng.randrange(2, 15))
            ]
            combined.extend(emitted)
            # Cut this task's emissions into spilled runs of spill_every
            # records plus a resident remainder (possibly empty).
            lo = 0
            while len(emitted) - lo > spill_every:
                path = f"run-{task}-{lo}"
                store.files[path] = [encode_run(emitted[lo : lo + spill_every])]
                bucket.append(SpillRun(path))
                lo += spill_every
            bucket.extend(emitted[lo:])
        read = store.read_back(bucket, rows=True)
        assert read == combined
        assert _sorted_by_key(read, _identity_sort_key) == _sorted_by_key(
            combined, _identity_sort_key
        )

    def test_resident_only_runs_merge(self):
        bucket = [(2, "a"), (1, "b"), (1, "c"), (2, "d")]
        read = SpillStore().read_back(bucket, rows=True)
        assert _sorted_by_key(read, _identity_sort_key) == [
            (1, "b"), (1, "c"), (2, "a"), (2, "d")
        ]


def _nonzero(counters):
    return {k: v for k, v in counters.as_dict().get("engine", {}).items() if v}


def _as_pairs(run):
    return run if isinstance(run, list) else run.pairs()


def _emission_sequence(rng):
    """Random batch-emission calls: ``(keys, counts, values)`` each."""
    calls = []
    for __ in range(rng.randint(1, 3)):
        values = [
            f"v{rng.randrange(100)}" * rng.randint(1, 4)
            for __ in range(rng.randint(0, 12))
        ]
        counts = [rng.randint(0, 4) for __ in values]
        keys = [rng.randrange(10) for __ in range(sum(counts))]
        calls.append((keys, counts, values))
    return calls


class TestBatchSpillEqualsRecordSpill:
    """A budgeted ``emit_batch`` spills exactly where the ``emit`` loop
    would, and a task's runs followed by its resident remainder are its
    unbounded buckets."""

    @pytest.mark.parametrize("seed", range(40))
    def test_runs_and_counters_match_the_emit_loop(self, seed):
        rng = random.Random(seed)
        num_reducers = rng.randint(1, 4)
        budget = rng.randint(1, 120)
        partitioner = identity_partitioner if seed % 2 else (lambda key, n: (key * 7) % n)
        calls = _emission_sequence(rng)

        def ctx_of(budget):
            counters = Counters()
            if budget is None:
                return MapContext(counters, num_reducers, partitioner), counters
            return (
                SpillingMapContext(counters, num_reducers, partitioner, budget=budget),
                counters,
            )

        batch, batch_counters = ctx_of(budget)
        loop, loop_counters = ctx_of(budget)
        unbounded, __ = ctx_of(None)
        for keys, counts, values in calls:
            sizes = [loop.pair_nbytes(0, value) for value in values]
            batch.emit_batch(np.array(keys, dtype=np.int64), counts, values, sizes)
            pos = 0
            for value, count in zip(values, counts):
                for key in keys[pos : pos + count]:
                    loop.emit(key, value)
                    unbounded.emit(key, value)
                pos += count

        # (An empty batch adds zero-valued counters; the loop adds none.)
        assert _nonzero(batch_counters) == _nonzero(loop_counters)
        assert batch.bucket_bytes == loop.bucket_bytes == unbounded.bucket_bytes
        batch_runs = [
            [_as_pairs(decode_run(line)) for line in runs] for runs in batch.spill_runs
        ]
        loop_runs = [[decode_run(line) for line in runs] for runs in loop.spill_runs]
        assert batch_runs == loop_runs
        for r in range(num_reducers):
            resident = [pair for seg in batch.segments[r] for pair in seg.pairs()]
            assert resident == loop.buckets[r]
            spilled = [pair for run in batch_runs[r] for pair in run]
            assert spilled + resident == unbounded.buckets[r]
        assert not batch.mixed_emission()


def _make_ctx(budget, num_reducers=2):
    counters = Counters()
    ctx = SpillingMapContext(
        counters,
        num_reducers,
        partitioner=lambda key, n: key % n,
        budget=budget,
    )
    return ctx, counters


class TestSpillingMapContext:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(JobError, match="budget must be positive"):
            _make_ctx(0)

    def test_spills_when_budget_crossed(self):
        ctx, counters = _make_ctx(budget=64)
        for i in range(100):
            ctx.emit(i % 2, f"value-{i}")
        assert ctx.spilled
        eng = counters.engine
        assert eng(C.SPILLED_RECORDS) > 0
        assert eng(C.SPILL_FILES) > 0
        assert eng(C.SPILL_BYTES) > 0
        # Canonical counters are untouched by spilling.
        assert eng(C.MAP_OUTPUT_RECORDS) == 100
        spilled = sum(len(decode_run(run)) for runs in ctx.spill_runs for run in runs)
        resident = sum(len(bucket) for bucket in ctx.buckets)
        assert spilled == eng(C.SPILLED_RECORDS)
        assert spilled + resident == 100

    def test_bucket_bytes_survive_spills(self):
        """Reduce-side input-byte accounting reads bucket_bytes; spilling
        must not reset it or REDUCE_INPUT_BYTES would drift."""
        ctx, __ = _make_ctx(budget=64)
        unbounded, __ = _make_ctx(budget=10**9)
        for i in range(100):
            ctx.emit(i % 2, f"value-{i}")
            unbounded.emit(i % 2, f"value-{i}")
        assert ctx.bucket_bytes == unbounded.bucket_bytes
        assert ctx.output_bytes == unbounded.output_bytes

    def test_spill_points_are_deterministic(self):
        runs = []
        for __ in range(2):
            ctx, __counters = _make_ctx(budget=64)
            for i in range(100):
                ctx.emit(i % 2, f"value-{i}")
            runs.append((ctx.spill_runs, ctx.buckets))
        assert runs[0] == runs[1]

    def test_unspill_restores_emission_order(self):
        ctx, counters = _make_ctx(budget=64)
        unbounded, __ = _make_ctx(budget=10**9)
        for i in range(100):
            ctx.emit(i % 2, f"value-{i}")
            unbounded.emit(i % 2, f"value-{i}")
        assert ctx.spilled
        ctx.unspill()
        assert ctx.buckets == unbounded.buckets
        assert not ctx.spilled
        # The spills happened: telemetry stays.
        assert counters.engine(C.SPILLED_RECORDS) > 0

    def test_under_budget_never_spills(self):
        ctx, counters = _make_ctx(budget=10**9)
        for i in range(100):
            ctx.emit(i % 2, f"value-{i}")
        assert not ctx.spilled
        assert counters.engine(C.SPILLED_RECORDS) == 0
