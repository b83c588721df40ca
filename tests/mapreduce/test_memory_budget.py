"""Bounded-memory execution at the engine level.

The tentpole contract: a ``memory_budget`` small enough to force spills
changes *nothing observable* except the new ``spill*`` telemetry and
the non-canonical ``spill_overhead_s`` cost bucket — part files,
canonical counters and canonical simulated seconds stay byte-identical
to the unbounded run, on every executor.
"""

from __future__ import annotations

import pytest

from repro.errors import JobError
from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import MapReduceJob, hash_partitioner

#: Forces several spills per map task on the workload below.
TINY_BUDGET = 256

EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]


def _word_count_job(combiner=None, reducer=True) -> MapReduceJob:
    def mapper(key, line, ctx):
        for word in line.split():
            # Map-only jobs must emit string values; "1" sums fine too.
            ctx.emit(word, "1")

    def reduce_fn(word, counts, ctx):
        ctx.emit(f"{word}\t{sum(int(c) for c in counts)}")

    return MapReduceJob(
        name="wc",
        input_paths=["in"],
        output_path="out",
        mapper=mapper,
        reducer=reduce_fn if reducer else None,
        combiner=combiner,
        num_reducers=3,
        partitioner=hash_partitioner,
    )


def _input_lines():
    # Repetitive words -> duplicate shuffle keys, so the merge has to
    # reproduce stable (emission-order) ties, not just sort keys.
    return [f"w{i % 17} w{i % 5} w{i % 17} common" for i in range(120)]


def _run(budget, *, executor="serial", workers=1, combiner=None, reducer=True):
    cluster = Cluster(
        dfs=InMemoryDFS(),
        executor=executor,
        num_workers=workers,
        memory_budget=budget,
    )
    cluster.dfs.write_file("in", _input_lines())
    result = cluster.run_job(_word_count_job(combiner=combiner, reducer=reducer))
    output = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.list_dir("out")
    }
    return cluster, result, output


def _canonical(counters) -> dict:
    return {
        name: value
        for name, value in counters.as_dict()[C.GROUP_ENGINE].items()
        if not name.startswith("spill")
    }


def _traced_run(combiner=None):
    """The recorder of a spilling word-count run."""
    from repro.obs.trace import TraceRecorder

    recorder = TraceRecorder()
    cluster = Cluster(dfs=InMemoryDFS(), memory_budget=TINY_BUDGET, recorder=recorder)
    cluster.dfs.write_file("in", _input_lines())
    result = cluster.run_job(_word_count_job(combiner=combiner))
    assert result.counters.engine(C.SPILLED_RECORDS) > 0
    return recorder


class TestBudgetedEquivalence:
    @pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
    def test_byte_identical_under_pressure(self, executor, workers):
        __, ref, ref_output = _run(None)
        cluster, result, output = _run(
            TINY_BUDGET, executor=executor, workers=workers
        )
        eng = result.counters.engine
        assert eng(C.SPILLED_RECORDS) > 0
        assert eng(C.SPILL_FILES) > 0
        assert output == ref_output
        assert _canonical(result.counters) == _canonical(ref.counters)
        # Canonical simulated seconds unchanged; the spill I/O shows up
        # only in the non-canonical bucket.
        assert result.cost.total_s == ref.cost.total_s
        assert result.cost.spill_overhead_s > 0
        assert ref.cost.spill_overhead_s == 0
        # Spill side files are cleaned up after the job commits.
        assert not cluster.dfs.list_dir("_spill/wc")

    def test_spill_telemetry_in_trace(self):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        cluster = Cluster(
            dfs=InMemoryDFS(), memory_budget=TINY_BUDGET, recorder=recorder
        )
        cluster.dfs.write_file("in", _input_lines())
        result = cluster.run_job(_word_count_job())
        job_span = next(
            s for s in recorder.spans if s.cat == "job" and s.name == "job:wc"
        )
        assert job_span.args["spilled_records"] == result.counters.engine(
            C.SPILLED_RECORDS
        )
        assert job_span.args["spill_files"] == result.counters.engine(
            C.SPILL_FILES
        )
        assert job_span.args["spill_overhead_s"] == result.cost.spill_overhead_s

    def test_shuffle_buffer_gauge_never_goes_negative(self):
        """Spill bytes are counted in the budget's own unit — the shuffle
        bytes the spilled emissions were charged — so the trace's buffer
        gauge (shuffled minus spilled) stays non-negative."""
        recorder = _traced_run()
        gauge = [value for __, value in recorder.counters["shuffle buffer bytes"]]
        assert min(gauge) >= 0
        spilled = recorder.counters["spill bytes (cumulative)"][-1][1]
        shuffled = recorder.counters["shuffle bytes (cumulative)"][-1][1]
        assert 0 < spilled <= shuffled

    def test_dfs_byte_counters_stay_canonical(self):
        """Spill runs travel as unaccounted side files: the canonical
        DFS read/write counters must not see them."""
        __, ref, __out = _run(None)
        __, result, __out2 = _run(TINY_BUDGET)
        assert result.counters.engine(C.DFS_BYTES_WRITTEN) == ref.counters.engine(
            C.DFS_BYTES_WRITTEN
        )
        assert result.counters.engine(C.DFS_BYTES_READ) == ref.counters.engine(
            C.DFS_BYTES_READ
        )


class TestBudgetedCombiner:
    def test_combiner_job_spills_then_unspills(self):
        def combiner(word, counts):
            return [str(sum(int(c) for c in counts))]

        __, ref, ref_output = _run(None, combiner=combiner)
        cluster, result, output = _run(TINY_BUDGET, combiner=combiner)
        assert output == ref_output
        # The spills happened (telemetry says so) but the combiner path
        # restores in-memory buckets, so no side files are staged.
        assert result.counters.engine(C.SPILLED_RECORDS) > 0
        assert _canonical(result.counters) == _canonical(ref.counters)
        assert not cluster.dfs.list_dir("_spill/wc")

    def test_unspilled_buffer_gauge_never_goes_negative(self):
        """A combiner task holds its whole combined output once it
        un-spills, however many pre-combine bytes it spilled."""
        recorder = _traced_run(
            combiner=lambda word, counts: [str(sum(int(c) for c in counts))]
        )
        gauge = [value for __, value in recorder.counters["shuffle buffer bytes"]]
        assert min(gauge) >= 0


@pytest.mark.parametrize("budget", [None, 16])
def test_mixed_emission_is_rejected_whatever_the_budget(budget):
    """A batch mapper must emit through one API per task; a budget that
    spills the row emissions away must not hide the mix."""

    def batch_mapper(split, ctx, batch):
        ctx.emit(0, "row" * 10)  # over the 16-byte budget: spills
        ctx.emit_batch([1], [1], ["col"], [ctx.pair_nbytes(1, "col")])

    job = MapReduceJob(
        name="mixed",
        input_paths=["in"],
        output_path="out",
        mapper=lambda key, line, ctx: None,
        reducer=lambda key, values, ctx: None,
        num_reducers=2,
        batch_mapper=batch_mapper,
    )
    cluster = Cluster(dfs=InMemoryDFS(), memory_budget=budget)
    cluster.dfs.write_file("in", _input_lines())
    with pytest.raises(JobError, match=r"mixed emit\(\) and emit_batch\(\)"):
        cluster.run_job(job)


@pytest.mark.parametrize("budget", [None, 16])
def test_row_and_batch_tasks_merge_in_emission_order(budget):
    """Tasks of one job may use different emission APIs: the shuffle
    then degrades to rows, spilled segment runs included, and reducers
    still see every task's values in emission order."""

    def mapper(key, line, ctx):
        for word in line.split():
            ctx.emit(len(word) % 3, word)

    def batch_mapper(split, ctx, batch):
        if split[0][1] // 10 % 2 == 0:  # every other task: rows
            for path, lineno, line, __ in split:
                mapper((path, lineno), line, ctx)
            return
        words = [word for entry in split for word in entry[2].split()]
        keys = [len(word) % 3 for word in words]
        sizes = [ctx.pair_nbytes(k, word) for k, word in zip(keys, words)]
        ctx.emit_batch(keys, [1] * len(words), words, sizes)

    def run(budget, batch):
        job = MapReduceJob(
            name="mixed-tasks",
            input_paths=["in"],
            output_path="out",
            mapper=mapper,
            reducer=lambda key, values, ctx: ctx.emit(f"{key}\t{','.join(values)}"),
            num_reducers=2,
            batch_mapper=batch_mapper if batch else None,
        )
        cluster = Cluster(dfs=InMemoryDFS(), memory_budget=budget, split_records=10)
        cluster.dfs.write_file("in", _input_lines())
        result = cluster.run_job(job)
        return result, [cluster.dfs.read_file(p) for p in cluster.dfs.list_dir("out")]

    result, output = run(budget, batch=True)
    assert output == run(None, batch=False)[1]
    assert (result.counters.engine(C.SPILLED_RECORDS) > 0) == (budget is not None)


class TestBudgetScope:
    def test_map_only_jobs_never_spill(self):
        """No reduce and no combiner means no sort buffer to bound —
        Hadoop spills the sort buffer, not map output itself."""
        __, result, __out = _run(TINY_BUDGET, reducer=False)
        assert result.counters.engine(C.SPILLED_RECORDS) == 0

    def test_non_positive_budget_rejected(self):
        with pytest.raises(JobError, match="memory_budget must be positive"):
            Cluster(dfs=InMemoryDFS(), memory_budget=0)

    def test_unbounded_runs_emit_no_spill_counters(self):
        __, result, __out = _run(None)
        counters = result.counters.as_dict()[C.GROUP_ENGINE]
        assert "spilled_records" not in counters
        assert "spill_files" not in counters
