"""Tests for the run ledger: sinks, event stamping, and replay."""

import json

import pytest

from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.job import MapReduceJob, hash_partitioner
from repro.mapreduce.workflow import Workflow
from repro.obs.ledger import (
    JsonlSink,
    LedgerRun,
    MemorySink,
    NullLedger,
    RunLedger,
    read_ledger,
)


def _word_count_job(name="wc", output="out"):
    def mapper(key, line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def reducer(word, counts, ctx):
        ctx.emit(f"{word}\t{sum(counts)}")

    return MapReduceJob(
        name=name,
        input_paths=["in"],
        output_path=output,
        mapper=mapper,
        reducer=reducer,
        num_reducers=3,
        partitioner=hash_partitioner,
    )


def _cluster(ledger, **kwargs):
    cluster = Cluster(dfs=InMemoryDFS(), ledger=ledger, **kwargs)
    cluster.dfs.write_file("in", ["a b a c", "b c d", "a"] * 10)
    return cluster


class TestNullLedger:
    def test_disabled_and_inert(self):
        led = NullLedger()
        assert led.enabled is False
        led.manifest(kernel="numpy")
        led.event("job_start", job="x")
        led.close()  # all no-ops


class TestRunLedger:
    def test_events_are_sequenced_and_stamped(self):
        sink = MemorySink()
        led = RunLedger(sink)
        led.event("job_start", job="a")
        led.event("job_commit", job="a", simulated_s=1.5)
        assert [e["seq"] for e in sink.events] == [0, 1]
        assert all(e["t_s"] >= 0 for e in sink.events)
        assert sink.events[0]["type"] == "job_start"
        assert sink.events[1]["simulated_s"] == 1.5

    def test_manifest_first_call_wins(self):
        sink = MemorySink()
        led = RunLedger(sink)
        led.manifest(kernel="numpy", seed=11)
        led.manifest(kernel="python")  # ignored: the run had one config
        manifests = [e for e in sink.events if e["type"] == "run_manifest"]
        assert len(manifests) == 1
        assert manifests[0]["config"] == {"kernel": "numpy", "seed": 11}

    def test_default_sink_is_memory(self):
        led = RunLedger()
        led.event("spill", task=0, records=5, files=1, bytes=100)
        assert led.sink.events[0]["records"] == 5


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        led = RunLedger(JsonlSink(path))
        led.manifest(kernel="numpy")
        led.event("job_start", job="wc")
        led.event("job_commit", job="wc", simulated_s=2.0)
        led.close()
        events = read_ledger(path)
        assert [e["type"] for e in events] == [
            "run_manifest", "job_start", "job_commit",
        ]
        assert events[0]["config"] == {"kernel": "numpy"}

    def test_lazy_open(self, tmp_path):
        path = str(tmp_path / "never.jsonl")
        led = RunLedger(JsonlSink(path))
        led.close()  # no events -> file never created
        assert not (tmp_path / "never.jsonl").exists()

    def test_lines_survive_without_close(self, tmp_path):
        # Line buffering: a crashed run leaves complete events readable.
        path = str(tmp_path / "crash.jsonl")
        led = RunLedger(JsonlSink(path))
        led.event("job_start", job="wc")
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
        ]
        assert lines[0]["type"] == "job_start"
        led.close()


class TestEngineJournal:
    def test_clean_run_brackets(self):
        sink = MemorySink()
        cluster = _cluster(RunLedger(sink))
        cluster.run_job(_word_count_job())
        types = [e["type"] for e in sink.events]
        assert types[0] == "run_manifest"
        assert types.count("job_start") == 1
        assert types.count("job_commit") == 1
        assert types.index("job_start") < types.index("job_commit")
        commit = next(e for e in sink.events if e["type"] == "job_commit")
        assert commit["job"] == "wc"
        assert "counters" in commit and commit["simulated_s"] > 0

    def test_cluster_manifest_carries_config(self):
        sink = MemorySink()
        cluster = _cluster(RunLedger(sink))
        cluster.run_job(_word_count_job())
        manifest = sink.events[0]["config"]
        assert manifest["kernel"] == cluster.resolved_kernel
        assert manifest["executor"] == "serial"

    def test_replay_matches_engine_counters_under_faults(self):
        plan = (
            FaultPlan()
            .fail_task("map", 0)
            .corrupt_result("reduce", 1)
            .fail_dfs_write(0)
        )
        sink = MemorySink()
        cluster = _cluster(
            RunLedger(sink),
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3),
        )
        result = cluster.run_job(_word_count_job())
        run = LedgerRun.from_events(sink.events)
        job = run.job("wc")
        eng = result.counters.engine
        assert job.attempts == eng(C.TASK_ATTEMPTS)
        assert job.failures == eng(C.TASK_FAILURES)
        assert job.failures == 3  # one per injected fault, incl. the write
        retries = [e for e in job.events if e["type"] == "task_retry"]
        assert {(e["phase"], e["task"]) for e in retries} == {
            ("map", 0), ("reduce", 1), ("write", 0),
        }

    def test_replay_counts_skipping_mode(self):
        plan = FaultPlan().poison_record(0, 2)
        sink = MemorySink()
        cluster = _cluster(
            RunLedger(sink),
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, max_skipped_records=1),
        )
        result = cluster.run_job(_word_count_job())
        run = LedgerRun.from_events(sink.events)
        job = run.job("wc")
        eng = result.counters.engine
        assert job.skipped_records == eng(C.SKIPPED_RECORDS) == 1
        skip = next(e for e in job.events if e["type"] == "task_skip")
        assert skip["offset"] == 2 and skip["task"] == 0
        # The skipped attempt is logged but never charged as a failure.
        assert job.failures == eng(C.TASK_FAILURES) == 0

    def test_replay_counts_spills(self):
        sink = MemorySink()
        cluster = _cluster(RunLedger(sink), memory_budget=256)
        result = cluster.run_job(_word_count_job())
        run = LedgerRun.from_events(sink.events)
        job = run.job("wc")
        eng = result.counters.engine
        assert eng(C.SPILLED_RECORDS) > 0  # the budget actually bit
        assert job.spilled_records == eng(C.SPILLED_RECORDS)
        assert job.spill_files == eng(C.SPILL_FILES)
        assert job.spill_bytes == eng(C.SPILL_BYTES)

    def test_replay_speculation_and_timeouts(self):
        plan = (
            FaultPlan()
            .delay_task("map", 1, delay_s=0.3)
            .hang_task("reduce", 0, hang_s=5.0)
        )
        sink = MemorySink()
        cluster = _cluster(
            RunLedger(sink),
            executor="thread",
            num_workers=4,
            fault_plan=plan,
            retry=RetryPolicy(
                max_attempts=2,
                speculate=True,
                speculation_threshold=0.5,
                task_timeout_s=1.0,
            ),
        )
        result = cluster.run_job(_word_count_job())
        run = LedgerRun.from_events(sink.events)
        job = run.job("wc")
        eng = result.counters.engine
        assert job.attempts == eng(C.TASK_ATTEMPTS)
        assert job.failures == eng(C.TASK_FAILURES)
        assert job.speculative_launches == eng(C.SPECULATIVE_LAUNCHES)
        assert job.speculative_wins == eng(C.SPECULATIVE_WINS)
        assert job.timeouts == eng(C.TASK_TIMEOUTS)


class TestWorkflowJournal:
    def test_checkpoint_events_name_their_job(self):
        sink = MemorySink()
        cluster = _cluster(RunLedger(sink), checkpoint_dir="ckpt")
        Workflow(cluster).run(_word_count_job())
        writes = [e for e in sink.events if e["type"] == "checkpoint_write"]
        assert len(writes) == 1
        assert writes[0]["job"] == "wc"
        assert writes[0]["jobs_completed"] == 1
        run = LedgerRun.from_events(sink.events)
        assert run.job("wc").checkpoint_writes == 1

    def test_restore_event_on_resume(self):
        dfs = InMemoryDFS()
        dfs.write_file("in", ["a b", "c d"])
        first = Cluster(dfs=dfs, checkpoint_dir="ckpt")
        Workflow(first).run(_word_count_job())
        sink = MemorySink()
        second = Cluster(
            dfs=dfs, checkpoint_dir="ckpt", resume=True, ledger=RunLedger(sink)
        )
        result = Workflow(second).run(_word_count_job())
        assert result.resumed
        restores = [e for e in sink.events if e["type"] == "checkpoint_restore"]
        assert len(restores) == 1 and restores[0]["job"] == "wc"
        run = LedgerRun.from_events(sink.events)
        job = run.job("wc")
        assert job.restored and not job.started


class TestLedgerRun:
    def test_attribution_across_jobs(self):
        events = [
            {"type": "run_manifest", "config": {"kernel": "numpy"}},
            {"type": "job_start", "job": "a"},
            {"type": "task_attempt", "phase": "map", "task": 0,
             "attempt": 0, "outcome": "ok", "charged": False},
            {"type": "job_commit", "job": "a", "simulated_s": 1.0},
            {"type": "job_start", "job": "b"},
            {"type": "task_attempt", "phase": "map", "task": 0,
             "attempt": 0, "outcome": "failed", "charged": True},
            {"type": "job_commit", "job": "b", "simulated_s": 2.0},
            {"type": "checkpoint_write", "job": "b", "jobs_completed": 2},
        ]
        run = LedgerRun.from_events(events)
        assert run.manifest == {"kernel": "numpy"}
        assert [j.name for j in run.jobs] == ["a", "b"]
        assert run.job("a").attempts == 1 and run.job("a").failures == 0
        assert run.job("b").failures == 1
        assert run.job("b").checkpoint_writes == 1
        assert run.total_attempts == 2
        assert run.total_failures == 1

    def test_unknown_event_types_are_kept(self):
        events = [
            {"type": "job_start", "job": "a"},
            {"type": "future_thing", "payload": 1},
            {"type": "job_commit", "job": "a"},
        ]
        run = LedgerRun.from_events(events)
        assert len(run.job("a").events) == 3

    def test_missing_job_lookup(self):
        assert LedgerRun.from_events([]).job("nope") is None


class TestWorkerReconciliation:
    """The ledger is the journal of record for worker failure domains:
    replaying it through LedgerRun must reproduce the engine's worker
    counters exactly — no event lost, none double-counted."""

    def _chaos_run(self, *, plan, retry):
        sink = MemorySink()
        cluster = _cluster(
            RunLedger(sink),
            executor="serial",
            num_workers=4,
            split_records=10,
            fault_plan=plan,
            retry=retry,
        )
        result = cluster.run_job(_word_count_job())
        return result, LedgerRun.from_events(sink.events)

    def test_worker_tallies_reconcile_with_engine_counters(self):
        plan = (
            FaultPlan()
            .fail_worker("w1", phase="map", index=1, attempt=0)
            .fail_worker("w2", phase="reduce", index=0, attempt=0, silent=True)
        )
        result, run = self._chaos_run(plan=plan, retry=RetryPolicy(max_attempts=3))
        record = run.job("wc")
        eng = result.counters.engine
        assert record.worker_failures == eng(C.WORKER_FAILURES) == 2
        assert record.map_outputs_lost == eng(C.MAP_OUTPUT_LOST) > 0
        assert record.tasks_reexecuted == eng(C.TASKS_REEXECUTED) > 0
        assert record.workers_blacklisted == eng(C.WORKERS_BLACKLISTED) == 0
        assert record.lost_attempts > 0

    def test_blacklist_tally_reconciles(self):
        plan = (
            FaultPlan()
            .fail_task("map", 0, attempt=0)
            .fail_task("map", 0, attempt=1)
        )
        result, run = self._chaos_run(
            plan=plan,
            retry=RetryPolicy(max_attempts=3, blacklist_after=1),
        )
        record = run.job("wc")
        eng = result.counters.engine
        assert record.workers_blacklisted == eng(C.WORKERS_BLACKLISTED) > 0
        assert record.failures == eng(C.TASK_FAILURES)

    def test_lost_attempts_are_never_charged_as_failures(self):
        """In-flight attempts abandoned by a worker death reconcile to
        ``lost_attempts``, not ``failures`` — the engine does not charge
        them against max_attempts, and neither may the replay."""
        plan = FaultPlan().fail_worker("w1", phase="map", index=1, attempt=0)
        result, run = self._chaos_run(plan=plan, retry=RetryPolicy(max_attempts=3))
        record = run.job("wc")
        lost_events = [
            e
            for e in record.events
            if e.get("type") == "task_attempt"
            and e.get("outcome") == "worker_lost"
        ]
        assert lost_events
        assert record.lost_attempts == len(lost_events)
        assert not any(e.get("charged") for e in lost_events)
        assert record.failures == result.counters.engine(C.TASK_FAILURES) == 0

    def test_speculative_loser_on_dead_worker_not_double_charged(self):
        """A speculative attempt abandoned because its worker died is a
        ``worker_lost`` outcome: one lost attempt, zero failures, zero
        speculative wins.  (Synthetic events: the session path that
        produces this combination is timing-dependent by design.)"""
        events = [
            {"type": "job_start", "job": "j"},
            {
                "type": "task_attempt",
                "job": "j",
                "phase": "map",
                "index": 3,
                "attempt": 1,
                "speculative": True,
                "outcome": "worker_lost",
                "charged": False,
                "worker": "w2",
            },
            {"type": "worker_lost", "job": "j", "worker": "w2"},
            {"type": "job_commit", "job": "j"},
        ]
        record = LedgerRun.from_events(events).job("j")
        assert record.lost_attempts == 1
        assert record.worker_failures == 1
        assert record.failures == 0
        assert record.speculative_wins == 0
        # The launch itself still counts as an attempt (it ran).
        assert record.attempts == 1


class TestLedgerIsObserver:
    def test_ledgered_run_is_byte_identical(self):
        bare = _cluster(NullLedger())
        bare_result = bare.run_job(_word_count_job())
        ledgered = _cluster(RunLedger(MemorySink()))
        led_result = ledgered.run_job(_word_count_job())
        assert led_result.counters.as_dict() == bare_result.counters.as_dict()
        assert led_result.simulated_seconds == bare_result.simulated_seconds
        assert [
            ledgered.dfs.read_file(p) for p in ledgered.dfs.resolve("out")
        ] == [bare.dfs.read_file(p) for p in bare.dfs.resolve("out")]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
