"""Worker failure domains: named workers, loss, blacklists, elasticity.

The pool itself is pure bookkeeping (deterministic assignment over the
active set), so the unit tests pin its state machine; the engine tests
drive whole jobs through ``fail-worker``/``join-worker`` plans and
assert the Hadoop semantics — in-flight attempts lost uncharged,
committed map outputs invalidated and re-executed, blacklisting after K
strikes, elastic joins, and a clean :class:`NoActiveWorkersError` only
when every worker is gone — all without perturbing canonical outputs.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import FaultPlanError, JobError, NoActiveWorkersError
from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.mapreduce.job import MapReduceJob, hash_partitioner
from repro.mapreduce.workers import WorkerPool
from repro.obs.ledger import MemorySink, RunLedger


# ----------------------------------------------------------------------
# Pool state machine
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_named_workers_in_creation_order(self):
        pool = WorkerPool(3)
        assert pool.active() == ["w0", "w1", "w2"]

    def test_needs_at_least_one_worker(self):
        with pytest.raises(JobError, match="at least 1 worker"):
            WorkerPool(0)

    def test_assignment_is_deterministic_round_robin(self):
        pool = WorkerPool(3)
        assert [pool.assign(i, 0) for i in range(5)] == [
            "w0", "w1", "w2", "w0", "w1",
        ]
        # A retry moves to the next worker — Hadoop avoiding the node
        # that just failed the task.
        assert pool.assign(0, 1) != pool.assign(0, 0)

    def test_kill_removes_from_rotation(self):
        pool = WorkerPool(3)
        assert pool.kill("w1")
        assert pool.active() == ["w0", "w2"]
        assert pool.dead() == ["w1"]
        assert not pool.kill("w1")  # already dead: nothing new to lose

    def test_blacklist_removes_capacity_but_not_liveness(self):
        pool = WorkerPool(2)
        assert pool.blacklist("w0")
        assert pool.active() == ["w1"]
        assert pool.blacklisted() == ["w0"]
        assert pool.dead() == []

    def test_join_appends_fresh_name_never_reuses(self):
        pool = WorkerPool(2)
        pool.kill("w1")
        assert pool.join() == "w2"
        assert pool.join("w1") is None  # a dead name stays dead
        assert pool.active() == ["w0", "w2"]

    def test_all_dead_raises_no_active_workers(self):
        pool = WorkerPool(2)
        pool.kill("w0")
        pool.blacklist("w1")
        with pytest.raises(NoActiveWorkersError, match="dead or blacklisted"):
            pool.assign(0, 0)

    def test_unknown_worker_rejected(self):
        with pytest.raises(JobError, match="unknown worker"):
            WorkerPool(1).kill("w9")


# ----------------------------------------------------------------------
# Fault-spec validation and plan round-trips (satellite: schema checks)
# ----------------------------------------------------------------------
class TestWorkerFaultSpecs:
    def test_fail_worker_rejects_write_phase(self):
        with pytest.raises(JobError, match="phase"):
            FaultSpec(kind="fail-worker", phase="write", index=0, worker="w0")

    def test_at_time_fail_worker_needs_explicit_victim(self):
        with pytest.raises(JobError, match="explicit worker"):
            FaultSpec(kind="fail-worker", phase="map", index=0, at_s=5.0)

    def test_silent_only_for_fail_worker(self):
        with pytest.raises(JobError, match="silent"):
            FaultSpec(kind="join-worker", phase="map", index=0, silent=True)

    def test_non_worker_kinds_reject_worker_fields(self):
        with pytest.raises(JobError):
            FaultSpec(kind="fail", phase="map", index=0, worker="w0")
        with pytest.raises(JobError):
            FaultSpec(kind="fail", phase="map", index=0, at_s=1.0)

    def test_plan_round_trips_through_json(self, tmp_path):
        plan = (
            FaultPlan(seed=7)
            .fail_worker("w1", phase="map", index=2, attempt=1, silent=True)
            .fail_worker("w2", at_s=30.0)
            .join_worker(phase="reduce", index=0)
        )
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        loaded = FaultPlan.load(str(path))
        assert loaded.to_dict() == plan.to_dict()
        assert loaded.has_worker_faults
        assert [s.kind for s in loaded.worker_specs()] == [
            "fail-worker", "fail-worker", "join-worker",
        ]

    def test_load_names_path_and_offending_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"specs": [{"kind": "fail-worker", "wrkr": "w0"}]})
        )
        with pytest.raises(FaultPlanError) as err:
            FaultPlan.load(str(path))
        message = str(err.value)
        assert str(path) in message
        assert "'wrkr'" in message

    def test_unknown_kind_is_one_line_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"specs": [{"kind": "explode-rack", "phase": "map", "index": 0}]})
        )
        with pytest.raises(FaultPlanError) as err:
            FaultPlan.load(str(path))
        assert "explode-rack" in str(err.value)
        assert "\n" not in str(err.value)


# ----------------------------------------------------------------------
# Engine scenarios
# ----------------------------------------------------------------------
def _job(name="wrk", out="out") -> MapReduceJob:
    def mapper(key, line, ctx):
        for word in line.split():
            ctx.emit(word, "1")

    def reducer(word, counts, ctx):
        ctx.emit(f"{word}\t{len(counts)}")

    return MapReduceJob(
        name=name,
        input_paths=["in"],
        output_path=out,
        mapper=mapper,
        reducer=reducer,
        num_reducers=3,
        partitioner=hash_partitioner,
    )


def _cluster(executor="serial", **kwargs) -> Cluster:
    cluster = Cluster(
        dfs=InMemoryDFS(),
        executor=executor,
        num_workers=4,
        split_records=10,
        **kwargs,
    )
    cluster.dfs.write_file(
        "in", [f"w{i % 7} x{i % 3} y{i % 11}" for i in range(100)]
    )
    return cluster


def _output(cluster: Cluster) -> dict[str, tuple[str, ...]]:
    return {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.list_dir("out")
    }


class TestEngineWorkerLoss:
    @pytest.fixture(scope="class")
    def reference(self):
        cluster = _cluster()
        result = cluster.run_job(_job())
        return result, _output(cluster)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_map_phase_death_reexecutes_committed_outputs(
        self, executor, reference
    ):
        ref, ref_output = reference
        # Round 1 commits most splits and fails task 0; task 0's retry
        # (round 2) kills w1, so the outputs w1 committed in round 1
        # are invalidated and re-dispatched *within* the map phase.
        plan = (
            FaultPlan()
            .fail_task("map", 0, attempt=0)
            .fail_worker("w1", phase="map", index=0, attempt=1)
        )
        cluster = _cluster(
            executor, fault_plan=plan, retry=RetryPolicy(max_attempts=3)
        )
        result = cluster.run_job(_job())
        eng = result.counters.engine
        assert _output(cluster) == ref_output
        assert result.cost.total_s == ref.cost.total_s
        assert eng(C.WORKER_FAILURES) == 1
        # w1 owned committed splits when it died; they re-executed.
        assert eng(C.MAP_OUTPUT_LOST) >= 1
        assert eng(C.TASKS_REEXECUTED) == eng(C.MAP_OUTPUT_LOST)
        assert result.cost.recovery_overhead_s > 0
        assert cluster.worker_pool.dead() == ["w1"]

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_reduce_phase_death_invalidates_upstream_maps(
        self, executor, reference
    ):
        ref, ref_output = reference
        plan = FaultPlan().fail_worker(
            "w0", phase="reduce", index=0, attempt=0, silent=True
        )
        cluster = _cluster(
            executor, fault_plan=plan, retry=RetryPolicy(max_attempts=3)
        )
        result = cluster.run_job(_job())
        eng = result.counters.engine
        assert _output(cluster) == ref_output
        assert result.cost.total_s == ref.cost.total_s
        # w0 owned committed map outputs: losing it mid-reduce forces
        # upstream map re-execution (Hadoop's lost-TaskTracker path).
        assert eng(C.MAP_OUTPUT_LOST) >= 1
        # Silent death: detection charged at the heartbeat interval.
        assert result.cost.recovery_overhead_s >= (
            cluster.retry.heartbeat_interval_s
        )

    def test_lost_attempts_are_never_charged(self):
        plan = FaultPlan().fail_worker("w1", phase="map", index=1, attempt=0)
        cluster = _cluster(fault_plan=plan, retry=RetryPolicy(max_attempts=2))
        result = cluster.run_job(_job())
        # max_attempts=2 still absorbs the loss: worker_lost outcomes do
        # not burn attempts the way charged failures do.
        assert result.counters.engine(C.TASK_FAILURES) == 0
        stats = result.map_tasks
        lost = [
            a
            for s in stats
            for a in s.attempts
            if a.outcome == "worker_lost"
        ]
        assert lost and all("died" in a.error for a in lost)

    def test_blacklist_after_k_strikes(self):
        plan = (
            FaultPlan()
            .fail_task("map", 0, attempt=0)
            .fail_task("map", 0, attempt=1)
        )
        cluster = _cluster(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=4, blacklist_after=1),
        )
        result = cluster.run_job(_job())
        eng = result.counters.engine
        assert eng(C.WORKERS_BLACKLISTED) == 2
        assert len(cluster.worker_pool.blacklisted()) == 2
        # Blacklisting never invalidates committed outputs.
        assert eng(C.MAP_OUTPUT_LOST) == 0

    def test_elastic_join_adds_capacity(self, reference):
        __, ref_output = reference
        plan = (
            FaultPlan()
            .fail_worker("w3", phase="map", index=0, attempt=0)
            .join_worker(phase="reduce", index=0, attempt=0)
        )
        cluster = _cluster(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        result = cluster.run_job(_job())
        assert _output(cluster) == ref_output
        assert result.counters.engine(C.WORKERS_JOINED) == 1
        snapshot = cluster.worker_pool.snapshot()
        assert "w4" in snapshot["active"]
        assert snapshot["dead"] == ["w3"]

    def test_every_worker_dead_fails_cleanly(self):
        plan = FaultPlan()
        for name in ("w0", "w1", "w2", "w3"):
            plan.fail_worker(name, phase="map", index=0, attempt=0)
        cluster = _cluster(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(NoActiveWorkersError, match="every worker"):
            cluster.run_job(_job())

    def test_at_time_spec_fires_between_jobs(self):
        # The simulated clock advances by each job's canonical seconds;
        # an at_s past job 1's cost fires at job 2's first boundary.
        plan = FaultPlan().fail_worker("w1", at_s=1.0)
        cluster = _cluster(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        first = cluster.run_job(_job(name="first"))
        assert first.counters.engine(C.WORKER_FAILURES) == 0
        assert first.cost.total_s > 1.0
        second = cluster.run_job(_job(name="second", out="out2"))
        assert second.counters.engine(C.WORKER_FAILURES) == 1
        assert cluster.worker_pool.dead() == ["w1"]

    def test_pool_state_persists_across_jobs(self):
        plan = FaultPlan().fail_worker("w2", phase="map", index=0, attempt=0)
        cluster = _cluster(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        cluster.run_job(_job(name="one"))
        assert cluster.worker_pool.dead() == ["w2"]
        second = cluster.run_job(_job(name="two", out="out2"))
        # The one-shot spec already fired: no second death, and the
        # pool still remembers the first.
        assert second.counters.engine(C.WORKER_FAILURES) == 0
        assert cluster.worker_pool.dead() == ["w2"]

    def test_disengaged_cluster_emits_no_worker_telemetry(self):
        plan = FaultPlan().fail_task("map", 0, attempt=0)
        cluster = _cluster(fault_plan=plan, retry=RetryPolicy(max_attempts=2))
        result = cluster.run_job(_job())
        eng = result.counters.engine
        assert cluster.worker_pool is None
        for name in (
            C.WORKER_FAILURES,
            C.WORKERS_BLACKLISTED,
            C.WORKERS_JOINED,
            C.MAP_OUTPUT_LOST,
            C.TASKS_REEXECUTED,
        ):
            assert eng(name) == 0
        assert result.cost.recovery_overhead_s == 0.0


class TestReplayDeterminism:
    def _ledger_events(self, executor="serial"):
        sink = MemorySink()
        plan = (
            FaultPlan()
            .fail_worker("w1", phase="map", index=1, attempt=0)
            .fail_worker("w2", phase="reduce", index=0, attempt=0, silent=True)
            .join_worker(phase="reduce", index=1, attempt=0)
        )
        cluster = _cluster(
            executor,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3),
            ledger=RunLedger(sink),
        )
        cluster.run_job(_job())
        events = [dict(e) for e in sink.events]
        for event in events:  # the wall-time stamp varies run to run
            event.pop("t_s", None)
        return events

    def test_seeded_plan_replays_identical_schedule(self):
        first = self._ledger_events()
        second = self._ledger_events()
        assert first == second
        kinds = [
            e["type"] for e in first if e["type"].startswith(("worker", "output"))
        ]
        # w1 dies in map round 1: its outputs are in-flight, not committed,
        # so there is nothing to invalidate.  In the reduce phase the join
        # (a trigger-pass action) enacts before the queued w2 death, and
        # w2's death invalidates the map outputs it committed earlier.
        assert kinds == [
            "worker_lost",
            "worker_joined",
            "worker_lost",
            "output_invalidated",
        ]
