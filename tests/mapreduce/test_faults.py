"""Unit tests for the fault-injection framework and retry dispatch.

The golden end-to-end contract (algorithms × executors, byte-identical
under absorbed chaos) lives in ``test_recovery_golden.py``; this module
covers the pieces: plan construction/serialization/matching, retry
policy semantics, the attempt envelope, retry rounds, exhaustion, write
faults and the cost/counter plumbing.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    InjectedFault,
    JobError,
    MapReduceError,
    TaskRetryExhausted,
)
from repro.mapreduce.cost import CostModel, JobCostBreakdown
from repro.mapreduce.engine import Cluster
from repro.mapreduce.executor import SerialExecutor
from repro.mapreduce.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    run_phase_with_recovery,
)
from repro.mapreduce.job import MapReduceJob


# ----------------------------------------------------------------------
# A tiny job used by the engine-level tests
# ----------------------------------------------------------------------
def _mapper(key, record, ctx):
    ctx.emit(int(record.split(",")[0]), record)


def _reducer(key, values, ctx):
    for v in sorted(values):
        ctx.emit(v)


def _stage_job(cluster: Cluster, name: str = "tiny") -> MapReduceJob:
    cluster.dfs.write_file("in/a.txt", [f"{i % 3},{i}" for i in range(60)])
    return MapReduceJob(
        name=name,
        input_paths=["in"],
        output_path="out",
        mapper=_mapper,
        reducer=_reducer,
        num_reducers=3,
    )


def _run(cluster: Cluster, name: str = "tiny"):
    return cluster.run_job(_stage_job(cluster, name))


class TestFaultSpec:
    def test_matching_rules(self):
        spec = FaultSpec("fail", "map", 2, attempt=1, job="j")
        assert spec.matches("j", "map", 2, 1)
        assert not spec.matches("j", "map", 2, 0)  # wrong attempt
        assert not spec.matches("j", "reduce", 2, 1)  # wrong phase
        assert not spec.matches("j", "map", 3, 1)  # wrong index
        assert not spec.matches("other", "map", 2, 1)  # wrong job

    def test_wildcards(self):
        spec = FaultSpec("fail", "reduce", 0, attempt=None, job=None)
        for job in ("a", "b"):
            for attempt in range(4):
                assert spec.matches(job, "reduce", 0, attempt)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="explode", phase="map", index=0),
            dict(kind="fail", phase="split", index=0),
            dict(kind="fail", phase="map", index=-1),
            dict(kind="delay", phase="map", index=0, delay_s=0.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(JobError):
            FaultSpec(**kwargs)


class TestFaultPlan:
    def test_builders_and_matching(self):
        plan = (
            FaultPlan()
            .fail_task("map", 0)
            .delay_task("reduce", 1, delay_s=0.2)
            .corrupt_result("reduce", 2, attempt=1)
            .fail_dfs_write(0, job="j")
        )
        assert len(plan.specs) == 4
        assert not plan.is_empty
        assert [s.kind for s in plan.matching("j", "map", 0, 0)] == ["fail"]
        assert plan.matching("j", "map", 0, 1) == []
        assert [s.kind for s in plan.matching("x", "reduce", 1, 0)] == ["delay"]
        assert [s.kind for s in plan.matching("x", "reduce", 2, 1)] == ["corrupt"]
        assert [s.phase for s in plan.matching("j", "write", 0, 0)] == ["write"]
        assert plan.matching("other", "write", 0, 0) == []

    def test_json_round_trip(self, tmp_path):
        plan = (
            FaultPlan(seed=7)
            .fail_task("map", 1)
            .corrupt_result("reduce", 0)
            .oom_task("map", 2, attempt=0, job="j")
            .hang_task("reduce", 3, hang_s=1.25)
            .poison_record(0, 17, job="j")
        )
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        loaded = FaultPlan.load(path)
        assert loaded.seed == 7
        assert loaded.specs == plan.specs
        kinds = [spec.kind for spec in loaded.specs]
        assert kinds == ["fail", "corrupt", "oom", "hang", "poison-record"]
        poison = loaded.specs[-1]
        assert (poison.record, poison.attempt) == (17, None)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(JobError, match="cannot load fault plan"):
            FaultPlan.load(str(path))
        with pytest.raises(JobError, match="unknown field 'bogus_field'"):
            FaultPlan.from_dict({"specs": [{"bogus_field": 1}]})

    def test_storage_kinds_round_trip(self, tmp_path):
        plan = (
            FaultPlan()
            .corrupt_block("in/R1", block=2, replica=1, job="j")
            .lose_replica("out/part-00000", block=0, replica=0)
        )
        path = str(tmp_path / "storage.json")
        plan.dump(path)
        loaded = FaultPlan.load(path)
        assert loaded.specs == plan.specs
        corrupt, lose = loaded.specs
        assert (corrupt.kind, corrupt.path, corrupt.block, corrupt.replica) == (
            "corrupt-block", "in/R1", 2, 1
        )
        assert (lose.kind, lose.path, lose.block, lose.replica) == (
            "lose-replica", "out/part-00000", 0, 0
        )
        assert loaded.has_storage_faults
        assert [s.kind for s in loaded.storage_specs()] == [
            "corrupt-block", "lose-replica"
        ]

    def test_storage_specs_never_match_attempts(self):
        plan = FaultPlan().corrupt_block("in/R1", job="j")
        for phase in ("map", "reduce", "write"):
            assert plan.matching("j", phase, 0, 0) == []

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="corrupt-block", phase="map", index=0), "path"),
            (
                dict(kind="lose-replica", phase="write", index=0, path="f"),
                "phase",
            ),
            (
                dict(
                    kind="corrupt-block", phase="map", index=0,
                    path="f", block=-1,
                ),
                "block",
            ),
            (
                dict(
                    kind="lose-replica", phase="map", index=0,
                    path="f", replica=-2,
                ),
                "replica",
            ),
            (dict(kind="fail", phase="map", index=0, path="f"), "path"),
        ],
    )
    def test_invalid_storage_specs_rejected(self, kwargs, message):
        with pytest.raises(JobError, match=message):
            FaultSpec(**kwargs)

    def test_storage_spec_json_rejects_unknown_fields(self):
        with pytest.raises(JobError, match="unknown field"):
            FaultPlan.from_dict(
                {
                    "specs": [
                        {
                            "kind": "corrupt-block",
                            "phase": "map",
                            "index": 0,
                            "path": "f",
                            "datanode": "w0",
                        }
                    ]
                }
            )

    def test_random_plans_are_seed_deterministic(self):
        a = FaultPlan.random(3, num_map_tasks=5, num_reduce_tasks=4, faults=3)
        b = FaultPlan.random(3, num_map_tasks=5, num_reduce_tasks=4, faults=3)
        c = FaultPlan.random(4, num_map_tasks=5, num_reduce_tasks=4, faults=3)
        assert a.specs == b.specs
        assert a.seed == 3
        assert a.specs != c.specs  # overwhelmingly likely given the space


class TestRetryPolicy:
    def test_backoff_doubles(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=1.5)
        assert policy.backoff_before(0) == 0.0
        assert policy.backoff_before(1) == 1.5
        assert policy.backoff_before(2) == 3.0
        assert policy.backoff_before(3) == 6.0

    def test_active_flag(self):
        assert not RetryPolicy().active
        assert RetryPolicy(max_attempts=2).active
        assert RetryPolicy(speculate=True).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(speculation_threshold=0.0),
            dict(speculation_threshold=1.5),
            dict(speculation_factor=1.0),
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(JobError):
            RetryPolicy(**kwargs)


class TestRecoveryDispatch:
    """run_phase_with_recovery on a plain worker, no engine involved."""

    @staticmethod
    def _square(payload, tasks):
        return [index * index for index in tasks]

    def test_fast_path_returns_no_report(self):
        results, report = run_phase_with_recovery(
            SerialExecutor(),
            self._square,
            [range(0, 3), range(3, 4)],
            None,
            job="j",
            phase="map",
            policy=RetryPolicy(),
            plan=None,
        )
        assert results == [0, 1, 4, 9]
        assert report is None

    def test_retry_rounds_absorb_failures(self):
        plan = FaultPlan().fail_task("map", 1).fail_task("map", 1, attempt=1)
        results, report = run_phase_with_recovery(
            SerialExecutor(),
            self._square,
            [range(0, 3), range(3, 4)],
            None,
            job="j",
            phase="map",
            policy=RetryPolicy(max_attempts=3, backoff_base_s=2.0),
            plan=plan,
        )
        assert results == [0, 1, 4, 9]
        assert report.launched == 6  # 4 + 2 retries
        assert report.failures == 2
        assert report.extra_attempts == 2
        # attempt 1 backoff 2.0 + attempt 2 backoff 4.0
        assert report.backoff_s == pytest.approx(6.0)
        outcomes = [a.outcome for a in report.attempts[1]]
        assert outcomes == ["failed", "failed", "ok"]
        assert [a.outcome for a in report.attempts[0]] == ["ok"]

    def test_exhaustion_carries_attempt_log(self):
        plan = FaultPlan().fail_task("map", 2, attempt=None)
        with pytest.raises(TaskRetryExhausted) as err:
            run_phase_with_recovery(
                SerialExecutor(),
                self._square,
                [range(0, 3), range(3, 4)],
                None,
                job="j",
                phase="map",
                policy=RetryPolicy(max_attempts=3),
                plan=plan,
            )
        exc = err.value
        assert "map task 2 of job 'j'" in str(exc)
        assert "failed 3 attempt(s)" in str(exc)
        assert len(exc.attempts) == 3
        assert all(a.outcome == "failed" for a in exc.attempts)
        assert "injected failure" in exc.attempts[0].error

    def test_lowest_index_raises_when_several_exhaust(self):
        plan = (
            FaultPlan()
            .fail_task("map", 3, attempt=None)
            .fail_task("map", 1, attempt=None)
        )
        with pytest.raises(TaskRetryExhausted, match="map task 1 "):
            run_phase_with_recovery(
                SerialExecutor(),
                self._square,
                [range(0, 3), range(3, 4)],
                None,
                job="j",
                phase="map",
                policy=RetryPolicy(max_attempts=2),
                plan=plan,
            )

    def test_corruption_is_retried(self):
        plan = FaultPlan().corrupt_result("map", 0)
        results, report = run_phase_with_recovery(
            SerialExecutor(),
            self._square,
            [range(0, 2)],
            None,
            job="j",
            phase="map",
            policy=RetryPolicy(max_attempts=2),
            plan=plan,
        )
        assert results == [0, 1]
        assert [a.outcome for a in report.attempts[0]] == ["corrupt", "ok"]
        assert "checksum" in report.attempts[0][0].error

    def test_genuine_worker_error_is_retried_too(self):
        """Recovery treats real failures like injected ones (same path)."""
        calls = []

        def flaky(payload, tasks):
            calls.extend(tasks)
            if 1 in tasks and calls.count(1) == 1:
                raise ValueError("transient")
            return list(tasks)

        results, report = run_phase_with_recovery(
            SerialExecutor(),
            flaky,
            [range(0, 1), range(1, 2), range(2, 3)],
            None,
            job="j",
            phase="map",
            policy=RetryPolicy(max_attempts=2),
            plan=None,
        )
        assert results == [0, 1, 2]
        assert report.failures == 1
        assert "transient" in report.attempts[1][0].error

    def test_empty_phase(self):
        results, report = run_phase_with_recovery(
            SerialExecutor(),
            self._square,
            [],
            None,
            job="j",
            phase="map",
            policy=RetryPolicy(max_attempts=2),
            plan=FaultPlan().fail_task("map", 0),
        )
        assert results == []
        assert report.attempts == []


class TestEngineIntegration:
    def test_injected_fault_without_retry_kills_job(self):
        cluster = Cluster(
            split_records=20, fault_plan=FaultPlan().fail_task("map", 0)
        )
        with pytest.raises(TaskRetryExhausted, match="injected failure"):
            _run(cluster)

    def test_write_fault_absorbed_and_charged(self):
        clean = Cluster(split_records=20)
        base = _run(clean)
        cluster = Cluster(
            split_records=20,
            fault_plan=FaultPlan().fail_dfs_write(1),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=1.0),
        )
        result = _run(cluster)
        assert [cluster.dfs.read_file(p) for p in cluster.dfs.list_dir("out")] == [
            clean.dfs.read_file(p) for p in clean.dfs.list_dir("out")
        ]
        # The injected commit failure happened before any byte landed.
        eng = result.counters.engine
        assert eng("dfs_bytes_written") == base.counters.engine("dfs_bytes_written")
        assert eng("task_failures") == 1
        assert result.cost.fault_overhead_s == pytest.approx(
            cluster.cost_model.task_startup_s + 1.0
        )
        assert result.simulated_seconds == base.simulated_seconds

    def test_write_fault_exhaustion(self):
        cluster = Cluster(
            split_records=20,
            fault_plan=FaultPlan().fail_dfs_write(0, attempt=None),
            retry=RetryPolicy(max_attempts=2),
        )
        with pytest.raises(TaskRetryExhausted, match="part-00000"):
            _run(cluster)

    def test_job_scoped_faults_leave_other_jobs_alone(self):
        plan = FaultPlan().fail_task("map", 0, attempt=None, job="other-job")
        cluster = Cluster(split_records=20, fault_plan=plan)
        result = _run(cluster)  # job name "tiny" never matches
        assert result.output_records > 0

    def test_attempt_histories_on_task_stats(self):
        cluster = Cluster(
            split_records=20,
            fault_plan=FaultPlan().fail_task("map", 1).corrupt_result("reduce", 0),
            retry=RetryPolicy(max_attempts=2),
        )
        result = _run(cluster)
        assert [a.outcome for a in result.map_tasks[1].attempts] == ["failed", "ok"]
        assert [a.outcome for a in result.map_tasks[0].attempts] == ["ok"]
        assert [a.outcome for a in result.reduce_tasks[0].attempts] == [
            "corrupt",
            "ok",
        ]

    def test_fast_path_emits_no_recovery_counters(self):
        result = _run(Cluster(split_records=20))
        counters = result.counters.as_dict()["engine"]
        assert not any(
            k.startswith(("task_", "speculative_")) for k in counters
        )
        assert result.cost.fault_overhead_s == 0.0
        assert result.map_tasks[0].attempts == ()

    def test_active_policy_without_faults_counts_clean_attempts(self):
        cluster = Cluster(split_records=20, retry=RetryPolicy(max_attempts=3))
        result = _run(cluster)
        eng = result.counters.engine
        assert eng("task_attempts") == len(result.map_tasks) + len(
            result.reduce_tasks
        )
        assert eng("task_failures") == 0
        assert result.cost.fault_overhead_s == 0.0

    def test_delay_fault_stretches_the_attempt_not_the_job(self):
        """A delay is simulated: the delayed attempt lasts its priced
        seconds plus ``delay_s``, while the job's canonical simulated
        seconds stay the clean run's."""
        clean = Cluster(split_records=20)
        base = _run(clean)
        cluster = Cluster(
            split_records=20,
            fault_plan=FaultPlan().delay_task("map", 0, delay_s=0.15),
            retry=RetryPolicy(max_attempts=2),
        )
        result = _run(cluster)
        assert result.simulated_seconds == base.simulated_seconds
        model = cluster.cost_model
        delayed, plain = result.map_tasks[0], result.map_tasks[1]
        assert [a.duration_s for a in delayed.attempts] == [
            pytest.approx(model.map_task_seconds(delayed) + 0.15)
        ]
        assert [a.duration_s for a in plain.attempts] == [
            pytest.approx(model.map_task_seconds(plain))
        ]
        assert result.counters.engine("task_failures") == 0


@pytest.mark.parametrize("algorithm", ["cascade", "c-rep"])
def test_clean_attempts_are_priced_like_their_tasks(algorithm):
    """A clean recovery attempt lasts exactly its task's priced seconds:
    map tasks, reduce tasks writing text lines (Cascade) and column
    bundles (C-Rep) alike — the write included."""
    from repro.experiments.common import derive_grid
    from repro.experiments.workloads import synthetic_chain
    from repro.joins.registry import make_algorithm
    from repro.query.predicates import Overlap
    from repro.query.query import Query

    workload = synthetic_chain(150, 2_000.0, names=("R1", "R2", "R3"), seed=3)
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    cluster = Cluster(retry=RetryPolicy(max_attempts=2))
    result = make_algorithm(algorithm, query=query, d_max=workload.d_max).run(
        query, workload.datasets, derive_grid(workload.datasets), cluster
    )
    model = cluster.cost_model
    jobs = result.workflow.job_results
    assert jobs
    for job in jobs:
        for price, tasks in (
            (model.map_task_seconds, job.map_tasks),
            (model.reduce_task_seconds, job.reduce_tasks),
        ):
            for task in tasks:
                assert [a.duration_s for a in task.attempts] == [
                    pytest.approx(price(task))
                ]


class TestCostPlumbing:
    def test_overhead_excluded_from_total(self):
        cost = JobCostBreakdown(
            startup_s=8.0, map_s=1.0, shuffle_s=2.0, reduce_s=3.0,
            fault_overhead_s=5.0,
        )
        assert cost.total_s == 14.0
        assert cost.total_with_faults_s == 19.0
        assert cost.as_dict()["fault_overhead_s"] == 5.0

    def test_fault_overhead_seconds(self):
        model = CostModel()
        assert model.fault_overhead_seconds(3, 7.0) == pytest.approx(
            3 * model.task_startup_s + 7.0
        )

    def test_injected_fault_is_distinguishable(self):
        assert issubclass(InjectedFault, MapReduceError)
        assert issubclass(TaskRetryExhausted, JobError)
