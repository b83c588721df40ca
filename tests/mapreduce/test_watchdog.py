"""Hung-task watchdog: simulated timeout, reclaim, re-dispatch.

An injected ``hang`` fault wedges one attempt for simulated seconds; the
watchdog (``RetryPolicy.task_timeout_s``) reclaims it at the bound and
relaunches it through the ordinary retry path — the job finishes
byte-identical, with the reclaim visible only as ``task_timeouts``
telemetry.  Nothing waits on the host clock, and the serial executor
reclaims exactly as the parallel ones do.
"""

from __future__ import annotations

import pytest

from repro.errors import TaskRetryExhausted
from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.executor import make_executor
from repro.mapreduce.faults import (
    FaultPlan,
    RetryPolicy,
    run_phase_with_recovery,
)
from repro.mapreduce.job import MapReduceJob, hash_partitioner
from repro.obs.ledger import MemorySink, RunLedger

HANG_S = 30.0
TIMEOUT_S = 2.0

WATCHDOG = RetryPolicy(max_attempts=2, task_timeout_s=TIMEOUT_S)

#: (executor, workers): serial, thread x 2 and process x 2
EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]


def _job() -> MapReduceJob:
    def mapper(key, line, ctx):
        for word in line.split():
            ctx.emit(word, "1")

    def reducer(word, counts, ctx):
        ctx.emit(f"{word}\t{len(counts)}")

    return MapReduceJob(
        name="wd",
        input_paths=["in"],
        output_path="out",
        mapper=mapper,
        reducer=reducer,
        num_reducers=2,
        partitioner=hash_partitioner,
    )


def _run(executor, *, plan=None, retry=None, ledger=None):
    cluster = Cluster(
        dfs=InMemoryDFS(),
        executor=executor,
        num_workers=2,
        fault_plan=plan,
        retry=retry or RetryPolicy(),
        **({"ledger": ledger} if ledger is not None else {}),
    )
    cluster.dfs.write_file("in", [f"w{i % 7} w{i % 3}" for i in range(40)])
    result = cluster.run_job(_job())
    output = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.list_dir("out")
    }
    return result, output


def _identity(payload, tasks):
    return [index * 10 for index in tasks]


def _dispatch(executor, plan, policy):
    return run_phase_with_recovery(
        executor,
        _identity,
        [range(0, 2), range(2, 4)],
        None,
        job="j",
        phase="map",
        policy=policy,
        plan=plan,
        price=lambda value: 0.05 if value is None else 1.0,
    )


class TestWatchdogRecovery:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_hung_task_is_reclaimed(self, executor):
        ref, ref_output = _run(executor)
        plan = FaultPlan().hang_task("map", 0, hang_s=HANG_S)
        result, output = _run(executor, plan=plan, retry=WATCHDOG)
        eng = result.counters.engine
        assert eng(C.TASK_TIMEOUTS) == 1
        assert eng(C.TASK_FAILURES) == 1
        # 1 map + 2 reduce tasks, plus the reclaimed attempt's retry.
        assert eng(C.TASK_ATTEMPTS) == 4
        # Byte-identical output and canonical time despite the reclaim.
        assert output == ref_output
        assert result.cost.total_s == ref.cost.total_s
        # The waste: one extra launch and the first retry's backoff.
        model = Cluster().cost_model
        assert result.cost.fault_overhead_s == pytest.approx(
            model.task_startup_s + WATCHDOG.backoff_before(1)
        )

    def test_attempt_log_records_timeout_then_ok(self):
        plan = FaultPlan().hang_task("map", 0, hang_s=HANG_S)
        runs = [
            _dispatch(make_executor(name, n), plan, WATCHDOG)
            for name, n in EXECUTORS
        ]
        assert runs[0] == runs[1] == runs[2]
        results, report = runs[0]
        assert results == [0, 10, 20, 30]
        assert report.timeouts == 1
        assert report.failures == 1
        outcomes = [a.outcome for a in report.attempts[0]]
        assert outcomes == ["timeout", "ok"]
        timed_out = report.attempts[0][0]
        assert "task_timeout_s" in timed_out.error
        # Reclaimed at the bound, not after the hang.
        assert timed_out.duration_s == TIMEOUT_S

    def test_hang_under_the_bound_is_an_ordinary_failure(self):
        """A hang shorter than the timeout dies on its own first: a
        plain failure lasting the hang, not a reclaim."""
        plan = FaultPlan().hang_task("map", 0, hang_s=1.5)
        results, report = _dispatch(make_executor("serial"), plan, WATCHDOG)
        assert results == [0, 10, 20, 30]
        assert report.timeouts == 0
        first = report.attempts[0][0]
        assert (first.outcome, first.duration_s) == ("failed", 1.5)
        assert "injected hang" in first.error

    def test_no_watchdog_hang_is_an_ordinary_failure(self):
        plan = FaultPlan().hang_task("map", 0, hang_s=HANG_S)
        __, report = _dispatch(
            make_executor("serial"), plan, RetryPolicy(max_attempts=2)
        )
        assert report.timeouts == 0
        first = report.attempts[0][0]
        assert (first.outcome, first.duration_s) == ("failed", HANG_S)

    def test_delay_is_left_to_speculation(self):
        """A slow attempt that keeps making progress is never reclaimed,
        however far past the bound it runs."""
        plan = FaultPlan().delay_task("map", 0, delay_s=HANG_S)
        __, report = _dispatch(make_executor("serial"), plan, WATCHDOG)
        assert report.timeouts == 0
        assert report.failures == 0
        assert report.attempts[0][0].duration_s == 1.0 + HANG_S

    def test_every_attempt_hung_exhausts(self):
        plan = FaultPlan().hang_task("reduce", 1, hang_s=HANG_S, attempt=None)
        with pytest.raises(TaskRetryExhausted) as err:
            _run("serial", plan=plan, retry=WATCHDOG)
        assert [a.outcome for a in err.value.attempts] == ["timeout", "timeout"]


def test_watchdog_ledger_is_executor_independent():
    """Counters and ledger attempt events — simulated ``duration_s``
    included — agree across executors and five repeats."""
    plan = (
        FaultPlan()
        .hang_task("map", 0, hang_s=HANG_S)
        .hang_task("reduce", 1, hang_s=HANG_S)
    )
    views = []
    for executor, __ in EXECUTORS + [("process", 2)] * 4:
        sink = MemorySink()
        result, __ = _run(executor, plan=plan, retry=WATCHDOG, ledger=RunLedger(sink))
        events = [
            {k: v for k, v in event.items() if k != "t_s"}
            for event in sink.events
            if event["type"] in ("task_attempt", "task_retry")
        ]
        views.append((result.counters.as_dict()["engine"], events))
    assert all(view == views[0] for view in views)
    assert views[0][0][C.TASK_TIMEOUTS] == 2
