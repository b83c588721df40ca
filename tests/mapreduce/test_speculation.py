"""Speculative execution: straggler backups, earlier finisher wins.

Stragglers are manufactured with injected *delay* faults, which stretch
an attempt on the simulated clock only.  Speculation decides on
simulated seconds alone, so every executor — serial included — runs the
same attempts, and the tests below pin exact counts on all of them.
"""

from __future__ import annotations

import pytest

from repro.errors import TaskRetryExhausted
from repro.mapreduce.engine import Cluster
from repro.mapreduce.executor import make_executor
from repro.mapreduce.faults import (
    FaultPlan,
    RetryPolicy,
    run_phase_with_recovery,
)
from repro.mapreduce.job import MapReduceJob
from repro.obs.ledger import MemorySink, NullLedger, RunLedger

#: Back up a task once half the phase is done and it has run 1.5x the
#: median finished duration.
POLICY = RetryPolicy(
    max_attempts=2,
    speculate=True,
    speculation_threshold=0.5,
    speculation_factor=1.5,
)

#: (executor, workers): serial, thread x 2 and process x 2
EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]


def _identity(payload, tasks):
    return [index * 10 for index in tasks]


def _price(value):
    """A clean attempt costs 1 simulated second, a failed one 0.05."""
    return 0.05 if value is None else 1.0


def _dispatch(executor, plan, policy, slots=4):
    return run_phase_with_recovery(
        executor,
        _identity,
        [range(0, 2), range(2, 4)],
        None,
        job="j",
        phase="map",
        policy=policy,
        plan=plan,
        price=_price,
        slots=slots,
    )


def _dispatch_everywhere(plan, policy, slots=4):
    """Run the phase on every executor; they must agree exactly."""
    runs = [
        _dispatch(make_executor(name, n), plan, policy, slots)
        for name, n in EXECUTORS
    ]
    for run in runs[1:]:
        assert run == runs[0]
    return runs[0]


class TestSpeculativeDispatch:
    def test_backup_beats_straggler(self):
        # Task 0 runs 1 + 5 s; the others finish at 1 s, so the rule
        # fires at 1.5 s and the backup ends at 2.5 s.
        plan = FaultPlan().delay_task("map", 0, delay_s=5.0)
        results, report = _dispatch_everywhere(plan, POLICY)
        assert results == [0, 10, 20, 30]
        assert report.speculative_launched == 1
        assert report.speculative_wins == 1
        assert report.launched == 5
        assert report.failures == 0
        assert [(a.attempt, a.outcome, a.speculative) for a in report.attempts[0]] == [
            (1, "ok", True),
            (0, "lost", False),
        ]
        assert [a.duration_s for a in report.attempts[0]] == [1.0, 6.0]
        # Other tasks ran exactly once, non-speculatively.
        for i in (1, 2, 3):
            assert [(a.outcome, a.speculative) for a in report.attempts[i]] == [
                ("ok", False)
            ]

    def test_backup_rescues_failed_straggler(self):
        """The straggler's only allowed attempt would fail at 5.05 s,
        but the backup finishes at 2.5 s: the original is killed as the
        loser, never charged, and the task does not exhaust."""
        plan = (
            FaultPlan()
            .delay_task("map", 0, delay_s=5.0)
            .fail_task("map", 0, attempt=0)
        )
        policy = RetryPolicy(
            max_attempts=1, speculate=True, speculation_threshold=0.5
        )
        results, report = _dispatch_everywhere(plan, policy)
        assert results == [0, 10, 20, 30]
        assert report.speculative_launched == 1
        assert report.speculative_wins == 1
        assert report.failures == 0
        assert [a.outcome for a in report.attempts[0]] == ["ok", "lost"]

    def test_exhaustion_waits_for_in_flight_sibling(self):
        """When every attempt of a task fails — original and backup —
        the first failure defers to the racing sibling, and the
        exhaustion carries both attempts in its log."""
        plan = (
            FaultPlan()
            .delay_task("map", 0, delay_s=3.0, attempt=None)
            .fail_task("map", 0, attempt=None)
        )
        logs = []
        for name, workers in EXECUTORS:
            with pytest.raises(TaskRetryExhausted) as err:
                _dispatch(make_executor(name, workers), plan, POLICY)
            logs.append(err.value.attempts)
        assert logs[0] == logs[1] == logs[2]
        assert [(a.outcome, a.speculative) for a in logs[0]] == [
            ("failed", False),
            ("failed", True),
        ]

    def test_serial_executor_speculates_like_the_others(self):
        """A serial run cannot preempt anything, yet it launches and
        wins the same backups: scheduling never reads the wall clock."""
        plan = FaultPlan().delay_task("map", 0, delay_s=5.0).fail_task("map", 1)
        serial = _dispatch(make_executor("serial"), plan, POLICY)
        assert serial == _dispatch(make_executor("thread", 2), plan, POLICY)
        results, report = serial
        assert results == [0, 10, 20, 30]
        assert report.speculative_launched == 1
        assert report.speculative_wins == 1
        assert report.failures == 1  # the fail spec still absorbed

    def test_no_stragglers_no_backups(self):
        results, report = _dispatch_everywhere(None, POLICY)
        assert results == [0, 10, 20, 30]
        assert report.speculative_launched == 0
        assert report.speculative_wins == 0
        assert report.failures == 0

    def test_original_wins_a_tie(self):
        # The backup would start at 1.5 s and, delayed itself, end at
        # 1.5 + 1 + 2.5 = 5.0 s — exactly when the original does.
        plan = (
            FaultPlan()
            .delay_task("map", 0, delay_s=4.0)
            .delay_task("map", 0, delay_s=2.5, attempt=1)
        )
        results, report = _dispatch_everywhere(plan, POLICY)
        assert results == [0, 10, 20, 30]
        assert report.speculative_launched == 1
        assert report.speculative_wins == 0
        assert [(a.outcome, a.speculative) for a in report.attempts[0]] == [
            ("ok", False),
            ("lost", True),
        ]

    def test_backup_waits_for_a_free_slot(self):
        """On a two-slot cluster, tasks 2 and 3 straggle on [1, 7) and
        [1, 4) and the rule fires for both at 2.5 s with no slot free.
        Task 2's backup takes the slot task 3 frees at 4 s; task 3 ends
        before another frees and gets none.  Started at 4 s, the backup
        (1 + 2.5 s) ends at 7.5 s and loses to the original."""
        plan = (
            FaultPlan()
            .delay_task("map", 2, delay_s=5.0)
            .delay_task("map", 3, delay_s=2.0)
            .delay_task("map", 2, delay_s=2.5, attempt=1)
        )
        results, report = _dispatch_everywhere(plan, POLICY, slots=2)
        assert results == [0, 10, 20, 30]
        assert report.speculative_launched == 1
        assert report.speculative_wins == 0
        assert [(a.outcome, a.speculative) for a in report.attempts[2]] == [
            ("ok", False),
            ("lost", True),
        ]
        assert [a.outcome for a in report.attempts[3]] == ["ok"]


# ----------------------------------------------------------------------
# Engine level: a whole job under speculation is byte-identical, and
# its recovery telemetry is the same on every executor, every time
# ----------------------------------------------------------------------
def _mapper(key, record, ctx):
    ctx.emit(int(record.split(",")[0]), record)


def _reducer(key, values, ctx):
    for v in sorted(values):
        ctx.emit(v)


def _stage_and_run(cluster: Cluster):
    cluster.dfs.write_file("in/a.txt", [f"{i % 4},{i}" for i in range(120)])
    return cluster.run_job(
        MapReduceJob(
            name="spec",
            input_paths=["in"],
            output_path="out",
            mapper=_mapper,
            reducer=_reducer,
            num_reducers=4,
        )
    )


def _speculative_run(executor="serial", workers=None, ledger=None):
    cluster = Cluster(
        split_records=20,
        executor=executor,
        num_workers=workers,
        fault_plan=FaultPlan().delay_task("map", 0, delay_s=0.6),
        retry=POLICY,
        ledger=ledger or NullLedger(),
    )
    return cluster, _stage_and_run(cluster)


def _recovery_view(result, sink):
    """Recovery counters plus the attempt-level ledger events."""
    eng = result.counters.as_dict()["engine"]
    counters = {
        k: v for k, v in eng.items() if k.startswith(("task_", "speculative_"))
    }
    attempts = [
        {k: v for k, v in event.items() if k != "t_s"}
        for event in sink.events
        if event["type"] in ("task_attempt", "task_retry", "speculation_launch")
    ]
    return counters, result.cost.fault_overhead_s, attempts


def test_speculative_job_output_is_byte_identical():
    clean = Cluster(split_records=20)
    base = _stage_and_run(clean)
    for executor, workers in EXECUTORS:
        cluster, result = _speculative_run(executor, workers)
        assert [cluster.dfs.read_file(p) for p in cluster.dfs.resolve("out")] == [
            clean.dfs.read_file(p) for p in clean.dfs.resolve("out")
        ]
        assert result.simulated_seconds == base.simulated_seconds
        # Counters: identical modulo the recovery telemetry (the loser
        # attempt's counter shard is discarded wholesale).
        chaotic = {
            k: v
            for k, v in result.counters.as_dict()["engine"].items()
            if not k.startswith(("task_", "speculative_"))
        }
        assert chaotic == base.counters.as_dict()["engine"]


@pytest.mark.parametrize("executor,workers", EXECUTORS)
def test_speculation_telemetry_is_exact(executor, workers):
    __, result = _speculative_run(executor, workers)
    eng = result.counters.engine
    # 6 map + 4 reduce tasks, plus map task 0's backup.
    assert eng("task_attempts") == 11
    assert eng("speculative_launches") == 1
    assert eng("speculative_wins") == 1
    assert eng("task_failures") == 0
    assert result.cost.fault_overhead_s == pytest.approx(
        Cluster().cost_model.task_startup_s
    )
    attempts = result.map_tasks[0].attempts
    assert [(a.outcome, a.speculative) for a in attempts] == [
        ("ok", True),
        ("lost", False),
    ]


def test_speculation_replays_identically():
    """Counters, fault overhead and ledger attempt events (simulated
    ``duration_s`` included) agree across executors and five repeats."""
    views = []
    for executor, workers in EXECUTORS + [("process", 2)] * 4:
        sink = MemorySink()
        __, result = _speculative_run(executor, workers, RunLedger(sink))
        views.append(_recovery_view(result, sink))
    assert all(view == views[0] for view in views)
    kinds = [event["type"] for event in views[0][2]]
    assert kinds.count("speculation_launch") == 1
