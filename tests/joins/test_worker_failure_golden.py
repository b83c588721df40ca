"""Golden equivalence under absorbed worker loss (failure-domain tentpole).

The acceptance contract: for any FaultPlan whose worker deaths leave at
least one live worker and whose induced retries stay within
``max_attempts``, every algorithm must produce part files, counters
(modulo recovery telemetry) and canonical simulated seconds
byte-identical to the fault-free run — on all three executors.

The chaos here is stronger than task-level faults: a reduce-phase
worker death invalidates the map outputs that worker already
*committed*, forcing Hadoop-style upstream map re-execution, and a
map-phase death abandons in-flight attempts mid-round.  Both are
charged to the non-canonical ``recovery_overhead_s`` term only.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.joins.registry import ALGORITHMS, make_algorithm
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.obs.ledger import MemorySink, RunLedger
from repro.query.predicates import Overlap
from repro.query.query import Query

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
SEED = 11

OUTPUT_DIRS = {
    "cascade": "two-way-cascade/output",
    "all-rep": "all-replicate/output",
    "c-rep": "controlled-replicate/output",
    "c-rep-l": "controlled-replicate-limit/output",
}

EXECUTORS = [("serial", 4), ("thread", 4), ("process", 4)]

#: Worker chaos in every job of every chain (job=None wildcards):
#: one plain task failure, a map-phase worker death (abandons the
#: in-flight attempts of w1), and a silent reduce-phase death of w2
#: that invalidates the map outputs w2 committed — the scenario the
#: acceptance criteria single out.
CHAOS = (
    FaultPlan()
    .fail_task("map", 0, attempt=0, job=None)
    .fail_worker("w1", phase="map", index=1, attempt=0, job=None)
    .fail_worker("w2", phase="reduce", index=0, attempt=0, silent=True, job=None)
)

RETRY = RetryPolicy(max_attempts=3)

_RECOVERY_PREFIXES = (
    "task_",
    "speculative_",
    "worker",
    "map_output_lost",
    "tasks_reexecuted",
)


@pytest.fixture(scope="module")
def workload():
    return synthetic_chain(
        N_PER_RELATION, SPACE_SIDE, names=("R1", "R2", "R3"), seed=SEED
    )


def _strip_telemetry(counters_dict):
    return {
        group: {
            name: value
            for name, value in names.items()
            if not name.startswith(_RECOVERY_PREFIXES)
        }
        for group, names in counters_dict.items()
    }


def _run(workload, algorithm_name, *, plan=None, retry=None,
         executor="serial", workers=1, ledger=None):
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    kwargs = {}
    if retry is not None:
        kwargs["retry"] = retry
    if ledger is not None:
        kwargs["ledger"] = ledger
    cluster = Cluster(
        executor=executor, num_workers=workers, fault_plan=plan, **kwargs
    )
    algorithm = make_algorithm(algorithm_name, query=query, d_max=workload.d_max)
    result = algorithm.run(query, workload.datasets, grid, cluster)
    snapshot = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.resolve(OUTPUT_DIRS[algorithm_name])
    }
    return snapshot, result


@pytest.fixture(scope="module")
def golden(workload):
    """One fault-free serial run per algorithm (same worker count, so
    task->worker assignment matches; faults are the only difference)."""
    return {
        name: _run(workload, name, executor="serial", workers=4)
        for name in ALGORITHMS
    }


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_absorbed_worker_loss_changes_nothing(
    workload, golden, algorithm_name, executor, workers
):
    ref_snapshot, ref = golden[algorithm_name]
    snapshot, result = _run(
        workload,
        algorithm_name,
        plan=CHAOS,
        retry=RETRY,
        executor=executor,
        workers=workers,
    )
    # Part files: same names, byte-identical content.
    assert snapshot == ref_snapshot
    assert result.tuples == ref.tuples
    # Canonical simulated time unmoved: worker recovery is charged to
    # recovery_overhead_s, never to the modelled makespan.
    assert result.stats.simulated_seconds == ref.stats.simulated_seconds
    assert _strip_telemetry(result.workflow.counters.as_dict()) == _strip_telemetry(
        ref.workflow.counters.as_dict()
    )
    # ... and the chaos really happened, identically on every executor:
    # two workers died, and the silent reduce-phase death invalidated
    # committed map outputs that were then re-executed.
    eng = result.workflow.counters.engine
    assert eng("worker_failures") >= 2
    assert eng("map_output_lost") >= 1
    assert eng("tasks_reexecuted") >= eng("map_output_lost")
    overhead = sum(
        r.cost.recovery_overhead_s for r in result.workflow.job_results
    )
    assert overhead > 0.0


def test_worker_telemetry_is_executor_independent(workload):
    """The full worker counter set — not just output — is identical on
    serial, thread and process back-ends (deterministic assignment)."""
    per_executor = []
    for executor, workers in EXECUTORS:
        _, result = _run(
            workload, "c-rep", plan=CHAOS, retry=RETRY,
            executor=executor, workers=workers,
        )
        eng = result.workflow.counters.as_dict()["engine"]
        per_executor.append(
            {k: v for k, v in eng.items() if k.startswith(_RECOVERY_PREFIXES)}
        )
    assert per_executor[0] == per_executor[1] == per_executor[2]
    assert per_executor[0]  # non-empty: the chaos engaged


def test_seeded_plan_replays_identical_ledger_sequence(workload):
    """Running the same chaotic workflow twice produces the identical
    ledger event sequence (modulo the wall-clock ``t_s`` stamps;
    attempt ``duration_s`` is simulated and must match too)."""

    def events():
        sink = MemorySink()
        _run(
            workload, "c-rep", plan=CHAOS, retry=RETRY,
            executor="serial", workers=4, ledger=RunLedger(sink),
        )
        stripped = [dict(e) for e in sink.events]
        for event in stripped:
            event.pop("t_s", None)
        return stripped

    first = events()
    second = events()
    assert first == second
    kinds = {e["type"] for e in first}
    assert "worker_lost" in kinds
    assert "output_invalidated" in kinds
