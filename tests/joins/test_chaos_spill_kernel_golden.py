"""Golden equivalence of chaos x spilling x the numpy kernel.

Each robustness axis is individually golden-tested: absorbed task
faults (test_recovery_golden), worker loss (test_worker_failure_golden),
memory-budget spills crossed with the kernel plane
(test_spill_kernel_golden).  This suite pins the *triple* interaction:
Controlled-Replicate under a spill-forcing memory budget, on the numpy
kernel, with a fault plan that kills a task AND a whole worker — on
thread and process executors — must stay byte-identical to the clean
budgeted serial reference.  Spill telemetry in particular must not
move: spill points are a function of estimated record bytes, and
re-executed attempts replace (never add to) their task's counters.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.joins.registry import make_algorithm
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.query.predicates import Overlap
from repro.query.query import Query

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
SEED = 11
#: forces several spill runs per map task at this workload size
BUDGET = 2_048
OUTPUT_DIR = "controlled-replicate/output"

EXECUTORS = [("thread", 4), ("process", 4)]

#: A task failure plus a worker death whose committed map outputs must
#: be invalidated and re-executed (the reduce-phase death fires after
#: the map phase committed, in every job of the chain).
CHAOS = (
    FaultPlan()
    .fail_task("map", 0, attempt=0, job=None)
    .fail_worker("w1", phase="reduce", index=0, attempt=0, job=None)
)

#: Telemetry the chaotic run is allowed (required, even) to add on top
#: of the clean reference.  Spill counters are deliberately NOT here:
#: they must match the reference exactly.
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


def _spill_counters(result):
    eng = result.workflow.counters.as_dict()["engine"]
    return {k: v for k, v in eng.items() if k.startswith("spill")}


def _run(workload, *, plan=None, retry=None, executor="serial", workers=1):
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    kwargs = {}
    if retry is not None:
        kwargs["retry"] = retry
    cluster = Cluster(
        executor=executor,
        num_workers=workers,
        kernel="numpy",
        memory_budget=BUDGET,
        fault_plan=plan,
        **kwargs,
    )
    algorithm = make_algorithm("c-rep", query=query, d_max=workload.d_max)
    result = algorithm.run(query, workload.datasets, grid, cluster)
    snapshot = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.resolve(OUTPUT_DIR)
    }
    return snapshot, result


@pytest.fixture(scope="module")
def golden(workload):
    """Clean budgeted numpy serial run: the reference the chaos legs
    must reproduce byte for byte."""
    return _run(workload)


@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_chaos_spilled_numpy_leg_matches_clean_reference(
    workload, golden, executor, workers
):
    ref_snapshot, ref = golden
    snapshot, result = _run(
        workload,
        plan=CHAOS,
        retry=RetryPolicy(max_attempts=3),
        executor=executor,
        workers=workers,
    )
    # Part files and join output: byte-identical.
    assert snapshot == ref_snapshot
    assert result.tuples == ref.tuples
    # Canonical simulated time unmoved: retries and re-executions are
    # charged to the non-canonical overhead terms.
    assert result.stats.simulated_seconds == ref.stats.simulated_seconds
    # Spill telemetry identical: worker loss must not shift spill points.
    assert _spill_counters(result) == _spill_counters(ref)
    assert _spill_counters(ref).get("spilled_records", 0) > 0
    # All other counters identical modulo the recovery telemetry.
    assert _strip_telemetry(result.workflow.counters.as_dict()) == _strip_telemetry(
        ref.workflow.counters.as_dict()
    )
    # ... and the chaos really happened: the worker died and its
    # committed map outputs were re-executed.
    eng = result.workflow.counters.engine
    assert eng("worker_failures") >= 1
    assert eng("map_output_lost") >= 1
    assert eng("tasks_reexecuted") >= 1
    assert eng("task_failures") >= 1


def test_reference_spills_but_carries_no_recovery_telemetry(golden):
    _, ref = golden
    assert ref.tuples
    assert _spill_counters(ref).get("spilled_records", 0) > 0
    eng_counters = ref.workflow.counters.as_dict()["engine"]
    assert not any(
        k.startswith(_RECOVERY_PREFIXES) for k in eng_counters
    )
