"""Golden equivalence under memory pressure (bounded-memory tentpole).

The acceptance contract: a ``memory_budget`` small enough to force
map-side spills in every algorithm changes *nothing canonical* — part
files byte-identical to the unbounded run, identical counters modulo
the new ``spill*`` telemetry, identical canonical simulated seconds —
on all three executors.  A task's runs are read back where they were
emitted, so the reduce side's stable sort sees the unbounded bucket,
duplicate keys included.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.joins.registry import ALGORITHMS, make_algorithm
from repro.kernels import resolve_kernel
from repro.mapreduce.counters import C
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import SpillingMapContext
from repro.query.predicates import Overlap
from repro.query.query import Query

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
SEED = 11

#: Small enough that every algorithm's shuffle-heavy jobs spill several
#: runs per map task; large enough the suite stays fast.
BUDGET = 2_048

OUTPUT_DIRS = {
    "cascade": "two-way-cascade/output",
    "all-rep": "all-replicate/output",
    "c-rep": "controlled-replicate/output",
    "c-rep-l": "controlled-replicate-limit/output",
}

EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]


@pytest.fixture(scope="module")
def workload():
    return synthetic_chain(
        N_PER_RELATION, SPACE_SIDE, names=("R1", "R2", "R3"), seed=SEED
    )


def _strip_telemetry(counters_dict):
    """Counters minus the telemetry a budgeted run is allowed (required,
    even) to add."""
    return {
        group: {
            name: value
            for name, value in names.items()
            if not name.startswith(("task_", "speculative_", "spill", "skipped_"))
        }
        for group, names in counters_dict.items()
    }


def _run(workload, algorithm_name, *, budget=None, executor="serial", workers=1):
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    cluster = Cluster(
        executor=executor, num_workers=workers, memory_budget=budget
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
    """One unbounded serial run per algorithm."""
    return {name: _run(workload, name) for name in ALGORITHMS}


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_spilling_changes_nothing(
    workload, golden, algorithm_name, executor, workers
):
    ref_snapshot, ref = golden[algorithm_name]
    snapshot, result = _run(
        workload,
        algorithm_name,
        budget=BUDGET,
        executor=executor,
        workers=workers,
    )
    # The pressure was real: the budget forced spills.
    eng = result.workflow.counters.engine
    assert eng("spilled_records") > 0
    assert eng("spill_files") > 0
    # Spilled runs keep each row's (map task, row) identity: no physical
    # range fell back to running its tasks one at a time.
    assert C.RANGE_RERUNS not in result.workflow.counters.as_dict()[C.GROUP_ENGINE]
    # Part files: same names, byte-identical content.
    assert snapshot == ref_snapshot
    assert result.tuples == ref.tuples
    # Canonical simulated seconds unchanged: spill I/O is charged to the
    # non-canonical spill_overhead_s bucket only.
    assert result.stats.simulated_seconds == ref.stats.simulated_seconds
    assert _strip_telemetry(result.workflow.counters.as_dict()) == _strip_telemetry(
        ref.workflow.counters.as_dict()
    )
    overhead = sum(r.cost.spill_overhead_s for r in result.workflow.job_results)
    assert overhead > 0.0


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_golden_run_is_unspilled(golden, algorithm_name):
    """Guard the guard: the unbounded reference must produce output and
    carry no spill telemetry at all (fast path untouched)."""
    snapshot, ref = golden[algorithm_name]
    assert ref.tuples
    assert any(lines for lines in snapshot.values())
    eng_counters = ref.workflow.counters.as_dict()["engine"]
    assert not any(k.startswith("spill") for k in eng_counters)


@pytest.mark.skipif(
    resolve_kernel("numpy") != "numpy", reason="REPRO_KERNEL forces the scalar kernel"
)
@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_budgeted_batch_mappers_never_emit_record_by_record(
    monkeypatch, workload, algorithm_name, executor, workers
):
    """Spilling is a property of the batch: under a spill-forcing budget
    no job that declares a batch mapper calls ``SpillingMapContext.emit``.
    (The Cascade's ``self_first`` step declares none.)  Calls are counted
    in the task's counter shard, so forked workers report them too."""
    real_emit = SpillingMapContext.emit

    def emit(self, key, value):
        self.counter("spy", "emit")
        real_emit(self, key, value)

    batch_jobs: dict[str, bool] = {}
    real_run_job = Cluster.run_job

    def run_job(self, job, *args, **kwargs):
        batch_jobs[job.name] = job.batch_mapper is not None
        return real_run_job(self, job, *args, **kwargs)

    monkeypatch.setattr(SpillingMapContext, "emit", emit)
    monkeypatch.setattr(Cluster, "run_job", run_job)
    __, result = _run(
        workload, algorithm_name, budget=BUDGET, executor=executor, workers=workers
    )
    assert result.workflow.counters.engine(C.SPILLED_RECORDS) > 0
    jobs = result.workflow.job_results
    assert any(batch_jobs[job.job_name] for job in jobs)
    for job in jobs:
        if batch_jobs[job.job_name]:
            assert job.counters.get("spy", "emit") == 0, job.job_name
