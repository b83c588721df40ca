"""Golden equivalence under storage chaos (durable-storage tentpole).

The acceptance contract: with ``Cluster(replication=2)`` and any single
worker killed — or any single replica corrupted/lost — mid-job, all
four Table-2 algorithms on all three executors produce byte-identical
part files and canonical counters / simulated seconds versus a clean
*unreplicated* run.  Recovery traffic appears only in the non-canonical
``network_overhead_s`` bucket, and the storage telemetry reconciles
exactly with the run's ledger events.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.joins.registry import ALGORITHMS, make_algorithm
from repro.mapreduce.dfs import _BundleText
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.job import SplitEntries
from repro.obs.ledger import LedgerRun, MemorySink, RunLedger
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

#: A worker killed mid-map in every job of every chain: its in-flight
#: attempts are lost AND every block replica it held dies with it,
#: forcing read failover during the job and re-replication at the
#: end-of-job barrier.
WORKER_CHAOS = FaultPlan().fail_worker("w1", phase="map", index=1, job=None)

RETRY = RetryPolicy(max_attempts=3)

#: Everything the storage/recovery planes add on top of a clean run —
#: golden comparisons strip these; the canonical remainder must be
#: byte-identical.
_TELEMETRY_PREFIXES = (
    "task_",
    "speculative_",
    "worker",
    "map_output_lost",
    "tasks_reexecuted",
    "block_",
    "blocks_",
    "replicas_",
    "locality_",
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
            if not name.startswith(_TELEMETRY_PREFIXES)
        }
        for group, names in counters_dict.items()
    }


def _run(workload, algorithm_name, *, plan=None, retry=None,
         executor="serial", workers=4, replication=None, ledger=None):
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    kwargs = {}
    if retry is not None:
        kwargs["retry"] = retry
    if ledger is not None:
        kwargs["ledger"] = ledger
    cluster = Cluster(
        executor=executor,
        num_workers=workers,
        fault_plan=plan,
        replication=replication,
        **kwargs,
    )
    algorithm = make_algorithm(algorithm_name, query=query, d_max=workload.d_max)
    result = algorithm.run(query, workload.datasets, grid, cluster)
    snapshot = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.resolve(OUTPUT_DIRS[algorithm_name])
    }
    return snapshot, result, cluster


@pytest.fixture(scope="module")
def golden(workload):
    """One clean *unreplicated* serial run per algorithm — the yardstick
    every replicated/chaotic run must match byte-for-byte."""
    return {
        name: _run(workload, name, executor="serial", workers=4)[:2]
        for name in ALGORITHMS
    }


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_worker_death_under_replication_changes_nothing(
    workload, golden, algorithm_name, executor, workers
):
    ref_snapshot, ref = golden[algorithm_name]
    snapshot, result, cluster = _run(
        workload,
        algorithm_name,
        plan=WORKER_CHAOS,
        retry=RETRY,
        executor=executor,
        workers=workers,
        replication=2,
    )
    # Part files byte-identical to the clean unreplicated run.
    assert snapshot == ref_snapshot
    assert result.tuples == ref.tuples
    # Canonical simulated seconds unmoved: replica healing is charged
    # to network_overhead_s, never to the modelled makespan.
    assert result.stats.simulated_seconds == ref.stats.simulated_seconds
    assert _strip_telemetry(result.workflow.counters.as_dict()) == _strip_telemetry(
        ref.workflow.counters.as_dict()
    )
    # ... and the chaos really engaged the plane: the dead worker's
    # replicas were lost and healed back to the target factor.
    eng = result.workflow.counters.engine
    assert eng("worker_failures") >= 1
    assert eng("replicas_lost") > 0
    assert eng("blocks_rereplicated") > 0
    assert eng("blocks_under_replicated") == 0
    net = sum(r.cost.network_overhead_s for r in result.workflow.job_results)
    assert net > 0.0
    # The healed store audits clean.
    assert cluster._block_plane.fsck().exit_code == 0


@pytest.mark.parametrize(
    "chaos_builder",
    [
        lambda: FaultPlan().corrupt_block("input/R1", block=0, replica=0),
        lambda: FaultPlan().lose_replica("input/R2", block=0, replica=1),
    ],
    ids=["corrupt-block", "lose-replica"],
)
def test_replica_damage_is_invisible_to_results(
    workload, golden, chaos_builder
):
    """A corrupted or vanished replica mid-run: transparent failover,
    telemetry-only damage, self-healed store."""
    ref_snapshot, ref = golden["c-rep"]
    snapshot, result, cluster = _run(
        workload,
        "c-rep",
        plan=chaos_builder(),
        executor="serial",
        workers=4,
        replication=2,
    )
    assert snapshot == ref_snapshot
    assert result.stats.simulated_seconds == ref.stats.simulated_seconds
    assert _strip_telemetry(result.workflow.counters.as_dict()) == _strip_telemetry(
        ref.workflow.counters.as_dict()
    )
    eng = result.workflow.counters.engine
    assert eng("block_corruptions") + eng("replicas_lost") >= 1
    assert cluster._block_plane.fsck().exit_code == 0


def test_replication_off_is_byte_for_byte_disengaged(workload, golden):
    """With replication unset, a run never emits a single storage or
    locality counter — the plane does not exist."""
    __, result, cluster = _run(workload, "cascade", executor="serial")
    eng = result.workflow.counters.as_dict()["engine"]
    assert not any(
        k.startswith(("block_", "blocks_", "replicas_", "locality_"))
        for k in eng
    )
    assert cluster._block_plane is None
    assert cluster.dfs.block_plane is None
    assert all(
        r.cost.network_overhead_s == 0.0 for r in result.workflow.job_results
    )


def test_storage_telemetry_is_executor_independent(workload):
    """The full storage counter set — not just output — is identical on
    serial, thread and process back-ends (deterministic placement)."""
    per_executor = []
    for executor, workers in EXECUTORS:
        __, result, __cl = _run(
            workload, "c-rep", plan=WORKER_CHAOS, retry=RETRY,
            executor=executor, workers=workers, replication=2,
        )
        eng = result.workflow.counters.as_dict()["engine"]
        per_executor.append(
            {k: v for k, v in eng.items() if k.startswith(_TELEMETRY_PREFIXES)}
        )
    assert per_executor[0] == per_executor[1] == per_executor[2]
    assert per_executor[0]  # non-empty: the chaos engaged


def test_counters_reconcile_with_ledger(workload):
    """``LOCALITY_*``, ``BLOCK*`` and ``REPLICAS_LOST`` reconcile
    exactly with the typed events the run journaled."""
    sink = MemorySink()
    __, result, __cl = _run(
        workload, "c-rep", plan=WORKER_CHAOS, retry=RETRY,
        executor="serial", workers=4, replication=2,
        ledger=RunLedger(sink),
    )
    eng = result.workflow.counters.engine
    run = LedgerRun.from_events(sink.events)
    assert sum(j.locality_hits for j in run.jobs) == eng("locality_hits")
    assert sum(j.locality_misses for j in run.jobs) == eng("locality_misses")
    assert sum(j.replicas_lost for j in run.jobs) == eng("replicas_lost")
    assert sum(j.blocks_rereplicated for j in run.jobs) == eng(
        "blocks_rereplicated"
    )
    assert sum(j.block_corruptions for j in run.jobs) == eng(
        "block_corruptions"
    )
    assert eng("locality_hits") + eng("locality_misses") > 0
    assert eng("replicas_lost") > 0


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_replicated_runs_never_materialise_split_rows(
    workload, monkeypatch, algorithm_name, executor
):
    """Locality planning reads a columnar split's path, line range and
    size from its metadata: a replicated numpy run never builds the
    entry rows of a :class:`SplitEntries`.  The spy raises, so a call
    inside a forked worker fails the run too."""
    calls = []

    def spy(self):
        calls.append(self.path)
        raise AssertionError(f"SplitEntries rows built for {self.path!r}")

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.setattr(SplitEntries, "_materialise", spy)
    snapshot, __, __cl = _run(
        workload, algorithm_name, executor=executor, workers=2, replication=2
    )
    assert calls == []
    assert snapshot


def test_bundle_part_sizes_match_their_checksummed_blocks(workload):
    """A part file written as a column bundle is sized by column; under
    the plane its text is formatted once for the block checksums.  The
    two measures of the same file agree."""
    __, __, cluster = _run(workload, "c-rep-l", replication=2)
    dfs, placement = cluster.dfs, cluster._block_plane.placement
    bundled = [
        path for path in dfs.list_dir("controlled-replicate-limit")
        if isinstance(dfs._files[path], _BundleText)
    ]
    assert bundled
    for path in bundled:
        assert dfs.file_size(path) == sum(
            block.nbytes for block in placement.blocks(path)
        )
