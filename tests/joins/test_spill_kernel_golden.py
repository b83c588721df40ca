"""Golden equivalence of spilling crossed with the kernel.

The numpy kernel moves record batches end to end (columnar shuffle,
batched codecs); spill-to-disk bounds a map task's buffered bytes.
Each is individually golden-tested — this suite pins the
*interaction*: Controlled-Replicate under a memory budget small enough
to force spills must stay byte-identical to the unbounded scalar
reference on both kernels, and both budgeted legs must agree on the
spill telemetry itself (spill points depend only on estimated record
bytes, which the numpy path must not perturb).
"""

from __future__ import annotations

import pytest

from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain
from repro.joins.registry import make_algorithm
from repro.mapreduce.engine import Cluster
from repro.query.predicates import Overlap
from repro.query.query import Query

N_PER_RELATION = 500
SPACE_SIDE = 5_300.0
SEED = 11
#: forces several spill runs per map task at this workload size
BUDGET = 2_048
OUTPUT_DIR = "controlled-replicate/output"

#: the kernels whose budgeted runs must reproduce the reference
LEGS = ["python", "numpy"]


@pytest.fixture(scope="module")
def workload():
    return synthetic_chain(
        N_PER_RELATION, SPACE_SIDE, names=("R1", "R2", "R3"), seed=SEED
    )


def _run(workload, *, kernel, budget):
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    grid = derive_grid(workload.datasets)
    cluster = Cluster(kernel=kernel, memory_budget=budget)
    algorithm = make_algorithm("c-rep", query=query, d_max=workload.d_max)
    result = algorithm.run(query, workload.datasets, grid, cluster)
    snapshot = {
        path: tuple(cluster.dfs.read_file(path))
        for path in cluster.dfs.resolve(OUTPUT_DIR)
    }
    return snapshot, result


def _spill_counters(result):
    eng = result.workflow.counters.as_dict()["engine"]
    return {k: v for k, v in eng.items() if k.startswith("spill")}


@pytest.fixture(scope="module")
def golden(workload):
    """The unbounded scalar reference: python kernel, no memory budget."""
    return _run(workload, kernel="python", budget=None)


@pytest.fixture(scope="module")
def budgeted(workload):
    return {kernel: _run(workload, kernel=kernel, budget=BUDGET) for kernel in LEGS}


@pytest.mark.parametrize("kernel", LEGS)
def test_spilled_leg_matches_unspilled_reference(golden, budgeted, kernel):
    ref_snapshot, ref = golden
    snapshot, result = budgeted[kernel]
    spills = _spill_counters(result)
    assert spills.get("spilled_records", 0) > 0
    assert spills.get("spill_files", 0) > 0
    assert spills.get("spill_bytes", 0) > 0
    assert snapshot == ref_snapshot
    assert result.tuples == ref.tuples
    assert result.stats.simulated_seconds == ref.stats.simulated_seconds
    assert result.stats.shuffled_records == ref.stats.shuffled_records
    assert result.stats.output_tuples == ref.stats.output_tuples


def test_spill_telemetry_is_plane_independent(budgeted):
    """Every budgeted leg spills at exactly the same points: the spill
    counters are a function of record bytes, not of which kernel
    produced them."""
    reference = _spill_counters(budgeted[LEGS[0]][1])
    assert reference  # non-empty: the budget really forced spills
    for leg in LEGS[1:]:
        assert _spill_counters(budgeted[leg][1]) == reference


def test_reference_never_spills(golden):
    _, ref = golden
    assert ref.tuples
    assert not _spill_counters(ref)
