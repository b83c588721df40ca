"""Golden equivalence of the columnar kernel path (PR 6 tentpole).

The numpy kernel replaces per-record probes and predicate loops with
batched array operations; the engine contract is that nothing outside
the cluster can tell which kernel ran: byte-identical final DFS output,
identical canonical counters and identical simulated seconds, for every
algorithm and every executor back-end.

The reference for each algorithm is one forced ``kernel="python"``
serial run on a seeded Table-2-shaped workload; the numpy kernel is
then checked on the serial, thread and process executors against that
single golden snapshot — a 4 algorithms x 3 executors x 2 kernels
matrix.  Two further shapes (a 4-way chain and an overlap+range hybrid)
pin the marking plans the 3-way overlap chain never builds.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.experiments.common import derive_grid
from repro.experiments.workloads import Workload, synthetic_chain
from repro.geometry.rectangle import Rect
from repro.joins.registry import ALGORITHMS, make_algorithm
from repro.mapreduce.engine import Cluster
from repro.query.parser import parse_query
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

#: Reduced Table-2 shape: same generator/space/seed family as the
#: benchmarks, small enough to run 4 algorithms x 4 configurations.
N_PER_RELATION = 700
SPACE_SIDE = 6_300.0
SEED = 11

#: Output directory of each algorithm, by registry name.
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


CHAIN3 = Query.chain(["R1", "R2", "R3"], Overlap())


def _run(
    workload, algorithm_name, *, kernel, executor="serial", workers=1, query=CHAIN3
):
    """One full join run on a fresh cluster; returns (snapshot, stats, tuples)."""
    grid = derive_grid(workload.datasets)
    cluster = Cluster(executor=executor, num_workers=workers, kernel=kernel)
    algorithm = make_algorithm(
        algorithm_name, query=query, d_max=workload.d_max
    )
    result = algorithm.run(query, workload.datasets, grid, cluster)
    # The Cascade's intermediate step-* directories are part of its
    # contract too, not just the final output.
    root = OUTPUT_DIRS[algorithm_name]
    if algorithm_name == "cascade":
        root = root.rsplit("/", 1)[0]
    snapshot = {
        path: tuple(cluster.dfs.read_file(path)) for path in cluster.dfs.resolve(root)
    }
    return snapshot, result.stats, result.tuples


def _counters(stats):
    """Every JoinStats field that must be executor/kernel independent
    (wall_clock_seconds is real time and legitimately varies)."""
    return {
        "simulated_seconds": stats.simulated_seconds,
        "shuffled_records": stats.shuffled_records,
        "rectangles_marked": stats.rectangles_marked,
        "rectangles_after_replication": stats.rectangles_after_replication,
        "output_tuples": stats.output_tuples,
        "job_seconds": stats.job_seconds,
    }


@pytest.fixture(scope="module")
def golden(workload):
    """Scalar-kernel serial run per algorithm: the reference the numpy
    kernel must reproduce exactly."""
    return {
        name: _run(workload, name, kernel="python") for name in ALGORITHMS
    }


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_numpy_kernel_matches_python_kernel(
    workload, golden, algorithm_name, executor, workers
):
    ref_snapshot, ref_stats, ref_tuples = golden[algorithm_name]
    snapshot, stats, tuples = _run(
        workload,
        algorithm_name,
        kernel="numpy",
        executor=executor,
        workers=workers,
    )
    assert tuples == ref_tuples
    # Part files: same names, byte-identical content.
    assert snapshot == ref_snapshot
    assert _counters(stats) == _counters(ref_stats)


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_python_kernel_stable_across_executors(workload, golden, algorithm_name):
    """The scalar kernel itself must stay executor independent — this
    pins the other half of the matrix to the same golden snapshot."""
    ref_snapshot, ref_stats, ref_tuples = golden[algorithm_name]
    for executor, workers in EXECUTORS[1:]:
        snapshot, stats, tuples = _run(
            workload,
            algorithm_name,
            kernel="python",
            executor=executor,
            workers=workers,
        )
        assert tuples == ref_tuples
        assert snapshot == ref_snapshot
        assert _counters(stats) == _counters(ref_stats)


@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_golden_output_is_nonempty(golden, algorithm_name):
    """Guard the guard: an empty snapshot would make the equivalence
    assertions vacuously true."""
    snapshot, __, tuples = golden[algorithm_name]
    assert tuples
    assert any(lines for lines in snapshot.values())


# ----------------------------------------------------------------------
# Longer marking plans and d > 0 probes, pinned end to end
# ----------------------------------------------------------------------
#: The 3-way overlap chain above only ever builds one-step witness plans
#: probed with d = 0.  A 4-way chain searches two-step plans (witness
#: sets of three rectangles); the hybrid chain probes through a
#: ``Ra(d)`` edge and replicates under per-dataset C-Rep-L limits.
MARKING_SHAPES = {
    "chain4": (
        Query.chain(["R1", "R2", "R3", "R4"], Overlap()),
        dict(n=450, space_side=2_400.0, names=("R1", "R2", "R3", "R4")),
    ),
    "hybrid3": (
        Query.chain(["R1", "R2", "R3"], [Overlap(), Range(150.0)]),
        dict(n=500, space_side=6_000.0),
    ),
}


@pytest.mark.parametrize("algorithm_name", ["c-rep", "c-rep-l"])
@pytest.mark.parametrize("shape", sorted(MARKING_SHAPES))
def test_marking_shapes_match_python_kernel(shape, algorithm_name):
    query, spec = MARKING_SHAPES[shape]
    workload = synthetic_chain(seed=SEED, **spec)
    ref_snapshot, ref_stats, ref_tuples = _run(
        workload, algorithm_name, kernel="python", query=query
    )
    assert ref_tuples and ref_stats.rectangles_marked
    for executor, workers in EXECUTORS:
        snapshot, stats, tuples = _run(
            workload,
            algorithm_name,
            kernel="numpy",
            executor=executor,
            workers=workers,
            query=query,
        )
        assert tuples == ref_tuples
        assert snapshot == ref_snapshot
        assert _counters(stats) == _counters(ref_stats)


# ----------------------------------------------------------------------
# Repeated anchor rows: the bulk probe works per distinct rectangle
# ----------------------------------------------------------------------
def _lattice_workload(names):
    """Dense relations on a 10-unit lattice: corners on grid-cell and
    bucket boundaries, touching and zero-area rectangles, ~2 partners
    per rectangle and edge — so from the second level on, the frontier
    names each anchor row several times."""
    rng = random.Random(SEED)
    n, space, sides = 140, 400, [0.0, 10.0, 20.0, 40.0]
    datasets = {
        name: [
            (
                rid,
                Rect(
                    float(rng.randrange(0, space, 10)),
                    float(rng.randrange(10, space + 10, 10)),
                    rng.choice(sides),
                    rng.choice(sides),
                ),
            )
            for rid in range(n)
        ]
        for name in names
    }
    return Workload(datasets=datasets, d_max=math.hypot(40.0, 40.0), paper_scale=1.0)


REPEATING_SHAPES = {
    # every R1 and R3 partner of an R2 rectangle re-probes R4 with it
    "star4": (
        parse_query("R1 Ov R2 and R2 Ov R3 and R2 Ov R4"),
        ("R1", "R2", "R3", "R4"),
    ),
    "self2": (Query.self_chain("R1", 2, Overlap()), ("R1",)),
    # ... and here under rid distinctness from both earlier slots
    "self3": (Query.self_chain("R1", 3, Overlap()), ("R1",)),
}


@pytest.mark.parametrize("algorithm_name", ["cascade", "all-rep", "c-rep"])
@pytest.mark.parametrize("shape", sorted(REPEATING_SHAPES))
def test_repeated_anchor_rows_match_python_kernel(shape, algorithm_name):
    query, names = REPEATING_SHAPES[shape]
    workload = _lattice_workload(names)
    ref_snapshot, ref_stats, ref_tuples = _run(
        workload, algorithm_name, kernel="python", query=query
    )
    assert len(ref_tuples) > len(workload.datasets["R1"])
    snapshot, stats, tuples = _run(
        workload, algorithm_name, kernel="numpy", query=query
    )
    assert tuples == ref_tuples
    assert snapshot == ref_snapshot
    assert _counters(stats) == _counters(ref_stats)
