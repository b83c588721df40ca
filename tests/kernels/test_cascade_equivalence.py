"""Columnar Cascade: the numpy kernel's step jobs are exact twins of the
scalar ones.

On the numpy kernel every 2-way Cascade step routes a whole split with
one ``overlap_cell_lists`` call and reduces a group with one bulk
``probe_frontier`` plus masks (anchor predicate, Section 5 owner cell,
rid distinctness, bound-edge checks); ``kernel="python"`` maps and joins
record at a time and is the reference.  The contract: every
``two-way-cascade/step-*`` part file and the output, every counter total
and the simulated seconds are identical — for every query shape, on
every executor, under an active ``RetryPolicy`` (which runs the same
batch mappers), and on every path that hands the one numpy reducer a
plain value list instead of columns (spill merge, string rids).

Geometry is adversarial on purpose: coordinates come from a lattice that
contains the cell boundaries (edges on boundaries, rectangles that
touch, distances of exactly ``D``) mixed with continuous values, and
extents may be zero.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins import cascade
from repro.joins.cascade import CascadeJoin
from repro.joins.dedup import two_way_range_owner
from repro.joins.reference import brute_force_join
from repro.joins.two_way import two_way_overlap, two_way_range
from repro.kernels import resolve_kernel
from repro.kernels.batch import RectBatch, RectColumns, TupleColumns
from repro.kernels.transforms import two_way_owner_cells
from repro.mapreduce.counters import C
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import RetryPolicy
from repro.mapreduce.job import ValueRuns
from repro.query.predicates import Contains, Overlap, Range
from repro.query.query import Query, Triple

SPACE = 100.0
D = 10.0
#: multiples of ``D`` including the 2x2 grid's boundaries (0, 50, 100)
LATTICE = [float(v) for v in range(0, 101, 10)]
GRID = GridPartitioning(Rect.from_corners(0.0, 0.0, SPACE, SPACE), rows=2, cols=2)

#: name -> (query, custom cascade order or None)
SHAPES = {
    "chain3": (Query.chain(["A", "B", "C"], Overlap()), None),
    "hybrid": (Query.chain(["A", "B", "C"], [Overlap(), Range(D)]), None),
    "range-first": (Query.chain(["A", "B", "C"], [Range(D), Overlap()]), None),
    "chain4": (Query.chain(["A", "B", "C", "E"], Overlap()), None),
    # the closing edge is a bound-edge check, not a job
    "triangle": (
        Query(
            [
                Triple(Overlap(), "A", "B"),
                Triple(Range(D), "B", "C"),
                Triple(Overlap(), "A", "C"),
            ]
        ),
        None,
    ),
    "star": (Query.star("B", ["A", "C", "E"], [Overlap(), Range(D), Overlap()]), None),
    # the first step reads one dataset on both sides (scalar mapper)
    "self-chain3": (Query.self_chain("A", 3, Overlap()), None),
    # a later step joins a dataset already bound (rid distinctness)
    "self-later": (
        Query(
            [Triple(Overlap(), "A1", "B"), Triple(Range(D), "B", "A2")],
            datasets={"A1": "A", "A2": "A"},
        ),
        None,
    ),
    "contains": (
        Query([Triple(Contains(), "A", "B"), Triple(Overlap(), "B", "C")]),
        None,
    ),
    "contained": (
        Query([Triple(Overlap(), "A", "B"), Triple(Contains(), "C", "B")]),
        None,
    ),
    # slots bound out of sorted order: the new fragment lands mid-line
    "custom-order": (
        Query.chain(["A", "B", "C", "E"], [Overlap(), Range(D), Overlap()]),
        ("C", "B", "E", "A"),
    ),
}

coord = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(min_value=0.0, max_value=SPACE, allow_nan=False),
)
extent = st.one_of(
    st.just(0.0),
    st.sampled_from([10.0, 20.0, 50.0]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)


@st.composite
def rect_in_space(draw) -> Rect:
    x = draw(coord)
    y = draw(coord)
    return Rect(x, y, min(draw(extent), SPACE - x), min(draw(extent), y))


@st.composite
def workloads(draw, shapes=tuple(SHAPES)):
    """``(query, order, datasets)``: one adversarial bag per dataset —
    one of them large enough for a cell's grid index to grow several
    buckets, so bucket-spanning probes (duplicate scan slots) occur."""
    query, order = SHAPES[draw(st.sampled_from(shapes))]
    big = draw(st.sampled_from(query.dataset_keys))
    datasets = {
        name: list(
            enumerate(
                draw(st.lists(rect_in_space(), max_size=48 if name == big else 10))
            )
        )
        for name in query.dataset_keys
    }
    return query, order, datasets


def _run(query, order, datasets, **cluster_kwargs):
    """One full cascade on a fresh cluster -> everything that must not move."""
    cluster = Cluster(**cluster_kwargs)
    result = CascadeJoin(order=order).run(query, datasets, GRID, cluster)
    stats = result.stats
    return {
        # every step-* directory and the output
        "parts": {
            path: tuple(cluster.dfs.read_file(path))
            for path in cluster.dfs.list_dir(CascadeJoin.name)
        },
        "tuples": result.tuples,
        "counters": result.workflow.counters.as_dict(),
        "simulated_seconds": stats.simulated_seconds,
        "job_seconds": stats.job_seconds,
    }


#: every way the numpy reducer can be fed: gathered columns, and the
#: plain-value-list arrivals
NUMPY_MODES = {
    "columnar": {},
    "spill": {"memory_budget": 256},
    "retry": {"retry": RetryPolicy(max_attempts=3)},
}

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=12, **COMMON)
@given(data=st.data())
def test_numpy_kernel_matches_python_kernel_in_every_mode(shape, data):
    query, order, datasets = data.draw(workloads(shapes=(shape,)))
    for mode, knobs in NUMPY_MODES.items():
        reference = _run(query, order, datasets, kernel="python", **knobs)
        got = _run(query, order, datasets, kernel="numpy", **knobs)
        assert got == reference, f"{mode} diverged from kernel=python"
    assert reference["tuples"] == brute_force_join(query, datasets)


@pytest.mark.parametrize(("executor", "workers"), [("thread", 2), ("process", 2)])
@pytest.mark.parametrize("mode", ["columnar", "spill"])
@settings(max_examples=5, **COMMON)
@given(workload=workloads())
def test_parallel_executors_match_python_kernel(executor, workers, mode, workload):
    query, order, datasets = workload
    knobs = NUMPY_MODES[mode]
    reference = _run(query, order, datasets, kernel="python", **knobs)
    got = _run(
        query,
        order,
        datasets,
        kernel="numpy",
        executor=executor,
        num_workers=workers,
        # several map tasks per side: groups gather from many segments
        split_records=4,
        **knobs,
    )
    serial = _run(query, order, datasets, kernel="python", split_records=4, **knobs)
    assert got == serial, f"{mode} on {executor} diverged"
    assert got["tuples"] == reference["tuples"]


@settings(max_examples=10, **COMMON)
@given(workload=workloads())
def test_string_rids_take_the_list_fallback(workload):
    """Non-integer rids cannot form an int64 column: the mappers emit the
    plain rows, the reducer builds its batches from them, and a
    same-dataset distinctness step falls back to the scalar body."""
    query, order, int_datasets = workload
    datasets = {
        name: [(str(rid), rect) for rid, rect in pairs]
        for name, pairs in int_datasets.items()
    }
    reference = _run(query, order, datasets, kernel="python")
    assert _run(query, order, datasets, kernel="numpy") == reference


@pytest.mark.parametrize("self_join", [False, True])
@settings(max_examples=15, **COMMON)
@given(
    r1=st.lists(rect_in_space(), max_size=12),
    r2=st.lists(rect_in_space(), max_size=12),
    d=st.sampled_from([0.0, D, 2 * D, 7.5]),
)
def test_two_way_joins_equal_brute_force(self_join, r1, r2, d):
    r1 = list(enumerate(r1))
    r2 = list(enumerate(r2, start=100))
    if self_join:
        query = Query(
            [Triple(Range(d) if d else Overlap(), "A", "B")],
            datasets={"A": "R", "B": "R"},
        )
        datasets = {"R": r1}
    else:
        query = Query([Triple(Range(d) if d else Overlap(), "R1", "R2")])
        datasets = {"R1": r1, "R2": r2}
    expected = brute_force_join(query, datasets)
    for kernel in ("numpy", "python"):
        cluster = Cluster(kernel=kernel)
        if d:
            result = two_way_range(r1, r2, d, GRID, cluster, self_join=self_join)
        else:
            result = two_way_overlap(r1, r2, GRID, cluster, self_join=self_join)
        assert result.tuples == expected


# ----------------------------------------------------------------------
# What reaches the reducer, and which reducer runs
# ----------------------------------------------------------------------
def _fixed_workload():
    """A small deterministic chain with boundary-aligned, touching and
    degenerate rectangles — enough records to spill under 256 bytes."""
    rects = [
        Rect(0.0, 100.0, 50.0, 50.0),  # exactly cell 0
        Rect(50.0, 50.0, 0.0, 0.0),  # a point on the grid's centre
        Rect(40.0, 60.0, 20.0, 20.0),  # straddles all four cells
        Rect(10.0, 90.0, 30.0, 0.0),  # a horizontal segment
        Rect(60.0, 40.0, 10.0, 10.0),
        Rect(70.0, 30.0, 10.0, 10.0),  # touches the previous one at a corner
    ]
    return SHAPES["chain3"][0], {
        name: [(i + 10 * k, r) for i, r in enumerate(rects)]
        for k, name in enumerate(("A", "B", "C"))
    }


@pytest.mark.skipif(
    resolve_kernel("numpy") != "numpy", reason="REPRO_KERNEL forces the scalar kernel"
)
@pytest.mark.parametrize(
    ("mode", "columnar"),
    [("columnar", True), ("spill", False), ("retry", True)],
)
def test_reducer_sees_columns_exactly_on_the_columnar_path(monkeypatch, mode, columnar):
    """The numpy step reducer enters through one function; what reaches
    it is the group's column runs on the columnar shuffle — tuple side,
    then base side — also under an active retry policy, which runs the
    same batch mappers; a spill merge hands it a plain list."""
    seen = []
    real = cascade._group_columns

    def spy(np_, bound, values):
        if isinstance(values, ValueRuns):
            assert [type(run) for run in values.runs] == [TupleColumns, RectColumns]
            seen.append(True)
        else:
            # one side only (nothing to join) or a plain value list
            seen.append(isinstance(values, (TupleColumns, RectColumns)))
        return real(np_, bound, values)

    monkeypatch.setattr(cascade, "_group_columns", spy)
    query, datasets = _fixed_workload()
    reference = _run(query, None, datasets, kernel="python", **NUMPY_MODES[mode])
    assert not seen  # the reference never builds columns
    got = _run(query, None, datasets, kernel="numpy", **NUMPY_MODES[mode])
    assert got == reference
    assert seen and all(flag is columnar for flag in seen)


def test_spill_mode_really_spills():
    query, datasets = _fixed_workload()
    cluster = Cluster(kernel="numpy", memory_budget=256)
    result = CascadeJoin().run(query, datasets, GRID, cluster)
    assert result.workflow.counters.engine(C.SPILLED_RECORDS) > 0


@pytest.mark.parametrize("index_kind", ["sweep", "rtree", "scan"])
def test_other_index_kinds_keep_the_scalar_reducer(index_kind):
    """Only the grid index has the bulk probe; the rest keep the scalar
    reducer behind the batch mapper (rows chained from the column runs),
    each with its own candidate order."""
    query, datasets = _fixed_workload()
    snapshots = []
    for kernel in ("python", "numpy"):
        cluster = Cluster(kernel=kernel)
        result = CascadeJoin(index_kind=index_kind).run(query, datasets, GRID, cluster)
        assert result.tuples == brute_force_join(query, datasets)
        snapshots.append(
            {
                path: tuple(cluster.dfs.read_file(path))
                for path in cluster.dfs.list_dir(CascadeJoin.name)
            }
        )
    assert snapshots[0] == snapshots[1]


def test_a_rid_shared_by_unequal_rectangles_is_not_probed_as_one():
    """The step reducer lets tuples with the same anchor rid share one
    probe — but nothing makes a dataset's rids unique."""
    query, datasets = _fixed_workload()
    datasets["B"] = [(7, rect) for __, rect in datasets["B"]]
    reference = _run(query, None, datasets, kernel="python")
    assert len(reference["tuples"]) > 1
    assert _run(query, None, datasets, kernel="numpy") == reference


# ----------------------------------------------------------------------
# The owner-cell kernel, row for row
# ----------------------------------------------------------------------
#: distances around the exact-``d`` boundary: a gap of exactly D between
#: lattice rectangles, and one ulp either side of it
ULP_WINDOW = [0.0, D, float(np.nextafter(D, 0.0)), float(np.nextafter(D, 2 * D)), 3.0]


@settings(max_examples=200, **COMMON)
@given(
    anchors=st.lists(rect_in_space(), min_size=1, max_size=8),
    bases=st.lists(rect_in_space(), min_size=1, max_size=8),
    d=st.sampled_from(ULP_WINDOW),
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
)
def test_owner_cells_match_scalar_owner_rule(anchors, bases, d, rows, cols):
    """``two_way_owner_cells`` equals ``two_way_range_owner`` for every
    (anchor, base) pair — d = 0, d > 0, the exact-``d`` ulp window,
    zero-area rectangles, start-points and intersections on cell
    boundaries — with ``-1`` for the scalar ``None``."""
    grid = GridPartitioning(Rect.from_corners(0.0, 0.0, SPACE, SPACE), rows, cols)
    a_batch = RectBatch.from_pairs(np, list(enumerate(anchors)))
    b_batch = RectBatch.from_pairs(np, list(enumerate(bases)))
    ia, ib = (
        grid_.ravel()
        for grid_ in np.meshgrid(
            np.arange(len(anchors)), np.arange(len(bases)), indexing="ij"
        )
    )
    got = two_way_owner_cells(np, grid, a_batch, ia, b_batch, ib, d).tolist()
    expected = [
        -1 if owner is None else owner
        for a in anchors
        for b in bases
        for owner in [two_way_range_owner(a, b, d, grid)]
    ]
    assert got == expected
