"""Columnar reduce input: the numpy kernel's reducers read columns, and
nothing outside the cluster can tell.

On the numpy kernel a map task hands ``emit_batch`` its records as one
``RectColumns`` bundle, the shuffle moves row indices into it, and the
join / mark reducers get a group's *gathered columns* instead of a list
of ``(dataset, rid, rect)`` tuples.  ``kernel="python"`` still walks the
tuples and is the reference.  The contract, per algorithm that takes the
columnar path (All-Replicate, C-Rep, C-Rep-L): part files, canonical
counters and simulated seconds are byte-identical to the reference — on
the columnar path proper (also under a spilling budget), and on every
path that hands the same numpy reducers a plain value list instead
(non-integer rids), on every executor.

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

from repro.data.transforms import max_diagonal
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins import reducers
from repro.joins.registry import make_algorithm
from repro.kernels import resolve_kernel
from repro.kernels.batch import RectBatch, RectColumns
from repro.mapreduce import engine
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.engine import (
    Cluster,
    _gather_range,
    _gathered,
    _grouped,
    _segment_group_parts,
    _sorted_by_key,
)
from repro.mapreduce.job import MapContext, default_sort_key
from repro.query.predicates import Overlap, Range
from repro.query.query import Query, Triple

SPACE = 100.0
D = 10.0
#: multiples of ``D`` including the 2x2 grid's boundaries (0, 50, 100)
LATTICE = [float(v) for v in range(0, 101, 10)]
GRID = GridPartitioning(Rect.from_corners(0.0, 0.0, SPACE, SPACE), rows=2, cols=2)

ALGORITHMS = ("all-rep", "c-rep", "c-rep-l")
OUTPUT_DIRS = {
    "all-rep": "all-replicate/output",
    "c-rep": "controlled-replicate/output",
    "c-rep-l": "controlled-replicate-limit/output",
}

QUERIES = {
    "chain3": Query.chain(["A", "B", "C"], Overlap()),
    "hybrid": Query.chain(["A", "B", "C"], [Overlap(), Range(D)]),
    "chain4": Query.chain(["A", "B", "C", "E"], Overlap()),
    # one dataset in two slots: its bag and its index are shared
    "self-join": Query(
        [Triple(Overlap(), "A1", "A2"), Triple(Range(D), "A2", "B")],
        datasets={"A1": "A", "A2": "A"},
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
def workloads(draw, kinds=tuple(QUERIES)):
    """``(query, datasets)``: one adversarial bag per dataset of the query."""
    query = QUERIES[draw(st.sampled_from(kinds))]
    datasets = {
        name: list(enumerate(draw(st.lists(rect_in_space(), max_size=9))))
        for name in query.dataset_keys
    }
    return query, datasets


def _run(algorithm_name, query, datasets, **cluster_kwargs):
    """One full join on a fresh cluster -> everything that must not move."""
    cluster = Cluster(**cluster_kwargs)
    d_max = max(max_diagonal(datasets), 1e-9)
    algorithm = make_algorithm(algorithm_name, query=query, d_max=d_max)
    result = algorithm.run(query, datasets, GRID, cluster)
    stats = result.stats
    return {
        "parts": {
            path: tuple(cluster.dfs.read_file(path))
            for path in cluster.dfs.resolve(OUTPUT_DIRS[algorithm_name])
        },
        "tuples": result.tuples,
        "simulated_seconds": stats.simulated_seconds,
        "job_seconds": stats.job_seconds,
        "shuffled_records": stats.shuffled_records,
        "rectangles_marked": stats.rectangles_marked,
        "rectangles_after_replication": stats.rectangles_after_replication,
        "output_tuples": stats.output_tuples,
    }


#: every way the numpy reducers can be fed: gathered columns, and the
#: spill merge's plain value list
NUMPY_MODES = {
    "columnar": {},
    "spill": {"memory_budget": 256},
}

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("kind", QUERIES)
@settings(max_examples=10, **COMMON)
@given(data=st.data())
def test_numpy_kernel_matches_python_kernel_in_every_mode(kind, data):
    query, datasets = data.draw(workloads(kinds=(kind,)))
    for name in ALGORITHMS:
        reference = _run(name, query, datasets, kernel="python")
        for mode, knobs in NUMPY_MODES.items():
            got = _run(name, query, datasets, kernel="numpy", **knobs)
            assert got == reference, f"{name} / {mode} diverged from kernel=python"


@pytest.mark.parametrize(("executor", "workers"), [("thread", 2), ("process", 2)])
@settings(max_examples=5, **COMMON)
@given(workload=workloads())
def test_parallel_executors_match_python_kernel(executor, workers, workload):
    query, datasets = workload
    for name in ALGORITHMS:
        reference = _run(name, query, datasets, kernel="python")
        got = _run(
            name, query, datasets, kernel="numpy", executor=executor, num_workers=workers
        )
        assert got == reference, f"{name} on {executor} diverged"


@settings(max_examples=10, **COMMON)
@given(workload=workloads())
def test_string_rids_take_the_list_fallback(workload):
    """Non-integer rids cannot form an int64 column: the mappers emit the
    plain tuple list and the reducers build their batches from it."""
    query, int_datasets = workload
    datasets = {
        name: [(str(rid), rect) for rid, rect in pairs]
        for name, pairs in int_datasets.items()
    }
    for name in ALGORITHMS:
        reference = _run(name, query, datasets, kernel="python")
        assert _run(name, query, datasets, kernel="numpy") == reference


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
    return QUERIES["chain3"], {
        name: [(i + 10 * k, r) for i, r in enumerate(rects)]
        for k, name in enumerate(("A", "B", "C"))
    }


@pytest.mark.skipif(
    resolve_kernel("numpy") != "numpy", reason="REPRO_KERNEL forces the scalar kernel"
)
@pytest.mark.parametrize(
    ("mode", "columnar"),
    [("columnar", True), ("spill", True)],
)
def test_reducers_see_columns_exactly_on_the_columnar_path(monkeypatch, mode, columnar):
    """The numpy reducers enter through one function; what reaches it —
    a range's groups, gathered in one piece, or for All-Replicate the
    range's distinct rows — is columns on the columnar shuffle, also
    under a spilling budget, whose runs are read back as segments where
    they were emitted."""
    seen = []
    real = reducers.range_bags
    real_distinct = engine.distinct_values

    def spy(np_, values, bounds):
        seen.append(isinstance(values, RectColumns))
        return real(np_, values, bounds)

    def distinct_spy(parts):
        rows, counts = real_distinct(parts)
        seen.append(isinstance(rows, RectColumns))
        return rows, counts

    monkeypatch.setattr(reducers, "range_bags", spy)
    monkeypatch.setattr("repro.joins.controlled.range_bags", spy)
    monkeypatch.setattr(engine, "distinct_values", distinct_spy)
    query, datasets = _fixed_workload()
    for name in ALGORITHMS:
        del seen[:]
        reference = _run(name, query, datasets, kernel="python")
        assert not seen  # the reference never builds batches
        assert _run(name, query, datasets, kernel="numpy", **NUMPY_MODES[mode]) == reference
        assert seen and all(flag is columnar for flag in seen)


def test_spill_mode_really_spills():
    query, datasets = _fixed_workload()
    cluster = Cluster(kernel="numpy", memory_budget=256)
    result = make_algorithm("all-rep", query=query, d_max=100.0).run(
        query, datasets, GRID, cluster
    )
    assert result.workflow.counters.engine(C.SPILLED_RECORDS) > 0


# ----------------------------------------------------------------------
# Engine level: a group's gathered columns are its row view, row for row
# ----------------------------------------------------------------------
@st.composite
def emissions(draw):
    """One map task's ``emit_batch`` arguments over a RectColumns bundle."""
    rects = draw(st.lists(rect_in_space(), min_size=1, max_size=12))
    n = len(rects)
    names = ("A", "B", "C")
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    keys = draw(
        st.lists(st.integers(0, 5), min_size=sum(counts), max_size=sum(counts))
    )
    return labels, rects, counts, keys


def _emit(num_reducers, task_emissions, *, base_rid):
    """Run ``emit_batch`` over a RectColumns bundle, and the scalar
    ``emit`` loop it stands for over the tuple list; return both
    contexts."""
    labels, rects, counts, keys = task_emissions
    pairs = [(base_rid + i, r) for i, r in enumerate(rects)]
    names, codes = reducers.dataset_codes(np, labels)
    bundle = RectColumns(names, codes, RectBatch.from_records(np, pairs))
    tuples = [(d, rid, r) for d, (rid, r) in zip(labels, pairs)]
    assert list(bundle) == tuples
    col_ctx, row_ctx = (
        MapContext(Counters(), num_reducers, lambda k, n: k % n) for __ in range(2)
    )
    col_ctx.emit_batch(np.array(keys, dtype=np.int64), counts, bundle, [50] * len(rects))
    pos = 0
    for value, count in zip(tuples, counts):
        for key in keys[pos : pos + count]:
            row_ctx.emit(key, value)
        pos += count
    return col_ctx, row_ctx


def _rows_of(bundle: RectColumns) -> list[tuple]:
    """Rebuild a bundle's tuples from its columns alone."""
    batch = bundle.batch
    codes = bundle.codes.tolist() if bundle.codes is not None else [0] * batch.n
    return [
        (bundle.names[c], rid, Rect(x, y, length, breadth))
        for c, rid, x, y, length, breadth in zip(
            codes,
            batch.ids.tolist(),
            batch.x.tolist(),
            batch.y.tolist(),
            batch.length.tolist(),
            batch.breadth.tolist(),
        )
    ]


@pytest.mark.parametrize(
    "sort_key",
    [default_sort_key, lambda k: -k, lambda k: k % 2],
    ids=["default", "descending", "ties-across-keys"],
)
@settings(max_examples=40, **COMMON)
@given(tasks=st.lists(emissions(), min_size=1, max_size=3))
def test_group_columns_equal_group_rows(sort_key, tasks):
    """Multi-key buckets, several map tasks, default and custom
    ``sort_key``: every group of the columnar merge has the key and —
    row for row, in order — the values the row shuffle's stable sort
    hands the reducer; read as rows *and* rebuilt from the columns.
    Gathered in one piece for a range holding every reducer, the groups
    are those rows, group after group, cut by the bounds."""
    num_reducers = 2
    contexts = [
        _emit(num_reducers, task, base_rid=100 * t) for t, task in enumerate(tasks)
    ]
    range_groups, range_rows = [], []
    for r in range(num_reducers):
        segs = [
            seg for col_ctx, __ in contexts for seg in (col_ctx.segments or [[]] * 2)[r]
        ]
        bucket = [pair for __, row_ctx in contexts for pair in row_ctx.buckets[r]]
        assert [p for seg in segs for p in seg.pairs()] == bucket
        expected = list(_grouped(_sorted_by_key(bucket, sort_key)))
        parts = list(_segment_group_parts(segs, sort_key))
        range_groups.extend(group for __, group in parts)
        range_rows.extend(rows for __, rows in expected)
        got = [(key, _gathered(group)) for key, group in parts]
        assert [k for k, __ in got] == [k for k, __ in expected]
        for (__, values), (__, ref_values) in zip(got, expected):
            assert isinstance(values, RectColumns)
            assert len(values) == len(ref_values)
            assert list(values) == ref_values
            assert _rows_of(values) == ref_values
            by_dataset = values.by_dataset()
            assert list(by_dataset) == list(dict.fromkeys(d for d, __, __ in ref_values))
            for dataset, batch in by_dataset.items():
                assert batch.pairs() == [
                    (rid, rect) for d, rid, rect in ref_values if d == dataset
                ]
    values, bounds = _gather_range(range_groups)
    assert bounds.tolist() == [0, *np.cumsum([len(rows) for rows in range_rows]).tolist()]
    assert list(values) == [row for rows in range_rows for row in rows]
