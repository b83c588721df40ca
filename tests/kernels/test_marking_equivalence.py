"""Property tests: batched round-1 marking is an exact twin of the scalar search.

``MarkingEngine(kernel="numpy")`` searches witnesses for all rectangles
starting in a cell at once (one bulk ``probe_frontier`` per plan step);
``kernel="python"`` runs one lazy backtracking search per rectangle and
is the reference.  Part files, ``compute_ops`` and therefore simulated
seconds rest on the two agreeing in ``marked``, ``ops`` *and* the order
of ``starts_here`` — on every cell, for every query shape.

Geometry is adversarial on purpose: coordinates come from a lattice that
contains the cell boundaries (edges on boundaries, rectangles that touch,
distances of exactly ``d``) mixed with continuous values, and extents may
be zero.  Bags are large enough for the grid index to grow several
buckets, so bucket-spanning probes (duplicate scan slots) are charged too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.grid.transforms import split
from repro.index.grid_index import GridIndex
from repro.joins.marking import MarkingEngine
from repro.kernels.batch import RectBatch
from repro.query.predicates import Contains, Overlap, Range
from repro.query.query import Query, Triple

SPACE = 100.0
D = 10.0
#: multiples of ``D`` including the 2x2 grid's boundaries (0, 50, 100):
#: lattice rectangles touch, sit on cell edges and lie exactly ``D`` apart
LATTICE = [float(v) for v in range(0, 101, 10)]

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
def rect_strategy(draw) -> Rect:
    return Rect(x=draw(coord), y=draw(coord), l=draw(extent), b=draw(extent))


def bag_strategy(max_size):
    return st.lists(rect_strategy(), min_size=0, max_size=max_size).map(
        lambda rects: list(enumerate(rects))
    )


def make_grid() -> GridPartitioning:
    return GridPartitioning(Rect(0.0, SPACE, SPACE, SPACE), rows=2, cols=2)


QUERIES = {
    "chain3": Query.chain(["A", "B", "C"], Overlap()),
    "hybrid": Query.chain(["A", "B", "C"], [Overlap(), Range(D)]),
    "range": Query.chain(["A", "B", "C"], Range(D)),
    "chain4": Query.chain(["A", "B", "C", "E"], Overlap()),
    "chain4-hybrid": Query.chain(
        ["A", "B", "C", "E"], [Range(D), Overlap(), Range(2 * D)]
    ),
    "cycle3": Query(
        [
            Triple(Overlap(), "A", "B"),
            Triple(Range(D), "B", "C"),
            Triple(Overlap(), "C", "A"),
        ]
    ),
    "cycle4": Query(
        [
            Triple(Overlap(), "A", "B"),
            Triple(Overlap(), "B", "C"),
            Triple(Range(D), "C", "E"),
            Triple(Overlap(), "E", "A"),
        ]
    ),
    "star-mixed": Query.star("B", ["A", "C", "E"], [Overlap(), Range(D), Overlap()]),
    "contains": Query(
        [Triple(Contains(), "A", "B"), Triple(Overlap(), "B", "C")]
    ),
    "contains-right": Query(
        [Triple(Overlap(), "A", "B"), Triple(Contains(), "C", "B")]
    ),
    "self-chain3": Query.self_chain("A", 3, Overlap()),
    "self-mixed": Query(
        [Triple(Overlap(), "A1", "A2"), Triple(Range(D), "A2", "B")],
        datasets={"A1": "A", "A2": "A"},
    ),
    "self-chain4": Query.self_chain("A", 4, [Overlap(), Range(D), Overlap()]),
}


def _received_per_cell(grid, bags):
    """What round 1's Split delivers: per cell, per dataset, in bag order."""
    per_cell = {c.cell_id: {} for c in grid.cells()}
    for dataset, pairs in bags.items():
        for rid, rect in pairs:
            for cell_id, __ in split(rect, grid):
                per_cell[cell_id].setdefault(dataset, []).append((rid, rect))
    return per_cell


def _assert_twin(query, bags):
    grid = make_grid()
    py = MarkingEngine(query, grid, kernel="python")
    vec = MarkingEngine(query, grid, kernel="numpy")
    assert vec._batched
    for cell_id, received in _received_per_cell(grid, bags).items():
        cell = grid.cell_by_id(cell_id)
        ref = py.select_marked(cell, received)
        got = vec.select_marked(cell, received)
        assert list(got.starts_here) == ref.starts_here
        assert got.marked == ref.marked
        assert got.ops == ref.ops
        assert list(got.marked_flags) == [
            (dataset, rid) in ref.marked for dataset, rid, __ in ref.starts_here
        ]


@pytest.mark.parametrize("shape", sorted(QUERIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_marking_matches_scalar_search(shape, data):
    query = QUERIES[shape]
    # One large bag (several index buckets), the rest small: keeps the
    # scalar reference fast while still spanning buckets.
    sizes = [70] + [18] * 3
    bags = {
        dataset: data.draw(bag_strategy(size), label=dataset)
        for dataset, size in zip(query.dataset_keys, sizes)
    }
    _assert_twin(query, bags)


def test_empty_bag_and_unknown_dataset_are_handled_like_the_scalar_path():
    query = QUERIES["chain4"]
    received = {
        "A": [(0, Rect(45.0, 60.0, 10.0, 5.0))],
        "B": [(0, Rect(40.0, 62.0, 20.0, 10.0))],
        "C": [],
        "Z": [(3, Rect(10.0, 90.0, 5.0, 5.0))],
    }
    grid = make_grid()
    py = MarkingEngine(query, grid, kernel="python")
    vec = MarkingEngine(query, grid, kernel="numpy")
    cell = grid.cell(0, 0)
    ref = py.select_marked(cell, received)
    got = vec.select_marked(cell, received)
    assert (got.marked, got.ops, list(got.starts_here)) == (
        ref.marked,
        ref.ops,
        ref.starts_here,
    )
    assert ref.marked  # the crossing pair qualifies


def test_non_integer_rids_under_distinctness_fall_back_to_the_scalar_search():
    query = QUERIES["self-chain3"]
    grid = make_grid()
    received = {
        "A": [
            ("r0", Rect(40.0, 80.0, 15.0, 4.0)),
            ("r1", Rect(42.0, 82.0, 15.0, 4.0)),
            ("r2", Rect(10.0, 90.0, 2.0, 2.0)),
        ]
    }
    cell = grid.cell(0, 0)
    ref = MarkingEngine(query, grid, kernel="python").select_marked(cell, received)
    got = MarkingEngine(query, grid, kernel="numpy").select_marked(cell, received)
    assert got.marked == ref.marked == {("A", "r0"), ("A", "r1")}
    assert got.ops == ref.ops
    assert got.marked_flags is None  # served by the reference path


# ----------------------------------------------------------------------
# The bulk probe's lazy-accounting return
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(bag_strategy(70), bag_strategy(12), st.sampled_from([0.0, D, 33.0]))
def test_probe_frontier_scan_matches_per_query_probe_batch(pairs, queries, d):
    vec = GridIndex(pairs=pairs, kernel="numpy")
    qbatch = RectBatch.from_pairs(np, queries)
    parents, entries, positions, scanned = vec.probe_frontier(
        qbatch, np.arange(len(queries), dtype=np.int64), d, scan=True
    )
    assert vec.probes == 0  # scan=True never charges
    assert len(scanned) == len(queries)
    got = [[] for __ in queries]
    for p, e, pos in zip(parents.tolist(), entries.tolist(), positions.tolist()):
        got[p].append((vec._rid_rects[e], pos))
    assert parents.tolist() == sorted(parents.tolist())
    for qi, (__, q) in enumerate(queries):
        cands, pos_list, n_scanned = vec.probe_batch(q, d)
        assert got[qi] == list(zip(cands, pos_list))
        assert int(scanned[qi]) == n_scanned
