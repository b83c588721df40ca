"""Property tests: the columnar kernels are exact twins of the scalar path.

Every vectorized kernel must reproduce the scalar implementation
*exactly* — same values, same order where order is observable, same
counter charges — because the engine's determinism contract (byte-
identical part files and simulated seconds across kernels) rests on it.
The strategies are deliberately adversarial: coordinates are drawn from
a mix of continuous values and exact grid-boundary/partner-edge values,
extents may be zero, and distances cover ``d = 0`` and ``d > 0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobError
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.index.grid_index import GridIndex
from repro.joins.local import LocalJoiner
from repro.joins.sweep import sweep_pairs
from repro.kernels.batch import RectBatch
from repro.kernels.predicates import pair_mask, triple_mask
from repro.kernels.sweep import sweep_pairs_batch
from repro.kernels.transforms import (
    cell_ids_of_starts,
    col_ranges,
    cols_of_x,
    min_gaps_to_other_cell,
    quadrant_cell_lists,
    row_ranges,
    rows_of_y,
)
from repro.mapreduce.engine import Cluster
from repro.query.predicates import Contains, Overlap, Range
from repro.query.query import Query

SPACE = 1000.0
#: exact cell boundaries of the 4x4 test grid plus its outside — drawing
#: coordinates from these exercises every tie-break in the ownership and
#: closed-intersection rules
BOUNDARY = [0.0, 250.0, 500.0, 750.0, 1000.0, -10.0, 1010.0]

coord = st.one_of(
    st.sampled_from(BOUNDARY),
    st.floats(min_value=0.0, max_value=SPACE, allow_nan=False),
)
extent = st.one_of(
    st.just(0.0),
    st.sampled_from([250.0, 500.0]),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)
distance = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
)


@st.composite
def rect_strategy(draw) -> Rect:
    x = draw(coord)
    y = draw(coord)
    return Rect(
        x=x, y=min(y + draw(extent), SPACE + 100.0), l=draw(extent), b=draw(extent)
    )


@st.composite
def bag_strategy(draw, max_size=40):
    rects = draw(st.lists(rect_strategy(), min_size=0, max_size=max_size))
    return list(enumerate(rects))


def make_grid() -> GridPartitioning:
    return GridPartitioning(Rect(0.0, SPACE, SPACE, SPACE), rows=4, cols=4)


# ----------------------------------------------------------------------
# Batched plane-sweep
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(bag_strategy(), bag_strategy(), distance)
def test_sweep_batch_matches_scalar_pairs_and_order(left, right, d):
    assert sweep_pairs_batch(left, right, d) == list(sweep_pairs(left, right, d))


# ----------------------------------------------------------------------
# Grid index: scalar search on both kernels, batch probes, counters
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(bag_strategy(), rect_strategy(), distance)
def test_grid_index_scalar_search_identical_across_kernels(pairs, query, d):
    py = GridIndex(pairs=pairs, kernel="python")
    vec = GridIndex(pairs=pairs, kernel="numpy")
    py_hits = [(e.payload, e.rect) for e in py.search(query, d)]
    vec_hits = [(e.payload, e.rect) for e in vec.search(query, d)]
    assert py_hits == vec_hits
    assert py.probes == vec.probes


@settings(max_examples=60, deadline=None)
@given(bag_strategy(), rect_strategy(), distance)
def test_probe_batch_is_lazy_exact_twin_of_scalar_search(pairs, query, d):
    vec = GridIndex(pairs=pairs, kernel="numpy")
    cands, pos, scanned = vec.probe_batch(query, d)
    assert vec.probes == 0  # probe_batch never charges up front

    py = GridIndex(pairs=pairs, kernel="python")
    assert cands == [(e.payload, e.rect) for e in py.search(query, d)]
    assert py.probes == scanned  # exhaustion charge

    # Abandoning after candidate j must charge what the scalar generator
    # had incrementally charged by its (j+1)-th yield.
    for j in range(min(len(cands), 4)):
        partial = GridIndex(pairs=pairs, kernel="python")
        gen = partial.search(query, d)
        for __ in range(j + 1):
            next(gen)
        assert partial.probes == pos[j] + 1


@settings(max_examples=40, deadline=None)
@given(bag_strategy(), bag_strategy(max_size=12), distance)
def test_probe_frontier_matches_per_query_scalar_probes(pairs, queries, d):
    vec = GridIndex(pairs=pairs, kernel="numpy")
    if getattr(vec, "batch", None) is None:
        return  # empty index: frontier path is never taken by the joiner
    qbatch = RectBatch.from_pairs(np, queries)
    parents, entries = vec.probe_frontier(
        qbatch, np.arange(len(queries), dtype=np.int64), d
    )
    got = [
        (int(p), vec._rid_rects[int(e)][0]) for p, e in zip(parents, entries)
    ]
    expected = []
    expected_probes = 0
    for qi, (__, q) in enumerate(queries):
        ref = GridIndex(pairs=pairs, kernel="python")
        hits = [(qi, e.payload) for e in ref.search(q, d)]
        expected.extend(hits)
        expected_probes += ref.probes
    assert got == expected
    assert vec.probes == expected_probes


# ----------------------------------------------------------------------
# Grid transforms vs the scalar partitioning methods
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(bag_strategy(max_size=30))
def test_grid_transforms_match_scalar_methods(pairs):
    grid = make_grid()
    batch = RectBatch.from_pairs(np, pairs)
    rects = [r for __, r in pairs]
    xs = np.asarray([r.x for r in rects], dtype=np.float64)
    ys = np.asarray([r.y for r in rects], dtype=np.float64)

    assert cols_of_x(np, grid, xs).tolist() == [grid.col_of_x(r.x) for r in rects]
    assert rows_of_y(np, grid, ys).tolist() == [grid.row_of_y(r.y) for r in rects]
    assert cell_ids_of_starts(np, grid, batch).tolist() == [
        grid.cell_id_of(r) for r in rects
    ]
    lo, hi = col_ranges(np, grid, batch)
    assert list(zip(lo.tolist(), hi.tolist())) == [grid.col_range(r) for r in rects]
    lo, hi = row_ranges(np, grid, batch)
    assert list(zip(lo.tolist(), hi.tolist())) == [grid.row_range(r) for r in rects]


@settings(max_examples=30, deadline=None)
@given(bag_strategy(max_size=20), st.integers(min_value=0, max_value=15), distance)
def test_grid_gap_and_quadrant_transforms_match_scalar(pairs, cell_id, d):
    grid = make_grid()
    # Restrict to rectangles starting in the chosen cell, as the marking
    # engine does before asking for gaps/replication targets.
    pairs = [p for p in pairs if grid.cell_id_of(p[1]) == cell_id]
    if not pairs:
        return
    cell = grid.cell_by_id(cell_id)
    batch = RectBatch.from_pairs(np, pairs)
    gaps = min_gaps_to_other_cell(np, grid, batch, cell)
    assert gaps.tolist() == [
        grid.min_gap_to_other_cell(r, cell) for __, r in pairs
    ]
    flat, counts = (a.tolist() for a in quadrant_cell_lists(np, grid, batch, d=d))
    got, at = [], 0
    for c in counts:
        got.append(flat[at : at + c])
        at += c
    expected = [
        [c.cell_id for c in grid.fourth_quadrant_within(r, d)] for __, r in pairs
    ]
    assert got == expected


# ----------------------------------------------------------------------
# Predicate masks vs Triple.holds_with
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    bag_strategy(max_size=25),
    rect_strategy(),
    distance,
    st.sampled_from(["overlap", "range", "contains"]),
    st.booleans(),
)
def test_masks_match_scalar_holds_with(pairs, other, d, pred_name, left_side):
    if not pairs:
        return
    predicate = {
        "overlap": Overlap(),
        "range": Range(d) if d > 0 else Overlap(),
        "contains": Contains(),
    }[pred_name]
    query = Query.chain(["R1", "R2"], predicate)
    triple = query.triples[0]
    slot = triple.left if left_side else triple.right
    batch = RectBatch.from_pairs(np, pairs)
    idx = np.arange(len(pairs), dtype=np.int64)

    mask = triple_mask(np, triple, slot, batch, idx, other)
    assert mask.tolist() == [
        triple.holds_with(slot, r, other) for __, r in pairs
    ]

    obatch = RectBatch.from_pairs(np, [(0, other)] * len(pairs))
    pmask = pair_mask(np, triple, slot, batch, idx, obatch, idx)
    assert pmask.tolist() == mask.tolist()


# ----------------------------------------------------------------------
# LocalJoiner: full enumeration, assignments and check accounting
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    bag_strategy(max_size=15),
    bag_strategy(max_size=15),
    bag_strategy(max_size=15),
    distance,
)
def test_local_joiner_equivalent_across_kernels(b1, b2, b3, d):
    predicate = Range(d) if d > 0 else Overlap()
    query = Query.chain(["R1", "R2", "R3"], predicate)
    bags = {"R1": b1, "R2": b2, "R3": b3}
    py_res, py_checks = LocalJoiner(query, kernel="python").enumerate(bags)
    vec_res, vec_checks = LocalJoiner(query, kernel="numpy").enumerate(bags)
    assert py_res == vec_res
    assert py_checks == vec_checks


@settings(max_examples=20, deadline=None)
@given(bag_strategy(max_size=12), bag_strategy(max_size=12), distance)
def test_local_joiner_self_join_distinctness_across_kernels(b1, b2, d):
    # Two slots read the same dataset: the distinctness filter must not
    # change totals between kernels.
    predicate = Range(d) if d > 0 else Overlap()
    query = Query.chain(
        ["R1", "R2#1", "R2#2"],
        predicate,
        datasets={"R1": "R1", "R2#1": "R2", "R2#2": "R2"},
    )
    bags = {"R1": b1, "R2#1": b2, "R2#2": b2}
    py_res, py_checks = LocalJoiner(query, kernel="python").enumerate(bags)
    vec_res, vec_checks = LocalJoiner(query, kernel="numpy").enumerate(bags)
    assert py_res == vec_res
    assert py_checks == vec_checks


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
def test_auto_is_not_a_kernel(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    with pytest.raises(JobError, match=r"unknown kernel 'auto'; expected one of numpy, python$"):
        Cluster(kernel="auto").resolved_kernel
