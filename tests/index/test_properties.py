"""Property-based tests: every index returns exactly the Chebyshev-ball
candidates, on arbitrary rectangle sets."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.rectangle import Rect
from repro.index import Entry, GridIndex, RTree
from repro.kernels.batch import RectBatch

coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
side = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


@st.composite
def rect_strategy(draw) -> Rect:
    return Rect(x=draw(coord), y=draw(coord), l=draw(side), b=draw(side))


@st.composite
def entry_lists(draw):
    rects = draw(st.lists(rect_strategy(), min_size=0, max_size=60))
    return [Entry(rect=r, payload=i) for i, r in enumerate(rects)]


def expected_hits(entries, query: Rect, d: float) -> set[int]:
    q = query.enlarge(d) if d > 0 else query
    return {e.payload for e in entries if q.intersects(e.rect)}


@settings(max_examples=60)
@given(entry_lists(), rect_strategy(), st.floats(min_value=0, max_value=100))
def test_grid_index_exact(entries, query, d):
    idx = GridIndex(entries)
    assert {e.payload for e in idx.search(query, d)} == expected_hits(
        entries, query, d
    )


@settings(max_examples=60)
@given(
    entry_lists(),
    rect_strategy(),
    st.floats(min_value=0, max_value=100),
    st.integers(min_value=2, max_value=10),
)
def test_rtree_exact(entries, query, d, fanout):
    idx = RTree(entries, fanout=fanout)
    assert {e.payload for e in idx.search(query, d)} == expected_hits(
        entries, query, d
    )


# ----------------------------------------------------------------------
# The bulk probe is the per-row probes, concatenated
# ----------------------------------------------------------------------
D = 10.0
#: multiples of ``D`` over the indexed space: lattice rectangles touch,
#: have zero area, lie exactly ``D`` apart and — with the two corner
#: points of :func:`index_bags` pinning the index extent to [0, 100]² —
#: put their edges on the bucket boundaries of a 2 x 2 or 5 x 5 grid
LATTICE = [float(v) for v in range(0, 101, 10)]
lattice_extent = st.one_of(
    st.sampled_from([0.0, 10.0, 20.0, 50.0]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)


@st.composite
def lattice_rects(draw, coords) -> Rect:
    return Rect(
        x=draw(coords), y=draw(coords), l=draw(lattice_extent), b=draw(lattice_extent)
    )


inside = st.one_of(
    st.sampled_from(LATTICE), st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
)
#: query corners also fall wholly outside the index extent
anywhere = st.one_of(inside, st.sampled_from([-500.0, -60.0, 160.0, 900.0]))


@st.composite
def index_bags(draw):
    """``(rid, rect)`` pairs, rid = row, optionally pinned to the
    lattice's extent."""
    rects = draw(st.lists(lattice_rects(inside), min_size=0, max_size=40))
    if rects and draw(st.booleans()):
        rects += [Rect(0.0, 0.0, 0.0, 0.0), Rect(100.0, 100.0, 0.0, 0.0)]
    return list(enumerate(rects))


def _per_row(ref: GridIndex, pairs, queries, pos, d):
    """What one ``search_batch`` / ``probe_batch`` per named row gives."""
    parents, entries, positions, scanned = [], [], [], []
    for k, row in enumerate(pos):
        query = queries[row][1]
        matched, n_scanned = ref.search_batch(query, d)
        cands, where, lazily_scanned = ref.probe_batch(query, d)
        assert cands == [pairs[e] for e in matched.tolist()]
        assert lazily_scanned == n_scanned
        parents += [k] * len(matched)
        entries += matched.tolist()
        positions += where
        scanned.append(n_scanned)
    return parents, entries, positions, scanned


@settings(max_examples=120, deadline=None)
@given(
    index_bags(),
    st.lists(lattice_rects(anywhere), min_size=0, max_size=12),
    st.sampled_from([0.0, D, 33.0]),
    st.sampled_from([1, 2, 8]),
    st.lists(st.integers(min_value=0, max_value=11), max_size=40),
)
@example(
    # 2 x 2 buckets over [0, 100]²; entry 2 lies in all four, query row 0
    # scans all four (and meets it four times), row 1 misses the index.
    pairs=list(
        enumerate(
            [
                Rect(0.0, 0.0, 0.0, 0.0),
                Rect(100.0, 100.0, 0.0, 0.0),
                Rect(20.0, 80.0, 60.0, 60.0),
                Rect(50.0, 50.0, 0.0, 0.0),
                Rect(10.0, 90.0, 10.0, 10.0),
                Rect(60.0, 40.0, 20.0, 20.0),
                Rect(30.0, 60.0, 30.0, 0.0),
                Rect(70.0, 90.0, 0.0, 50.0),
            ]
        )
    ),
    queries=[Rect(30.0, 70.0, 40.0, 40.0), Rect(160.0, -60.0, 10.0, 10.0)],
    d=0.0,
    per_bucket=2,
    pos=[0, 1, 0, 0, 1],
)
def test_probe_frontier_is_the_per_row_probes_concatenated(
    pairs, queries, d, per_bucket, pos
):
    # Any ``pos``: repeats, any order, empty; on any index, empty too.
    # Small buckets make a short bag a many-bucket grid (up to 6 x 6), so
    # queries span buckets and meet entries more than once.
    pos = [row for row in pos if row < len(queries)]
    qbatch = RectBatch.from_pairs(np, list(enumerate(queries)))
    queries = list(enumerate(queries))
    ref = GridIndex(pairs=pairs, kernel="numpy", target_per_bucket=per_bucket)
    parents, entries, positions, scanned = _per_row(ref, pairs, queries, pos, d)

    idx = GridIndex(pairs=pairs, kernel="numpy", target_per_bucket=per_bucket)
    got = idx.probe_frontier(qbatch, np.array(pos, dtype=np.int64), d)
    assert all(a.dtype == np.int64 for a in got)
    assert [a.tolist() for a in got] == [parents, entries]
    assert idx.probes == sum(scanned) == ref.probes

    got = idx.probe_frontier(qbatch, np.array(pos, dtype=np.int64), d, scan=True)
    assert idx.probes == sum(scanned)  # scan=True charges nothing
    assert all(a.dtype == np.int64 for a in got)
    assert [a.tolist() for a in got] == [parents, entries, positions, scanned]

    # ``pos=None`` names every row once, in order.
    everyone = idx.probe_frontier(qbatch, None, d, scan=True)
    listed = idx.probe_frontier(
        qbatch, np.arange(len(queries), dtype=np.int64), d, scan=True
    )
    assert [a.tolist() for a in everyone] == [a.tolist() for a in listed]


def test_empty_numpy_index_answers_with_aligned_empty_arrays():
    idx = GridIndex(pairs=[], kernel="numpy")
    qbatch = RectBatch.from_pairs(np, [(0, Rect(1.0, 2.0, 3.0, 1.0))])
    pos = np.array([0, 0, 0], dtype=np.int64)
    matched, scanned = idx.search_batch(Rect(1.0, 2.0, 3.0, 1.0), 5.0)
    assert (matched.dtype, len(matched), scanned) == (np.int64, 0, 0)
    for got in (idx.probe_frontier(qbatch, pos, 5.0), idx.probe_frontier(qbatch)):
        assert [(a.dtype, len(a)) for a in got] == [(np.int64, 0)] * 2
    *found, scanned = idx.probe_frontier(qbatch, pos, 5.0, scan=True)
    assert [(a.dtype, len(a)) for a in found] == [(np.int64, 0)] * 3
    assert (scanned.dtype, scanned.tolist()) == (np.int64, [0, 0, 0])
    assert idx.probes == 0 and idx.batch.n == 0
