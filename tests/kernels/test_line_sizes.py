"""Property tests: a part-file bundle measures its lines without them.

The DFS sizes a ``ResultColumns`` / ``TaggedColumns`` part file by
``line_sizes()`` — integer arithmetic over the id, dataset-code and
``csv_len`` columns — and formats the text only when it is read, so the
measure must be exactly ``len(line) + 1`` of the line the codec would
write, row for row.  Inputs are adversarial: ids at every decimal-width
boundary and at the int64 extremes, floats whose ``repr`` is short, long,
signed zero, subnormal or exponent-spelled, dataset names of different
lengths, integer-valued coordinates (which spell shorter than the float
column they become) — checked on the bundle as built, after ``take``,
``concat`` and a pickle round trip, and after its batch is rebuilt
without the ``Rect`` objects.
"""

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.io import TAGGED_CODEC, TaggedRect, rect_csv
from repro.geometry.rectangle import Rect
from repro.kernels.batch import RectBatch, RectColumns, ResultColumns, TaggedColumns

INT64 = (-(2**63), 2**63 - 1)
#: every value at which a decimal spelling gains or loses a digit
EDGE_IDS = sorted(
    {0, *INT64}
    | {s * v for k in range(1, 19) for v in (10**k - 1, 10**k) for s in (1, -1)}
)
rid = st.one_of(st.sampled_from(EDGE_IDS), st.integers(*INT64))

EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,  # smallest subnormal
    2.2250738585072014e-308,  # smallest normal: the longest repr
    1e16,
    1e-7,
    0.1 + 0.2,
    1 / 3,
    123456.789,
    -1.5,
    1e22,
    7.0,
]
real = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
side = st.one_of(
    st.sampled_from([abs(v) for v in EDGE_FLOATS]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def rects(draw) -> Rect:
    if draw(st.integers(0, 9)) == 0:
        # int coordinates: spelled shorter than the float64 column
        return Rect(*(draw(st.integers(0, 10**6)) for __ in range(4)))
    return Rect(draw(real), draw(real), draw(side), draw(side))


names = st.lists(
    st.text(
        st.characters(blacklist_characters="/|,\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


def assert_sized(bundle, lines):
    """A bundle measures each line as the DFS sizes it: its UTF-8 bytes
    and the newline."""
    sizes = bundle.line_sizes()
    assert sizes.tolist() == [len(line.encode("utf-8")) + 1 for line in lines]


def variants(bundle, n):
    """The bundle, a shuffled ``take`` of it, it ``concat``-ed with
    itself and it after a pickle round trip — each with its rows in
    the order the lines below come in."""
    order = np.random.default_rng(n).permutation(n)
    yield bundle, lambda lines: lines
    yield bundle.take(order), lambda lines: [lines[i] for i in order.tolist()]
    yield type(bundle).concat([bundle, bundle.take(slice(1, None))]), (
        lambda lines: lines + lines[1:]
    )
    yield pickle.loads(pickle.dumps(bundle, protocol=5)), lambda lines: lines


@settings(max_examples=200, deadline=None)
@given(
    ids=st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(rid, min_size=k, max_size=k), max_size=30)
    )
)
def test_result_line_sizes_are_the_line_lengths(ids):
    k = len(ids[0]) if ids else 2
    columns = np.array(ids, dtype=np.int64).reshape(-1, k).T
    bundle = ResultColumns(np.ascontiguousarray(columns))
    lines = ["\t".join(map(str, row)) for row in ids]
    assert list(bundle) == lines
    for variant, reorder in variants(bundle, len(lines)):
        assert_sized(variant, reorder(lines))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 3), rid, rects(), st.booleans()), max_size=30),
    names=names,
    spelled=st.booleans(),
)
# Extents past the float range: x + l and y - b round to +-inf, as the
# scalar ``Rect`` properties do, without a numpy overflow warning.
@example(
    rows=[
        (0, 0, Rect(1.7976931348623155e308, 0.0, 2.9937604643020797e292, 0.0), False),
        (1, 1, Rect(0.0, -1.7976931348623155e308, 0.0, 2.9937604643020797e292), True),
    ],
    names=["R"],
    spelled=False,
)
def test_tagged_line_sizes_are_the_line_lengths(rows, names, spelled):
    records = [
        TaggedRect(names[code % len(names)], rid, rect, flag)
        for code, rid, rect, flag in rows
    ]
    if spelled:
        for t in records:  # staging spells every input rectangle
            rect_csv(t.rect)
    batch = RectBatch.from_records(np, [(t.rid, t.rect) for t in records])
    codes = np.array([names.index(t.dataset) for t in records], dtype=np.intp)
    bundle = TaggedColumns(
        RectColumns(names, codes, batch), np.array([t.marked for t in records], dtype=bool)
    )
    lines = TAGGED_CODEC.encode_lines(records)
    floats = all(
        type(c) is float for t in records for c in (t.rect.x, t.rect.y, t.rect.l, t.rect.b)
    )
    # Rebuilt from the float columns alone: no Rect objects, no csv_len.
    bare = TaggedColumns(
        RectColumns(
            names,
            codes,
            RectBatch(np, batch.ids, batch.x, batch.length, batch.y, batch.breadth),
        ),
        bundle.marked,
    )
    for variant, reorder in [*variants(bundle, len(lines)), (bare, lambda rows: rows)]:
        text = TAGGED_CODEC.encode_lines(variant)
        assert_sized(variant, text)
        # Without the Rect objects an int coordinate is re-spelled from
        # its float column; the size follows the text either way.
        if floats or variant.columns.batch.rects is not None:
            assert text == reorder(lines)


def test_string_rids_are_not_sized_by_column():
    batch = RectBatch.from_records(np, [("a", Rect(0.0, 1.0, 1.0, 1.0))])
    bundle = TaggedColumns(RectColumns(("R",), None, batch), np.array([True]))
    assert bundle.line_sizes() is None


def test_csv_len_is_read_off_memoised_float_spellings_only():
    floats = Rect(0.5, 2.0, 1.0, 0.25)
    rect_csv(floats)
    assert RectBatch.from_records(np, [(1, floats)]).csv_len.tolist() == [
        len(rect_csv(floats))
    ]
    unspelled = Rect(0.5, 2.0, 1.0, 0.25)
    assert RectBatch.from_records(np, [(1, unspelled)]).csv_len is None
    assert unspelled._csv is None  # measuring would have formatted it
    ints = Rect(0, 2, 1, 1)
    rect_csv(ints)
    assert RectBatch.from_records(np, [(1, ints)]).csv_len is None
