"""Fuzz the fast single-pass codec paths against reference decoders.

The PR-7 codec work rewrote the scalar decoders with bounded splits
(``maxsplit=...``) and added bulk ``encode_lines``/``decode_lines``
overrides.  These tests pin the byte-level contract: for *any* input
line — valid, mutated, or random garbage — the fast path and a
straightforward reference implementation must either return equal
records or raise :class:`DFSError` with the identical message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import (
    RECT_CODEC,
    TAGGED_CODEC,
    TUPLE_CODEC,
    TaggedRect,
    TupleRecord,
    decode_rect,
    decode_tagged,
    decode_tuple,
    encode_rect,
    encode_tagged,
    encode_tuple,
    lines_to_rects,
)
from repro.errors import DFSError, GeometryError
from repro.geometry.rectangle import Rect

# ----------------------------------------------------------------------
# Reference decoders: the naive unbounded-split forms the fast paths
# replaced.  Kept deliberately simple — correctness baseline, not speed.
# ----------------------------------------------------------------------


def ref_decode_rect(line):
    try:
        rid_s, x, y, l, b = line.split(",")
        return int(rid_s), Rect(float(x), float(y), float(l), float(b))
    except (ValueError, TypeError) as exc:
        raise DFSError(f"malformed rectangle record {line!r}") from exc


def ref_decode_tagged(line):
    try:
        dataset, rid_s, marked_s, coords = line.split("|")
        x, y, l, b = coords.split(",")
        return TaggedRect(
            dataset=dataset,
            rid=int(rid_s),
            rect=Rect(float(x), float(y), float(l), float(b)),
            marked=bool(int(marked_s)),
        )
    except (ValueError, TypeError) as exc:
        raise DFSError(f"malformed tagged record {line!r}") from exc


def ref_decode_tuple(line):
    try:
        bindings = {}
        for part in line.split(";"):
            slot, payload = part.split("=")
            rid_s, x, y, l, b = payload.split(":")
            bindings[slot] = (
                int(rid_s),
                Rect(float(x), float(y), float(l), float(b)),
            )
        return bindings
    except (ValueError, TypeError) as exc:
        raise DFSError(f"malformed tuple record {line!r}") from exc


def outcome(fn, line):
    """``("ok", value)`` or ``("<kind>", message)`` — comparable either way.

    ``GeometryError`` (a mutated line parsing to a negative side, say)
    escapes both implementations, so it too is captured and compared.
    """
    try:
        return ("ok", fn(line))
    except DFSError as exc:
        return ("err", str(exc))
    except GeometryError as exc:
        return ("geom", str(exc))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coord = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
side = st.floats(min_value=0, max_value=1e6, allow_nan=False)
rects = st.builds(Rect, x=coord, y=coord, l=side, b=side)
rids = st.integers(min_value=0, max_value=2**31)
dataset_names = st.text(
    alphabet=st.characters(blacklist_characters="|,\n\r"), min_size=1, max_size=8
)
slot_names = st.text(
    alphabet=st.characters(blacklist_characters="=;:|,\n\r"), min_size=1, max_size=8
)
#: raw garbage plus the delimiters the decoders key on, so mutation
#: actually exercises the bounded-split edge cases
noisy_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
)


@st.composite
def mutated_lines(draw, encoder):
    """A valid encoded line with random delimiter/garbage splices."""
    line = draw(encoder)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=len(line)))
        splice = draw(st.sampled_from(["|", ",", ";", "=", ":", "x", "-", ""]))
        line = line[:pos] + splice + line[pos:]
    return line


valid_rect_lines = st.builds(encode_rect, rids, rects)
valid_tagged_lines = st.builds(
    lambda d, rid, r, m: encode_tagged(TaggedRect(d, rid, r, m)),
    dataset_names,
    rids,
    rects,
    st.booleans(),
)
valid_tuple_lines = st.builds(
    lambda bindings: encode_tuple(bindings),
    st.dictionaries(slot_names, st.tuples(rids, rects), min_size=1, max_size=3),
)


# ----------------------------------------------------------------------
# Scalar decoder equivalence
# ----------------------------------------------------------------------
class TestScalarEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_rect_lines, mutated_lines(valid_rect_lines), noisy_text))
    def test_decode_rect(self, line):
        assert outcome(decode_rect, line) == outcome(ref_decode_rect, line)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(valid_tagged_lines, mutated_lines(valid_tagged_lines), noisy_text)
    )
    def test_decode_tagged(self, line):
        assert outcome(decode_tagged, line) == outcome(ref_decode_tagged, line)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_tuple_lines, mutated_lines(valid_tuple_lines), noisy_text))
    def test_decode_tuple(self, line):
        assert outcome(decode_tuple, line) == outcome(ref_decode_tuple, line)

    def test_known_fold_cases(self):
        """The bounded splits fold stray delimiters into fields the float
        or int parse then rejects — same lines fail, same messages."""
        for line in [
            "a|1|1|0,0,0,0|extra",  # stray | folds into coords
            "a|1|1|0,0,0,0,9",  # too many coordinate fields
            "s=1:0:0:0:0=x",  # stray = folds into payload
            "s=t=1:0:0:0:0",  # = in what looks like a slot name
            "1,2,3,4,5,6",  # too many rect fields
        ]:
            for fast, ref in [
                (decode_tagged, ref_decode_tagged),
                (decode_tuple, ref_decode_tuple),
                (decode_rect, ref_decode_rect),
            ]:
                assert outcome(fast, line) == outcome(ref, line)


# ----------------------------------------------------------------------
# Bulk codec equivalence: encode_lines / decode_lines vs per-record
# ----------------------------------------------------------------------
class TestBulkEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(rids, rects), max_size=10))
    def test_rect_codec(self, records):
        lines = RECT_CODEC.encode_lines(records)
        assert lines == [RECT_CODEC.encode(r) for r in records]
        assert list(RECT_CODEC.decode_lines(lines)) == [
            RECT_CODEC.decode(line) for line in lines
        ]
        assert lines_to_rects(lines) == [decode_rect(line) for line in lines]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.builds(TaggedRect, dataset_names, rids, rects, st.booleans()),
            max_size=10,
        )
    )
    def test_tagged_codec(self, records):
        lines = TAGGED_CODEC.encode_lines(records)
        assert lines == [TAGGED_CODEC.encode(r) for r in records]
        assert TAGGED_CODEC.decode_lines(lines) == [
            TAGGED_CODEC.decode(line) for line in lines
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                slot_names, st.tuples(rids, rects), min_size=1, max_size=3
            ),
            max_size=6,
        )
    )
    def test_tuple_codec(self, bindings_list):
        records = [TupleRecord(b) for b in bindings_list]
        lines = TUPLE_CODEC.encode_lines(records)
        assert lines == [TUPLE_CODEC.encode(r) for r in records]
        assert TUPLE_CODEC.decode_lines(lines) == [
            TUPLE_CODEC.decode(line) for line in lines
        ]

    def test_tagged_bulk_rejects_delimiter_dataset(self):
        bad = TaggedRect("a|b", 1, Rect(0, 0, 1, 1), False)
        with pytest.raises(DFSError, match="delimiter"):
            TAGGED_CODEC.encode_lines([bad])
        with pytest.raises(DFSError, match="delimiter"):
            TAGGED_CODEC.encode(bad)

    def test_csv_cache_never_leaks_input_spelling(self):
        """A rectangle decoded from a non-``repr`` spelling must re-encode
        in canonical ``repr`` form — the ``_csv`` cache is only ever
        seeded by an encode, never by decoded input text."""
        rid, rect = decode_rect("7,1.50,2.2500,3.0,4.000")
        assert encode_rect(rid, rect) == "7,1.5,2.25,3.0,4.0"
