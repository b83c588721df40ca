"""Record codecs: how rectangles and tuples cross DFS job boundaries.

All durable records are single text lines (the DFS is line-oriented),
and floats are encoded with ``repr`` so every coordinate round-trips
exactly — duplicate avoidance compares start-points for cell ownership,
so lossy encodings would corrupt results.

Formats
-------
* rectangle input record     ``rid,x,y,l,b``
* tagged rectangle record    ``dataset|rid|marked|x,y,l,b``
  (output of Controlled-Replicate's round 1: which dataset the rectangle
  belongs to and whether round 2 must replicate it)
* tuple record               ``slot=rid:x:y:l:b;slot=rid:x:y:l:b;...``
  (2-way Cascade intermediates: partially-joined tuples)
* result record              ``rid<TAB>rid<TAB>...`` in query slot order

Typed record path
-----------------
Since PR 2 the engine can carry these records across job boundaries as
Python objects instead of strings.  A :class:`RecordCodec` pairs each
line format with its typed form; jobs declare input/output codecs and
the DFS keeps the decoded objects next to the encoded lines
(encode-once: a record is serialized exactly once, when its part file
is written, for byte accounting and durability — downstream maps read
the objects back without re-parsing).  The codec registry below maps
stable names to codec instances so job specs and tests can refer to
them symbolically.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import DFSError
from repro.geometry.rectangle import Rect

__all__ = [
    "rect_csv",
    "encode_rect",
    "decode_rect",
    "TaggedRect",
    "encode_tagged",
    "encode_tagged_columns",
    "decode_tagged",
    "tuple_fragments",
    "encode_tuple",
    "decode_tuple",
    "encode_result",
    "encode_result_columns",
    "decode_result",
    "rects_to_lines",
    "lines_to_rects",
    "TupleRecord",
    "RecordCodec",
    "RectCodec",
    "TaggedCodec",
    "TupleCodec",
    "RECT_CODEC",
    "TAGGED_CODEC",
    "TUPLE_CODEC",
    "CODECS",
    "get_codec",
]


def rect_csv(rect: Rect) -> str:
    """``repr(x),repr(y),repr(l),repr(b)`` — memoized on the rectangle.

    Every line format embeds this exact spelling, so a rectangle that
    crosses several job boundaries (input -> tagged -> shuffle) is
    formatted once and concatenated thereafter.  The cache is only ever
    written with the ``repr`` form — never the decoded input text, whose
    float spelling may differ — so encoded bytes are unchanged.
    """
    s = rect._csv
    if s is None:
        s = f"{rect.x!r},{rect.y!r},{rect.l!r},{rect.b!r}"
        object.__setattr__(rect, "_csv", s)
    return s


def encode_rect(rid: int, rect: Rect) -> str:
    """``rid,x,y,l,b`` — the base relation record."""
    return f"{rid},{rect_csv(rect)}"


def decode_rect(line: str) -> tuple[int, Rect]:
    """Inverse of :func:`encode_rect`."""
    try:
        rid_s, x, y, l, b = line.split(",")
        return int(rid_s), Rect(float(x), float(y), float(l), float(b))
    except (ValueError, TypeError) as exc:
        raise DFSError(f"malformed rectangle record {line!r}") from exc


def rects_to_lines(rects) -> list[str]:
    """Encode an iterable of ``(rid, Rect)`` pairs."""
    return [f"{rid},{rect_csv(rect)}" for rid, rect in rects]


def lines_to_rects(lines) -> list[tuple[int, Rect]]:
    """Decode a sequence of rectangle records.

    Single-pass scalar fast path: one ``split`` per line, constructors
    applied inline — byte-equivalent to ``[decode_rect(l) for l in
    lines]`` (the fuzz test in ``tests/data`` drives both against each
    other), but without the per-line function-call and f-string
    overhead.
    """
    out: list[tuple[int, Rect]] = []
    append = out.append
    for line in lines:
        try:
            rid_s, x, y, l, b = line.split(",")
            append((int(rid_s), Rect(float(x), float(y), float(l), float(b))))
        except (ValueError, TypeError) as exc:
            raise DFSError(f"malformed rectangle record {line!r}") from exc
    return out


# ----------------------------------------------------------------------
# Tagged rectangles (Controlled-Replicate round-1 output)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TaggedRect:
    """A rectangle annotated with its dataset and the replication mark."""

    dataset: str
    rid: int
    rect: Rect
    marked: bool

    # Compact pickling (see Rect): a plain tuple, no per-instance
    # slots-dict — tagged rectangles are the round-2 task-result bulk.
    def __getstate__(self):
        return (self.dataset, self.rid, self.rect, self.marked)

    def __setstate__(self, state) -> None:
        sa = object.__setattr__
        dataset, rid, rect, marked = state
        sa(self, "dataset", dataset)
        sa(self, "rid", rid)
        sa(self, "rect", rect)
        sa(self, "marked", marked)


def _check_dataset_name(dataset: str) -> None:
    if "|" in dataset or "," in dataset:
        raise DFSError(f"dataset name {dataset!r} contains a delimiter")


def encode_tagged(tagged: TaggedRect) -> str:
    """``dataset|rid|marked|x,y,l,b``."""
    _check_dataset_name(tagged.dataset)
    return (
        f"{tagged.dataset}|{tagged.rid}|{int(tagged.marked)}|"
        f"{rect_csv(tagged.rect)}"
    )


def encode_tagged_columns(datasets, rids, marked, csvs) -> list[str]:
    """:func:`encode_tagged` by column: one line per row of the parallel
    dataset / rid / mark-flag / :func:`rect_csv` columns.  The dataset
    names are not checked here: the only writer of these columns is
    round 1 of Controlled-Replicate, whose names passed the staging check
    (:func:`repro.joins.base.stage_datasets`)."""
    return [
        f"{dataset}|{rid}|{int(flag)}|{csv}"
        for dataset, rid, flag, csv in zip(datasets, rids, marked, csvs)
    ]


def decode_tagged(line: str) -> TaggedRect:
    """Inverse of :func:`encode_tagged`.

    ``maxsplit=3`` folds a stray ``|`` into the coordinate field, where
    the float parse rejects it — the same lines fail as with the
    unbounded split, with the same error.
    """
    try:
        dataset, rid_s, marked_s, coords = line.split("|", 3)
        x, y, l, b = coords.split(",")
        return TaggedRect(
            dataset=dataset,
            rid=int(rid_s),
            rect=Rect(float(x), float(y), float(l), float(b)),
            marked=bool(int(marked_s)),
        )
    except (ValueError, TypeError) as exc:
        raise DFSError(f"malformed tagged record {line!r}") from exc


# ----------------------------------------------------------------------
# Partially-joined tuples (Cascade intermediates)
# ----------------------------------------------------------------------
def _check_slot_name(slot: str) -> None:
    if any(ch in slot for ch in "=;:|,"):
        raise DFSError(f"slot name {slot!r} contains a delimiter")


def tuple_fragments(slot: str, rids, csvs) -> list[str]:
    """One slot's ``slot=rid:x:y:l:b`` part of a tuple record, for every
    row of the parallel rid / :func:`rect_csv` columns."""
    _check_slot_name(slot)
    return [f"{slot}={rid}:{csv.replace(',', ':')}" for rid, csv in zip(rids, csvs)]


def encode_tuple(bindings: dict[str, tuple[int, Rect]]) -> str:
    """``slot=rid:x:y:l:b;...`` with slots in sorted order (deterministic)."""
    parts = []
    for slot in sorted(bindings):
        _check_slot_name(slot)
        rid, r = bindings[slot]
        parts.append(f"{slot}={rid}:{rect_csv(r).replace(',', ':')}")
    return ";".join(parts)


def decode_tuple(line: str) -> dict[str, tuple[int, Rect]]:
    """Inverse of :func:`encode_tuple`.

    ``maxsplit=1`` folds a stray ``=`` into the payload, where the colon
    split or float parse rejects it — the same lines fail as with the
    unbounded split, with the same error.
    """
    try:
        bindings: dict[str, tuple[int, Rect]] = {}
        for part in line.split(";"):
            slot, payload = part.split("=", 1)
            rid_s, x, y, l, b = payload.split(":")
            bindings[slot] = (
                int(rid_s),
                Rect(float(x), float(y), float(l), float(b)),
            )
        return bindings
    except (ValueError, TypeError) as exc:
        raise DFSError(f"malformed tuple record {line!r}") from exc


class TupleRecord:
    """A partially-joined tuple plus its encoded line, paired for life.

    The line is computed exactly once — at construction from fresh
    bindings (a reducer merging a new slot in) or carried over from the
    DFS (a mapper reading an intermediate file) — and reused everywhere
    a byte size or a durable form is needed: shuffle accounting charges
    ``len(line)``, part files store ``line`` verbatim.  This is what
    keeps the typed path's byte counters identical to the string path's
    while never re-encoding or re-parsing a tuple.
    """

    __slots__ = ("bindings", "line")

    def __init__(self, bindings: dict[str, tuple[int, Rect]], line: str | None = None):
        self.bindings = bindings
        self.line = encode_tuple(bindings) if line is None else line

    @classmethod
    def from_line(cls, line: str) -> "TupleRecord":
        """Decode once, keeping the original line for sizing/durability."""
        return cls(decode_tuple(line), line)

    def __getstate__(self):
        return (self.bindings, self.line)

    def __setstate__(self, state):
        self.bindings, self.line = state

    def __eq__(self, other) -> bool:
        return isinstance(other, TupleRecord) and self.line == other.line

    def __hash__(self) -> int:
        return hash(self.line)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TupleRecord({self.line!r})"


# ----------------------------------------------------------------------
# Final results
# ----------------------------------------------------------------------
def encode_result(slot_order: tuple[str, ...], bindings: dict[str, int]) -> str:
    """Tab-separated rids in query slot order — the join output record."""
    return "\t".join(str(bindings[slot]) for slot in slot_order)


def encode_result_columns(columns) -> list[str]:
    """:func:`encode_result` by column: one line per row of the record-id
    columns, given in query slot order."""
    return ["\t".join(row) for row in zip(*(map(str, column) for column in columns))]


def decode_result(line: str) -> tuple[int, ...]:
    """Inverse of :func:`encode_result` (rids in query slot order)."""
    try:
        return tuple(int(v) for v in line.split("\t"))
    except ValueError as exc:
        raise DFSError(f"malformed result record {line!r}") from exc


# ----------------------------------------------------------------------
# Record codecs (typed <-> line forms) and the codec registry
# ----------------------------------------------------------------------
class RecordCodec:
    """One line format paired with its typed record form.

    ``encode`` must be the exact inverse of ``decode``: the golden
    equivalence tests run whole joins with records crossing job
    boundaries as objects and again as strings and require byte-for-byte
    identical DFS output.
    """

    #: registry name (stable; job specs and tests refer to codecs by it)
    name: str = "abstract"

    def encode(self, record) -> str:
        raise NotImplementedError

    def decode(self, line: str):
        raise NotImplementedError

    def encode_lines(self, records) -> list[str]:
        """Bulk ``encode`` — one pass over a whole part file.

        Subclasses override with a single-listcomp fast path; the bytes
        must equal ``[self.encode(r) for r in records]`` exactly (the
        part-file writers charge and store these lines verbatim).  The
        codecs of formats that have a column bundle
        (:mod:`repro.kernels.batch`) let it format its own lines by
        column, without building the records.
        """
        return [self.encode(r) for r in records]

    def decode_lines(self, lines) -> list[Any]:
        """Bulk ``decode`` — the split loader decodes a file in one call."""
        return [self.decode(line) for line in lines]

    def columns(self, records) -> Sequence[Any]:
        """The typed form a file written from ``records`` keeps: the
        records themselves, or — for a format with a column bundle that
        a file's records always are — that bundle."""
        return records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class RectCodec(RecordCodec):
    """Base relation records: ``(rid, Rect)`` <-> ``rid,x,y,l,b``."""

    name = "rect"

    def encode(self, record) -> str:
        rid, rect = record
        return encode_rect(rid, rect)

    def decode(self, line: str):
        return decode_rect(line)

    def encode_lines(self, records) -> list[str]:
        if hasattr(records, "encoded_lines"):
            return records.encoded_lines()
        return [f"{rid},{rect_csv(rect)}" for rid, rect in records]

    def decode_lines(self, lines) -> Sequence[Any]:
        """A file's records as its :class:`~repro.kernels.batch
        .RectFileColumns` bundle, sized by ``lines``."""
        import numpy as np

        from repro.kernels.batch import RectFileColumns

        return RectFileColumns.from_lines(np, lines)

    def columns(self, records) -> Sequence[Any]:
        """``records`` as a :class:`~repro.kernels.batch.RectFileColumns`
        bundle, which sizes its lines by column."""
        import numpy as np

        from repro.kernels.batch import RectFileColumns

        if isinstance(records, RectFileColumns):
            return records
        return RectFileColumns.from_pairs(np, records)


class TaggedCodec(RecordCodec):
    """Marked rectangles: :class:`TaggedRect` <-> ``dataset|rid|marked|...``."""

    name = "tagged"

    def encode(self, record) -> str:
        return encode_tagged(record)

    def decode(self, line: str):
        return decode_tagged(line)

    def encode_lines(self, records) -> list[str]:
        if hasattr(records, "encoded_lines"):
            return records.encoded_lines()
        out: list[str] = []
        append = out.append
        for t in records:
            dataset = t.dataset
            if "|" in dataset or "," in dataset:
                raise DFSError(f"dataset name {dataset!r} contains a delimiter")
            append(f"{dataset}|{t.rid}|{int(t.marked)}|{rect_csv(t.rect)}")
        return out


class TupleCodec(RecordCodec):
    """Cascade intermediates: :class:`TupleRecord` <-> its own line.

    Encoding returns the record's carried line (computed at
    construction), so writing a part file never re-serializes.
    """

    name = "tuple"

    def encode(self, record) -> str:
        return record.line

    def decode(self, line: str):
        return TupleRecord.from_line(line)

    def encode_lines(self, records) -> list[str]:
        if hasattr(records, "encoded_lines"):
            return records.encoded_lines()
        return [r.line for r in records]


RECT_CODEC = RectCodec()
TAGGED_CODEC = TaggedCodec()
TUPLE_CODEC = TupleCodec()

#: the codec registry: stable name -> shared codec instance
CODECS: dict[str, RecordCodec] = {
    c.name: c for c in (RECT_CODEC, TAGGED_CODEC, TUPLE_CODEC)
}


def get_codec(name: str) -> RecordCodec:
    """Look up a codec by registry name."""
    try:
        return CODECS[name]
    except KeyError:
        raise DFSError(
            f"unknown codec {name!r}; registered: {sorted(CODECS)}"
        ) from None
