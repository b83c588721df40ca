"""Columnar rectangle batches.

A :class:`RectBatch` is the columnar twin of a list of ``(rid, Rect)``
pairs: parallel float64 arrays holding the stored fields (``x``, ``l``,
``y``, ``b``) and the derived closed extents.  The extents are computed
with the *exact* scalar expressions of ``Rect``'s properties
(``x_max = x + l``, ``y_min = y - b``) so that every downstream float
comparison is bit-identical to the object-at-a-time path.

The stored fields are kept alongside the extents because the range
predicate's enlargement (`Rect._enlarged_intersects`) is defined on
``x``/``l``/``y``/``b`` directly; reconstructing ``l`` as
``x_max - x_min`` would *not* be exact.

A :class:`RectColumns` adds a dataset column to a batch: it is the
columnar form of the ``(dataset, rid, rect)`` values the join jobs
shuffle, and at the same time a lazy sequence of exactly those tuples
for consumers that read rows.  A :class:`TupleColumns` is the same for
the partially-joined tuples of a Cascade step: one batch per bound slot
plus each tuple's encoded line.

Part files have the same two-faced form.  A numpy reducer emits its
whole output as one bundle — :class:`TaggedColumns` (round 1 of
Controlled-Replicate), :class:`TupleFileColumns` (a non-final Cascade
step), :class:`ResultColumns` (every final join) — which crosses the
process pipe as raw buffers, is kept by the DFS and is handed to the
next job's batch mapper as a slice; read as a sequence it is the
``TaggedRect`` / ``TupleRecord`` / result-line records it stands for.
A tagged or result bundle also measures its own lines by column
(``line_sizes``, integer arithmetic, no string built), so the DFS can
size the part file without formatting it; the text is formatted by
column (``encoded_lines`` / the row view) only when something reads it.
A staged input relation is the same kind of bundle,
:class:`RectFileColumns`: its ``rid,x,y,l,b`` text is formatted only on
first read, and each map split of it is a zero-copy slice.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.data.io import (
    TaggedRect,
    TupleRecord,
    encode_result_columns,
    encode_tagged_columns,
    lines_to_rects,
    rect_csv,
)
from repro.geometry.rectangle import Rect

__all__ = [
    "RectBatch",
    "RectColumns",
    "RectFileColumns",
    "TupleColumns",
    "TaggedColumns",
    "TupleFileColumns",
    "ResultColumns",
]


class RectBatch:
    """Parallel arrays for a batch of rectangles (one row per rect).

    ``ids`` is the record-id column: ``None``, a plain list (any id
    type, :meth:`from_pairs`) or an int64 array (:meth:`from_records`,
    when every id is an integer).  ``rects`` optionally keeps the
    ``Rect`` objects the rows were read from, as an object array that
    is sliced and gathered with the float columns; it never crosses a
    process boundary (row consumers of an unpickled batch get equal
    rectangles rebuilt from the columns).  ``csv_len`` optionally holds
    each row's ``len(rect_csv(rect))`` (uint8: at most 4 x 24 + 3 = 99)
    — the spelling :meth:`csvs` gives the row on either side of a
    pickle; unlike ``rects`` it travels.
    """

    __slots__ = (
        "ids", "x", "length", "y", "breadth",
        "x_min", "x_max", "y_min", "y_max", "n", "rects", "csv_len",
    )  # fmt: skip

    def __init__(self, np, ids, x, length, y, breadth, rects=None, csv_len=None):
        self.ids = ids
        self.x = x
        self.length = length
        self.y = y
        self.breadth = breadth
        # Exact scalar property expressions, elementwise.  A sum past the
        # float range is inf, as the scalar property's is, not a warning.
        self.x_min = x
        with np.errstate(over="ignore"):
            self.x_max = x + length
            self.y_min = y - breadth
        self.y_max = y
        self.n = len(x)
        self.rects = rects
        self.csv_len = csv_len

    @classmethod
    def from_pairs(cls, np, pairs):
        """Build from an iterable of ``(rid, Rect)`` pairs."""
        pairs = list(pairs)
        ids = [rid for rid, __ in pairs]
        flat = [c for __, r in pairs for c in (r.x, r.l, r.y, r.b)]
        return cls(np, ids, *cls._columns(np, flat))

    @classmethod
    def from_records(cls, np, pairs):
        """:meth:`from_pairs` for batches that travel: integer ids
        become an int64 column (any other id type stays a list), the
        ``Rect`` objects are kept for row consumers and ``csv_len`` is
        read off their memoised spellings.

        ``csv_len`` is left ``None`` when some rectangle has not been
        spelled yet (measuring it would format it) or some coordinate is
        not a ``float`` (an ``int`` spells shorter than the float64
        column it becomes, which is what :meth:`csvs` re-spells once the
        objects are gone).
        """
        pairs = list(pairs)
        rect_list = [r for __, r in pairs]
        flat = [c for r in rect_list for c in (r.x, r.l, r.y, r.b)]
        ids = [rid for rid, __ in pairs]
        int_ids = _int_column(np, ids)
        batch = cls(np, ids if int_ids is None else int_ids, *cls._columns(np, flat))
        rects = batch.rects = np.empty(batch.n, dtype=object)
        rects[:] = rect_list
        spellings = [r._csv for r in rect_list]
        if None not in spellings and set(map(type, flat)) <= {float}:
            batch.csv_len = np.fromiter(
                map(len, spellings), dtype=np.uint8, count=batch.n
            )
        return batch

    @staticmethod
    def _columns(np, flat):
        if not flat:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty, empty, empty
        arr = np.array(flat, dtype=np.float64).reshape(-1, 4)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]

    def take(self, sel) -> "RectBatch":
        """The rows at int-array positions ``sel``, in that order
        (copies) — or the rows of a ``slice`` (views)."""
        s = object.__new__(RectBatch)
        ids = self.ids
        if type(ids) is list and not isinstance(sel, slice):
            ids = [ids[i] for i in sel.tolist()]
        elif ids is not None:
            ids = ids[sel]
        s.ids = ids
        s.x = s.x_min = self.x[sel]
        s.length = self.length[sel]
        s.y = s.y_max = self.y[sel]
        s.breadth = self.breadth[sel]
        s.x_max = self.x_max[sel]
        s.y_min = self.y_min[sel]
        s.n = len(s.x)
        s.rects = self.rects[sel] if self.rects is not None else None
        s.csv_len = self.csv_len[sel] if self.csv_len is not None else None
        return s

    @classmethod
    def concat(cls, np, batches) -> "RectBatch":
        """Row-wise concatenation (``ids``/``rects``/``csv_len`` survive
        only when every part carries them; ``ids`` stay an array only
        when every part's are)."""

        def column(name):
            parts = [getattr(b, name) for b in batches]
            if any(p is None or type(p) is list for p in parts):
                return None
            return np.concatenate(parts)

        ids = column("ids")
        if ids is None and all(b.ids is not None for b in batches):
            ids = [rid for b in batches for rid in b.id_list()]
        return cls(
            np,
            ids,
            column("x"),
            column("length"),
            column("y"),
            column("breadth"),
            column("rects"),
            column("csv_len"),
        )

    # -- row access ------------------------------------------------------
    def int_ids(self, np):
        """``ids`` as an int64 array, or ``None`` when some id is not an
        integer (same-dataset distinctness compares this column)."""
        ids = self.ids
        return _int_column(np, ids) if type(ids) is list else ids

    def ids_at(self, positions) -> list:
        """The record ids at int-array ``positions``, as Python values."""
        ids = self.ids
        if type(ids) is list:
            return [ids[p] for p in positions.tolist()]
        return ids[positions].tolist()

    def id_list(self) -> list:
        """Every record id, as Python values."""
        ids = self.ids
        return ids if type(ids) is list else ids.tolist()

    def csvs(self) -> list[str]:
        """Each row's :func:`~repro.data.io.rect_csv` spelling: memoised
        on the kept ``Rect`` objects, else formatted from the columns
        (the same floats, so the same ``repr``)."""
        if self.rects is not None:
            return [rect_csv(rect) for rect in self.rects.tolist()]
        return [
            f"{x!r},{y!r},{l!r},{b!r}"
            for x, y, l, b in zip(
                self.x.tolist(),
                self.y.tolist(),
                self.length.tolist(),
                self.breadth.tolist(),
            )
        ]

    def csv_lens(self, np):
        """Each row's ``len`` of :meth:`csvs`: the ``csv_len`` column,
        else measured on the spellings."""
        if self.csv_len is not None:
            return self.csv_len
        return np.fromiter(map(len, self.csvs()), dtype=np.int64, count=self.n)

    def rect_list(self) -> list[Rect]:
        """The rows as ``Rect`` objects: the originals when they were
        kept, otherwise equal rectangles rebuilt from the columns."""
        if self.rects is not None:
            return self.rects.tolist()
        new = Rect.__new__
        out = []
        for state in zip(
            self.x.tolist(),
            self.y.tolist(),
            self.length.tolist(),
            self.breadth.tolist(),
        ):
            rect = new(Rect)
            rect.__setstate__(state)  # the columns came from valid rects
            out.append(rect)
        return out

    def pairs(self) -> list[tuple]:
        """The row form: ``(rid, Rect)`` pairs."""
        return list(zip(self.id_list(), self.rect_list()))

    def __len__(self) -> int:
        return self.n

    # Only the stored columns (and ``csv_len``) travel; the extents are
    # recomputed with the same expressions, the kept ``Rect`` objects
    # stay behind.
    def __getstate__(self):
        csv_len = self.csv_len
        return (
            self.ids,
            *(
                np.ascontiguousarray(c)
                for c in (self.x, self.length, self.y, self.breadth)
            ),
            None if csv_len is None else np.ascontiguousarray(csv_len),
        )

    def __setstate__(self, state) -> None:
        *columns, csv_len = state
        self.__init__(np, *columns, csv_len=csv_len)


def _decimal_widths(np, ids):
    """``len(str(v))`` of every int64 ``v`` in ``ids``, any shape.

    The width is a step function of ``v`` that changes at ``±10**k``:
    one ``searchsorted`` against the first value of every step (sign
    included) indexes a table of widths.
    """
    starts, widths = _width_steps(np)
    return widths[np.searchsorted(starts, ids, side="right")]


@functools.cache
def _width_steps(np):
    """``(first value of each decimal-width step, its width)`` over int64."""
    tens = [10**k for k in range(1, 19)]
    starts = np.array([1 - t for t in reversed(tens)] + [0] + tens, dtype=np.int64)
    widths = np.array([*range(20, 1, -1), 1, *range(2, 20)], dtype=np.int64)
    starts.flags.writeable = widths.flags.writeable = False
    return starts, widths


def _without_csv_len(batch: RectBatch) -> RectBatch:
    """``batch``, or a view of it without the ``csv_len`` column."""
    if batch.csv_len is None:
        return batch
    bare = batch.take(slice(0, batch.n))
    bare.csv_len = None
    return bare


def _int_column(np, ids: list):
    """``ids`` as an int64 array when every element is an integer."""
    if not ids:
        return np.empty(0, dtype=np.int64)
    try:
        arr = np.asarray(ids)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if arr.dtype == np.int64 and arr.ndim == 1 else None


class _ColumnRows(Sequence):
    """The row view of a column bundle: the rows it stands for,
    materialised on first row access (``_materialise``, into
    ``_tuples``); a single row is read through ``take`` without
    materialising them all (pair sizing reads one per dataset)."""

    __slots__ = ()

    def __getitem__(self, i):
        if self._tuples is None and not isinstance(i, slice):
            n = len(self)
            if i < 0:
                i += n
            if not 0 <= i < n:
                raise IndexError(f"{type(self).__name__} index out of range")
            return self.take(slice(i, i + 1))._materialise()[0]
        return self._materialise()[i]

    def __iter__(self):
        return iter(self._materialise())


class RectColumns(_ColumnRows):
    """The ``(dataset, rid, rect)`` shuffle values of a join job, columnar.

    Row ``i`` stands for ``(names[codes[i]], batch.ids[i], rect i)``;
    ``codes is None`` means every row belongs to ``names[0]``.  The
    bundle is what a batch mapper hands :meth:`MapContext.emit_batch` as
    its ``values`` and what a columnar reduce group arrives as — as a
    ``Sequence`` it also *is* those tuples, materialised on first row
    access, for every consumer that reads rows (the row shuffle,
    map-only output, scalar reducers).

    ``take`` / ``concat`` are the engine's columnar-source protocol: a
    reduce group is ``concat`` of each segment's ``take``.
    """

    __slots__ = ("names", "codes", "batch", "_tuples")

    def __init__(self, names, codes, batch: RectBatch) -> None:
        self.names = tuple(names)
        self.codes = codes if len(self.names) > 1 else None
        self.batch = batch
        self._tuples: list[tuple] | None = None

    def __len__(self) -> int:
        return self.batch.n

    def datasets(self) -> list[str]:
        """Every row's dataset name."""
        names = self.names
        if self.codes is None:
            return list(names[:1]) * self.batch.n
        return [names[c] for c in self.codes.tolist()]

    def _materialise(self) -> list[tuple]:
        rows = self._tuples
        if rows is None:
            rows = self._tuples = [
                (dataset, rid, rect)
                for dataset, (rid, rect) in zip(self.datasets(), self.batch.pairs())
            ]
        return rows

    def take(self, rows) -> "RectColumns":
        """The rows at positions ``rows`` (an int array or a slice)."""
        codes = self.codes
        return RectColumns(
            self.names,
            codes[rows] if codes is not None else None,
            self.batch.take(rows),
        )

    @classmethod
    def concat(cls, parts) -> "RectColumns":
        """Row-wise concatenation; the name tables are merged in order
        of first appearance."""
        code_of: dict[str, int] = {}
        columns = []
        for part in parts:
            remap = [code_of.setdefault(name, len(code_of)) for name in part.names]
            if part.codes is None:
                columns.append(np.full(len(part), remap[0], dtype=np.intp))
            else:
                columns.append(np.asarray(remap, dtype=np.intp)[part.codes])
        return cls(
            code_of,
            np.concatenate(columns),
            RectBatch.concat(np, [part.batch for part in parts]),
        )

    def by_dataset(self) -> dict[str, RectBatch]:
        """One batch per dataset — received order within a dataset,
        datasets in order of first appearance (the order a
        ``setdefault`` walk over the rows would create them in)."""
        if not self.batch.n:
            return {}
        codes = self.codes
        if codes is None:
            return {self.names[0]: self.batch}
        rows_of = [np.flatnonzero(codes == c) for c in range(len(self.names))]
        present = [(rows[0], c) for c, rows in enumerate(rows_of) if len(rows)]
        return {self.names[c]: self.batch.take(rows_of[c]) for __, c in sorted(present)}

    def __getstate__(self):
        return (self.names, self.codes, self.batch)

    def __setstate__(self, state) -> None:
        self.__init__(*state)


class TupleColumns(_ColumnRows):
    """The ``("T", TupleRecord)`` shuffle values of a Cascade step, columnar.

    Row ``i`` stands for the tuple binding, for every ``k``, slot
    ``slots[k]`` to row ``i`` of ``batches[k]`` (the batches align), and
    carrying the encoded line ``lines[i]`` (an object array) that sizes
    it in the shuffle and is its durable form.  Like
    :class:`RectColumns` it is what a batch mapper hands ``emit_batch``,
    what a columnar reduce group arrives as, and — for row consumers —
    a lazy sequence of exactly those ``("T", TupleRecord)`` values.

    ``records`` optionally keeps the :class:`TupleRecord` objects the
    rows were read from (an object array, like ``RectBatch.rects``):
    in-process row consumers get them back as they were — a spilling
    map task pickles exactly what the scalar mapper would — and they
    never cross a process boundary.
    """

    __slots__ = ("slots", "batches", "lines", "records", "_tuples")

    def __init__(self, slots, batches, lines, records=None) -> None:
        self.slots = tuple(slots)
        self.batches = tuple(batches)
        self.lines = lines
        self.records = records
        self._tuples: list[tuple] | None = None

    @classmethod
    def from_records(cls, np, slots, records) -> "TupleColumns":
        """Columns of a list of :class:`TupleRecord` binding ``slots``."""
        batches = [
            RectBatch.from_records(np, [record.bindings[slot] for record in records])
            for slot in slots
        ]
        lines = _object_column(np, [record.line for record in records])
        return cls(slots, batches, lines, _object_column(np, records))

    def batch(self, slot: str) -> RectBatch:
        return self.batches[self.slots.index(slot)]

    def __len__(self) -> int:
        return len(self.lines)

    def tuple_records(self) -> list[TupleRecord]:
        """The rows as :class:`TupleRecord` objects: the originals when
        they were kept, otherwise equal records rebuilt from the columns."""
        if self.records is not None:
            return self.records.tolist()
        slots = self.slots
        bound = zip(*(batch.pairs() for batch in self.batches))
        return [
            TupleRecord(dict(zip(slots, row)), line)
            for row, line in zip(bound, self.lines.tolist())
        ]

    def _materialise(self) -> list[tuple]:
        rows = self._tuples
        if rows is None:
            rows = self._tuples = [("T", record) for record in self.tuple_records()]
        return rows

    def take(self, rows) -> "TupleColumns":
        """The rows at positions ``rows`` (an int array or a slice)."""
        return type(self)(
            self.slots,
            [batch.take(rows) for batch in self.batches],
            self.lines[rows],
            self.records[rows] if self.records is not None else None,
        )

    @classmethod
    def concat(cls, parts) -> "TupleColumns":
        """Row-wise concatenation of parts binding the same slots
        (``records`` survive only when every part carries them)."""
        first = parts[0]
        records = None
        if all(part.records is not None for part in parts):
            records = np.concatenate([part.records for part in parts])
        return cls(
            first.slots,
            [
                RectBatch.concat(np, [part.batches[k] for part in parts])
                for k in range(len(first.slots))
            ],
            np.concatenate([part.lines for part in parts]),
            records,
        )

    # A tuple is sized and written by its line, so its batches travel
    # without ``csv_len``.
    def __getstate__(self):
        return (
            self.slots,
            [_without_csv_len(batch) for batch in self.batches],
            self.lines.tolist(),
        )

    def __setstate__(self, state) -> None:
        slots, batches, lines = state
        self.__init__(slots, batches, _object_column(np, lines))


class TupleFileColumns(TupleColumns):
    """A non-final Cascade step's part file, columnar.

    The same columns as the :class:`TupleColumns` the next step's mapper
    routes (:meth:`shuffle_values` re-tags them without copying), but
    read as rows it is the part file's :class:`TupleRecord` records, and
    ``lines`` is its text.
    """

    __slots__ = ()

    def _materialise(self) -> list[TupleRecord]:
        rows = self._tuples
        if rows is None:
            rows = self._tuples = self.tuple_records()
        return rows

    def encoded_lines(self) -> list[str]:
        return self.lines.tolist()

    def shuffle_values(self, slots) -> TupleColumns:
        """These rows as the ``("T", TupleRecord)`` values of a step
        binding ``slots`` (batches reordered to match)."""
        return TupleColumns(
            slots, [self.batch(slot) for slot in slots], self.lines, self.records
        )


class RectFileColumns(_ColumnRows):
    """A rectangle file — ``(rid, Rect)`` records, ``rid,x,y,l,b``
    lines — columnar: row ``i`` stands for ``(batch.ids[i], rect i)``.

    Every rectangle-codec file keeps its typed records as this bundle: a
    staged relation (:meth:`from_pairs`) or a file decoded from text
    (:meth:`from_lines`).  A map split of the file is a zero-copy slice
    of it, and a batch mapper reads its ``batch``.  The bundle measures
    its lines without formatting them — the rid's decimal width, the
    ``repr`` coordinate spelling's length (``RectBatch.csv_lens``: each
    rectangle is spelled once, memoised) and two bytes (comma, newline)
    — except that a bundle decoded from text keeps the sizes of the
    lines it was read from (``sizes``), whose float spelling need not
    be ``repr``'s.
    """

    __slots__ = ("batch", "sizes", "_tuples")

    def __init__(self, batch: RectBatch, sizes=None) -> None:
        self.batch = batch
        self.sizes = sizes
        self._tuples: list[tuple] | None = None

    @classmethod
    def from_pairs(cls, np, pairs) -> "RectFileColumns":
        """The bundle of a list of ``(rid, Rect)`` records."""
        return cls(RectBatch.from_records(np, pairs))

    @classmethod
    def from_lines(cls, np, lines) -> "RectFileColumns":
        """The bundle of a file's text, sized by its lines."""
        sizes = np.fromiter(
            (len(line) if line.isascii() else len(line.encode("utf-8")) for line in lines),
            dtype=np.int64,
            count=len(lines),
        )
        return cls(RectBatch.from_records(np, lines_to_rects(lines)), sizes + 1)

    def __len__(self) -> int:
        return self.batch.n

    def _materialise(self) -> list[tuple]:
        rows = self._tuples
        if rows is None:
            rows = self._tuples = self.batch.pairs()
        return rows

    def encoded_lines(self) -> list[str]:
        batch = self.batch
        return [f"{rid},{csv}" for rid, csv in zip(batch.id_list(), batch.csvs())]

    def line_sizes(self):
        """Each row's UTF-8 ``len(line) + 1``: the sizes of the lines the
        bundle was decoded from, else by integer arithmetic — or
        ``None`` when the ids are not an int64 column (the text must
        then be built to be sized)."""
        if self.sizes is not None:
            return self.sizes
        batch = self.batch
        if type(batch.ids) is list:
            return None
        return _decimal_widths(np, batch.ids) + batch.csv_lens(np) + 2

    def take(self, rows) -> "RectFileColumns":
        """The rows at positions ``rows`` (an int array or a slice)."""
        sizes = self.sizes
        return RectFileColumns(
            self.batch.take(rows), None if sizes is None else sizes[rows]
        )

    def __getstate__(self):
        return (self.batch, self.sizes)

    def __setstate__(self, state) -> None:
        self.__init__(*state)


class TaggedColumns(_ColumnRows):
    """Controlled-Replicate's round-1 part file — :class:`TaggedRect`
    records — columnar.

    Row ``i`` stands for ``TaggedRect(dataset, rid, rect, marked[i])``
    with ``(dataset, rid, rect)`` row ``i`` of ``columns`` — which is, as
    it stands, the shuffle values round 2's mapper emits.
    """

    __slots__ = ("columns", "marked", "_tuples")

    def __init__(self, columns: RectColumns, marked) -> None:
        self.columns = columns
        self.marked = marked
        self._tuples: list[TaggedRect] | None = None

    def __len__(self) -> int:
        return len(self.marked)

    def _materialise(self) -> list[TaggedRect]:
        rows = self._tuples
        if rows is None:
            rows = self._tuples = [
                TaggedRect(dataset, rid, rect, flag)
                for (dataset, rid, rect), flag in zip(self.columns, self.marked.tolist())
            ]
        return rows

    def encoded_lines(self) -> list[str]:
        batch = self.columns.batch
        return encode_tagged_columns(
            self.columns.datasets(), batch.id_list(), self.marked.tolist(), batch.csvs()
        )

    def line_sizes(self):
        """Each row's UTF-8 ``len(line) + 1`` — ``dataset|rid|flag|csv``
        and its newline — by integer arithmetic, or ``None`` when the ids
        are not an int64 column (the text must then be built to be
        sized)."""
        columns = self.columns
        batch = columns.batch
        if type(batch.ids) is list:
            return None
        name_len = np.array(
            [len(name.encode("utf-8")) for name in columns.names], dtype=np.int64
        )
        per_row = name_len[0] if columns.codes is None else name_len[columns.codes]
        return per_row + _decimal_widths(np, batch.ids) + batch.csv_lens(np) + 5

    def take(self, rows) -> "TaggedColumns":
        """The rows at positions ``rows`` (an int array or a slice)."""
        return TaggedColumns(self.columns.take(rows), self.marked[rows])

    @classmethod
    def concat(cls, parts) -> "TaggedColumns":
        return cls(
            RectColumns.concat([part.columns for part in parts]),
            np.concatenate([part.marked for part in parts]),
        )

    def __getstate__(self):
        return (self.columns, self.marked)

    def __setstate__(self, state) -> None:
        self.__init__(*state)


class ResultColumns(_ColumnRows):
    """A final join's part file — ``rid<TAB>rid...`` lines in query slot
    order — columnar: ``ids[k]`` is the int64 record-id column of the
    ``k``-th slot (one 2-D array, slots x rows).  Read as rows it is the
    lines themselves, the records of a codec-less job.
    """

    __slots__ = ("ids", "_tuples")

    def __init__(self, ids) -> None:
        self.ids = ids
        self._tuples: list[str] | None = None

    def __len__(self) -> int:
        return self.ids.shape[1]

    def _materialise(self) -> list[str]:
        rows = self._tuples
        if rows is None:
            rows = self._tuples = encode_result_columns(self.ids.tolist())
        return rows

    def line_sizes(self):
        """Each row's ``len(line) + 1`` — its ids' decimal widths, the
        tabs between them and the newline — by integer arithmetic."""
        return _decimal_widths(np, self.ids).sum(axis=0) + len(self.ids)

    def id_tuples(self) -> list[tuple[int, ...]]:
        """The rows as rid tuples — what ``decode_result`` makes of the lines."""
        return list(zip(*self.ids.tolist()))

    def take(self, rows) -> "ResultColumns":
        """The rows at positions ``rows`` (an int array or a slice)."""
        return ResultColumns(self.ids[:, rows])

    @classmethod
    def concat(cls, parts) -> "ResultColumns":
        return cls(np.concatenate([part.ids for part in parts], axis=1))

    def __getstate__(self):
        return (np.ascontiguousarray(self.ids),)

    def __setstate__(self, state) -> None:
        self.__init__(*state)


def _object_column(np, items: list):
    """``items`` as a 1-D object array (never interpreted as nested)."""
    column = np.empty(len(items), dtype=object)
    column[:] = items
    return column
