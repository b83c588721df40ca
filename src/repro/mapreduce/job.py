"""Map-reduce job specification and task contexts (Section 2).

A job is the classic two-function program::

    map:    (k1, v1)   -> [(k2, v2)]
    reduce: (k2, [v2]) -> [k3/v3 output records]

Map input records are ``(line_number, record)`` pairs read from DFS
files; reduce output records are written back to DFS.  By default both
sides are text lines, but a job may declare record codecs
(:class:`~repro.data.io.RecordCodec`):

* ``input_codec`` — map input crosses as typed records (decoded once at
  split time, or handed over decoded from the upstream job's reduce);
  a mapping assigns a codec per declared input path for jobs mixing
  record formats.
* ``output_codec`` — reduce emissions are typed records; the engine
  encodes each exactly once when writing the part file (byte accounting
  and durability) and keeps the objects for the next job in the chain.

The intermediate keys of every join job in this library are
partition-cell ids (ints) and the intermediate values are small tuples;
their shuffle size is charged through the job's :class:`ShuffleCodec`,
which defaults to the generic :func:`estimate_size` walk.  Typed jobs
install O(1) sizers that reproduce the exact byte counts the string
path would report, so the cost model sees identical volumes either way.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from typing import Any

import numpy as np

from repro.data.io import RecordCodec
from repro.errors import JobError
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.spill import decode_run, encode_run

__all__ = [
    "MapReduceJob",
    "MapContext",
    "SpillingMapContext",
    "ReduceContext",
    "ShuffleCodec",
    "BucketSegment",
    "SplitEntries",
    "ValueRuns",
    "KindRuns",
    "gather_values",
    "distinct_values",
    "DEFAULT_SHUFFLE_CODEC",
    "estimate_size",
    "default_sort_key",
    "identity_partitioner",
    "hash_partitioner",
]

#: map(key, value, context) -> None; emits via ``context.emit``.
Mapper = Callable[[Any, str, "MapContext"], None]
#: reduce(key, values, context) -> None; emits via ``context.emit``
#: (a ``segmented`` job's: reduce(keys, values, bounds, contexts), per range).
Reducer = Callable[[Any, Sequence[Any], "ReduceContext"], None]


def estimate_size(obj: Any) -> int:
    """Deterministic serialized-size estimate of an intermediate record.

    Strings count their length; numbers count 8 bytes; containers count
    their elements plus 2 bytes of framing.  Exact wire formats do not
    matter — the cost model only needs sizes that scale with the data.
    """
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, bool) or obj is None:
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (tuple, list)):
        return 2 + sum(estimate_size(o) for o in obj)
    if isinstance(obj, dict):
        return 2 + sum(
            estimate_size(k) + estimate_size(v) for k, v in obj.items()
        )
    return 16  # conservative default for exotic values


@dataclass(frozen=True)
class ShuffleCodec:
    """Per-job byte sizing of intermediate ``(key, value)`` pairs.

    ``key_size``/``value_size`` return the charged serialized size of one
    key/value.  The default walks the object with :func:`estimate_size`;
    typed jobs install constant-time sizers that reproduce the byte
    counts of their string-era value layout, keeping MAP_OUTPUT_BYTES —
    and everything the cost model derives from it — unchanged.
    """

    key_size: Callable[[Any], int]
    value_size: Callable[[Any], int]


#: the seed behaviour: generic structural size estimate on both parts
DEFAULT_SHUFFLE_CODEC = ShuffleCodec(estimate_size, estimate_size)


def default_sort_key(key: Any) -> Any:
    """Identity ordering of intermediate keys — the job default.

    A named function (not a lambda) so the engine can *recognise* the
    default by identity: the columnar reduce path replaces the Python
    stable sort with a numpy stable argsort only when it can prove the
    sort key is the key itself.
    """
    return key


def identity_partitioner(key: Any, num_reducers: int) -> int:
    """Route integer keys directly: reducer ``key % num_reducers``.

    With one reducer per partition-cell and cell ids as keys this is the
    paper's routing rule "pair ``(c_i, u)`` is routed to reducer ``c_i``".
    """
    return int(key) % num_reducers


def hash_partitioner(key: Any, num_reducers: int) -> int:
    """Hadoop-style hash partitioning for non-integer keys."""
    return hash(key) % num_reducers


class BucketSegment:
    """One map task's emissions to one reducer bucket, stored columnar.

    The columnar twin of a ``list[(key, value)]`` bucket slice, in
    emission order: ``keys`` is an int64 array, and the value of
    emission ``i`` is row ``members[i]`` of ``source`` — the ``values``
    sequence the task handed :meth:`MapContext.emit_batch`, shared by
    every segment of that task.  A replicated record is stored once per
    task and referenced from each bucket it was sent to.

    Segments are what ``emit_batch`` produces and what the engine's
    numpy shuffle merge consumes — per-reducer segments concatenated in
    map task order, then stably argsorted by key, reproduce the scalar
    path's ``(sort_key(key), map_task, seq)`` order exactly.

    A *columnar* source (one with ``take(rows)`` and a ``concat(parts)``
    classmethod, e.g. :class:`~repro.kernels.batch.RectColumns`) is
    gathered column-wise and reaches the reducer as such an object;
    any other sequence is gathered into a plain list.

    Across process boundaries ``keys`` and ``members`` ship as raw
    buffers of the narrowest integer type that holds them (out-of-band
    under pickle protocol 5) and ``source`` once per task result,
    through the pickle memo.

    A value's identity is *(map task, row)*: ``task`` is the emitting
    map task (set by the shuffle merge; ``None`` before it) and
    ``origin`` the rows of that task's ``values`` the members stand
    for when ``source`` is a copy of just some of them — a spilled run
    (``None``: the members are those rows).  The identity survives
    spill read-back and pickling, so a reducer can tell one row sent to
    several of its groups (:func:`distinct_values`).
    """

    __slots__ = ("keys", "source", "members", "task", "origin")

    def __init__(self, keys, source, members, task=None, origin=None) -> None:
        self.keys = keys
        self.source = source
        self.members = members
        self.task = task
        self.origin = origin

    def __len__(self) -> int:
        return len(self.keys)

    def take(self, at) -> "BucketSegment":
        """The emissions at positions ``at`` of this segment, identity
        kept."""
        origin = self.origin
        return BucketSegment(
            self.keys[at],
            self.source,
            self.members[at],
            self.task,
            None if origin is None else origin[at],
        )

    @property
    def rows(self):
        """Each emission's row of its map task's values."""
        return self.members if self.origin is None else self.origin

    def gather(self, rows=None):
        """The values of emissions ``rows`` (an int array; default all),
        in that order: a columnar source's ``take``, else a list."""
        members = self.members if rows is None else self.members[rows]
        source = self.source
        if hasattr(source, "take"):
            return source.take(members)
        return [source[g] for g in members.tolist()]

    @property
    def values(self):
        """The emitted values in emission order (the row view)."""
        return self.gather()

    def pairs(self) -> list[tuple[Any, Any]]:
        """The row form: ``(key, value)`` pairs in emission order."""
        return list(zip(self.keys.tolist(), self.values))

    def __reduce_ex__(self, protocol: int):
        wrap = pickle.PickleBuffer if protocol >= 5 else bytes
        args = (_pack_ints(self.keys, wrap), _pack_ints(self.members, wrap), self.source)
        if self.task is not None or self.origin is not None:
            origin = None if self.origin is None else _pack_ints(self.origin, wrap)
            args += (self.task, origin)
        return _restore_segment, args


def _pack_ints(arr, wrap):
    """``(dtype, buffer)`` of an int64 array in the narrowest integer
    type that holds it — cell ids and split-local row numbers are small."""
    narrow = np.dtype(np.int8)
    if len(arr):
        narrow = np.result_type(
            np.min_scalar_type(int(arr.min())), np.min_scalar_type(int(arr.max()))
        )
    return narrow.str, wrap(np.ascontiguousarray(arr, dtype=narrow))


def _unpack_ints(packed):
    dtype, raw = packed
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)


def _restore_segment(keys, members, source, task=None, origin=None) -> BucketSegment:
    return BucketSegment(
        _unpack_ints(keys),
        source,
        _unpack_ints(members),
        task,
        None if origin is None else _unpack_ints(origin),
    )


class SplitEntries(Sequence):
    """One map split of a file whose typed records are a column bundle.

    The lazy twin of the ``list[(path, lineno, record, nbytes)]`` a split
    otherwise is: rows ``lo .. lo + len`` of ``path``, with ``records``
    the bundle's slice for those rows and ``sizes`` their encoded sizes.
    A batch mapper is handed ``records`` whole (its ``batch`` argument)
    and never reads the entries; every row consumer — a scalar mapper,
    the locality planner — reads exactly the entry tuples the list form
    would hold, built (with the record objects) on first row access.
    """

    __slots__ = ("path", "lo", "records", "sizes", "_rows")

    def __init__(self, path: str, lo: int, records, sizes: list[int]) -> None:
        self.path = path
        self.lo = lo
        self.records = records
        self.sizes = sizes
        self._rows: list[tuple] | None = None

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def nbytes(self) -> int:
        """Encoded size of the split — ``sum(entry[3] for entry in self)``."""
        return sum(self.sizes)

    def _materialise(self) -> list[tuple]:
        rows = self._rows
        if rows is None:
            linenos = range(self.lo, self.lo + len(self))
            rows = self._rows = list(
                zip(repeat(self.path), linenos, self.records, self.sizes)
            )
        return rows

    def __getitem__(self, i):
        if isinstance(i, slice) and i.step in (None, 1):
            lo, hi, __ = i.indices(len(self))
            return SplitEntries(
                self.path,
                self.lo + lo,
                self.records.take(slice(lo, hi)),
                self.sizes[lo:hi],
            )
        return self._materialise()[i]

    def __iter__(self):
        return iter(self._materialise())


class ValueRuns(Sequence):
    """A reduce group whose values are columnar parts of several types.

    ``runs`` holds the group's values as consecutive columnar bundles —
    a Cascade step's group is its tuple-file tasks' ``TupleColumns``
    followed by its base-file tasks' ``RectColumns``.  A columnar
    reducer reads the runs; as a ``Sequence`` the object is the plain
    list of rows the row shuffle would deliver, chained in order.
    """

    __slots__ = ("runs", "_len")

    def __init__(self, runs: list) -> None:
        self.runs = runs
        self._len = sum(len(run) for run in runs)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(self.runs)

    def __getitem__(self, i):
        return list(self)[i]


class KindRuns:
    """A physical reduce range's values when its groups hold columnar
    parts of several types, gathered type by type.

    ``bundles[k]`` holds every group's rows of the ``k``-th type, group
    by group, and ``bounds[k]`` the int64 row bounds cutting it into the
    range's groups.  A segmented reducer reads the bundles.
    """

    __slots__ = ("bundles", "bounds")

    def __init__(self, bundles: list, bounds: list) -> None:
        self.bundles = bundles
        self.bounds = bounds


def gather_values(parts: list):
    """Concatenate per-segment :meth:`BucketSegment.gather` results, in
    order, into one group's values.

    Columnar parts stay columnar: adjacent parts of one type are joined
    with its ``concat``, and a group of several types becomes their
    :class:`ValueRuns`.  A plain list among the parts flattens the
    group to the plain list of rows.
    """
    if len(parts) == 1:
        return parts[0]
    if all(hasattr(type(part), "concat") for part in parts):
        runs = []
        for kind, group in groupby(parts, key=type):
            group = list(group)
            runs.append(group[0] if len(group) == 1 else kind.concat(group))
        return runs[0] if len(runs) == 1 else ValueRuns(runs)
    values: list = []
    for part in parts:
        values.extend(part)
    return values


def distinct_values(parts: list) -> tuple[Any, Any]:
    """The values of ``parts`` — the :class:`BucketSegment` slices of a
    physical reduce range's groups — each *(map task, row)* once.

    Returns ``(rows, counts)``: the distinct values, map-task-major and
    in row order within a task (so every group's received order is a
    subsequence of theirs), gathered as :func:`gather_values` gathers a
    group; and, per value, the number of parts holding it.  Each part
    is marked into its task's count table on its own — the range's
    members are never concatenated — and each value is taken from one
    part holding it.
    """
    by_task: dict[int, list[BucketSegment]] = {}
    for part in parts:
        if not isinstance(part, BucketSegment) or part.task is None:
            raise JobError("distinct values need the segments of the columnar shuffle")
        by_task.setdefault(part.task, []).append(part)
    chunks, counts = [], []
    for task in sorted(by_task):
        segs = by_task[task]
        count = np.zeros(1 + max(int(seg.rows.max()) for seg in segs), dtype=np.int64)
        for seg in segs:
            count[seg.rows] += 1  # a segment holds a row at most once
        keep = np.flatnonzero(count)
        counts.append(count[keep])
        source = segs[0].source
        if all(seg.origin is None and seg.source is source for seg in segs):
            chunks.append(BucketSegment(keep, source, keep).gather())
        else:
            chunks.append(_held_rows(segs, keep, len(count)))
    return gather_values(chunks), np.concatenate(counts)


def _held_rows(segs: list[BucketSegment], keep, size: int):
    """Rows ``keep`` of one map task's values, read from the segments
    holding them — sources of their own when some were spilled."""
    sources: dict[int, tuple[int, Any]] = {}
    holder = np.empty(size, dtype=np.int64)
    member = np.empty(size, dtype=np.int64)
    for seg in segs:
        holder[seg.rows] = sources.setdefault(id(seg.source), (len(sources), seg.source))[0]
        member[seg.rows] = seg.members
    held = holder[keep]
    at, taken = [], []
    for code, source in sources.values():
        sel = np.flatnonzero(held == code)
        if len(sel):
            at.append(sel)
            taken.append(BucketSegment(sel, source, member[keep[sel]]).gather())
    rows = gather_values(taken)
    order = np.argsort(np.concatenate(at), kind="stable")
    if hasattr(rows, "take"):
        return rows.take(order)
    return [rows[i] for i in order.tolist()]


class MapContext:
    """Per-map-task emission context."""

    def __init__(
        self,
        counters: Counters,
        num_reducers: int,
        partitioner,
        shuffle_codec: ShuffleCodec = DEFAULT_SHUFFLE_CODEC,
    ) -> None:
        self._counters = counters
        self._num_reducers = num_reducers
        self._partitioner = partitioner
        # Bound once: emit() is the hottest call in a map task.
        self._key_size = shuffle_codec.key_size
        self._value_size = shuffle_codec.value_size
        self.buckets: list[list[tuple[Any, Any]]] = [[] for __ in range(num_reducers)]
        #: estimated bytes per bucket — the reduce task that merges
        #: bucket ``r`` of every map task charges these as input bytes
        self.bucket_bytes: list[int] = [0] * num_reducers
        #: columnar buckets (one list of :class:`BucketSegment` per
        #: reducer), created by the first :meth:`emit_batch` call; a
        #: batch mapper must emit through exactly one of the two APIs
        self.segments: list[list[BucketSegment]] | None = None
        self.input_records = 0
        self.output_records = 0
        self.output_bytes = 0
        self.compute_ops = 0

    def emit(self, key: Any, value: Any) -> None:
        """Emit one intermediate ``(k2, v2)`` pair."""
        r = self._partitioner(key, self._num_reducers)
        if not 0 <= r < self._num_reducers:
            raise JobError(
                f"partitioner routed key {key!r} to invalid reducer {r}"
            )
        self.buckets[r].append((key, value))
        nbytes = self._key_size(key) + self._value_size(value)
        self.bucket_bytes[r] += nbytes
        self.output_records += 1
        self.output_bytes += nbytes
        self._counters.add(C.GROUP_ENGINE, C.MAP_OUTPUT_RECORDS)
        self._counters.add(C.GROUP_ENGINE, C.MAP_OUTPUT_BYTES, nbytes)

    def pair_nbytes(self, key: Any, value: Any) -> int:
        """Estimated shuffle bytes of one ``(key, value)`` pair — what a
        batch mapper passes :meth:`emit_batch` as a group's ``sizes``."""
        return self._key_size(key) + self._value_size(value)

    def add_compute(self, ops: int) -> None:
        """Report CPU work (e.g. candidate-pair checks) to the cost model."""
        self.compute_ops += ops
        self._counters.add(C.GROUP_ENGINE, C.MAP_COMPUTE_OPS, ops)

    def counter(self, group: str, name: str, amount: int = 1) -> None:
        """Increment a user counter."""
        self._counters.add(group, name, amount)

    def emit_batch(self, keys, counts, values, sizes) -> None:
        """Bulk-emit: group ``g`` sends ``values[g]`` to every key of its
        slice of ``keys``.

        Parameters
        ----------
        keys:
            Flattened integer target keys, group-major: group ``g``'s
            targets occupy the next ``counts[g]`` entries (an int64
            numpy array, or anything that converts to one).
        counts:
            Per-group target count, parallel to ``values``.
        values:
            One emitted value per group: any sequence — a list, or a
            columnar bundle such as
            :class:`~repro.kernels.batch.RectColumns` that stands for
            its rows.  It is stored by reference, not copied.
        sizes:
            Per-group charged bytes of one ``(key, value)`` pair — what
            :meth:`pair_nbytes` returns for that group.  Requires the
            job's key sizer to be constant per key (true for every
            integer-cell-keyed join job).

        Semantically equivalent to the nested scalar loop
        ``for g: for key in targets(g): emit(key, values[g])`` — same
        pairs, same per-bucket order, same counter totals.  The
        emissions are routed with one vectorized partition + stable
        argsort and stored as per-bucket :class:`BucketSegment` runs —
        row indices into ``values`` — instead of ``(key, value)`` pairs.
        """
        self._route(*self._flatten(keys, counts, values, sizes), values)

    def _flatten(self, keys, counts, values, sizes):
        """The argument setup of :meth:`emit_batch`: ``(keys, routed,
        group_of, pair_sizes)``, one entry per flattened emission — its
        key, reducer, group index and charged bytes."""
        num_reducers = self._num_reducers
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if self._partitioner is identity_partitioner:
            routed = keys % num_reducers  # non-negative, like Python's %
        else:
            routed = np.fromiter(
                (self._partitioner(int(k), num_reducers) for k in keys),
                dtype=np.int64,
                count=len(keys),
            )
            bad = (routed < 0) | (routed >= num_reducers)
            if bad.any():
                k = int(keys[int(np.flatnonzero(bad)[0])])
                raise JobError(
                    f"partitioner routed key {k!r} to invalid reducer "
                    f"{self._partitioner(k, num_reducers)}"
                )
        group_of = np.repeat(np.arange(len(values), dtype=np.int64), counts)
        pair_sizes = np.repeat(np.asarray(sizes, dtype=np.int64), counts)
        return keys, routed, group_of, pair_sizes

    def _route(self, keys, routed, group_of, pair_sizes, values) -> None:
        """Store flattened emissions as per-bucket segments; count them."""
        # Stable sort by reducer: within one bucket the emissions stay
        # in flattened (group, target) order — the scalar emission order.
        order = np.argsort(routed, kind="stable")
        sorted_keys = keys[order]
        sorted_buckets = routed[order]
        sorted_groups = group_of[order]
        sorted_sizes = pair_sizes[order]
        if self.segments is None:
            self.segments = [[] for __ in range(self._num_reducers)]
        segments = self.segments
        bucket_bytes = self.bucket_bytes
        n = len(sorted_buckets)
        if n:
            bounds = np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1
            starts = np.concatenate(([0], bounds))
            seg_bytes = np.add.reduceat(sorted_sizes, starts)
            ends = np.append(bounds, n)
            for i, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
                r = int(sorted_buckets[lo])
                segments[r].append(
                    BucketSegment(sorted_keys[lo:hi], values, sorted_groups[lo:hi])
                )
                bucket_bytes[r] += int(seg_bytes[i])
        # Counters are additive: one bulk add equals the per-emission ones.
        nbytes = int(pair_sizes.sum())
        self.output_records += n
        self.output_bytes += nbytes
        self._counters.add(C.GROUP_ENGINE, C.MAP_OUTPUT_RECORDS, n)
        self._counters.add(C.GROUP_ENGINE, C.MAP_OUTPUT_BYTES, nbytes)

    def mixed_emission(self) -> bool:
        """Whether the task emitted through both :meth:`emit` and
        :meth:`emit_batch` — which a batch mapper must not."""
        return self.segments is not None and any(self.buckets)


class SpillingMapContext(MapContext):
    """A :class:`MapContext` with a per-task memory budget.

    ``budget`` bounds the estimated bytes of *buffered* emissions (the
    same :class:`ShuffleCodec` sizing the canonical ``MAP_OUTPUT_BYTES``
    counter charges, so accounting is free on the typed path).  Crossing
    the budget spills every bucket's buffered slice as a run in emission
    order (:mod:`repro.mapreduce.spill`) — the engine writes the runs to
    the DFS and the reduce task reads each back where it was emitted.

    Spill points are a pure function of the emission sequence, so they
    are identical on the serial, thread and process executors and for
    the scalar and batch emission APIs; the only observable difference
    of a budgeted run is the ``spill*`` telemetry.
    """

    def __init__(
        self,
        counters: Counters,
        num_reducers: int,
        partitioner,
        shuffle_codec: ShuffleCodec = DEFAULT_SHUFFLE_CODEC,
        *,
        budget: int,
    ) -> None:
        super().__init__(counters, num_reducers, partitioner, shuffle_codec)
        if budget <= 0:
            raise JobError(f"memory budget must be positive, got {budget}")
        self._budget = budget
        self._flushed_bytes = 0
        self._row_spills = False
        #: encoded runs per bucket (one line each), in spill order
        self.spill_runs: list[list[str]] = [[] for __ in range(num_reducers)]

    @property
    def spilled(self) -> bool:
        return any(self.spill_runs)

    def emit(self, key: Any, value: Any) -> None:
        super().emit(key, value)
        if self.output_bytes - self._flushed_bytes > self._budget:
            self._spill()

    def emit_batch(self, keys, counts, values, sizes) -> None:
        """Batch emission under a budget, spilling where :meth:`emit` would.

        :meth:`emit` spills right after the emission that takes the
        buffered bytes past the budget.  The output bytes after each
        flattened emission are a running sum, so each such spill point
        is one binary search; the emissions between consecutive points
        take the ordinary batch route.  Runs, ``SPILL*`` counters and
        byte accounting equal those of the equivalent :meth:`emit` loop.
        """
        keys, routed, group_of, pair_sizes = self._flatten(keys, counts, values, sizes)
        after = self.output_bytes + np.cumsum(pair_sizes)
        n = len(keys)
        lo = 0
        while True:
            cut = int(
                np.searchsorted(after, self._flushed_bytes + self._budget, side="right")
            )
            hi = min(cut + 1, n)
            self._route(
                keys[lo:hi], routed[lo:hi], group_of[lo:hi], pair_sizes[lo:hi], values
            )
            if cut >= n:
                return
            self._spill()
            lo = hi

    def _spill(self) -> None:
        counters = self._counters
        segments = self.segments
        for r, bucket in enumerate(self.buckets):
            if bucket:
                run = bucket
                self.buckets[r] = []
                self._row_spills = True
            elif segments is not None and segments[r]:
                run = _compact(segments[r])
                segments[r] = []
            else:
                continue
            self.spill_runs[r].append(encode_run(run))
            counters.add(C.GROUP_ENGINE, C.SPILLED_RECORDS, len(run))
            counters.add(C.GROUP_ENGINE, C.SPILL_FILES)
        # The budget's own unit: the buffered emissions' shuffle bytes.
        counters.add(
            C.GROUP_ENGINE, C.SPILL_BYTES, self.output_bytes - self._flushed_bytes
        )
        self._flushed_bytes = self.output_bytes

    def mixed_emission(self) -> bool:
        return self.segments is not None and (self._row_spills or any(self.buckets))

    def unspill(self) -> None:
        """Rebuild full in-memory buckets in original emission order.

        Used before a combiner runs: the combiner contract is whole-
        bucket grouping, so the engine prepends each bucket's runs to
        its resident remainder (the spill telemetry stays — the spills
        did happen).
        """
        for r, runs in enumerate(self.spill_runs):
            if runs:
                spilled = [pair for line in runs for pair in decode_run(line)]
                self.buckets[r] = spilled + self.buckets[r]
                self.spill_runs[r] = []


def _compact(segs: list[BucketSegment]) -> BucketSegment:
    """One segment over just the values of ``segs`` — a bucket's
    buffered slice, so its run carries none of the task's other rows
    (only their row numbers, its ``origin``)."""
    keys = np.concatenate([seg.keys for seg in segs])
    values = gather_values([seg.gather() for seg in segs])
    return BucketSegment(
        keys,
        values,
        np.arange(len(keys), dtype=np.int64),
        origin=np.concatenate([seg.rows for seg in segs]),
    )


class ReduceContext:
    """Per-reduce-task emission context."""

    def __init__(self, counters: Counters, reducer_id: int) -> None:
        self._counters = counters
        self.reducer_id = reducer_id
        #: emitted output in order — text lines, or typed records when
        #: the job declares an ``output_codec``: the column bundles handed
        #: to :meth:`emit_all`, kept whole, between plain lists of the
        #: records emitted one by one (``_tail``: those since the last
        #: bundle)
        self._parts: list[Any] = []
        self._tail: list[Any] = []
        self.input_records = 0
        self.compute_ops = 0

    def emit(self, record: Any) -> None:
        """Emit one output record for this task's part file.

        A text line for codec-less jobs; a typed record (encoded exactly
        once, by the reduce task itself) for jobs with an
        ``output_codec``.
        """
        self._tail.append(record)
        self._counters.add(C.GROUP_ENGINE, C.REDUCE_OUTPUT_RECORDS)

    def emit_all(self, records) -> None:
        """Bulk :meth:`emit`: append ``records`` in order, count once.

        Counters are additive, so one bulk add equals the per-record
        increments; output order is the extend order.  A column bundle
        (a sequence with ``take``, e.g.
        :class:`~repro.kernels.batch.TaggedColumns`) stands for its rows
        and is kept as it is: nothing builds them unless a row consumer
        asks.
        """
        tail = self._tail
        if hasattr(records, "take"):
            if tail:
                self._parts.append(tail)
                self._tail = []
            self._parts.append(records)
            emitted = len(records)
        else:
            before = len(tail)
            tail.extend(records)
            emitted = len(tail) - before
        self._counters.add(C.GROUP_ENGINE, C.REDUCE_OUTPUT_RECORDS, emitted)

    def output(self):
        """Everything emitted, in order: one column bundle when the task
        emitted nothing but bundles of one type, else the sequence of
        records."""
        if not self._parts:
            return self._tail
        return gather_values([*self._parts, self._tail] if self._tail else self._parts)

    @property
    def output_lines(self) -> list[Any]:
        """The emitted records as rows."""
        return list(self.output())

    def add_compute(self, ops: int) -> None:
        """Report CPU work (e.g. join comparisons) to the cost model."""
        self.compute_ops += ops
        self._counters.add(C.GROUP_ENGINE, C.REDUCE_COMPUTE_OPS, ops)

    def counter(self, group: str, name: str, amount: int = 1) -> None:
        """Increment a user counter."""
        self._counters.add(group, name, amount)


@dataclass
class MapReduceJob:
    """Specification of one map-reduce job.

    Parameters
    ----------
    name:
        Human-readable job name (appears in reports).
    input_paths:
        DFS files or directories read as map input.
    output_path:
        DFS directory the reduce part files are written under.
    mapper, reducer:
        The two user functions.  ``reducer=None`` runs a map-only job
        whose emissions are written out partitioned but unsorted (used
        for selection/filter steps of the 2-way Cascade).
    num_reducers:
        Number of reduce tasks; the join jobs use one per partition-cell.
    partitioner:
        ``(key, num_reducers) -> reducer index``.
    sort_key:
        Ordering applied to intermediate keys within a reduce task.
    combiner:
        Optional map-side pre-aggregation ``(key, values) -> [values]``,
        applied per map task and per reducer bucket before the shuffle —
        Hadoop's combiner.  Must be semantically idempotent with the
        reducer's aggregation (sums, counts, maxima...).
    input_codec:
        ``None`` (map input is raw text lines, the seed behaviour), one
        :class:`~repro.data.io.RecordCodec` applied to every input path,
        or a mapping ``declared input path -> codec`` for jobs whose
        inputs mix record formats (the Cascade steps read partially
        joined tuples on one side and base rectangles on the other).
    output_codec:
        ``None`` (reduce emissions are text lines) or the codec of the
        typed records the reducer emits.  The engine encodes each record
        exactly once when writing the part file and hands the objects to
        the next job in the chain.
    shuffle_codec:
        Byte sizing of intermediate pairs; see :class:`ShuffleCodec`.
    batch_mapper:
        Optional columnar twin of ``mapper``: called once per map split
        as ``batch_mapper(split, ctx, batch)`` with the full sequence of
        ``(path, lineno, record, nbytes)`` entries and the split's
        columns when the engine has them (``None`` otherwise): the
        slice of the column bundle the file's typed records are — a
        rectangle-codec file's :class:`~repro.kernels.batch
        .RectFileColumns`, or the bundle an upstream reducer wrote —
        with the split a :class:`SplitEntries` whose ``path`` names the
        file (reading its entries would build the records).
        Must produce the exact emissions (same pairs, same per-bucket
        order) and counter totals as running ``mapper`` over the split
        record by record — emitting through
        :meth:`MapContext.emit_batch` guarantees this by construction.
        When set (and the job has no combiner) it is the job's one map
        body: retries, fault plans and worker loss run it too, record
        skipping hands it the split with the skipped rows taken out of
        the entries and the columns, and a ``memory_budget`` spills its
        emissions at the points the record loop would.  Leave it
        ``None`` to run ``mapper``, which remains the reference
        implementation and must always be provided.
    segmented:
        ``True`` makes ``reducer`` a *segmented* reducer, called once
        per physical range of reduce tasks instead of once per key
        group: ``reducer(keys, values, bounds, contexts)`` gets every
        group of the range's tasks, in task order — ``keys[g]`` as a
        plain reducer would get it, its values as rows ``bounds[g] ..
        bounds[g + 1] - 1`` of ``values`` (all groups' values
        concatenated: one column bundle when the map tasks emitted
        columns, else a list) — and ``contexts[g]``, the
        :class:`ReduceContext` of the task group ``g`` belongs to.  It
        must leave each context exactly what the plain reducer leaves
        when called on that task's groups alone: the same emissions,
        counters and compute charge.  The join jobs' numpy reducers are
        segmented, so one kernel call sequence serves a whole range of
        cells.
    distinct_rows:
        With ``segmented``: the reducer's ``values`` are the range's
        values each once, ``(rows, counts)`` of :func:`distinct_values`
        — one value per *(map task, row)* however many of the range's
        groups received it — instead of every group's values
        concatenated; ``bounds`` still cut the received values into
        the groups.  Which groups received a row is the job's routing
        rule, which the reducer applies (and checks against ``counts``
        and ``bounds``) itself.  The phase is cut into one range per
        worker: a range reads each map output row once.
    """

    name: str
    input_paths: list[str]
    output_path: str
    mapper: Mapper
    reducer: Reducer | None
    num_reducers: int
    partitioner: Callable[[Any, int], int] = identity_partitioner
    sort_key: Callable[[Any], Any] = field(default=default_sort_key)
    combiner: Callable[[Any, list], list] | None = None
    input_codec: RecordCodec | Mapping[str, RecordCodec] | None = None
    output_codec: RecordCodec | None = None
    shuffle_codec: ShuffleCodec = DEFAULT_SHUFFLE_CODEC
    batch_mapper: Callable | None = None
    segmented: bool = False
    distinct_rows: bool = False

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise JobError(f"job {self.name!r} needs >= 1 reducers")
        if not self.input_paths:
            raise JobError(f"job {self.name!r} has no input paths")
        if not self.output_path:
            raise JobError(f"job {self.name!r} has no output path")
        if isinstance(self.input_codec, Mapping):
            unknown = set(self.input_codec) - set(self.input_paths)
            if unknown:
                raise JobError(
                    f"job {self.name!r} assigns codecs to non-input "
                    f"paths: {sorted(unknown)}"
                )

    def input_codec_for(self, input_path: str) -> RecordCodec | None:
        """The codec decoding records of one *declared* input path."""
        if isinstance(self.input_codec, Mapping):
            return self.input_codec.get(input_path)
        return self.input_codec


def format_output(key: Any, value: Any) -> str:
    """Default k3/v3 text encoding used by map-only jobs."""
    return f"{key}\t{value}"
