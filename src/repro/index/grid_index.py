"""A uniform-grid bucket index over rectangles.

The workhorse local index: build time is linear, probes touch only the
buckets overlapping the (enlarged) query rectangle, and the uniform and
mildly-clustered workloads of the paper keep buckets balanced.  Entries
spanning several buckets are registered in each; probes deduplicate by
entry identity.

With ``kernel="numpy"`` the bucket assignment is computed columnarly
(one stable argsort instead of a per-entry insertion loop) and the
index additionally exposes :meth:`search_batch` plus columnar bound
arrays (:attr:`batch`) for vectorized callers.  Bucket contents, probe
order and probe counts are identical to the scalar build — the numpy
path only changes how fast the same structure is produced.  It can be
fed a ready :class:`RectBatch` (``batch=``), builds only the CSR arrays
:meth:`probe_frontier` reads, and materialises the per-bucket lists,
the ``(rid, rect)`` pairs and the ``Entry`` objects on the first call
that needs them.

A numpy index can also hold several independent *segments* in one CSR
(``segments=``: row bounds of a batch laid out segment by segment) —
one per partition-cell of a physical reduce range.  Each segment keeps
its own extent, ``side``, ``bw`` and ``bh``, computed from its rows
alone, and its bucket keys are offset by the running sum of the earlier
segments' ``side**2``; :meth:`probe_frontier` reads each query row's
segment parameters.  So a segment's buckets, scan order and ``probes``
are exactly those of an index built over its rows alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

from repro.geometry.rectangle import Rect
from repro.index.base import Entry
from repro.kernels.batch import RectBatch

__all__ = ["GridIndex"]

#: sentinel for numpy-side lazy attributes not yet materialized
_UNSET = object()


class GridIndex:
    """Bucketed index with ``O(1)`` expected probe cost on uniform data.

    Parameters
    ----------
    entries:
        The rectangles to index (the index is static once built, like
        everything inside a reduce call).
    target_per_bucket:
        Sizing knob: the grid aims for this many entries per bucket
        under a uniform spread.
    pairs, batch:
        Alternative inputs: raw ``(rid, rect)`` pairs, or a ready
        :class:`RectBatch` (indexed as is by the numpy kernel — no
        per-entry work at build time).
    segments:
        Numpy kernel with a ``batch`` only: int64 row bounds
        ``[0, ..., batch.n]`` cutting the batch into independently
        bucketed segments (row ``i`` is in segment ``s`` when
        ``segments[s] <= i < segments[s + 1]``).  ``probes`` is then an
        int64 array, the charges of each segment, and only
        :meth:`probe_frontier` may probe.
    """

    def __init__(
        self,
        entries: Iterable[Entry] | None = None,
        target_per_bucket: int = 8,
        kernel: str = "python",
        pairs: list[tuple[Any, Rect]] | None = None,
        batch: RectBatch | None = None,
        segments=None,
    ) -> None:
        # The index can be fed ``(rid, rect)`` pairs or a columnar batch
        # instead of Entry objects; the row forms are then materialized
        # lazily, only if a caller actually asks for them (the columnar
        # probe paths never do).
        columnar = kernel == "numpy"
        if batch is not None and not columnar:
            pairs, batch = batch.pairs(), None  # the scalar build reads rows
        self._ent: list[Entry] | None = None
        self._pairs: list[tuple[Any, Rect]] | None = None
        if batch is not None:
            n = batch.n
        elif pairs is not None:
            self._pairs = pairs if isinstance(pairs, list) else list(pairs)
            n = len(self._pairs)
        else:
            self._ent = list(entries)
            n = len(self._ent)
        self._n = n
        #: bucket entries examined across all searches (compute-cost
        #: measure) — per segment on a segmented index
        self.probes = 0 if segments is None else np.zeros(len(segments) - 1, np.int64)
        #: columnar bound arrays (numpy kernel only; None on the scalar path)
        self.batch: RectBatch | None = batch
        self._rid_array: Any = None
        #: bucket -> member entry indices; ``None`` on a numpy build
        #: until a scalar probe asks for the dict view of the CSR arrays
        self._bucket_lists: dict[tuple[int, int], list[int]] | None = {}
        self._empty = np.empty(0, dtype=np.int64) if columnar else None
        if n == 0:
            self._nx = self._ny = 1
            self._bounds_list: list[tuple[float, float, float, float]] | None = []
            if columnar and batch is None:
                self.batch = RectBatch.from_pairs(np, ())
            return
        if columnar:
            self._build_numpy(np, n, target_per_bucket, batch, segments)
            return
        # Bounds are kept as exact corner floats: round-tripping them
        # through a Rect can shrink the box by an ulp and wrongly fail
        # the early-exit test for boundary-touching queries.  Each
        # entry's extent is extracted once here — probes compare plain
        # floats instead of calling four Rect properties per test.
        self._bounds_list = [
            (e.rect.x, e.rect.x + e.rect.l, e.rect.y - e.rect.b, e.rect.y)
            for e in self._entries
        ]
        self._x_lo = min(b[0] for b in self._bounds_list)
        self._x_hi = max(b[1] for b in self._bounds_list)
        self._y_lo = min(b[2] for b in self._bounds_list)
        self._y_hi = max(b[3] for b in self._bounds_list)
        side = max(1, math.isqrt(max(1, n // max(1, target_per_bucket))))
        self._nx = side
        self._ny = side
        self._bw = max((self._x_hi - self._x_lo) / self._nx, 1e-12)
        self._bh = max((self._y_hi - self._y_lo) / self._ny, 1e-12)
        setdefault = self._bucket_lists.setdefault
        for idx, (ex_min, ex_max, ey_min, ey_max) in enumerate(self._bounds_list):
            ix_lo = self._clamp_x(ex_min)
            ix_hi = self._clamp_x(ex_max)
            iy_lo = self._clamp_y(ey_min)
            iy_hi = self._clamp_y(ey_max)
            for ix in range(ix_lo, ix_hi + 1):
                for iy in range(iy_lo, iy_hi + 1):
                    setdefault((ix, iy), []).append(idx)

    @property
    def _entries(self) -> list[Entry]:
        ent = self._ent
        if ent is None:
            ent = self._ent = [
                Entry(rect=r, payload=rid) for rid, r in self._rid_rects
            ]
        return ent

    @property
    def _bounds(self) -> list[tuple[float, float, float, float]]:
        bounds = self._bounds_list
        if bounds is None:
            batch = self.batch
            bounds = self._bounds_list = list(
                zip(
                    batch.x_min.tolist(),
                    batch.x_max.tolist(),
                    batch.y_min.tolist(),
                    batch.y_max.tolist(),
                )
            )
        return bounds

    @property
    def _rid_rects(self) -> list[tuple[Any, Rect]]:
        pairs = self._pairs
        if pairs is None:
            if self._ent is not None:
                pairs = [(e.payload, e.rect) for e in self._ent]
            else:
                pairs = self.batch.pairs()
            self._pairs = pairs
        return pairs

    def _build_numpy(self, np, n: int, target_per_bucket: int, batch, segments) -> None:
        """Columnar build: same buckets, same order, no per-entry loop.

        A bucket's list is its member entry indices in ascending order —
        exactly what the scalar insertion loop produces, because each
        entry appears at most once per bucket.  The stable argsort over
        the expanded (bucket-key, entry) pairs preserves that order.
        Every per-segment quantity is the scalar build's expression
        evaluated on that segment's rows, elementwise.
        """
        if batch is None:
            batch = RectBatch.from_pairs(np, self._rid_rects)
        self.batch = batch
        bx_min, bx_max = batch.x_min, batch.x_max
        by_min, by_max = batch.y_min, batch.y_max
        self._bounds_list = None  # materialized on first scalar search
        self._rid_array = _UNSET  # materialized on first rid_array use
        bounds = np.array([0, n]) if segments is None else np.asarray(segments)
        counts = np.diff(bounds)
        nseg = len(counts)
        # Per segment: extent, side and bucket size.  An empty segment
        # gets a 1 x 1 grid at the origin that no query reaches.
        live = np.flatnonzero(counts)
        starts = bounds[live]
        x_lo = np.zeros(nseg)
        x_hi = np.zeros(nseg)
        y_lo = np.zeros(nseg)
        y_hi = np.zeros(nseg)
        x_lo[live] = np.minimum.reduceat(bx_min, starts)
        x_hi[live] = np.maximum.reduceat(bx_max, starts)
        y_lo[live] = np.minimum.reduceat(by_min, starts)
        y_hi[live] = np.maximum.reduceat(by_max, starts)
        target = max(1, target_per_bucket)
        side = np.array(
            [max(1, math.isqrt(max(1, c // target))) for c in counts.tolist()],
            dtype=np.int64,
        )
        bw = np.maximum((x_hi - x_lo) / side, 1e-12)
        bh = np.maximum((y_hi - y_lo) / side, 1e-12)
        bw[counts == 0] = bh[counts == 0] = 1.0
        base = np.cumsum(side * side) - side * side
        #: per segment: extent, ``side``, bucket size, first bucket key
        self._seg = (x_lo, x_hi, y_lo, y_hi, side, bw, bh, base, counts > 0)
        self._segmented = segments is not None
        # The scalar probes' view: the (only) segment's parameters.
        self._x_lo, self._x_hi = float(x_lo[0]), float(x_hi[0])
        self._y_lo, self._y_hi = float(y_lo[0]), float(y_hi[0])
        self._nx = self._ny = int(side[0])
        self._bw, self._bh = float(bw[0]), float(bh[0])
        if nseg == 1:
            def at(column):
                return column[0]
        else:
            seg_of = np.repeat(np.arange(nseg), counts)

            def at(column):
                return column[seg_of]
        # int() and astype(int64) both truncate toward zero; the offsets
        # are non-negative so the clamp reproduces _clamp_x/_clamp_y.
        e_x_lo, e_y_lo, e_bw, e_bh = at(x_lo), at(y_lo), at(bw), at(bh)
        last = at(side) - 1
        ix_lo = np.minimum(np.maximum(((bx_min - e_x_lo) / e_bw).astype(np.int64), 0), last)
        ix_hi = np.minimum(np.maximum(((bx_max - e_x_lo) / e_bw).astype(np.int64), 0), last)
        iy_lo = np.minimum(np.maximum(((by_min - e_y_lo) / e_bh).astype(np.int64), 0), last)
        iy_hi = np.minimum(np.maximum(((by_max - e_y_lo) / e_bh).astype(np.int64), 0), last)
        # Kept for probe_frontier's reference-point dedup.
        self._ix_lo = ix_lo
        self._iy_lo = iy_lo
        ny_span = iy_hi - iy_lo + 1
        cnt = (ix_hi - ix_lo + 1) * ny_span
        total = int(cnt.sum())
        ny, first_key = last + 1, at(base)
        if total == n:
            # No entry spans buckets: group directly.
            keys = first_key + ix_lo * ny + iy_lo
            eidx = np.arange(n, dtype=np.int64)
        else:
            eidx = np.repeat(np.arange(n, dtype=np.int64), cnt)
            starts = np.cumsum(cnt) - cnt
            offs = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
            nys = np.repeat(ny_span, cnt)
            if nseg > 1:
                ny, first_key = np.repeat(ny, cnt), np.repeat(first_key, cnt)
            keys = first_key + (np.repeat(ix_lo, cnt) + offs // nys) * ny + (
                np.repeat(iy_lo, cnt) + offs % nys
            )
        # 16-bit keys take numpy's radix sort, ~10x faster and as stable.
        self._num_keys = num_keys = int(base[-1] + side[-1] * side[-1])
        small = num_keys <= 1 << 16
        order = np.argsort(keys.astype(np.uint16) if small else keys, kind="stable")
        # CSR form of the buckets: ``_csr_entries[_csr_offsets[b] :
        # _csr_offsets[b + 1]]`` is bucket ``b``'s member list (b = its
        # segment's first key + ix * side + iy).  ``_csr_keys`` is
        # sorted, so a dense offsets table is one searchsorted — done
        # lazily on the first :meth:`probe_frontier`; the dict views the
        # scalar probes read are cut from the same two arrays on their
        # first use.
        self._csr_keys = keys[order]
        self._csr_entries = eidx[order]
        self._csr_offsets_cache = None
        self._bucket_lists = None
        self._bucket_arrays_cache = None

    def _bucket_views(self) -> None:
        """Cut the dict-of-lists and dict-of-arrays bucket views out of
        the CSR arrays (numpy build, first scalar probe)."""
        skeys = self._csr_keys
        sidx = self._csr_entries
        total = len(sidx)
        ny = self._ny
        sidx_list = sidx.tolist()
        cut = np.flatnonzero(skeys[1:] != skeys[:-1]) + 1
        bucket_starts = [0, *cut.tolist()]
        bucket_keys = skeys[np.concatenate(([0], cut))].tolist() if total else []
        bucket_starts.append(total)
        buckets: dict[tuple[int, int], list[int]] = {}
        # ``_bucket_arrays`` mirrors ``_buckets`` as zero-copy views of
        # the sorted index array, so :meth:`search_batch` never rebuilds
        # an array from a Python list.
        bucket_arrays: dict[tuple[int, int], Any] = {}
        for pos, key in enumerate(bucket_keys):
            s, e = bucket_starts[pos], bucket_starts[pos + 1]
            bkey = (key // ny, key % ny)
            buckets[bkey] = sidx_list[s:e]
            bucket_arrays[bkey] = sidx[s:e]
        self._bucket_lists = buckets
        self._bucket_arrays_cache = bucket_arrays

    @property
    def _buckets(self) -> dict[tuple[int, int], list[int]]:
        if self._bucket_lists is None:
            self._bucket_views()
        return self._bucket_lists

    @property
    def _bucket_arrays(self) -> dict[tuple[int, int], Any]:
        if self._bucket_arrays_cache is None:
            self._bucket_views()
        return self._bucket_arrays_cache

    @property
    def rid_array(self):
        """int64 payload array (numpy kernel with integer payloads), lazy."""
        arr = self._rid_array
        if arr is _UNSET:
            arr = self._rid_array = self.batch.int_ids(np)
        return arr

    @property
    def _csr_offsets(self):
        offs = self._csr_offsets_cache
        if offs is None:
            offs = self._csr_offsets_cache = np.searchsorted(
                self._csr_keys,
                np.arange(self._num_keys + 1, dtype=np.int64),
                side="left",
            )
        return offs

    # ------------------------------------------------------------------
    def _clamp_x(self, x: float) -> int:
        i = int((x - self._x_lo) / self._bw)
        return min(max(i, 0), self._nx - 1)

    def _clamp_y(self, y: float) -> int:
        i = int((y - self._y_lo) / self._bh)
        return min(max(i, 0), self._ny - 1)

    # ------------------------------------------------------------------
    def search(self, rect: Rect, d: float = 0.0) -> Iterator[Entry]:
        """Entries within Chebyshev distance ``d`` of ``rect`` (exact)."""
        if not self._n:
            return
        # Same arithmetic as ``rect.enlarge(d)`` (corner moves first,
        # then sides), so boundary-touching queries behave bit-exactly
        # like the Rect-based test this replaces.
        if d > 0:
            qx_min = rect.x - d
            qx_max = qx_min + (rect.l + 2 * d)
            qy_max = rect.y + d
            qy_min = qy_max - (rect.b + 2 * d)
        else:
            qx_min = rect.x
            qx_max = qx_min + rect.l
            qy_max = rect.y
            qy_min = qy_max - rect.b
        if (
            qx_max < self._x_lo
            or qx_min > self._x_hi
            or qy_max < self._y_lo
            or qy_min > self._y_hi
        ):
            return
        ix_lo = self._clamp_x(qx_min)
        ix_hi = self._clamp_x(qx_max)
        iy_lo = self._clamp_y(qy_min)
        iy_hi = self._clamp_y(qy_max)
        buckets = self._buckets
        bounds = self._bounds
        entries = self._entries
        if ix_lo == ix_hi and iy_lo == iy_hi:
            # Single-bucket probe (the common case for small queries):
            # a bucket lists each entry once, so no dedup set is needed.
            for idx in buckets.get((ix_lo, iy_lo), ()):
                self.probes += 1
                ex_min, ex_max, ey_min, ey_max = bounds[idx]
                if (
                    qx_min <= ex_max
                    and ex_min <= qx_max
                    and qy_min <= ey_max
                    and ey_min <= qy_max
                ):
                    yield entries[idx]
            return
        seen: set[int] = set()
        for ix in range(ix_lo, ix_hi + 1):
            for iy in range(iy_lo, iy_hi + 1):
                for idx in buckets.get((ix, iy), ()):
                    self.probes += 1
                    if idx in seen:
                        continue
                    seen.add(idx)
                    ex_min, ex_max, ey_min, ey_max = bounds[idx]
                    if (
                        qx_min <= ex_max
                        and ex_min <= qx_max
                        and qy_min <= ey_max
                        and ey_min <= qy_max
                    ):
                        yield entries[idx]

    def search_batch(self, rect: Rect, d: float = 0.0):
        """Eager, order-preserving equivalent of exhausting :meth:`search`.

        Returns ``(matched, scanned)``: ``matched`` is an int64 array of
        entry indices in the exact order :meth:`search` would yield the
        entries, ``scanned`` the number of bucket slots examined.
        ``probes`` is charged for every scanned slot up front — the same
        total a fully-consumed scalar search accumulates.  Only
        available on an index built with ``kernel="numpy"``.
        """
        if not self._n:
            return self._empty, 0
        if d > 0:
            qx_min = rect.x - d
            qx_max = qx_min + (rect.l + 2 * d)
            qy_max = rect.y + d
            qy_min = qy_max - (rect.b + 2 * d)
        else:
            qx_min = rect.x
            qx_max = qx_min + rect.l
            qy_max = rect.y
            qy_min = qy_max - rect.b
        if (
            qx_max < self._x_lo
            or qx_min > self._x_hi
            or qy_max < self._y_lo
            or qy_min > self._y_hi
        ):
            return self._empty, 0
        return self._search_bounds(qx_min, qx_max, qy_min, qy_max)

    def _search_bounds(self, qx_min, qx_max, qy_min, qy_max):
        """:meth:`search_batch` body for precomputed, in-range bounds."""
        empty = self._empty
        ix_lo = self._clamp_x(qx_min)
        ix_hi = self._clamp_x(qx_max)
        iy_lo = self._clamp_y(qy_min)
        iy_hi = self._clamp_y(qy_max)
        arrays = self._bucket_arrays
        if ix_lo == ix_hi and iy_lo == iy_hi:
            cand = arrays.get((ix_lo, iy_lo))
            if cand is None:
                return empty, 0
            scanned = len(cand)
            self.probes += scanned
        else:
            parts = [
                b
                for ix in range(ix_lo, ix_hi + 1)
                for iy in range(iy_lo, iy_hi + 1)
                if (b := arrays.get((ix, iy))) is not None
            ]
            if not parts:
                return empty, 0
            cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
            scanned = len(cand)
            self.probes += scanned
            if len(parts) > 1:
                # First-occurrence dedup, preserving scan order
                # (duplicates are scanned — and charged — but yield
                # nothing).
                __, first = np.unique(cand, return_index=True)
                cand = cand[np.sort(first)]
        batch = self.batch
        mask = (
            (qx_min <= batch.x_max[cand])
            & (batch.x_min[cand] <= qx_max)
            & (qy_min <= batch.y_max[cand])
            & (batch.y_min[cand] <= qy_max)
        )
        return cand[mask], scanned

    def probe_batch(self, rect: Rect, d: float = 0.0):
        """Eager probe with scan positions, for *exact* lazy accounting.

        Returns ``(entries, positions, scanned)``: the entries
        :meth:`search` would yield, in yield order; for each, the number
        of bucket slots the generator had scanned when it yielded it,
        minus one (its 0-based flat scan position, duplicates included);
        and the slots a fully-exhausted scan examines.  ``probes`` is
        **not** charged — the caller charges ``positions[j] + 1`` when it
        abandons the scan after candidate ``j``, or ``scanned`` when it
        exhausts it, reproducing the scalar generator's incremental
        accounting to the slot.  Only on a ``kernel="numpy"`` index.
        """
        if not self._n:
            return [], [], 0
        if d > 0:
            qx_min = rect.x - d
            qx_max = qx_min + (rect.l + 2 * d)
            qy_max = rect.y + d
            qy_min = qy_max - (rect.b + 2 * d)
        else:
            qx_min = rect.x
            qx_max = qx_min + rect.l
            qy_max = rect.y
            qy_min = qy_max - rect.b
        if (
            qx_max < self._x_lo
            or qx_min > self._x_hi
            or qy_max < self._y_lo
            or qy_min > self._y_hi
        ):
            return [], [], 0
        ix_lo = self._clamp_x(qx_min)
        ix_hi = self._clamp_x(qx_max)
        iy_lo = self._clamp_y(qy_min)
        iy_hi = self._clamp_y(qy_max)
        buckets = self._buckets
        plists = [
            b
            for ix in range(ix_lo, ix_hi + 1)
            for iy in range(iy_lo, iy_hi + 1)
            if (b := buckets.get((ix, iy))) is not None
        ]
        if not plists:
            return [], [], 0
        scanned = 0
        for b in plists:
            scanned += len(b)
        if scanned <= 48:
            # Tiny candidate set (the common case at target bucket
            # size): the plain float-compare loop beats array-op
            # dispatch overhead.  Same yields, positions and scan count
            # as the vectorized body below.
            bounds = self._bounds
            pairs = self._rid_rects
            out: list = []
            positions: list[int] = []
            if len(plists) == 1:
                for p, idx in enumerate(plists[0]):
                    ex_min, ex_max, ey_min, ey_max = bounds[idx]
                    if (
                        qx_min <= ex_max
                        and ex_min <= qx_max
                        and qy_min <= ey_max
                        and ey_min <= qy_max
                    ):
                        out.append(pairs[idx])
                        positions.append(p)
            else:
                seen: set[int] = set()
                p = -1
                for b in plists:
                    for idx in b:
                        p += 1
                        if idx in seen:
                            continue
                        seen.add(idx)
                        ex_min, ex_max, ey_min, ey_max = bounds[idx]
                        if (
                            qx_min <= ex_max
                            and ex_min <= qx_max
                            and qy_min <= ey_max
                            and ey_min <= qy_max
                        ):
                            out.append(pairs[idx])
                            positions.append(p)
            return out, positions, scanned
        arrays = self._bucket_arrays
        if ix_lo == ix_hi and iy_lo == iy_hi:
            cand = arrays[(ix_lo, iy_lo)]
            pos = np.arange(scanned, dtype=np.int64)
        else:
            parts = [
                b
                for ix in range(ix_lo, ix_hi + 1)
                for iy in range(iy_lo, iy_hi + 1)
                if (b := arrays.get((ix, iy))) is not None
            ]
            cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if len(parts) > 1:
                # A duplicate is yielded at its first occurrence; its
                # scan position is that first flat slot.
                __, first = np.unique(cand, return_index=True)
                pos = np.sort(first)
                cand = cand[pos]
            else:
                pos = np.arange(scanned, dtype=np.int64)
        batch = self.batch
        mask = (
            (qx_min <= batch.x_max[cand])
            & (batch.x_min[cand] <= qx_max)
            & (qy_min <= batch.y_max[cand])
            & (batch.y_min[cand] <= qy_max)
        )
        pairs = self._rid_rects
        return (
            [pairs[i] for i in cand[mask].tolist()],
            pos[mask].tolist(),
            scanned,
        )

    def probe_frontier(
        self, batch_q: RectBatch, pos=None, d: float = 0.0, scan: bool = False, seg=None
    ):
        """Bulk probe: one query per row ``pos[i]`` of ``batch_q``
        (``pos=None``: one per row of the batch, in order).

        Returns ``(parents, entries)`` — aligned int64 arrays holding,
        for every candidate that passes the bucket-extent test, the
        querying row's position *within ``pos``* and the entry index.
        Pairs are ordered by query, then by scan order within a query:
        exactly the concatenation of the per-query :meth:`search_batch`
        results.  ``probes`` is charged per scanned slot — duplicates
        included — as the individual searches would charge.  Only on a
        ``kernel="numpy"`` index.

        On a segmented index ``seg`` gives the segment of every row of
        ``batch_q``: a query probes its row's segment only, as it would
        probe an index built over that segment alone, and is charged to
        that segment.

        With ``scan=True`` nothing is charged and the result is
        ``(parents, entries, positions, scanned)``: per candidate its
        0-based flat scan position within its query (duplicates
        included), per query the slots a fully-exhausted scan examines —
        what a caller needs to charge each query as the lazy
        :meth:`search` generator would (``positions[k] + 1`` when it
        abandons the scan at candidate ``k``, ``scanned[q]`` when it
        exhausts query ``q``).

        What a query finds, where, and after how many slots depends only
        on its rectangle: each *distinct* row of ``pos`` is probed once
        (two-level CSR gather, extent test, first-occurrence mask) and
        its candidate run copied to every query that names the row.
        """
        m = batch_q.n if pos is None else len(pos)
        if not self._n:
            empty, zeros = self._empty, np.zeros(m, dtype=np.int64)
            return (empty, empty, empty, zeros) if scan else (empty, empty)
        rows, row_of = pos, None
        if pos is not None:
            # Distinct rows by an O(rows) table; no sort.
            seen = np.zeros(batch_q.n, dtype=bool)
            seen[pos] = True
            distinct = np.flatnonzero(seen)
            if len(distinct) < m:
                rows, row_of = distinct, (np.cumsum(seen) - 1)[pos]
        x, length, y, breadth = batch_q.x, batch_q.length, batch_q.y, batch_q.breadth
        if rows is not None:
            x, length, y, breadth = x[rows], length[rows], y[rows], breadth[rows]
        if d > 0:
            qx_min = x - d
            qx_max = qx_min + (length + 2 * d)
            qy_max = y + d
            qy_min = qy_max - (breadth + 2 * d)
        else:
            qx_min = x
            qx_max = qx_min + length
            qy_max = y
            qy_min = qy_max - breadth
        # The parameters of each distinct row's segment.
        row_seg = None
        if seg is None and len(self._seg[0]) > 1:
            raise ValueError("probing a segmented index needs each query row's segment")
        if seg is not None and len(self._seg[0]) > 1:
            row_seg = seg if rows is None else seg[rows]

            def at(column):
                return column[row_seg]
        else:
            def at(column):
                return column[0]
        x_lo, x_hi, y_lo, y_hi, side, bw, bh, base, live = map(at, self._seg)
        inb = ~(
            (qx_max < x_lo)
            | (qx_min > x_hi)
            | (qy_max < y_lo)
            | (qy_min > y_hi)
        ) & live
        last = side - 1
        ix_lo = np.minimum(np.maximum(((qx_min - x_lo) / bw).astype(np.int64), 0), last)
        ix_hi = np.minimum(np.maximum(((qx_max - x_lo) / bw).astype(np.int64), 0), last)
        iy_lo = np.minimum(np.maximum(((qy_min - y_lo) / bh).astype(np.int64), 0), last)
        iy_hi = np.minimum(np.maximum(((qy_max - y_lo) / bh).astype(np.int64), 0), last)
        # Level 1: rows -> buckets, x-major within each row (the scalar
        # scan order); a row outside its segment's extent has none.
        wy = iy_hi - iy_lo + 1
        nb = np.where(inb, (ix_hi - ix_lo + 1) * wy, 0)
        nbuckets = int(nb.sum())
        qidx = np.repeat(np.arange(len(x), dtype=np.int64), nb)
        qbase = np.cumsum(nb) - nb
        o = np.arange(nbuckets, dtype=np.int64) - qbase[qidx]
        wyq = wy[qidx]
        bx = ix_lo[qidx] + o // wyq
        by = iy_lo[qidx] + o % wyq
        if row_seg is None:
            bsel = base + bx * side + by
        else:
            bsel = base[qidx] + bx * side[qidx] + by
        offsets = self._csr_offsets
        start = offsets[bsel]
        cnt = offsets[bsel + 1] - start
        # Level 2: buckets -> slots.  ``qstart``: slots before each row's
        # first bucket; its scan ends at the next row's first bucket.
        bend = np.cumsum(cnt)
        qstart = np.concatenate(([0], bend))[np.append(qbase, nbuckets)]
        scanned = qstart[1:] - qstart[:-1]
        bidx = np.repeat(np.arange(nbuckets, dtype=np.int64), cnt)
        e = self._csr_entries[
            np.arange(len(bidx), dtype=np.int64) + (start - (bend - cnt))[bidx]
        ]
        parent = qidx[bidx]
        batch = self.batch
        hit = np.flatnonzero(
            (qx_min[parent] <= batch.x_max[e])
            & (batch.x_min[e] <= qx_max[parent])
            & (qy_min[parent] <= batch.y_max[e])
            & (batch.y_min[e] <= qy_max[parent])
        )
        bidx, parent, e = bidx[hit], parent[hit], e[hit]
        # First-occurrence dedup per (row, entry) by reference point
        # (Tsitsigkos et al.), on intersecting pairs only — every copy of
        # a pair passes or fails the extent test alike.  The buckets that
        # hold the entry and are scanned by the row form a rectangle, and
        # the x-major scan meets its lowest corner first: a slot is the
        # first occurrence iff its bucket is that corner.  Order untouched.
        first = np.flatnonzero(
            (bx[bidx] == np.maximum(self._ix_lo[e], ix_lo[parent]))
            & (by[bidx] == np.maximum(self._iy_lo[e], iy_lo[parent]))
        )
        parent, e = parent[first], e[first]
        if scan:
            position = hit[first] - qstart[parent]
        if row_of is not None:
            # Row r's candidates are the run [run[r], run[r] + per_row[r])
            # of the row-major result; query q copies the run of its row.
            per_row = np.bincount(parent, minlength=len(x))
            run = np.cumsum(per_row) - per_row
            per_query = per_row[row_of]
            parent = np.repeat(np.arange(m, dtype=np.int64), per_query)
            src = np.arange(len(parent), dtype=np.int64) + (
                run[row_of] - (np.cumsum(per_query) - per_query)
            )[parent]
            e = e[src]
            scanned = scanned[row_of]
            if scan:
                position = position[src]
        if scan:
            return parent, e, position, scanned
        if not self._segmented:
            self.probes += int(scanned.sum())
        elif row_seg is None:
            self.probes[0] += int(scanned.sum())
        else:
            query_seg = row_seg if row_of is None else row_seg[row_of]
            self.probes += np.bincount(
                query_seg, weights=scanned, minlength=len(self.probes)
            ).astype(np.int64)
        return parent, e

    def entry_at(self, i: int) -> Entry:
        """The entry behind an index returned by :meth:`search_batch`."""
        return self._entries[i]

    def __len__(self) -> int:
        return self._n

    @property
    def probe_cost_hint(self) -> float:
        """Average entries per bucket (diagnostics / ablation reporting)."""
        if not self._buckets:
            return 0.0
        return sum(len(v) for v in self._buckets.values()) / len(self._buckets)
