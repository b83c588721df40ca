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
"""

from __future__ import annotations

__all__ = ["RectBatch"]


class RectBatch:
    """Parallel arrays for a batch of rectangles (one row per rect)."""

    __slots__ = ("ids", "x", "length", "y", "breadth", "x_min", "x_max", "y_min", "y_max", "n")

    def __init__(self, np, ids, x, length, y, breadth):
        self.ids = ids
        self.x = x
        self.length = length
        self.y = y
        self.breadth = breadth
        # Exact scalar property expressions, elementwise.
        self.x_min = x
        self.x_max = x + length
        self.y_min = y - breadth
        self.y_max = y
        self.n = len(x)

    @classmethod
    def from_pairs(cls, np, pairs):
        """Build from an iterable of ``(rid, Rect)`` pairs."""
        pairs = list(pairs)
        ids = [rid for rid, __ in pairs]
        flat = [c for __, r in pairs for c in (r.x, r.l, r.y, r.b)]
        return cls(np, ids, *cls._columns(np, flat))

    @classmethod
    def from_rects(cls, np, rects):
        """Build from an iterable of bare :class:`Rect` objects."""
        flat = [c for r in rects for c in (r.x, r.l, r.y, r.b)]
        return cls(np, None, *cls._columns(np, flat))

    @staticmethod
    def _columns(np, flat):
        if not flat:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty, empty, empty
        arr = np.array(flat, dtype=np.float64).reshape(-1, 4)
        return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]

    def slice(self, lo: int, hi: int) -> "RectBatch":
        """A zero-copy row slice ``[lo, hi)`` (arrays become views).

        Used by the engine to hand map splits their cut of a cached
        whole-file batch without recomputing any column.
        """
        s = object.__new__(RectBatch)
        s.ids = self.ids[lo:hi] if self.ids is not None else None
        s.x = self.x[lo:hi]
        s.length = self.length[lo:hi]
        s.y = self.y[lo:hi]
        s.breadth = self.breadth[lo:hi]
        s.x_min = self.x_min[lo:hi]
        s.x_max = self.x_max[lo:hi]
        s.y_min = self.y_min[lo:hi]
        s.y_max = self.y_max[lo:hi]
        s.n = len(s.x)
        return s

    def take(self, rows) -> "RectBatch":
        """The rows at int-array positions ``rows``, in that order (copies).

        ``ids`` are not carried: callers that gather row groups address
        records by position.
        """
        s = object.__new__(RectBatch)
        s.ids = None
        s.x = s.x_min = self.x[rows]
        s.length = self.length[rows]
        s.y = s.y_max = self.y[rows]
        s.breadth = self.breadth[rows]
        s.x_max = self.x_max[rows]
        s.y_min = self.y_min[rows]
        s.n = len(s.x)
        return s

    def __len__(self) -> int:
        return self.n
