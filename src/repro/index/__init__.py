"""Local (in-reducer) spatial indexes: grid buckets, STR R-tree, scan."""

from repro.index.base import Entry, NestedLoopIndex, SpatialIndex
from repro.index.grid_index import GridIndex
from repro.index.rtree import RTree
from repro.kernels.batch import RectBatch

__all__ = ["Entry", "SpatialIndex", "NestedLoopIndex", "GridIndex", "RTree"]


def make_index(
    kind: str, entries=None, kernel: str = "python", pairs=None, **kwargs
):
    """Index factory used by the join algorithms and ablation benches.

    ``kind`` is one of ``"grid"``, ``"rtree"`` or ``"scan"``.  ``kernel``
    selects the build/probe implementation where one exists (only the
    grid index has a columnar fast path; the others ignore it).  The
    rectangles come in as ``entries`` or as ``pairs`` — raw
    ``(rid, rect)`` pairs, or a columnar
    :class:`~repro.kernels.batch.RectBatch` of them.  The grid index
    consumes pairs and batches directly and materializes Entry objects
    only if a caller asks for them.
    """
    batch = None
    if isinstance(pairs, RectBatch):
        batch, pairs = pairs, None
    if kind == "grid":
        return GridIndex(entries, kernel=kernel, pairs=pairs, batch=batch, **kwargs)
    if entries is None:
        if pairs is None:
            pairs = batch.pairs()
        entries = [Entry(rect=r, payload=rid) for rid, r in pairs]
    if kind == "rtree":
        return RTree(entries, **kwargs)
    if kind == "scan":
        return NestedLoopIndex(entries)
    raise ValueError(f"unknown index kind {kind!r}")
