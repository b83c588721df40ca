"""The local (in-reducer) multi-way join.

Every reducer of All-Replicate, of Controlled-Replicate's second round
and of the 2-way joins ends up with a bag of rectangles per slot and must
enumerate the slot assignments satisfying every query predicate.  This
module implements that enumeration as a backtracking search over a
connected slot order: each newly bound slot is generated from a spatial
index probe through one already-bound edge (the *anchor*) and checked
against the remaining bound edges.

Self-join semantics: slots reading the same dataset must bind distinct
record ids (a road triple is three different roads); symmetric
assignments count separately, as in a relational self-join of aliases.

The search also reports the number of candidate checks it performed,
which the reducers feed to the cost model as compute work — this is how
All-Replicate's enormous per-reducer joins show up in simulated time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import JoinError
from repro.geometry.rectangle import Rect
from repro.index import GridIndex, make_index
from repro.index.grid_index import (
    dominance,
    dominance_first_buckets,
    dominance_index,
    dominance_probes,
    query_bounds,
)
from repro.kernels.batch import RectBatch
from repro.kernels.predicates import pair_mask, supports_triples, triple_mask
from repro.query.graph import JoinGraph
from repro.query.predicates import Overlap
from repro.query.query import Query, Triple

__all__ = ["LocalJoiner", "Assignment", "FrontierResult"]

#: One output assignment: slot -> (rid, rect).
Assignment = dict[str, tuple[int, Rect]]


class FrontierResult:
    """Columnar form of a completed frontier enumeration.

    Row ``i`` of the result set binds, for every slot, row
    ``positions[slot][i]`` of that slot's bag; ``batches`` carry each
    bag's id and coordinate columns, so a caller can read the result
    rids (``batches[slot].ids_at(positions[slot])``) and compute per-row
    aggregates (e.g. the dedup owner cell) without materializing
    assignment dicts.  ``segments[i]`` is row ``i``'s segment; rows are
    segment by segment, each segment's in the exact depth-first order
    :meth:`LocalJoiner.enumerate` would produce over its bags alone.
    """

    __slots__ = ("slots", "positions", "batches", "segments", "count")

    def __init__(self, slots, positions, batches, segments) -> None:
        self.slots = slots
        self.positions = positions
        self.batches = batches
        self.segments = segments
        self.count = len(segments)


@dataclass(frozen=True)
class SlotPlan:
    """How one slot of the evaluation order is bound."""

    slot: str
    #: the edge used to generate candidates (None for the first slot)
    anchor: Triple | None
    #: the already-bound slot at the anchor's other end
    anchor_slot: str | None
    #: further edges to already-bound slots, checked per candidate
    checks: tuple[tuple[Triple, str], ...]
    #: earlier slots reading the same dataset (distinctness)
    same_dataset: tuple[str, ...]


def slot_plans(
    query: Query, order: tuple[str, ...] | None = None
) -> tuple[SlotPlan, ...]:
    """Compile the query into one :class:`SlotPlan` per slot.

    The local join binds the slots depth by depth; the 2-way Cascade
    runs one job per plan after the first.  ``order`` overrides the
    default connected order — the hook the cascade-order optimizer
    (``repro.optimizer``) plugs into.  It must be a permutation of the
    query's slots where every slot after the first touches an earlier
    one.
    """
    if order is not None and sorted(order) != sorted(query.slots):
        raise JoinError(f"order {order!r} is not a permutation of the query slots")
    order = order or JoinGraph(query).connected_order()
    plans: list[SlotPlan] = []
    bound: list[str] = []
    for slot in order:
        anchor: Triple | None = None
        anchor_slot: str | None = None
        checks: list[tuple[Triple, str]] = []
        for t in query.triples_touching(slot):
            other = t.other(slot)
            if other not in bound:
                continue
            if anchor is None:
                anchor, anchor_slot = t, other
            else:
                checks.append((t, other))
        if bound and anchor is None:
            raise JoinError(f"slot {slot!r} not connected to bound slots")
        same_dataset = tuple(
            s for s in bound if query.dataset_of(s) == query.dataset_of(slot)
        )
        plans.append(
            SlotPlan(
                slot=slot,
                anchor=anchor,
                anchor_slot=anchor_slot,
                checks=tuple(checks),
                same_dataset=same_dataset,
            )
        )
        bound.append(slot)
    return tuple(plans)


def plan_is_vectorized(plan: SlotPlan) -> bool:
    """Whether the plan's anchor and check predicates all have masks."""
    return plan.anchor is not None and supports_triples(
        [plan.anchor, *(t for t, __ in plan.checks)]
    )


def _rows(pos, sel):
    """Rows ``sel`` of a position column (``None``: the identity column)."""
    return sel if pos is None else pos[sel]


def frontier_level(
    np, plan: SlotPlan, idx, batches, frontier, rid_array_for, admit=None, seg=None, bins=None
):
    """Bind ``plan.slot`` for a whole frontier: one bulk probe, then masks.

    ``frontier[s]`` holds, per partial assignment, its row in
    ``batches[s]`` (``None``: row ``i`` for assignment ``i``);
    ``idx`` is the numpy grid index over the new slot's bag and
    ``rid_array_for(s)`` the int64 rid column of a bound slot.  The
    anchor's rectangles are probed together, query-major in scan order,
    and the candidates filtered in the scalar loop's order: anchor
    predicate, the caller's ``admit(anchor_rows, entries)`` mask (the
    Cascade's owner-cell rule), same-dataset rid distinctness, then each
    bound-edge check.

    Returns ``(parents, entries, checks)``: per survivor, in scan order,
    its parent's position in the frontier and its entry in ``idx.batch``;
    and the candidate checks the short-circuiting scalar loop counts —
    one per bucket-passed candidate plus, per bound-edge check, one per
    candidate still alive when that check runs.

    On a segmented ``idx``, ``seg`` is the segment of every row of the
    anchor slot's bag (what the index probes by).  With ``bins =
    (key_of, nbins)`` the checks are charged per bin: ``key_of(parents,
    entries)`` names each candidate's bin and ``checks`` is an int64
    array, the checks of each bin — a segment, or a dominance cell.
    """
    slot = plan.slot
    abatch = batches[plan.anchor_slot]
    apos = frontier[plan.anchor_slot]
    d = plan.anchor.predicate.distance
    p_flat, e_flat = idx.probe_frontier(abatch, apos, d, seg=seg)
    if bins is None:
        checks = len(e_flat)
    else:
        key_of, nbins = bins
        key = key_of(p_flat, e_flat)
        checks = np.bincount(key, minlength=nbins)
    a_rows = _rows(apos, p_flat)
    if type(plan.anchor.predicate) is Overlap:
        # The d = 0 probe's extent test is that predicate already.
        alive = np.ones(len(e_flat), dtype=bool)
    else:
        alive = pair_mask(np, plan.anchor, slot, idx.batch, e_flat, abatch, a_rows)
    if admit is not None:
        alive = alive & admit(a_rows, e_flat)
    for s in plan.same_dataset:
        alive = alive & (
            idx.rid_array[e_flat] != rid_array_for(s)[_rows(frontier[s], p_flat)]
        )
    for triple, other_slot in plan.checks:
        n_alive = int(np.count_nonzero(alive))
        if bins is None:
            checks += n_alive
        elif n_alive:
            checks += np.bincount(key[alive], minlength=nbins)
        if not n_alive:
            break
        alive = alive & pair_mask(
            np,
            triple,
            slot,
            idx.batch,
            e_flat,
            batches[other_slot],
            _rows(frontier[other_slot], p_flat),
        )
    return p_flat[alive], e_flat[alive], checks


class LocalJoiner:
    """Backtracking multi-way join evaluator bound to one query."""

    def __init__(
        self, query: Query, index_kind: str = "grid", kernel: str = "python"
    ) -> None:
        self.query = query
        self.index_kind = index_kind
        self.kernel = kernel
        plans = slot_plans(query)
        self.plans = plans
        self.order = tuple(p.slot for p in plans)
        # Columnar fast path: per-depth flag — an anchored depth whose
        # anchor and check predicates all have vectorized masks can
        # filter the whole candidate set in one pass.  Depths that fail
        # the test (or non-grid indexes, or non-integer rids when a
        # distinctness filter is needed) fall back to the scalar loop.
        columnar = kernel == "numpy"
        self._vec_plans = tuple(columnar and plan_is_vectorized(p) for p in plans)
        # Frontier (level-synchronous) evaluation: when every anchored
        # depth is vectorizable, the whole search runs breadth-first over
        # arrays of partial assignments — one bulk index probe and one
        # mask pass per depth instead of one probe per parent binding.
        self._frontier_ok = columnar and len(plans) >= 2 and all(self._vec_plans[1:])

    # ------------------------------------------------------------------
    def enumerate(
        self, rects_by_slot: dict[str, list[tuple[int, Rect]] | RectBatch]
    ) -> tuple[list[Assignment], int]:
        """All satisfying assignments over the given per-slot bags.

        A bag is a list of ``(rid, rect)`` pairs or, on the numpy
        kernel, a ready :class:`RectBatch` (indexed as is; its row form
        is only built if the search has to fall back to the scalar
        loop).  Slots handed the *same* bag object — a self-join reading
        one dataset twice — share one index.

        Returns ``(assignments, candidate_checks)``; the second value is
        the compute-cost measure reported to the engine.
        """
        missing = [p.slot for p in self.plans if p.slot not in rects_by_slot]
        if missing:
            raise JoinError(f"missing slot bags: {missing}")
        if any(not rects_by_slot[p.slot] for p in self.plans):
            return [], 0
        if self._frontier_ok:
            # One segment holding every row; bags stay shared by identity.
            as_batch: dict[int, RectBatch] = {}
            for bag in rects_by_slot.values():
                if id(bag) not in as_batch:
                    as_batch[id(bag)] = (
                        bag if isinstance(bag, RectBatch) else RectBatch.from_pairs(np, bag)
                    )
            bags = {slot: as_batch[id(bag)] for slot, bag in rects_by_slot.items()}
            bounds = {slot: np.array([0, bag.n]) for slot, bag in bags.items()}
            fr, checks = self.enumerate_columnar(bags, bounds)
            if fr is not None:
                cols = [
                    (slot, bags[slot].pairs(), fr.positions[slot].tolist())
                    for slot in fr.slots
                ]
                results = [
                    {slot: pairs[rows[i]] for slot, pairs, rows in cols}
                    for i in range(fr.count)
                ]
                return results, int(checks[0])
        return self._enumerate_scalar(rects_by_slot)

    def enumerate_columnar(
        self, bags: dict[str, RectBatch], bounds: dict[str, Any]
    ) -> tuple[FrontierResult | None, Any]:
        """The frontier search over every segment of a physical range at
        once, one bulk index probe and one mask pass per depth.

        ``bags[slot]`` holds the slot's rows of every segment, segment by
        segment, and ``bounds[slot]`` their int64 row bounds ``[0, ...,
        n]`` (slots reading one dataset share the bag and its bounds).
        Each segment is searched exactly as :meth:`enumerate` searches
        its rows alone: a segment with an empty bag finds nothing and
        charges nothing, the indexes are segmented (one CSR, each
        segment bucketed on its own rows), and checks and probe charges
        are summed per segment.

        Returns ``(result, checks)`` — a :class:`FrontierResult` and the
        int64 candidate checks of each segment — or ``(None, None)``
        when the frontier cannot serve these bags (a non-grid index,
        non-integer rids under a distinctness filter) and the caller
        must enumerate segment by segment.

        Equivalence to the scalar search: parents are expanded in
        frontier order with each parent's candidates in scan order, so
        by induction the next frontier — and ultimately the result
        list — is in depth-first order within each segment.  ``checks``
        totals are sums of per-candidate contributions that do not
        depend on visit order (one per bucket-passed candidate, plus one
        per still-alive candidate per bound-edge check), and ``probes``
        is the same scanned-slot total the per-parent searches charge.
        """
        plans = self.plans
        if not self._frontier_ok or self.index_kind != "grid":
            return None, None
        distinct = {s for p in plans if p.same_dataset for s in (p.slot, *p.same_dataset)}
        rid_arrays = {slot: bags[slot].int_ids(np) for slot in distinct}
        if any(ids is None for ids in rid_arrays.values()):
            return None, None
        slot0 = plans[0].slot
        nseg = len(bounds[slot0]) - 1
        counts = {slot: np.diff(bounds[slot]) for slot in bags}
        live = np.logical_and.reduce([counts[p.slot] > 0 for p in plans])
        #: per bag: the segment of each of its rows
        seg_of: dict[int, Any] = {}

        def row_segments(slot: str):
            key = id(bags[slot])
            seg = seg_of.get(key)
            if seg is None:
                seg = seg_of[key] = np.repeat(np.arange(nseg), counts[slot])
            return seg

        # Depth 0: every row of the first bag in a segment that can join
        # at all (``None``: every row, in order).
        checks = np.where(live, counts[slot0], 0)
        frontier: dict[str, Any] = {slot0: None}
        row_seg = row_segments(slot0)
        if not live.all():
            rows = np.flatnonzero(live[row_seg])
            frontier[slot0], row_seg = rows, row_seg[rows]
        # Indexes are built on a bag's first probe, keyed by bag
        # identity (slots reading one dataset share one).  An unbuilt
        # index charges nothing.
        indexes: dict[int, GridIndex] = {}
        batches: dict[str, RectBatch] = {slot0: bags[slot0]}
        for plan in plans[1:]:
            if not len(row_seg):
                break
            slot = plan.slot
            idx = indexes.get(id(bags[slot]))
            if idx is None:
                idx = indexes[id(bags[slot])] = GridIndex(
                    kernel="numpy", batch=bags[slot], segments=bounds[slot]
                )
            keep, entries, level_checks = frontier_level(
                np,
                plan,
                idx,
                batches,
                frontier,
                rid_arrays.__getitem__,
                seg=row_segments(plan.anchor_slot),
                bins=(lambda parents, __, row_seg=row_seg: row_seg[parents], nseg),
            )
            checks += level_checks
            frontier = {s: _rows(arr, keep) for s, arr in frontier.items()}
            frontier[slot] = entries
            batches[slot] = idx.batch
            row_seg = row_seg[keep]
        # Index probe work is part of the reducer's compute cost: the
        # nested-loop baseline examines every entry per probe while the
        # spatial indexes touch only bucket/node candidates.
        for idx in indexes.values():
            checks += idx.probes
        if len(frontier) < len(plans) or not len(row_seg):
            return FrontierResult((), {}, batches, row_seg[:0]), checks
        slots = tuple(p.slot for p in plans)
        positions = {
            s: np.arange(bags[s].n) if rows is None else rows
            for s, rows in frontier.items()
        }
        return FrontierResult(slots, positions, batches, row_seg), checks

    def enumerate_nested(
        self, bags: dict[str, RectBatch], starts: dict[str, Any], cells, shape
    ) -> tuple[FrontierResult | None, Any]:
        """The frontier search of every cell of a reduce range whose bags
        are *nested*, run once over the range's distinct rows.

        ``bags[slot]`` holds the range's distinct rows of the slot's
        dataset in received order and ``starts[slot]`` each row's start
        cell (slots reading one dataset share both); ``cells`` are the
        range's cells, all row-major ids on a grid of ``shape``.  Cell
        ``c``'s bag is the rows whose start it dominates componentwise
        (:func:`~repro.index.grid_index.dominance`) — All-Replicate's
        fourth-quadrant bags.  So a
        partial assignment ``P`` exists in exactly the cells that
        dominate ``m(P)``, the componentwise max of its members' starts,
        and the search runs once, tracking ``m`` per row:

        * *checks* — a pair is a candidate in cell ``c`` iff it passes
          the extent test and ``m(pair) <= c`` (a query finds every
          entry it meets in any layout, as the bucket clamp is
          monotone), so each level's candidates, and the rows alive
          before each bound-edge check, are histogrammed by ``m`` and
          summed over each cell's dominated ``m``;
        * *probes* — each cell's index is laid out and its bucket
          occupancy counted by arithmetic
          (:func:`~repro.index.grid_index.dominance_index`), and a
          query's scanned slots are looked up in it;
        * *output* — a tuple is kept only in cell ``m(tuple)``, the
          Section 6.2 owner, in that cell's depth-first order: by its
          first row, then per level by the bucket where the probe first
          met the row (x-major) and the row's received position, in the
          owner's layout.

        Cells whose bags miss a slot's dataset search nothing, and rows
        no searching cell dominates are dropped as they appear.

        Returns ``(result, checks)``: the tuples, owner cell by owner
        cell (``segments`` is the owner's index into ``cells``), and each
        cell's candidate checks plus probe charges — or ``(None, None)``
        when the frontier cannot serve these bags (a non-grid index,
        non-integer rids under a distinctness filter).
        """
        plans = self.plans
        if not self._frontier_ok or self.index_kind != "grid":
            return None, None
        distinct = {s for p in plans if p.same_dataset for s in (p.slot, *p.same_dataset)}
        rid_arrays = {slot: bags[slot].int_ids(np) for slot in distinct}
        if any(ids is None for ids in rid_arrays.values()):
            return None, None
        cols = shape[1]
        dom = dominance(*np.divmod(cells, cols), shape)
        weights = dom.astype(np.int64)
        ncells = dom.shape[1]
        counts = {
            slot: weights @ np.bincount(starts[slot], minlength=ncells) for slot in bags
        }
        live = np.logical_and.reduce([counts[p.slot] > 0 for p in plans])
        #: grid cells some searching cell dominates
        wanted = live @ dom
        slot0 = plans[0].slot
        checks = np.where(live, counts[slot0], 0)
        rows = np.flatnonzero(wanted[starts[slot0]])
        frontier: dict[str, Any] = {slot0: rows}
        m_row, m_col = np.divmod(starts[slot0][rows], cols)
        #: the candidate checks of each dominance cell m
        by_m = np.zeros(ncells, dtype=np.int64)
        indexes: dict[int, tuple] = {}
        batches: dict[str, RectBatch] = {slot0: bags[slot0]}
        for plan in plans[1:]:
            if not len(m_row):
                break
            slot = plan.slot
            index = indexes.get(id(bags[slot]))
            if index is None:
                index = indexes[id(bags[slot])] = (
                    GridIndex(kernel="numpy", batch=bags[slot]),
                    dominance_index(bags[slot], starts[slot], dom),
                )
            idx, layouts = index
            abatch = bags[plan.anchor_slot]
            d = plan.anchor.predicate.distance
            checks += dominance_probes(
                layouts,
                dom,
                live,
                query_bounds(abatch.x, abatch.length, abatch.y, abatch.breadth, d),
                frontier[plan.anchor_slot],
                m_row * cols + m_col,
            )
            e_row, e_col = np.divmod(starts[slot], cols)

            def m_of(parents, entries, m_row=m_row, m_col=m_col, e_row=e_row, e_col=e_col):
                return (
                    np.maximum(m_row[parents], e_row[entries]) * cols
                    + np.maximum(m_col[parents], e_col[entries])
                )

            keep, entries, level_checks = frontier_level(
                np,
                plan,
                idx,
                batches,
                frontier,
                rid_arrays.__getitem__,
                bins=(m_of, ncells),
            )
            by_m += level_checks
            kept = np.flatnonzero(wanted[m_of(keep, entries)])
            keep, entries = keep[kept], entries[kept]
            m_row = np.maximum(m_row[keep], e_row[entries])
            m_col = np.maximum(m_col[keep], e_col[entries])
            frontier = {s: arr[keep] for s, arr in frontier.items()}
            frontier[slot] = entries
            batches[slot] = idx.batch
        checks += np.where(live, weights @ by_m, 0)
        if len(frontier) < len(plans) or not len(m_row):
            return FrontierResult((), {}, batches, np.empty(0, dtype=np.int64)), checks
        m = m_row * cols + m_col
        return self._owner_order(frontier, batches, indexes, m, cells, ncells), checks

    def _owner_order(self, frontier, batches, indexes, m, cells, ncells) -> FrontierResult:
        """The complete tuples of :meth:`enumerate_nested` each in its
        owner cell ``m`` (dropped when the owner is not a cell of the
        range), owner by owner, each owner's in its depth-first order:
        by its first row, then level by level by the bucket where the
        probe met the row and the row's position — one packed int64 key
        per level, formed one owner cell at a time."""
        plans = self.plans
        cell_of = np.full(ncells, -1, dtype=np.int64)
        cell_of[cells] = np.arange(len(cells))
        owner = cell_of[m]
        mine = np.flatnonzero(owner >= 0)
        mine = mine[np.argsort(owner[mine], kind="stable")]
        owner = owner[mine]
        cuts = np.searchsorted(owner, np.arange(len(cells) + 1)).tolist()
        levels = []
        for plan in plans[1:]:
            anchor, entry = batches[plan.anchor_slot], batches[plan.slot]
            qx_min, __, qy_min, __ = query_bounds(
                anchor.x, anchor.length, anchor.y, anchor.breadth,
                plan.anchor.predicate.distance,
            )
            layouts = indexes[id(entry)][1]
            width = int(layouts[0][4].max())
            levels.append(
                (frontier[plan.anchor_slot], frontier[plan.slot], entry, qx_min, qy_min, layouts, width)
            )
        first = frontier[plans[0].slot]
        for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            if hi - lo < 2:
                continue
            rows = mine[lo:hi]
            keys = [first[rows]]
            for anchors, entries, entry, qx_min, qy_min, layouts, width in levels:
                at, e = anchors[rows], entries[rows]
                bx, by = dominance_first_buckets(
                    layouts, j, qx_min[at], qy_min[at], entry.x_min[e], entry.y_min[e]
                )
                keys.append((bx * width + by) * entry.n + e)
            mine[lo:hi] = rows[np.lexsort(keys[::-1])]
        slots = tuple(p.slot for p in plans)
        return FrontierResult(slots, {s: frontier[s][mine] for s in slots}, batches, owner)

    def _enumerate_scalar(
        self, rects_by_slot: dict[str, list[tuple[int, Rect]] | RectBatch]
    ) -> tuple[list[Assignment], int]:
        """The backtracking search: :meth:`enumerate` wherever the
        frontier does not apply."""
        # Indexes are built lazily, on a bag's first probe: when the
        # search never reaches a depth (every candidate of an earlier
        # slot was rejected), that slot's bag is never indexed at all.
        # An unbuilt index has zero probes, so the compute-cost sum
        # below is unchanged either way.  Indexes and row forms are
        # keyed by bag identity: slots reading the same bag share them
        # (probe counts are additive, so the sum is that of one index
        # per slot).
        indexes: dict[int, Any] = {}
        row_forms: dict[int, list[tuple[int, Rect]]] = {}
        index_kind = self.index_kind
        kernel = self.kernel

        def index_for(slot: str):
            bag = rects_by_slot[slot]
            idx = indexes.get(id(bag))
            if idx is None:
                idx = indexes[id(bag)] = make_index(index_kind, kernel=kernel, pairs=bag)
            return idx

        def pairs_of(slot: str) -> list[tuple[int, Rect]]:
            bag = rects_by_slot[slot]
            if not isinstance(bag, RectBatch):
                return bag
            pairs = row_forms.get(id(bag))
            if pairs is None:
                pairs = row_forms[id(bag)] = bag.pairs()
            return pairs

        checks = 0
        results: list[Assignment] = []
        assignment: Assignment = {}
        plans = self.plans
        nplans = len(plans)
        vec_plans = self._vec_plans
        # The same rectangle is re-probed under every parent binding it
        # survives with (a slot's anchor rect repeats across the
        # backtracking tree), so probe results — and, when no per-parent
        # filter applies, the full survivor list — are memoized per
        # (slot, anchor rect).  The accounting stays per-probe: a cache
        # hit still charges the scanned bucket slots and the per-
        # candidate anchor checks, exactly as the scalar re-probe would.
        probe_cache: dict[tuple[str, int], tuple] = {}

        def bind_vector(depth: int, plan: SlotPlan, idx) -> None:
            """One vectorized probe: filter the whole candidate set with
            array masks, then recurse scalar over the survivors.

            Check accounting matches the scalar loop exactly: one check
            per probe candidate for the anchor predicate, then — per
            bound-edge check, in plan order — one check for every
            candidate still alive when that check runs (the scalar loop
            breaks on the first failed edge).
            """
            nonlocal checks
            slot = plan.slot
            anchor_rect = assignment[plan.anchor_slot][1]
            key = (slot, id(anchor_rect))
            hit = probe_cache.get(key)
            if hit is None:
                matched, scanned = idx.search_batch(
                    anchor_rect, plan.anchor.predicate.distance
                )
                n_cand = len(matched)
                alive = survivors = None
                if n_cand:
                    alive = triple_mask(
                        np, plan.anchor, slot, idx.batch, matched, anchor_rect
                    )
                    if not plan.same_dataset and not plan.checks:
                        entry_at = idx.entry_at
                        survivors = [
                            (e.payload, e.rect)
                            for e in map(entry_at, matched[alive].tolist())
                        ]
                else:
                    survivors = []
                hit = (n_cand, scanned, matched, alive, survivors)
                probe_cache[key] = hit
            else:
                idx.probes += hit[1]
            n_cand, __, matched, alive, survivors = hit
            checks += n_cand
            next_depth = depth + 1
            if survivors is not None:
                for rid_rect in survivors:
                    assignment[slot] = rid_rect
                    bind(next_depth)
                    del assignment[slot]
                return
            batch = idx.batch
            for s in plan.same_dataset:
                alive = alive & (idx.rid_array[matched] != assignment[s][0])
            for triple, other_slot in plan.checks:
                n_alive = int(np.count_nonzero(alive))
                checks += n_alive
                if not n_alive:
                    return
                # Non-inplace: ``alive`` may be the cached anchor mask.
                alive = alive & triple_mask(
                    np, triple, slot, batch, matched, assignment[other_slot][1]
                )
            entry_at = idx.entry_at
            for eidx in matched[alive].tolist():
                e = entry_at(eidx)
                assignment[slot] = (e.payload, e.rect)
                bind(next_depth)
                del assignment[slot]

        def bind(depth: int) -> None:
            nonlocal checks
            if depth == nplans:
                results.append(dict(assignment))
                return
            plan = plans[depth]
            slot = plan.slot
            anchor = plan.anchor
            if vec_plans[depth]:
                idx = index_for(slot)
                if getattr(idx, "batch", None) is not None and (
                    not plan.same_dataset or idx.rid_array is not None
                ):
                    bind_vector(depth, plan, idx)
                    return
            if anchor is None:
                anchor_rect = None
                anchor_holds = None
                candidates: Iterator[tuple[int, Rect]] = iter(pairs_of(slot))
            else:
                anchor_rect = assignment[plan.anchor_slot][1]
                anchor_holds = anchor.holds_with
                candidates = (
                    (e.payload, e.rect)
                    for e in index_for(slot).search(
                        anchor_rect, anchor.predicate.distance
                    )
                )
            # Bindings of earlier slots are fixed for this whole loop —
            # look them up once, not per candidate.
            bound_rids = [assignment[s][0] for s in plan.same_dataset]
            bound_checks = [(t, assignment[o][1]) for t, o in plan.checks]
            next_depth = depth + 1
            for rid, rect in candidates:
                checks += 1
                if anchor_holds is not None and not anchor_holds(
                    slot, rect, anchor_rect
                ):
                    continue
                if rid in bound_rids:
                    continue
                ok = True
                for triple, other_rect in bound_checks:
                    checks += 1
                    if not triple.holds_with(slot, rect, other_rect):
                        ok = False
                        break
                if not ok:
                    continue
                assignment[slot] = (rid, rect)
                bind(next_depth)
                del assignment[slot]

        bind(0)
        # Index probe work is part of the reducer's compute cost: the
        # nested-loop baseline examines every entry per probe while the
        # spatial indexes touch only bucket/node candidates.
        checks += sum(idx.probes for idx in indexes.values())
        # ``bind`` and ``bind_vector`` call each other: emptying their
        # cells breaks the closure cycle, so the bags and indexes this
        # call captured are freed now, not at some later cyclic GC.
        del bind, bind_vector
        return results, checks
