"""Conditions C1-C4 of Controlled-Replicate (Sections 7.4, 8 and 9).

The reducers of Controlled-Replicate's first round receive every
rectangle overlapping their cell ``c`` (via Split) and must decide which
of the rectangles *starting* in ``c`` to mark for replication.  The
paper marks the union ``uS_c`` of all *maximal* rectangle-sets satisfying

* **C1** — the set is consistent (its members satisfy every query
  predicate among its slots),
* **C2** — for every join edge from a slot inside the set to a slot
  outside it, the member at the inside slot can reach past the cell:
  it *crosses* the cell boundary for an overlap edge, or has another
  cell within distance ``d`` for a ``Ra(d)`` edge,
* **C3** — at least one such outside edge exists,
* **C4** — maximality (no qualifying superset).

Because every qualifying set extends to a maximal qualifying set, a
rectangle is marked **iff it belongs to some set satisfying C1-C3**, and
w.l.o.g. that witness set induces a *connected* subgraph of the join
graph containing the rectangle's slot (dropping foreign components never
invalidates C1-C3; see the correctness notes in DESIGN.md).  The marking
test is therefore an existence search: for each candidate rectangle, try
every connected proper slot-subset containing one of its slots and look
for one consistent embedding among the rectangles received at the cell.

The two C2 variants unify cleanly: with closed cell extents a rectangle
crosses the boundary iff its distance to the nearest other cell is 0, so
every outside edge imposes ``gap(u) <= d_edge`` with ``d_edge = 0`` for
overlap.  A slot with several outside edges must satisfy the smallest.

Two implementations, one result.  The reference
(:meth:`MarkingEngine._select_marked_scalar`, all of ``kernel="python"``)
runs one lazy backtracking search per rectangle.  The numpy kernel
(:meth:`MarkingEngine._select_marked_batched`) searches every rectangle
starting in the cell at once, one bulk index probe per plan step, and
reproduces ``marked``, ``ops`` — down to the lazy probe charges — and
``starts_here`` exactly (DESIGN.md §5.6).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.geometry.rectangle import Rect
from repro.grid.cell import Cell
from repro.grid.partitioning import GridPartitioning
from repro.index import make_index
from repro.kernels import transforms as _kt
from repro.kernels.batch import RectBatch, RectColumns
from repro.kernels.predicates import pair_mask, supports_triples
from repro.query.graph import JoinGraph
from repro.query.predicates import Overlap
from repro.query.query import Query, Triple

__all__ = ["MarkingEngine", "MarkingDecision"]


@dataclass(frozen=True)
class _Step:
    """One slot binding of the witness-embedding search."""

    slot: str
    anchor: Triple | None
    anchor_slot: str | None
    checks: tuple[tuple[Triple, str], ...]
    same_dataset: tuple[str, ...]
    #: the slot's dataset, resolved once at plan build (the embedding
    #: search visits steps far more often than plans are built)
    dataset: str = ""


@dataclass
class MarkingDecision:
    """Outcome of marking at one cell."""

    #: (dataset, rid) pairs to replicate (all start in the cell)
    marked: set[tuple[str, int]]
    #: candidate checks performed (compute-cost measure)
    ops: int
    #: the rectangles starting in the cell, in received order — exactly
    #: the ones the round-1 reducer must emit (tagged marked or not): a
    #: list of ``(dataset, rid, rect)``, or from the batched search the
    #: :class:`RectColumns` standing for it.  ``None`` from a custom
    #: marking strategy; the reducer then recomputes ownership itself.
    starts_here: Sequence[tuple[str, int, Rect]] | None = None
    #: ``marked`` as one flag per ``starts_here`` entry — a bool array
    #: next to column starts (``None`` from a strategy that does not
    #: provide it; the reducer then looks each start up in ``marked``)
    marked_flags: Sequence[bool] | None = None


class MarkingEngine:
    """Implements the C1-C3 existence test for one query on one grid."""

    def __init__(
        self,
        query: Query,
        grid: GridPartitioning,
        index_kind: str = "grid",
        kernel: str = "python",
    ) -> None:
        self.query = query
        self.grid = grid
        self.index_kind = index_kind
        self.kernel = kernel
        #: the numpy kernel searches all starts of a cell at once; it
        #: needs the grid index's columns and a mask for every predicate
        self._batched = (
            kernel == "numpy"
            and index_kind == "grid"
            and supports_triples(query.triples)
        )
        self._self_join = len(query.dataset_keys) < len(query.slots)
        self.graph = JoinGraph(query)
        self._subsets = {
            slot: self.graph.connected_subsets_containing(slot)
            for slot in query.slots
        }
        self._req_cache: dict[frozenset[str], dict[str, float]] = {}
        self._plan_cache: dict[tuple[frozenset[str], str], tuple[_Step, ...]] = {}

    # ------------------------------------------------------------------
    # Per-subset precomputation
    # ------------------------------------------------------------------
    def _requirements(self, subset: frozenset[str]) -> dict[str, float]:
        """Per-slot C2 gap bound: ``min`` distance over outside edges.

        ``inf`` means the slot has no outside edge (no constraint).
        """
        cached = self._req_cache.get(subset)
        if cached is not None:
            return cached
        reqs = {slot: math.inf for slot in subset}
        for t in self.graph.outside_triples(subset):
            inside = t.left if t.left in subset else t.right
            reqs[inside] = min(reqs[inside], t.predicate.distance)
        self._req_cache[subset] = reqs
        return reqs

    def _plan(self, subset: frozenset[str], start: str) -> tuple[_Step, ...]:
        """Connected binding order over ``subset`` starting at ``start``."""
        key = (subset, start)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        inside = self.graph.inside_triples(subset)
        order: list[str] = [start]
        placed = {start}
        while len(order) < len(subset):
            nxt = next(
                s
                for s in sorted(subset)
                if s not in placed
                and any(
                    t.touches(s) and t.other(s) in placed for t in inside
                )
            )
            order.append(nxt)
            placed.add(nxt)

        steps: list[_Step] = []
        bound: list[str] = []
        for slot in order:
            anchor: Triple | None = None
            anchor_slot: str | None = None
            checks: list[tuple[Triple, str]] = []
            for t in inside:
                if not t.touches(slot):
                    continue
                other = t.other(slot)
                if other not in bound:
                    continue
                if anchor is None:
                    anchor, anchor_slot = t, other
                else:
                    checks.append((t, other))
            same_dataset = tuple(
                s
                for s in bound
                if self.query.dataset_of(s) == self.query.dataset_of(slot)
            )
            steps.append(
                _Step(
                    slot=slot,
                    anchor=anchor,
                    anchor_slot=anchor_slot,
                    checks=tuple(checks),
                    same_dataset=same_dataset,
                    dataset=self.query.dataset_of(slot),
                )
            )
            bound.append(slot)
        plan = tuple(steps)
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------
    # The marking decision at one cell
    # ------------------------------------------------------------------
    def select_marked(
        self, cell: Cell, received: dict[str, list[tuple[int, Rect]] | RectBatch]
    ) -> MarkingDecision:
        """Which rectangles starting in ``cell`` must be replicated.

        Parameters
        ----------
        cell:
            The reducer's partition-cell.
        received:
            Rectangles split onto this cell, grouped by dataset: lists
            of ``(rid, rect)`` pairs or, on the numpy kernel, ready
            :class:`RectBatch` columns (indexed as is; rows are built
            only for the rectangles starting in the cell).
        """
        indexes = {
            dataset: make_index(self.index_kind, kernel=self.kernel, pairs=bag)
            for dataset, bag in received.items()
        }
        # Same-dataset distinctness compares rids as an int column.
        if self._batched and not (
            self._self_join
            and any(len(idx) and idx.rid_array is None for idx in indexes.values())
        ):
            return self._select_marked_batched(cell, received, indexes)
        received = {
            dataset: bag.pairs() if isinstance(bag, RectBatch) else bag
            for dataset, bag in received.items()
        }
        return self._select_marked_scalar(cell, received, indexes)

    def _usable(self, slot: str, received) -> list[tuple[frozenset[str], dict, tuple]]:
        """``(subset, requirements, plan)`` for the witness shapes ``slot``
        can try at a cell that received ``received`` — fixed per cell, it
        skips subsets where some slot's dataset sent nothing here."""
        dataset_of = self.query.dataset_of
        return [
            (subset, self._requirements(subset), self._plan(subset, slot))
            for subset in self._subsets[slot]
            if all(dataset_of(s) in received for s in subset)
        ]

    # ------------------------------------------------------------------
    # Reference path: one backtracking search per rectangle
    # ------------------------------------------------------------------
    def _select_marked_scalar(self, cell, received, indexes) -> MarkingDecision:
        # Per-rectangle C2 measure: distance to the nearest foreign cell,
        # plus the start-point owner id (reused for witness members
        # below).  Nested per-dataset maps: the embedding search looks
        # gaps up per probe candidate, so ``gap[dataset][rid]`` avoids
        # building a ``(dataset, rid)`` tuple on every lookup.
        gap: dict[str, dict[int, float]] = {}
        owner: dict[str, dict[int, int]] = {}
        starts_here: list[tuple[str, int, Rect]] = []
        for dataset, rects in received.items():
            gap_d = gap[dataset] = {}
            own_d = owner[dataset] = {}
            for rid, rect in rects:
                gap_d[rid] = self.grid.min_gap_to_other_cell(rect, cell)
                cid = self.grid.cell_of(rect).cell_id
                own_d[rid] = cid
                if cid == cell.cell_id:
                    starts_here.append((dataset, rid, rect))

        marked: set[tuple[str, int]] = set()
        ops = 0
        usable: dict[str, list] = {}
        for dataset, rid, rect in starts_here:
            if (dataset, rid) in marked:
                continue  # already part of an earlier witness
            witness = None
            rect_gap = gap[dataset][rid]
            for slot in self.query.slots_of_dataset(dataset):
                cands = usable.get(slot)
                if cands is None:
                    cands = usable[slot] = self._usable(slot, received)
                for subset, reqs, plan in cands:
                    if rect_gap > reqs[slot]:
                        continue  # the candidate itself fails C2 here
                    witness, probe_ops = self._find_embedding(
                        subset, slot, (rid, rect), received, indexes, gap, reqs, plan
                    )
                    ops += probe_ops
                    if witness is not None:
                        break
                if witness is not None:
                    break
            if witness is None:
                continue
            # Every member of a qualifying set is itself marked by the
            # paper's rule; record the ones this cell is responsible for.
            for w_slot, (w_rid, __w_rect) in witness.items():
                w_dataset = self.query.dataset_of(w_slot)
                if owner[w_dataset][w_rid] == cell.cell_id:
                    marked.add((w_dataset, w_rid))
        ops += sum(idx.probes for idx in indexes.values())
        return MarkingDecision(marked=marked, ops=ops, starts_here=starts_here)

    def _find_embedding(
        self,
        subset: frozenset[str],
        start: str,
        fixed: tuple[int, Rect],
        received: dict[str, list[tuple[int, Rect]]],
        indexes,
        gap: dict[str, dict[int, float]],
        reqs: dict[str, float] | None = None,
        plan: tuple | None = None,
    ) -> tuple[dict[str, tuple[int, Rect]] | None, int]:
        """First consistent C2-respecting embedding of ``subset``.

        ``fixed`` is pinned at slot ``start``; other slots draw from the
        received bags.  Returns ``(assignment | None, candidate_checks)``.
        Probes are lazy: a search abandoned at a witness has charged its
        index only the bucket slots scanned so far.
        """
        if reqs is None:
            reqs = self._requirements(subset)
        if plan is None:
            plan = self._plan(subset, start)
        assignment: dict[str, tuple[int, Rect]] = {start: fixed}
        ops = 0

        def bind(depth: int) -> bool:
            nonlocal ops
            if depth == len(plan):
                return True
            step = plan[depth]
            dataset = step.dataset
            assert step.anchor is not None  # depth 0 is the fixed start
            anchor_rect = assignment[step.anchor_slot][1]
            d = step.anchor.predicate.distance
            idx = indexes[dataset]
            slot = step.slot
            req = reqs[slot]
            gap_d = gap[dataset]
            same_dataset = step.same_dataset
            step_checks = step.checks
            anchor_holds = step.anchor.holds_with
            # A strict-``Overlap`` anchor is already settled by the
            # probe: the index yields exactly the entries whose closed
            # extents intersect the (unenlarged) anchor box, which IS
            # the predicate.  The candidate check (and its op charge)
            # still runs; only the redundant re-test is skipped.
            anchor_settled = type(step.anchor.predicate) is Overlap
            for entry in idx.search(anchor_rect, d):
                rid, rect = entry.payload, entry.rect
                ops += 1
                if not (
                    anchor_settled
                    or anchor_holds(slot, rect, anchor_rect)
                ):
                    continue
                if gap_d[rid] > req:
                    continue  # fails C2 at this slot
                if any(assignment[s][0] == rid for s in same_dataset):
                    continue
                ok = True
                for triple, other in step_checks:
                    ops += 1
                    if not triple.holds_with(slot, rect, assignment[other][1]):
                        ok = False
                        break
                if not ok:
                    continue
                assignment[slot] = (rid, rect)
                if bind(depth + 1):
                    return True
                del assignment[slot]
            return False

        if bind(1):
            return dict(assignment), ops
        return None, ops

    # ------------------------------------------------------------------
    # Numpy path: all rectangles starting in the cell, level by level
    # ------------------------------------------------------------------
    def _select_marked_batched(self, cell, received, indexes) -> MarkingDecision:
        """Columnar twin of :meth:`_select_marked_scalar`.

        What a start's lazy search finds and charges depends only on the
        start, never on what was marked before it; only *whether* the
        search runs does.  So every (dataset, slot, subset) is searched
        once for all its still-witnessless starts — one bulk probe per
        plan step — and the order-dependent part (a start already marked
        by an earlier witness is skipped and charges nothing) is replayed
        afterwards in one in-order pass.
        """
        query = self.query
        cell_id = cell.cell_id
        # Per dataset, over its bag in index row order: the C2 gap, the
        # rows starting in the cell, and every row's ``starts_here``
        # position (-1 for rectangles owned by another cell).
        gaps: dict[str, Any] = {}
        start_pos: dict[str, Any] = {}
        start_rows: dict[str, Any] = {}
        start_batches: list[RectBatch] = []
        n = 0
        for dataset, bag in received.items():
            batch = indexes[dataset].batch
            gaps[dataset] = _kt.min_gaps_to_other_cell(np, self.grid, batch, cell)
            if not len(bag):
                continue  # probed like any other bag, but starts nothing
            rows = np.flatnonzero(
                _kt.cell_ids_of_starts(np, self.grid, batch) == cell_id
            )
            pos = np.full(batch.n, -1, dtype=np.int64)
            pos[rows] = np.arange(n, n + len(rows), dtype=np.int64)
            n += len(rows)
            start_pos[dataset] = pos
            start_rows[dataset] = rows
            if isinstance(bag, RectBatch):
                start_batches.append(bag.take(rows))
            else:
                start_batches.append(
                    RectBatch.from_records(np, [bag[i] for i in rows.tolist()])
                )
        if not start_batches:
            return MarkingDecision(marked=set(), ops=0, starts_here=[], marked_flags=[])
        starts_here = RectColumns(
            start_rows,
            np.repeat(
                np.arange(len(start_rows)), [len(rows) for rows in start_rows.values()]
            ),
            RectBatch.concat(np, start_batches),
        )

        #: per start: what its lazy search charges (checks + probe slots),
        #: whether it found a witness, and the witness's other members
        #: this cell owns, as ``starts_here`` positions
        cost = np.zeros(n, dtype=np.int64)
        found = np.zeros(n, dtype=bool)
        partners = np.full((n, len(query.slots) - 2), -1, dtype=np.int64)
        for dataset, rows in start_rows.items():
            gap_d = gaps[dataset]
            where = start_pos[dataset][rows]
            for slot in query.slots_of_dataset(dataset):
                for __subset, reqs, plan in self._usable(slot, received):
                    if not len(rows):
                        break
                    # the candidate itself must pass C2 here
                    tried = np.flatnonzero(gap_d[rows] <= reqs[slot])
                    if not len(tried):
                        continue
                    if len(plan) == 1:
                        hit = tried  # a singleton is its own witness
                    else:
                        ok, charge, members = self._first_embeddings(
                            plan, reqs, rows[tried], indexes, gaps
                        )
                        cost[where[tried]] += charge
                        hit = tried[ok]
                        for depth, (w_dataset, entries) in enumerate(members):
                            partners[where[hit], depth] = start_pos[w_dataset][entries]
                    found[where[hit]] = True
                    unresolved = np.ones(len(rows), dtype=bool)
                    unresolved[hit] = False
                    rows = rows[unresolved]
                    where = where[unresolved]

        # In-order replay of the skip rule: a start already marked as a
        # member of an earlier start's witness never searched and charged
        # nothing.  Only starts whose witness has a member owned here can
        # mark anyone else, so the pass visits just those.
        co_marked = np.zeros(n, dtype=bool)
        skipped = np.zeros(n, dtype=bool)
        linked = np.flatnonzero((partners >= 0).any(axis=1))
        for i, members in zip(linked.tolist(), partners[linked].tolist()):
            if skipped[i]:
                continue
            for m in members:
                if m >= 0:
                    co_marked[m] = True
                    if m > i:
                        skipped[m] = True
        ops = int(cost[~skipped].sum())
        flags = found | co_marked
        chosen = starts_here.take(np.flatnonzero(flags))
        marked = set(zip(chosen.datasets(), chosen.batch.id_list()))
        return MarkingDecision(
            marked=marked, ops=ops, starts_here=starts_here, marked_flags=flags
        )

    def _first_embeddings(self, plan, reqs, rows, indexes, gaps):
        """:meth:`_find_embedding` for every start row of ``rows`` at once.

        The search tree is expanded breadth-first — level ``k`` holds
        every partial assignment of ``plan[:k + 1]`` that passed its
        checks, parent-major in scan order, i.e. in the depth-first
        visit order — and first success is then resolved bottom-up: a
        node's scan stops at its first child with a completing subtree,
        charging the children up to it (their own checks plus their
        exhausted subtrees) and the probe slots scanned so far.

        Returns ``(found, charge, members)``: per row whether a witness
        exists and what the lazy search charges (candidate checks plus
        probe slots); per plan step after the start, ``(dataset, entry
        rows)`` of the first witness of each found row.
        """
        dataset_of = self.query.dataset_of
        frontier = {plan[0].slot: rows}
        levels = []
        for step in plan[1:]:
            slot = step.slot
            idx = indexes[step.dataset]
            anchor = step.anchor
            abatch = indexes[dataset_of(step.anchor_slot)].batch
            apos = frontier[step.anchor_slot]
            parent, entries, position, scanned = idx.probe_frontier(
                abatch, apos, anchor.predicate.distance, scan=True
            )
            # One check per probe candidate: the anchor predicate (a
            # strict ``Overlap`` is settled by the probe itself), C2 at
            # this slot, distinctness from same-dataset bindings.
            alive = gaps[step.dataset][entries] <= reqs[slot]
            if type(anchor.predicate) is not Overlap:
                alive &= pair_mask(
                    np, anchor, slot, idx.batch, entries, abatch, apos[parent]
                )
            for s in step.same_dataset:
                rids = idx.rid_array
                alive &= rids[entries] != rids[frontier[s][parent]]
            own = np.ones(len(entries), dtype=np.int64)
            for triple, other in step.checks:
                own += alive  # one more check per still-alive candidate
                alive &= pair_mask(
                    np,
                    triple,
                    slot,
                    idx.batch,
                    entries,
                    indexes[dataset_of(other)].batch,
                    frontier[other][parent],
                )
            levels.append((parent, entries, alive, own, position, scanned))
            keep = np.flatnonzero(alive)
            if not len(keep):
                break
            up = parent[keep]
            frontier = {s: arr[up] for s, arr in frontier.items()}
            frontier[slot] = entries[keep]

        # Bottom-up: per node of the level above, its first succeeding
        # child (segment-wise first-true over the parent-major candidate
        # array) and the charge of the scan up to it (prefix sums).
        node_ok = node_charge = None
        first_child = []
        for parent, __, alive, own, position, scanned in reversed(levels):
            if node_ok is None:
                ok, total = alive, own
            else:
                keep = np.flatnonzero(alive)
                ok = np.zeros(len(alive), dtype=bool)
                ok[keep] = node_ok
                total = own.copy()
                total[keep] += node_charge
            seg_end = np.cumsum(np.bincount(parent, minlength=len(scanned)))
            seg_start = np.concatenate(([0], seg_end[:-1]))
            prefix = np.concatenate(([0], np.cumsum(total)))
            hits = np.flatnonzero(ok)
            hit_parent = parent[hits]
            lead = np.ones(len(hits), dtype=bool)
            lead[1:] = hit_parent[1:] != hit_parent[:-1]
            first = hits[lead]
            winner = hit_parent[lead]
            # exhausted scan: every child, every slot ...
            node_charge = prefix[seg_end] - prefix[seg_start] + scanned
            # ... abandoned scan: children and slots up to the witness
            node_charge[winner] = (
                prefix[first + 1] - prefix[seg_start[winner]] + position[first] + 1
            )
            node_ok = np.zeros(len(scanned), dtype=bool)
            node_ok[winner] = True
            child = np.full(len(scanned), -1, dtype=np.int64)
            child[winner] = first
            first_child.append(child)

        # Top-down: follow each found row's first-success path.
        node = np.flatnonzero(node_ok)
        members = []
        if not len(node):
            return node_ok, node_charge, members
        for step, (__, entries, alive, *__), child in zip(
            plan[1:], levels, reversed(first_child)
        ):
            at = child[node]
            members.append((step.dataset, entries[at]))
            node = np.cumsum(alive)[at] - 1  # rank among the alive
        return node_ok, node_charge, members

