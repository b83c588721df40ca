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
starting in the cell at once — or in every cell of a physical reduce
range at once, each against its own cell — one bulk index probe per
plan step, and reproduces ``marked``, ``ops`` — down to the lazy probe
charges — and ``starts_here`` of every cell exactly (DESIGN.md §5.6).
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
from repro.index import GridIndex, make_index
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
    """Outcome of marking at one cell — or, from a segmented call, at
    every cell of a physical reduce range."""

    #: (dataset, rid) pairs to replicate (all start in the cell); ``None``
    #: from a segmented call
    marked: set[tuple[str, int]] | None
    #: candidate checks performed (compute-cost measure) — an int64
    #: array, one per cell, from a segmented call
    ops: Any
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
    #: segmented call: int64 bounds cutting ``starts_here`` (cell by
    #: cell) into each cell's starts
    start_bounds: Any = None


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
    # The marking decision at one cell, or at a range of cells
    # ------------------------------------------------------------------
    def select_marked(
        self,
        cell: Cell | Sequence[Cell],
        received: dict[str, list[tuple[int, Rect]] | RectBatch],
        bounds: dict[str, Any] | None = None,
        firsts: dict[str, Any] | None = None,
    ) -> MarkingDecision | None:
        """Which rectangles starting in ``cell`` must be replicated.

        Parameters
        ----------
        cell:
            The reducer's partition-cell — or, with ``bounds``, the
            cells of a physical reduce range, in task order.
        received:
            Rectangles split onto this cell, grouped by dataset: lists
            of ``(rid, rect)`` pairs or, on the numpy kernel, ready
            :class:`RectBatch` columns (indexed as is; rows are built
            only for the rectangles starting in the cell).
        bounds, firsts:
            A *segmented* call (numpy kernel, :class:`RectBatch` bags):
            per dataset, the int64 row bounds cutting its bag into the
            cells' rows, cell by cell, and per cell a key ordering the
            cell's datasets as its own values did (the position of the
            dataset's first row among the range's values; any number
            where the cell got none).  A cell counts as having received
            a dataset when it got rows of it.  The decision covers the
            whole range — ``ops`` per cell, ``starts_here`` cell by cell
            and cut by ``start_bounds``, ``marked`` left ``None`` — and
            each cell's part of it is exactly that cell's own decision.
            ``None`` comes back when the batched search cannot serve
            the range (non-integer rids under a self-join's
            distinctness filter): decide cell by cell instead.
        """
        if bounds is not None:
            if not self._batchable(received):
                return None
            return self._select_marked_batched(cell, received, bounds, firsts)
        if self._batched:
            bags = {
                dataset: bag if isinstance(bag, RectBatch) else RectBatch.from_records(np, bag)
                for dataset, bag in received.items()
            }
            if self._batchable(bags):
                if not any(len(bag) for bag in bags.values()):
                    return MarkingDecision(
                        marked=set(), ops=0, starts_here=[], marked_flags=[]
                    )
                # One cell is a range of one, where an empty bag still
                # counts as received.
                decision = self._select_marked_batched(
                    [cell],
                    bags,
                    {dataset: np.array([0, len(bag)]) for dataset, bag in bags.items()},
                    {dataset: np.array([k]) for k, dataset in enumerate(bags)},
                    whole=True,
                )
                flags = decision.marked_flags
                chosen = decision.starts_here.take(np.flatnonzero(flags))
                return MarkingDecision(
                    marked=set(zip(chosen.datasets(), chosen.batch.id_list())),
                    ops=int(decision.ops[0]),
                    starts_here=decision.starts_here,
                    marked_flags=flags,
                )
        received = {
            dataset: bag.pairs() if isinstance(bag, RectBatch) else bag
            for dataset, bag in received.items()
        }
        indexes = {
            dataset: make_index(self.index_kind, kernel=self.kernel, pairs=bag)
            for dataset, bag in received.items()
        }
        return self._select_marked_scalar(cell, received, indexes)

    def _batchable(self, bags: dict[str, RectBatch]) -> bool:
        """Whether the batched search serves these bags: it needs the
        grid index's columns, a mask for every predicate and, under a
        self-join's distinctness filter, integer rids."""
        return self._batched and not (
            self._self_join
            and any(len(bag) and bag.int_ids(np) is None for bag in bags.values())
        )

    def _usable(self, slot: str, present: dict) -> list[tuple[frozenset[str], dict, tuple, Any]]:
        """``(subset, requirements, plan, where)`` for the witness shapes
        ``slot`` can try.  ``present[dataset]`` says whether the dataset
        sent anything to the cell — one bool, or one per cell of a
        range — and ``where`` says, the same way, where every slot's
        dataset did: a shape is tried only there."""
        dataset_of = self.query.dataset_of
        usable = []
        for subset in self._subsets[slot]:
            where = True
            for s in subset:
                where = where & present.get(dataset_of(s), False)
            if np.any(where):
                usable.append(
                    (subset, self._requirements(subset), self._plan(subset, slot), where)
                )
        return usable

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
                    cands = usable[slot] = self._usable(
                        slot, dict.fromkeys(received, True)
                    )
                for subset, reqs, plan, __ in cands:
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
    def _select_marked_batched(
        self, cells, received, bounds, firsts, whole: bool = False
    ) -> MarkingDecision:
        """Columnar twin of :meth:`_select_marked_scalar`, over every cell
        of ``cells`` at once (a segmented call; see :meth:`select_marked`).

        What a start's lazy search finds and charges depends only on the
        start and its cell, never on what was marked before it; only
        *whether* the search runs does.  So every (dataset, slot, subset)
        is searched once for all its still-witnessless starts — one bulk
        probe per plan step, each start probing its own cell's segment
        of the indexes, and only in cells that received every dataset
        of the subset — and the order-dependent part (a start already
        marked by an earlier witness is skipped and charges nothing) is
        replayed afterwards in one in-order pass.  A witness never
        leaves its cell, so one pass in range order is every cell's own
        pass.  ``whole``: every dataset of ``received`` counts as sent
        to the (one) cell, even with an empty bag.
        """
        query = self.query
        grid = self.grid
        nseg = len(cells)
        cell_ids = np.array([cell.cell_id for cell in cells], dtype=np.int64)
        # Per dataset, over its bag in index row order: each row's cell
        # (segment), the C2 gap to the nearest foreign cell, the rows
        # starting in their cell, and every row's ``starts_here``
        # position (-1 for rectangles owned by another cell).
        row_seg: dict[str, Any] = {}
        present: dict[str, Any] = {}
        indexes: dict[str, GridIndex] = {}
        gaps: dict[str, Any] = {}
        start_rows: dict[str, Any] = {}
        for dataset, bag in received.items():
            counts = np.diff(bounds[dataset])
            row_seg[dataset] = seg = np.repeat(np.arange(nseg), counts)
            present[dataset] = True if whole else counts > 0
            indexes[dataset] = GridIndex(
                kernel="numpy", batch=bag, segments=bounds[dataset]
            )
            own = cell_ids[seg]
            gaps[dataset] = _kt.min_gaps_to_own_cells(np, grid, bag, own)
            if not len(bag):
                continue  # probed like any other bag, but starts nothing
            start_rows[dataset] = np.flatnonzero(
                _kt.cell_ids_of_starts(np, grid, bag) == own
            )
        if not start_rows:
            return MarkingDecision(
                marked=None,
                ops=np.zeros(nseg, dtype=np.int64),
                starts_here=[],
                marked_flags=[],
                start_bounds=np.zeros(nseg + 1, dtype=np.int64),
            )
        # ``starts_here``: cell by cell, each cell's datasets in the
        # order its values had them, bag order within a dataset — each
        # cell's own list, concatenated.
        sizes = [len(rows) for rows in start_rows.values()]
        codes = np.repeat(np.arange(len(start_rows)), sizes)
        cell_of = np.concatenate(
            [row_seg[dataset][rows] for dataset, rows in start_rows.items()]
        )
        rank = np.concatenate(
            [firsts[dataset][row_seg[dataset][rows]] for dataset, rows in start_rows.items()]
        )
        order = np.lexsort((rank, cell_of))
        n = len(order)
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        start_pos: dict[str, Any] = {}
        at = 0
        for (dataset, rows), size in zip(start_rows.items(), sizes):
            pos = start_pos[dataset] = np.full(received[dataset].n, -1, dtype=np.int64)
            pos[rows] = position[at : at + size]
            at += size
        starts_here = RectColumns(
            start_rows,
            codes[order],
            RectBatch.concat(
                np, [received[dataset].take(rows) for dataset, rows in start_rows.items()]
            ).take(order),
        )
        cell_of = cell_of[order]

        #: per start: what its lazy search charges (checks + probe slots),
        #: whether it found a witness, and the witness's other members
        #: its cell owns, as ``starts_here`` positions
        cost = np.zeros(n, dtype=np.int64)
        found = np.zeros(n, dtype=bool)
        partners = np.full((n, len(query.slots) - 2), -1, dtype=np.int64)
        for dataset, rows in start_rows.items():
            gap_d = gaps[dataset]
            seg_d = row_seg[dataset]
            where = start_pos[dataset][rows]
            for slot in query.slots_of_dataset(dataset):
                for __subset, reqs, plan, usable in self._usable(slot, present):
                    if not len(rows):
                        break
                    # the candidate itself must pass C2 here, in a cell
                    # that received every dataset of the subset
                    ok_here = gap_d[rows] <= reqs[slot]
                    if usable is not True:
                        ok_here &= usable[seg_d[rows]]
                    tried = np.flatnonzero(ok_here)
                    if not len(tried):
                        continue
                    if len(plan) == 1:
                        hit = tried  # a singleton is its own witness
                    else:
                        ok, charge, members = self._first_embeddings(
                            plan, reqs, rows[tried], indexes, gaps, row_seg
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
        charged = ~skipped
        ops = np.bincount(
            cell_of[charged], weights=cost[charged], minlength=nseg
        ).astype(np.int64)
        return MarkingDecision(
            marked=None,
            ops=ops,
            starts_here=starts_here,
            marked_flags=found | co_marked,
            start_bounds=np.searchsorted(cell_of, np.arange(nseg + 1)),
        )

    def _first_embeddings(self, plan, reqs, rows, indexes, gaps, row_seg):
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
        rows)`` of the first witness of each found row.  Every probe
        searches its anchor row's own cell (``row_seg``, per dataset the
        segment of each bag row).
        """
        dataset_of = self.query.dataset_of
        frontier = {plan[0].slot: rows}
        levels = []
        for step in plan[1:]:
            slot = step.slot
            idx = indexes[step.dataset]
            anchor = step.anchor
            anchor_dataset = dataset_of(step.anchor_slot)
            abatch = indexes[anchor_dataset].batch
            apos = frontier[step.anchor_slot]
            parent, entries, position, scanned = idx.probe_frontier(
                abatch,
                apos,
                anchor.predicate.distance,
                scan=True,
                seg=row_seg[anchor_dataset],
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

