"""Unit tests for the 2-way Cascade plan and execution details."""

import pytest

from repro.data.synthetic import SyntheticSpec, generate_relations
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins.cascade import CascadeJoin
from repro.joins.local import slot_plans
from repro.joins.reference import brute_force_join
from repro.query.predicates import Overlap, Range
from repro.query.query import Query, Triple

GRID = GridPartitioning(Rect.from_corners(0, 0, 400, 400), 4, 4)


def _build_plan(query, order=None):
    """(first slot, one plan per 2-way step) — the plan the Cascade
    shares with the local join."""
    plans = slot_plans(query, order)
    return plans[0].slot, plans[1:]


class TestPlan:
    def test_chain_plan(self):
        q = Query.chain(["R1", "R2", "R3"], Overlap())
        first, steps = _build_plan(q)
        assert len(steps) == q.num_slots - 1
        # every step joins through an edge to an already-bound slot
        bound = [first]
        for step in steps:
            assert step.anchor_slot in bound
            bound.append(step.slot)

    def test_each_step_introduces_new_slot(self):
        q = Query.chain(["R1", "R2", "R3", "R4"], Overlap())
        first, steps = _build_plan(q)
        introduced = [first] + [s.slot for s in steps]
        assert sorted(introduced) == sorted(q.slots)

    def test_cycle_edge_becomes_check(self):
        q = Query([
            Triple(Overlap(), "A", "B"),
            Triple(Overlap(), "B", "C"),
            Triple(Overlap(), "A", "C"),
        ])
        __, steps = _build_plan(q)
        assert len(steps) == 2
        # the closing edge of the triangle is checked, not a new job
        assert sum(len(s.checks) for s in steps) == 1

    def test_self_join_distinctness_recorded(self):
        q = Query.self_chain("R", 3, Overlap())
        __, steps = _build_plan(q)
        assert len(steps[0].same_dataset) == 1
        assert len(steps[1].same_dataset) == 2


class TestExecution:
    @pytest.fixture(scope="class")
    def datasets(self):
        spec = SyntheticSpec(
            n=150, x_range=(0, 400), y_range=(0, 400),
            l_range=(0, 60), b_range=(0, 60), seed=31,
        )
        return generate_relations(spec, ["R1", "R2", "R3", "R4"])

    def test_four_way_chain(self, datasets):
        q = Query.chain(["R1", "R2", "R3", "R4"], Overlap())
        result = CascadeJoin().run(q, datasets, GRID)
        assert result.tuples == brute_force_join(q, datasets)
        assert len(result.workflow.job_results) == 3

    def test_four_way_hybrid(self, datasets):
        q = Query.chain(
            ["R1", "R2", "R3", "R4"], [Overlap(), Range(30.0), Range(50.0)]
        )
        result = CascadeJoin().run(q, datasets, GRID)
        assert result.tuples == brute_force_join(q, datasets)

    def test_star_query(self, datasets):
        q = Query.star("R1", ["R2", "R3", "R4"], Overlap())
        result = CascadeJoin().run(q, datasets, GRID)
        assert result.tuples == brute_force_join(q, datasets)

    def test_intermediate_results_on_dfs(self, datasets):
        q = Query.chain(["R1", "R2", "R3"], Overlap())
        from repro.mapreduce.engine import Cluster

        cluster = Cluster()
        CascadeJoin().run(q, datasets, GRID, cluster)
        # step 0 output persisted, final output separate
        assert cluster.dfs.exists("two-way-cascade/step-0")
        assert cluster.dfs.exists("two-way-cascade/output")

    def test_empty_intermediate_result(self):
        # Nothing overlaps: the cascade must terminate with empty output
        # without blowing up on empty intermediate files.
        datasets = {
            "R1": [(0, Rect(0, 400, 5, 5))],
            "R2": [(0, Rect(200, 200, 5, 5))],
            "R3": [(0, Rect(390, 10, 5, 5))],
        }
        q = Query.chain(["R1", "R2", "R3"], Overlap())
        result = CascadeJoin().run(q, datasets, GRID)
        assert result.tuples == set()


class TestSweepKernel:
    """CascadeJoin(index_kind="sweep") swaps the reducer kernel."""

    @pytest.fixture(scope="class")
    def datasets(self):
        spec = SyntheticSpec(
            n=160, x_range=(0, 400), y_range=(0, 400),
            l_range=(0, 60), b_range=(0, 60), seed=71,
        )
        return generate_relations(spec, ["R1", "R2", "R3"])

    @pytest.mark.parametrize(
        "query",
        [
            Query.chain(["R1", "R2", "R3"], Overlap()),
            Query.chain(["R1", "R2", "R3"], Range(30.0)),
            Query.chain(["R1", "R2", "R3"], [Overlap(), Range(45.0)]),
        ],
        ids=["overlap", "range", "hybrid"],
    )
    def test_matches_index_kernel(self, datasets, query):
        expected = brute_force_join(query, datasets)
        indexed = CascadeJoin(index_kind="grid").run(query, datasets, GRID)
        swept = CascadeJoin(index_kind="sweep").run(query, datasets, GRID)
        assert indexed.tuples == expected
        assert swept.tuples == expected

    def test_self_join_with_sweep(self):
        q = Query.self_chain("R", 3, Overlap())
        rects = [
            (0, Rect(10, 390, 30, 30)),
            (1, Rect(25, 380, 30, 30)),
            (2, Rect(40, 370, 30, 30)),
        ]
        result = CascadeJoin(index_kind="sweep").run(q, {"R": rects}, GRID)
        assert result.tuples == brute_force_join(q, {"R": rects})
