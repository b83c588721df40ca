"""Logical tasks, physical ranges: how a reduce phase is cut changes nothing.

The engine runs a reduce phase as contiguous ranges of logical tasks,
and the join jobs' numpy reducers run once per range.  Whatever the
cut — every task alone, the whole phase as one range, or any random
partition, with ranges holding empty cells and cells that received no
rectangles of some dataset — part files, canonical counters, per-task
compute charges and simulated seconds must be byte-identical to
all-singleton ranges, on every executor.  Inside a range, the tasks'
time stamps are its wall shared out in task order.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import JobError
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.index.grid_index import GridIndex
from repro.joins.local import LocalJoiner
from repro.joins.marking import MarkingEngine
from repro.joins.registry import make_algorithm
from repro.kernels import resolve_kernel
from repro.kernels import transforms as _kt
from repro.mapreduce import engine
from repro.mapreduce.counters import C
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import RetryPolicy
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

pytestmark = pytest.mark.skipif(
    resolve_kernel("numpy") != "numpy",
    reason="REPRO_KERNEL forces the scalar kernel, whose reducers are per cell",
)

SPACE = Rect.from_corners(0.0, 0.0, 400.0, 400.0)
GRID = GridPartitioning.square(SPACE, 16)
D_MAX = 60.0

QUERIES = {
    "chain-overlap": Query.chain(["R1", "R2", "R3"], Overlap()),
    "chain-hybrid": Query.chain(["R1", "R2", "R3"], [Overlap(), Range(25.0)]),
    "star-range": Query.star("R2", ["R1", "R3", "R4"], [Range(15.0), Overlap(), Overlap()]),
    "cycle": Query(
        [
            *Query.chain(["R1", "R2", "R3"], Overlap()).triples,
            *Query.chain(["R3", "R1"], Range(20.0)).triples,
        ]
    ),
    "self-join": Query.self_chain("R1", 3, [Overlap(), Range(10.0)]),
    # Cascade's self-first step reads plain value lists; with string
    # rids its same-dataset step joins cell by cell on the scalar reducer.
    "self-join-str-rids": Query.self_chain("R1", 3, [Overlap(), Range(10.0)]),
}
STRING_RIDS = {"self-join-str-rids"}
ALGORITHMS = ("cascade", "all-rep", "c-rep", "c-rep-l")
EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]


def _allowed(name: str, rect: Rect) -> bool:
    """Leave the top-left cell empty (no start falls in it, so no
    transform sends anything there) and keep ``R3`` in the bottom-left
    quarter: the right half's round-1 cells miss a dataset, and so do
    All-Replicate's top-half cells, which dominate the starts of pairs
    their range still searches for the cells below."""
    if rect.x < 100.0 and rect.y > 300.0:
        return False
    return name != "R3" or (rect.x + rect.l < 200.0 and rect.y <= 200.0)


def _datasets(names, string_rids: bool = False, extra=()) -> dict[str, list]:
    """Random rectangles that keep :func:`_allowed`, plus the ``extra``
    ``(dataset index, rect)`` rows that do; with ``string_rids`` the
    record ids are decimal strings (the result records read back as
    integers)."""
    rng = random.Random(23)
    datasets = {}
    for k, name in enumerate(names):
        rects = []
        while len(rects) < 60:
            x, y = rng.uniform(0.0, 390.0), rng.uniform(10.0, 400.0)
            rect = Rect(x, y, rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0))
            if _allowed(name, rect):
                rects.append(rect)
        rects += [r for j, r in extra if j % len(names) == k and _allowed(name, r)]
        datasets[name] = [
            (str(100 * k + i) if string_rids else 100 * k + i, rect)
            for i, rect in enumerate(rects)
        ]
    return datasets


#: the grid lines of :data:`GRID` (4 x 4 cells, 100 units wide)
LINES = (0.0, 100.0, 200.0, 300.0, 400.0)


@st.composite
def edge_rects(draw):
    """``(dataset index, rect)`` rows starting exactly on grid lines —
    where a start cell, and so every cell's bag, changes — some wide
    or tall enough to cross many index buckets (and some exactly a
    cell wide, ending on the next line)."""
    rows = []
    for __ in range(draw(st.integers(0, 10))):
        x = draw(st.sampled_from(LINES[:-1]) | st.floats(0.0, 390.0))
        y = draw(st.sampled_from(LINES[1:]) | st.floats(10.0, 400.0))
        length = draw(st.sampled_from((0.0, 100.0)) | st.floats(0.0, 160.0))
        breadth = draw(st.sampled_from((0.0, 100.0)) | st.floats(0.0, 160.0))
        rows.append((draw(st.integers(0, 3)), Rect(x, y, min(length, 400.0 - x), min(breadth, y))))
    return tuple(rows)


def _partition(n: int, mode: str, rng: random.Random) -> list[range]:
    if mode == "singletons":
        cuts = list(range(n + 1))
    elif mode == "whole":
        cuts = [0, n]
    else:
        inner = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 6))))
        cuts = [0, *inner, n]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _run(
    monkeypatch,
    algorithm,
    shape,
    executor="serial",
    workers=1,
    mode="singletons",
    seed=0,
    extra=(),
    **cluster_kwargs,
):
    """One join under a forced cut; returns everything that must not
    change, the cuts used and the per-job task stamps."""
    query = QUERIES[shape]
    rng = random.Random(seed)
    cuts: list[list[range]] = []
    walls: list[tuple[float, float]] = []

    def forced(sizes, floor, budget):
        cut = _partition(len(sizes), mode, rng)
        cuts.append(cut)
        return cut

    real_body = engine._reduce_range_body

    def timed_body(phase, tasks):
        before = time.perf_counter()
        results = real_body(phase, tasks)
        walls.append((before, time.perf_counter()))
        return results

    monkeypatch.setattr(engine, "_task_ranges", forced)
    monkeypatch.setattr(engine, "_reduce_range_body", timed_body)
    cluster = Cluster(executor=executor, num_workers=workers, kernel="numpy", **cluster_kwargs)
    datasets = _datasets(query.dataset_keys, string_rids=shape in STRING_RIDS, extra=extra)
    result = make_algorithm(algorithm, query=query, d_max=D_MAX).run(
        query, datasets, GRID, cluster
    )
    jobs = result.workflow.job_results
    observed = {
        "tuples": sorted(result.tuples),
        "parts": {
            path: cluster.dfs.read_side_file(path)
            for job in jobs
            for path in cluster.dfs.list_dir(job.output_path)
        },
        "counters": [job.counters.as_dict() for job in jobs],
        "compute_ops": [
            ([t.compute_ops for t in job.map_tasks], [t.compute_ops for t in job.reduce_tasks])
            for job in jobs
        ],
        "simulated_s": [job.simulated_seconds for job in jobs],
    }
    monkeypatch.undo()
    return observed, cuts, jobs, walls


_REFERENCE: dict[tuple, dict] = {}


def _reference(algorithm: str, shape: str, extra=()) -> dict:
    key = (algorithm, shape, extra)
    if key not in _REFERENCE:
        with pytest.MonkeyPatch.context() as mp:
            _REFERENCE[key] = _run(mp, algorithm, shape, extra=extra)[0]
    return _REFERENCE[key]


def _assert_stamps_share_each_range(cuts, jobs, walls, executor):
    """Per-task stamps inside a range are consecutive, in task order,
    and add up to the range's wall — on the serial executor, where the
    range body ran in this process, within the wall measured around it."""
    reduce_jobs = [job for job in jobs if job.reduce_task_wall]
    assert len(reduce_jobs) == len(cuts)
    ranges = [(job, rng) for job, cut in zip(reduce_jobs, cuts) for rng in cut]
    for job, rng in ranges:
        spans = [job.reduce_task_wall[t] for t in rng]
        for (start, end), (next_start, __) in zip(spans, spans[1:]):
            assert start <= end == next_start
        total = sum(end - start for start, end in spans)
        assert total == pytest.approx(spans[-1][1] - spans[0][0], abs=1e-9)
    if executor == "serial":
        assert len(walls) == len(ranges)
        for (job, rng), (before, after) in zip(ranges, walls):
            stamps = job.reduce_task_wall
            assert 0 <= stamps[rng[-1]][1] - stamps[rng[0]][0] <= after - before


@pytest.mark.parametrize("shape", sorted(QUERIES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    mode=st.sampled_from(["whole", "random", "random"]),
    seed=st.integers(0, 2**16),
    extra=edge_rects(),
)
def test_any_cut_of_the_reduce_phases_is_invisible(
    monkeypatch, algorithm, shape, mode, seed, extra
):
    observed, cuts, jobs, walls = _run(
        monkeypatch, algorithm, shape, mode=mode, seed=seed, extra=extra
    )
    assert observed == _reference(algorithm, shape, extra)
    _assert_stamps_share_each_range(cuts, jobs, walls, "serial")


@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("mode", ["whole", "random"])
def test_every_executor_runs_the_ranges_alike(monkeypatch, algorithm, executor, workers, mode):
    observed, cuts, jobs, walls = _run(
        monkeypatch, algorithm, "chain-hybrid", executor, workers, mode, seed=5
    )
    assert observed == _reference(algorithm, "chain-hybrid")
    _assert_stamps_share_each_range(cuts, jobs, walls, executor)


def test_the_phase_cut_has_the_workers_floor_and_no_empty_range():
    sizes = [0, 5, 0, 0, 400, 3, 0, 7]
    for floor in range(1, 10):
        cut = engine._task_ranges(sizes, floor)
        assert [t for r in cut for t in r] == list(range(len(sizes)))
        assert all(len(r) for r in cut)
        assert len(cut) == min(len(sizes), floor)
    assert engine._task_ranges([], 2) == []
    big = [engine._RANGE_BYTES // 2] * 9
    assert len(engine._task_ranges(big, 1)) == 5


def _count_calls(monkeypatch, methods) -> dict[str, int]:
    """Count the calls of each ``(owner, name)`` method."""
    calls = dict.fromkeys((name for __, name in methods), 0)
    for owner, name in methods:
        real = getattr(owner, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_segmented_reducers_run_once_per_range(monkeypatch):
    """A whole-phase range is one marking call and one local join — for
    the Cascade one index build and one bulk probe per step, and for
    All-Replicate one index build and one bulk probe per probed dataset
    (the per-cell reducer made one of each per cell and dataset) — the
    range body does not fall back to per-cell calls."""
    calls = _count_calls(
        monkeypatch, ((MarkingEngine, "select_marked"), (LocalJoiner, "enumerate_columnar"))
    )
    _run(monkeypatch, "c-rep", "chain-overlap", mode="whole")
    assert calls == {"select_marked": 1, "enumerate_columnar": 1}
    calls = _count_calls(monkeypatch, ((GridIndex, "__init__"), (GridIndex, "probe_frontier")))
    observed, cuts, __, __ = _run(monkeypatch, "cascade", "chain-hybrid", mode="whole")
    assert len(cuts) == 2  # one reduce phase per step
    assert calls == {"__init__": 2, "probe_frontier": 2}
    assert all(C.RANGE_RERUNS not in c[C.GROUP_ENGINE] for c in observed["counters"])
    for shape, probed in (("chain-hybrid", 2), ("self-join", 1), ("star-range", 3)):
        calls = _count_calls(
            monkeypatch,
            ((LocalJoiner, "enumerate_nested"), (GridIndex, "__init__"), (GridIndex, "probe_frontier")),
        )
        observed, cuts, __, __ = _run(monkeypatch, "all-rep", shape, mode="whole")
        assert [len(cut) for cut in cuts] == [1]
        assert calls == {
            "enumerate_nested": 1,
            "__init__": probed,
            "probe_frontier": len(QUERIES[shape].slots) - 1,
        }
        assert all(C.RANGE_RERUNS not in c[C.GROUP_ENGINE] for c in observed["counters"])


def test_a_range_received_off_the_quadrant_rule_is_a_named_error(monkeypatch):
    """All-Replicate's reducer derives each cell's bag from the
    fourth-quadrant rule and checks it against what the range received:
    a mapper that sends every rectangle to every cell fails the job —
    on a range of one cell too — it does not join the wrong bags."""

    def every_cell(np_, grid, batch, d=None, metric="euclidean"):
        cells = np_.tile(np_.arange(grid.num_cells), batch.n)
        return cells, np_.full(batch.n, grid.num_cells, dtype=np_.int64)

    monkeypatch.setattr(_kt, "quadrant_cell_lists", every_cell)
    with pytest.raises(JobError, match="fourth quadrants"):
        _run(monkeypatch, "all-rep", "chain-overlap", mode="whole")


@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_clean_run_counts_no_range_reruns(monkeypatch, algorithm, executor, workers):
    observed, *__ = _run(monkeypatch, algorithm, "chain-hybrid", executor, workers, "whole")
    assert all(C.RANGE_RERUNS not in c[C.GROUP_ENGINE] for c in observed["counters"])


@pytest.mark.parametrize("recovery", [False, True], ids=["fast-path", "recovery"])
@pytest.mark.parametrize(("executor", "workers"), EXECUTORS)
def test_a_kernel_failing_on_fused_ranges_is_counted(monkeypatch, executor, workers, recovery):
    """A segmented local join that raises on ranges of several cells
    still gives the right answer — the range's tasks re-run one at a
    time — but every re-run task counts ``C.RANGE_RERUNS``, on the fast
    path and under recovery dispatch alike."""
    real = LocalJoiner.enumerate_columnar

    def broken(self, bags, bounds):
        if any(len(b) > 2 for b in bounds.values()):
            raise RuntimeError("segmented kernel bug")
        return real(self, bags, bounds)

    monkeypatch.setattr(LocalJoiner, "enumerate_columnar", broken)
    kwargs = {"retry": RetryPolicy(max_attempts=2)} if recovery else {}
    observed, __, jobs, __ = _run(
        monkeypatch, "c-rep", "chain-hybrid", executor, workers, "whole", **kwargs
    )
    reference = _reference("c-rep", "chain-hybrid")
    assert observed["parts"] == reference["parts"]
    assert observed["tuples"] == reference["tuples"]
    mark, join = (c[C.GROUP_ENGINE] for c in observed["counters"])
    assert C.RANGE_RERUNS not in mark
    assert join[C.RANGE_RERUNS] == len(jobs[1].reduce_tasks) == GRID.num_cells
