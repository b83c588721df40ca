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

from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins.local import LocalJoiner
from repro.joins.marking import MarkingEngine
from repro.joins.registry import make_algorithm
from repro.kernels import resolve_kernel
from repro.mapreduce import engine
from repro.mapreduce.engine import Cluster
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
}
ALGORITHMS = ("cascade", "all-rep", "c-rep", "c-rep-l")
EXECUTORS = [("serial", 1), ("thread", 2), ("process", 2)]


def _datasets(names) -> dict[str, list]:
    """Rectangles that leave the top-left cell empty (no start falls in
    it, so no transform sends anything there) and keep ``R3`` in the
    left half (the right half's round-1 cells miss a dataset)."""
    rng = random.Random(23)
    datasets = {}
    for k, name in enumerate(names):
        rects = []
        while len(rects) < 60:
            x, y = rng.uniform(0.0, 390.0), rng.uniform(10.0, 400.0)
            rect = Rect(x, y, rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0))
            if x < 100.0 and y > 300.0:
                continue
            if name == "R3" and x + rect.l >= 200.0:
                continue
            rects.append((100 * k + len(rects), rect))
        datasets[name] = rects
    return datasets


def _partition(n: int, mode: str, rng: random.Random) -> list[range]:
    if mode == "singletons":
        cuts = list(range(n + 1))
    elif mode == "whole":
        cuts = [0, n]
    else:
        inner = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 6))))
        cuts = [0, *inner, n]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _run(monkeypatch, algorithm, shape, executor="serial", workers=1, mode="singletons", seed=0):
    """One join under a forced cut; returns everything that must not
    change, the cuts used and the per-job task stamps."""
    query = QUERIES[shape]
    rng = random.Random(seed)
    cuts: list[list[range]] = []
    walls: list[tuple[float, float]] = []

    def forced(sizes, floor):
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
    cluster = Cluster(executor=executor, num_workers=workers, kernel="numpy")
    result = make_algorithm(algorithm, query=query, d_max=D_MAX).run(
        query, _datasets(query.dataset_keys), GRID, cluster
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


_REFERENCE: dict[tuple[str, str], dict] = {}


def _reference(algorithm: str, shape: str) -> dict:
    key = (algorithm, shape)
    if key not in _REFERENCE:
        with pytest.MonkeyPatch.context() as mp:
            _REFERENCE[key] = _run(mp, algorithm, shape)[0]
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
@given(mode=st.sampled_from(["whole", "random", "random"]), seed=st.integers(0, 2**16))
def test_any_cut_of_the_reduce_phases_is_invisible(monkeypatch, algorithm, shape, mode, seed):
    observed, cuts, jobs, walls = _run(monkeypatch, algorithm, shape, mode=mode, seed=seed)
    assert observed == _reference(algorithm, shape)
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


def test_segmented_reducers_run_once_per_range(monkeypatch):
    """A whole-phase range is one marking call and one local join — the
    range body does not fall back to per-cell calls."""
    calls = {"select_marked": 0, "enumerate_columnar": 0}
    for owner, name in ((MarkingEngine, "select_marked"), (LocalJoiner, "enumerate_columnar")):
        real = getattr(owner, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(owner, name, counting)
    _run(monkeypatch, "c-rep", "chain-overlap", mode="whole")
    assert calls == {"select_marked": 1, "enumerate_columnar": 1}
