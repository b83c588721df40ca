"""Tests of the benchmark suite itself.

    python -m pytest bench/tests -q

Not part of the tier-1 ``testpaths``: these check the measuring
instrument (determinism of generation, the declared metric names, span
arithmetic, failure accounting, the comparison tool), not the program.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro import make_algorithm  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
OVERLAP = workloads.by_name("chain3-overlap-10k")


def _run(spec=OVERLAP, **kwargs) -> dict:
    kwargs = {"seconds": 1.0, "trace": False, "quick": True, "log": lambda _: None} | kwargs
    return harness.run_workload(spec, 11, t0=time.time(), **kwargs)


@pytest.fixture(scope="module")
def traced() -> dict:
    """One quick traced run of the overlap shape (n = 1,000)."""
    return _run(trace=True)


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def test_generation_is_a_pure_function_of_the_seed():
    digest = workloads.dataset_digest(workloads.build(OVERLAP, 11).datasets)
    assert digest == "80a5bb9289bdefcf"
    assert workloads.dataset_digest(workloads.build(OVERLAP, 11).datasets) == digest
    assert workloads.dataset_digest(workloads.build(OVERLAP, 12).datasets) != digest


def test_small_twin_keeps_the_density():
    small = OVERLAP.small()
    assert small.n * workloads.SMALL_FACTOR == OVERLAP.n
    assert small.n / small.side**2 == pytest.approx(OVERLAP.n / OVERLAP.side**2)


# ----------------------------------------------------------------------
# Names: what is printed is what BENCHMARK.json declares
# ----------------------------------------------------------------------
def test_manifest_declares_exactly_the_suite():
    assert [w["name"] for w in MANIFEST["workloads"]] == [s.name for s in workloads.WORKLOADS]
    declared_e2e = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert declared_e2e == harness.E2E_UNITS
    assert declared_layer == harness.per_layer_units()
    names = [*declared_e2e, *declared_layer, *(w["name"] for w in MANIFEST["workloads"])]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert MANIFEST["paths"] == ["bench"]
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_a_run_emits_every_declared_name_with_a_value(traced):
    assert traced["failed"] == 0, traced["errors"]
    assert set(traced["e2e"]) == set(harness.E2E_UNITS)
    assert set(traced["per_layer"]) == set(harness.per_layer_units())
    missing = [k for k, v in (traced["e2e"] | traced["per_layer"]).items() if v is None]
    assert missing == []


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_times_fit_their_spans_and_cover_the_wall(traced):
    for algo, span_list in traced["spans"].items():
        by_id = {s[0]: s for s in span_list}
        child_time: dict[int, float] = {}
        for sid, parent, name, start, end in span_list:
            assert end >= start
            if parent:
                _, _, _, p_start, p_end = by_id[parent]
                assert p_start <= start and end <= p_end, name
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, _, name, start, end in span_list:
            assert child_time.get(sid, 0.0) <= (end - start) + 1e-9, name
        roots = [s for s in span_list if s[1] == 0]
        assert len(roots) == 1 and roots[0][2].startswith(spans.ROOT_LAYER)
        totals = spans.layer_totals(span_list)
        wall = roots[0][4] - roots[0][3]
        assert sum(t for t, _ in totals.values()) == pytest.approx(wall, rel=1e-6)
        assert traced["per_layer"][f"{algo}.span_coverage"] >= 0.95


def test_forked_task_spans_are_adopted_without_double_counting():
    tracer = spans.Tracer()
    frame = tracer.begin("mapreduce.executor:run_phase")
    phase_id = frame[0]
    # two workers, overlapping in time, both numbering from the same id
    tracer.adopt([(7, 6, "joins.mapper:m", 1.0, 2.0), (6, phase_id, "mapreduce.engine:task", 0.5, 2.5)])
    tracer.adopt([(6, phase_id, "mapreduce.engine:task", 1.0, 3.0)])
    tracer.spans.append((phase_id, 0, frame[2], 0.0, 4.0))
    assert len({s[0] for s in tracer.spans}) == len(tracer.spans) == 4
    totals = spans.layer_totals(tracer.spans)
    # the two tasks cover 0.5..3.0 of the phase once: 4.0 - 2.5, not 4.0 - 4.0
    assert totals["mapreduce.executor"] == (pytest.approx(1.5), 1)
    assert totals["joins.mapper"] == (pytest.approx(1.0), 1)
    assert totals["mapreduce.engine"] == (pytest.approx(1.0 + 2.0), 2)


# ----------------------------------------------------------------------
# Robust installation
# ----------------------------------------------------------------------
def test_wrappers_are_removed_even_when_the_traced_run_raises():
    from repro.index.grid_index import GridIndex
    from repro.joins.marking import MarkingEngine
    from repro.mapreduce.engine import Cluster

    pristine = spans.snapshot()
    originals = (MarkingEngine.select_marked, GridIndex.probe_batch, Cluster.run_job)
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(), warn=lambda _: None):
            assert spans.changed_since(pristine)
            assert MarkingEngine.select_marked is not originals[0]
            raise RuntimeError("traced run blew up")
    assert spans.changed_since(pristine) == []
    assert (MarkingEngine.select_marked, GridIndex.probe_batch, Cluster.run_job) == originals


def test_a_vanished_target_warns_once_and_reports_null():
    targets = (
        ("joins.marking", "repro.joins.marking:MarkingEngine", ("select_marked_v2",)),
        ("index.probe", "repro.index.grid_index:GridIndex", ("search", "gone")),
        ("kernels.route", "repro.kernels.no_such_module", ("f",)),
    )
    warnings: list[str] = []
    tracer = spans.Tracer()
    with spans.installed(tracer, targets=targets, warn=warnings.append):
        pass
    assert len(warnings) == 3
    assert tracer.layers == {"index.probe"}
    with tracer.span(f"{spans.ROOT_LAYER}:x"):
        pass
    sample = harness._traced_sample(tracer, wall=1.0, untraced=1.0)
    assert sample["joins.marking_s"] is None and sample["kernels.route_s"] is None
    assert sample["index.probe_s"] == 0.0


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class _Broken:
    def __init__(self, inner, mode: str) -> None:
        self.inner, self.mode = inner, mode

    def run(self, *args):
        if self.mode == "raise":
            raise RuntimeError("boom")
        result = self.inner.run(*args)
        if self.mode == "drop":
            result.tuples.pop()
            result.stats.output_tuples -= 1
        elif self.mode == "twice":
            result.stats.output_tuples += 1
        return result


def _broken_factory(mode: str):
    def factory(name, **kwargs):
        algorithm = make_algorithm(name, **kwargs)
        return _Broken(algorithm, mode) if name == "c-rep" else algorithm

    return factory


@pytest.mark.parametrize("mode", ["drop", "twice", "raise"])
def test_a_broken_algorithm_is_counted_and_flips_the_exit_code(mode, monkeypatch, capsys):
    record = _run(factory=_broken_factory(mode))
    # c-rep fails on the twin and in the one timed pass; nothing else does
    assert record["failed"] == 2, record["errors"]
    assert all("c-rep:" in line for line in record["errors"])
    assert record["e2e"]["wall_s.c-rep"] is None
    assert record["e2e"]["wall_s.cascade"] > 0

    def spawn(args, workload, *extra):
        return json.loads(json.dumps(record)) if not extra else {**record, "failed": 0, "errors": []}

    monkeypatch.setattr(run, "_spawn", spawn)
    code = run.main(["--workload", OVERLAP.name, "--quick", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] == 2


def test_a_clean_run_exits_zero(monkeypatch, capsys):
    record = _run()
    monkeypatch.setattr(run, "_spawn", lambda *a: json.loads(json.dumps(record)))
    assert run.main(["--workload", OVERLAP.name, "--quick", "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(harness.E2E_UNITS)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _recording(walls, seed=11, quick=False, failed_share=0.0) -> dict:
    e2e = {name: 1.0 for name in harness.E2E_UNITS} | {"wall_s.c-rep": min(walls)}
    return {
        "environment": {"seed": seed, "seconds": 20.0, "trace": 0, "quick": quick},
        "workloads": [
            {
                "workload": "w",
                "n": 10,
                "digest": "d",
                "passes": len(walls),
                "e2e": e2e,
                "samples": {"wall_s.c-rep": walls},
                "failed_share": failed_share,
            }
        ],
    }


def _compare(a, b) -> tuple[int, str]:
    lines: list[str] = []
    return compare.compare(a, b, MANIFEST, out=lines.append), "\n".join(lines)


def test_compare_verdicts():
    bound = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "wall_s.c-rep")
    steady = _recording([1.00, 1.01, 1.02])
    code, text = _compare(steady, _recording([1.01, 1.02, 1.03]))
    assert code == 0 and "unchanged" in text and "WORSE" not in text
    worse = 1.0 + 1.5 * bound
    code, text = _compare(steady, _recording([worse, worse + 0.01, worse + 0.02]))
    assert code == 1 and "WORSE" in text
    better = 1.0 - 1.5 * bound
    code, text = _compare(steady, _recording([better, better + 0.01, better + 0.02]))
    assert code == 0 and "better" in text
    # the fastest passes agree, but B's own samples spread wider than the bound
    code, text = _compare(steady, _recording([1.01, 1.01 + 2 * bound, 1.01 + 4 * bound]))
    assert code == 0 and "unresolved" in text
    code, text = _compare(steady, _recording([1.00, 1.01, 1.02], failed_share=0.1))
    assert code == 1 and "ROSE" in text


def test_compare_refuses_recordings_made_differently():
    base = _recording([1.0, 1.0, 1.0])
    assert _compare(base, _recording([1.0, 1.0, 1.0], seed=12))[0] == 2
    assert _compare(_recording([1.0], quick=True), _recording([1.0], quick=True))[0] == 2
    other_size = _recording([1.0, 1.0, 1.0])
    other_size["workloads"][0]["n"] = 20
    assert _compare(base, other_size)[0] == 2
