"""Exporters: Chrome trace-event JSON and plain-JSON metrics snapshots.

The trace exporter emits the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
(the ``traceEvents`` array of ``"X"`` complete events), which loads
directly in `Perfetto <https://ui.perfetto.dev>`_ and
``chrome://tracing``.  Layout:

* one process (``pid`` 1) named for the run;
* one *thread* per track — plus extra lanes for tracks whose spans
  genuinely overlap in time (parallel tasks), since complete events on
  one ``tid`` must nest.  Lanes are assigned greedily in start-time
  order, so the layout is deterministic;
* span ``args`` pass through verbatim and show in the viewer's detail
  panel;
* one ``"C"`` counter track per recorder counter timeline (in-flight
  tasks, worker occupancy, cumulative byte totals).  Counter ``tid``\\s
  are allocated strictly *after* every span track's lane block, so a
  counter track can never collide with a greedy span lane — an
  invariant ``validate_chrome_trace`` checks.

``validate_chrome_trace`` is the schema check the test-suite (and any
consumer) can run against an emitted trace: required keys, monotonic
timestamps per thread, and proper nesting (spans on one thread either
contain each other or are disjoint).

The metrics exporter is independent of tracing: it snapshots
:class:`~repro.mapreduce.engine.JobResult` chains — counters, per-phase
wall clock, simulated cost breakdown, per-task volumes and the skew
report — into one JSON-serialisable dict.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.obs.skew import analyze_job
from repro.obs.trace import Span, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.experiments.common import ExperimentResult
    from repro.mapreduce.engine import JobResult

__all__ = [
    "to_chrome_trace",
    "write_trace",
    "validate_chrome_trace",
    "metrics_snapshot",
    "experiment_metrics",
    "write_metrics",
]

_PID = 1


def _assign_lanes(spans: Sequence[Span]) -> list[int]:
    """Greedy interval partitioning: lane index per span.

    A span may share a lane with spans it *nests inside* (job contains
    phase — complete events on one Chrome-trace thread render as a
    flame stack when properly contained) or that have already ended;
    only *partial* overlap — genuinely concurrent tasks — forces a new
    lane.  Hierarchical serial workloads therefore stay in lane 0 while
    parallel task spans fan out deterministically: spans are processed
    in (start, longest-first, insertion) order and take the
    lowest-numbered lane that fits.
    """
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i].start_s, -spans[i].end_s, i),
    )
    lane_stacks: list[list[float]] = []  # per lane: end times of open spans
    lanes = [0] * len(spans)
    for i in order:
        span = spans[i]
        for lane, stack in enumerate(lane_stacks):
            while stack and stack[-1] <= span.start_s:
                stack.pop()
            if not stack or span.end_s <= stack[-1]:
                lanes[i] = lane
                stack.append(span.end_s)
                break
        else:
            lanes[i] = len(lane_stacks)
            lane_stacks.append([span.end_s])
    return lanes


def _us(seconds: float) -> float:
    """Trace timestamps are microseconds; keep sub-µs precision."""
    return round(seconds * 1e6, 3)


def _dur_us(ts: float, end_s: float) -> float:
    """Duration of a span starting at ``ts`` µs and ending at ``end_s``:
    ``ts + dur`` never passes the rounded end, so spans that meet end
    to end (the tasks of one physical range) stay adjacent, not
    overlapping by a rounding error."""
    end = _us(end_s)
    dur = end - ts
    while dur > 0 and ts + dur > end:
        dur = math.nextafter(dur, 0.0)
    return dur


def to_chrome_trace(recorder: TraceRecorder, process_name: str = "repro cluster") -> dict:
    """Render a recorder into a Chrome trace-event JSON object."""
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    # Tracks in first-appearance order; "engine" spans nest by
    # containment, task tracks fan out into lanes when parallel.
    next_tid = 1
    for track in recorder.tracks():
        track_spans = [s for s in recorder.spans if s.track == track]
        track_instants = [s for s in recorder.instants if s.track == track]
        lanes = _assign_lanes(track_spans)
        num_lanes = max(lanes, default=0) + 1
        base_tid = next_tid
        next_tid += max(num_lanes, 1)
        for lane in range(max(num_lanes, 1)):
            label = track if num_lanes == 1 else f"{track} [{lane}]"
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": base_tid + lane,
                    "args": {"name": label},
                }
            )
        # Recorder order is exit order (a parent span is appended after
        # its children); viewers want per-tid monotonic starts, so emit
        # in (start, longest-first) order — parents before children.
        emit_order = sorted(
            range(len(track_spans)),
            key=lambda i: (track_spans[i].start_s, -track_spans[i].end_s, i),
        )
        for i in emit_order:
            span, lane = track_spans[i], lanes[i]
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": _us(span.start_s),
                    "dur": _dur_us(_us(span.start_s), span.end_s),
                    "pid": _PID,
                    "tid": base_tid + lane,
                    "args": span.args,
                }
            )
        for inst in track_instants:
            events.append(
                {
                    "name": inst.name,
                    "cat": inst.cat,
                    "ph": "i",
                    "ts": _us(inst.start_s),
                    "pid": _PID,
                    "tid": base_tid,
                    "s": "t",
                    "args": inst.args,
                }
            )
    # Counter tracks last: their tids start where the span lanes ended,
    # so the two tid ranges are disjoint by construction.
    for name, samples in getattr(recorder, "counters", {}).items():
        tid = next_tid
        next_tid += 1
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": f"counter: {name}"},
            }
        )
        for t, value in sorted(samples):
            events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "ts": _us(t),
                    "pid": _PID,
                    "tid": tid,
                    "args": {"value": value},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(
    path: str, recorder: TraceRecorder, process_name: str = "repro cluster"
) -> None:
    """Write the recorder as a Perfetto-loadable trace file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(recorder, process_name), fh, indent=1)


def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema-check an exported trace; returns a list of problems.

    An empty list means the trace is well-formed: every event carries
    the required keys, durations are non-negative, per-thread start
    timestamps are monotonic, and complete events on one thread nest
    properly (contain each other or are disjoint — the invariant the
    viewers' flame layout depends on).  Counter (``"C"``) events must
    carry a numeric ``args`` mapping, keep monotonic timestamps per
    track, and live on ``tid``\\s no span event uses (the exporter's
    no-collision layout guarantee).
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    by_tid: dict[Any, list[tuple[float, float, str]]] = {}
    counter_ts: dict[Any, list[float]] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in {"X", "M", "i", "C"}:
            problems.append(f"event {i}: unsupported ph {ph!r}")
            continue
        for key in ("name", "pid", "tid") + (("ts",) if ph != "M" else ()):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"event {i}: counter event missing 'args' values")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"event {i}: counter values must be numeric")
            if "ts" in ev:
                counter_ts.setdefault(ev["tid"], []).append(ev["ts"])
            continue
        if ph != "X":
            continue
        if "dur" not in ev:
            problems.append(f"event {i}: complete event missing 'dur'")
            continue
        if ev["dur"] < 0:
            problems.append(f"event {i}: negative duration {ev['dur']}")
        by_tid.setdefault(ev["tid"], []).append(
            (ev["ts"], ev["ts"] + ev["dur"], ev.get("name", "?"))
        )
    collisions = sorted(set(counter_ts) & set(by_tid))
    for tid in collisions:
        problems.append(
            f"tid {tid}: counter track collides with a span lane"
        )
    for tid, stamps in counter_ts.items():
        if stamps != sorted(stamps):
            problems.append(f"tid {tid}: counter timestamps not monotonic")
    for tid, spans in by_tid.items():
        starts = [s[0] for s in spans]
        if starts != sorted(starts):
            problems.append(f"tid {tid}: start timestamps not monotonic")
        stack: list[tuple[float, float, str]] = []
        for start, end, name in sorted(spans):
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1]:
                problems.append(
                    f"tid {tid}: span {name!r} [{start}, {end}] partially "
                    f"overlaps {stack[-1][2]!r} [{stack[-1][0]}, {stack[-1][1]}]"
                )
            stack.append((start, end, name))
    return problems


# ----------------------------------------------------------------------
# Metrics snapshot
# ----------------------------------------------------------------------
def _job_metrics(result: "JobResult") -> dict[str, Any]:
    report = analyze_job(result)
    return {
        "job": result.job_name,
        "output_path": result.output_path,
        "wall_clock_seconds": result.wall_clock_seconds,
        "phase_wall_seconds": result.phases.as_dict(),
        "simulated_seconds": result.simulated_seconds,
        "cost_breakdown_seconds": result.cost.as_dict(),
        "counters": result.counters.as_dict(),
        "output_records": result.output_records,
        "map_tasks": {
            "count": len(result.map_tasks),
            "durations": report.map_durations.as_dict(),
        },
        "reduce_tasks": {
            "count": len(result.reduce_tasks),
            "durations": report.reduce_durations.as_dict(),
            "input_records": report.reducer_records,
            "hottest_reducer": report.hottest_reducer,
            "skew": report.skew,
        },
    }


def metrics_snapshot(
    named_runs: Mapping[str, Sequence["JobResult"]],
) -> dict[str, Any]:
    """Snapshot job chains (``label -> [JobResult, ...]``) as plain JSON."""
    runs: dict[str, Any] = {}
    for label, job_results in named_runs.items():
        jobs = [_job_metrics(r) for r in job_results]
        runs[label] = {
            "jobs": jobs,
            "wall_clock_seconds": sum(r.wall_clock_seconds for r in job_results),
            "simulated_seconds": sum(r.simulated_seconds for r in job_results),
        }
    return {"version": 1, "runs": runs}


def experiment_metrics(
    results: Mapping[str, "ExperimentResult"],
) -> dict[str, Any]:
    """Snapshot experiment tables (``name -> ExperimentResult``) as JSON.

    Rows carry each algorithm's :class:`~repro.experiments.common.AlgoMetrics`
    including the observability fields (``reduce_skew``,
    ``phase_wall_seconds``), so a recorded sweep can be diffed across
    commits without re-running it.
    """
    tables: dict[str, Any] = {}
    for name, result in results.items():
        tables[name] = {
            "table": result.table,
            "title": result.title,
            "query": result.query,
            "parameters": result.parameters,
            "rows": [
                {
                    "label": row.label,
                    "consistent": row.consistent,
                    "output_tuples": row.output_tuples,
                    "algorithms": {
                        algo: dataclasses.asdict(m)
                        for algo, m in row.metrics.items()
                    },
                }
                for row in result.rows
            ],
        }
    return {"version": 1, "tables": tables}


def write_metrics(path: str, snapshot: dict[str, Any]) -> None:
    """Write a metrics snapshot (from :func:`metrics_snapshot`) to disk."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
