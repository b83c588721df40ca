"""The plain-text job dashboard: where a run's time actually went.

Rendered after ``python -m repro join --verbose`` (and each table row
with ``--verbose``), one block per job:

* wall-clock phase breakdown — split / map / shuffle / reduce / write —
  decomposed from the job's measured duration;
* the simulated cost breakdown next to it (startup / map / shuffle /
  reduce), so the modelled and measured shapes can be eyeballed;
* task-duration percentiles (p50 / p95 / max) for map and reduce tasks,
  from the stamps measured inside the workers;
* the per-reducer input-record histogram with the hottest cell called
  out, and the skew factor (max / mean) the makespan approximation
  turns into straggler time;
* a ``workers:`` line when the worker pool engaged — lost/blacklisted/
  joined workers, invalidated map outputs and re-executed tasks, and
  the simulated recovery overhead;
* a ``storage:`` line when the block plane engaged — map-task data
  locality, corrupt replicas failed over, replicas lost, healing
  copies, the simulated network overhead, and a loud
  ``UNDER-REPLICATED`` notice when the pool was too small to heal.

Everything is deterministic given the same run (record counts and
simulated seconds are; wall-clock numbers naturally vary).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.mapreduce.counters import C
from repro.obs.critical_path import analyze_critical_path, job_critical_path
from repro.obs.skew import JobSkewReport, analyze_job

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.mapreduce.engine import JobResult

__all__ = ["render_job_dashboard", "render_workflow_dashboard"]

#: histogram geometry: bars this wide, collapse reducers into this many
#: bins when there are more of them than lines we want to print
_BAR_WIDTH = 40
_MAX_BINS = 16


def _fmt_s(seconds: float) -> str:
    """Human duration: µs/ms/s picked by magnitude."""
    if seconds <= 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _phase_line(label: str, parts: Sequence[tuple[str, float]]) -> str:
    total = sum(v for __, v in parts)
    if total <= 0:
        return f"{label}: (none)"
    cells = [
        f"{name} {_fmt_s(v)} ({100.0 * v / total:.0f}%)" for name, v in parts
    ]
    return f"{label}: {_fmt_s(total)} = " + " | ".join(cells)


def _duration_line(label: str, stats) -> str:
    if stats.count == 0:
        return f"  {label}: none"
    return (
        f"  {label}: {stats.count}  "
        f"p50 {_fmt_s(stats.p50_s)}  p95 {_fmt_s(stats.p95_s)}  "
        f"max {_fmt_s(stats.max_s)}"
    )


def _histogram(report: JobSkewReport) -> list[str]:
    records = report.reducer_records
    if not records:
        return ["  (map-only job: no reduce phase)"]
    peak = max(records)
    total = sum(records)
    mean = total / len(records)
    lines = [
        f"  reduce input: {total} records over {len(records)} reducers  "
        f"(mean {mean:.0f}, skew max/mean {report.skew:.2f}x)"
    ]
    if len(records) <= _MAX_BINS:
        bins = [(i, i, records[i]) for i in range(len(records))]
    else:
        # Collapse consecutive reducer ids; a bin shows its max (the
        # straggler candidate), not its sum, so hot cells stay visible.
        per_bin = -(-len(records) // _MAX_BINS)
        bins = []
        for lo in range(0, len(records), per_bin):
            hi = min(lo + per_bin - 1, len(records) - 1)
            bins.append((lo, hi, max(records[lo : hi + 1])))
    for lo, hi, value in bins:
        bar = "#" * (round(_BAR_WIDTH * value / peak) if peak else 0)
        rid = f"r{lo:03d}" if lo == hi else f"r{lo:03d}-r{hi:03d}"
        hot = (
            "  <- hottest cell"
            if report.hottest_reducer is not None and lo <= report.hottest_reducer <= hi
            else ""
        )
        lines.append(f"  {rid} {bar.ljust(_BAR_WIDTH)} {value}{hot}")
    return lines


def _fault_line(result: "JobResult") -> str | None:
    """Recovery telemetry, shown only when the job ran under recovery
    dispatch (or was restored from a checkpoint)."""
    if result.resumed:
        return "  faults: resumed from checkpoint (not re-executed)"
    eng = result.counters.engine
    attempts = eng(C.TASK_ATTEMPTS)
    if not attempts:
        return None
    line = f"  faults: {attempts} attempts, {eng(C.TASK_FAILURES)} failures"
    spec = eng(C.SPECULATIVE_LAUNCHES)
    if spec:
        line += f", {spec} speculative ({eng(C.SPECULATIVE_WINS)} won)"
    timeouts = eng(C.TASK_TIMEOUTS)
    if timeouts:
        line += f", {timeouts} watchdog timeout(s)"
    if result.cost.fault_overhead_s:
        line += f", overhead {_fmt_s(result.cost.fault_overhead_s)} simulated"
    return line


def _workers_line(result: "JobResult") -> str | None:
    """Worker failure-domain telemetry, shown only when a pool engaged."""
    eng = result.counters.engine
    failures = eng(C.WORKER_FAILURES)
    blacklisted = eng(C.WORKERS_BLACKLISTED)
    joined = eng(C.WORKERS_JOINED)
    if not (failures or blacklisted or joined):
        return None
    parts = []
    if failures:
        parts.append(f"{failures} worker(s) lost")
        lost = eng(C.MAP_OUTPUT_LOST)
        if lost:
            parts.append(
                f"{lost} committed map output(s) invalidated, "
                f"{eng(C.TASKS_REEXECUTED)} task(s) re-executed"
            )
    if blacklisted:
        parts.append(f"{blacklisted} blacklisted")
    if joined:
        parts.append(f"{joined} joined")
    if result.cost.recovery_overhead_s:
        parts.append(
            f"overhead {_fmt_s(result.cost.recovery_overhead_s)} simulated"
        )
    return "  workers: " + ", ".join(parts)


def _storage_line(result: "JobResult") -> str | None:
    """Durable-storage telemetry, shown only when the block plane ran."""
    eng = result.counters.engine
    hits = eng(C.LOCALITY_HITS)
    misses = eng(C.LOCALITY_MISSES)
    corruptions = eng(C.BLOCK_CORRUPTIONS)
    lost = eng(C.REPLICAS_LOST)
    healed = eng(C.BLOCKS_REREPLICATED)
    under = eng(C.BLOCKS_UNDER_REPLICATED)
    if not (hits or misses or corruptions or lost or healed or under):
        return None
    parts = [f"locality {hits}/{hits + misses} map task(s) data-local"]
    if corruptions:
        parts.append(f"{corruptions} corrupt replica(s) failed over")
    if lost:
        parts.append(f"{lost} replica(s) lost")
    if healed:
        parts.append(f"{healed} block cop(y/ies) re-replicated")
    if result.cost.network_overhead_s:
        parts.append(
            f"network {_fmt_s(result.cost.network_overhead_s)} simulated"
        )
    if under:
        parts.append(
            f"{under} block(s) UNDER-REPLICATED (pool too small to heal)"
        )
    return "  storage: " + ", ".join(parts)


def _memory_line(result: "JobResult") -> str | None:
    """Memory-governance telemetry: spills and quarantined records."""
    eng = result.counters.engine
    spilled = eng(C.SPILLED_RECORDS)
    skipped = eng(C.SKIPPED_RECORDS)
    if not spilled and not skipped:
        return None
    parts = []
    if spilled:
        parts.append(
            f"{spilled} records spilled in {eng(C.SPILL_FILES)} run(s), "
            f"{eng(C.SPILL_BYTES)} bytes"
        )
        if result.cost.spill_overhead_s:
            parts.append(
                f"overhead {_fmt_s(result.cost.spill_overhead_s)} simulated"
            )
    if skipped:
        parts.append(f"{skipped} bad record(s) quarantined")
    return "  memory: " + ", ".join(parts)


def render_job_dashboard(result: "JobResult") -> str:
    """One job's dashboard block."""
    report = analyze_job(result)
    phases = result.phases
    lines = [f"-- job {result.job_name} " + "-" * max(4, 54 - len(result.job_name))]
    lines.append(
        "  "
        + _phase_line(
            "wall",
            [
                ("split", phases.split_s),
                ("map", phases.map_s),
                ("shuffle", phases.shuffle_s),
                ("reduce", phases.reduce_s),
                ("write", phases.write_s),
            ],
        )
    )
    cost = result.cost
    lines.append(
        "  "
        + _phase_line(
            "simulated",
            [
                ("startup", cost.startup_s),
                ("map", cost.map_s),
                ("shuffle", cost.shuffle_s),
                ("reduce", cost.reduce_s),
            ],
        )
    )
    fault_line = _fault_line(result)
    if fault_line:
        lines.append(fault_line)
    workers_line = _workers_line(result)
    if workers_line:
        lines.append(workers_line)
    storage_line = _storage_line(result)
    if storage_line:
        lines.append(storage_line)
    memory_line = _memory_line(result)
    if memory_line:
        lines.append(memory_line)
    lines.append(_duration_line("map tasks", report.map_durations))
    lines.append(_duration_line("reduce tasks", report.reduce_durations))
    if report.reducer_records:
        lines.append(
            f"  makespan: measured map {_fmt_s(report.measured_map_makespan_s)} / "
            f"reduce {_fmt_s(report.measured_reduce_makespan_s)} — modelled "
            f"map {_fmt_s(report.modelled_map_makespan_s)} / "
            f"reduce {_fmt_s(report.modelled_reduce_makespan_s)}"
        )
    if not result.resumed:
        path = job_critical_path(result)
        lines.append(f"  critical path: {path.describe()}")
        if path.slack_s > 0:
            lines.append(f"  phase slack: {_fmt_s(path.slack_s)} idle across tasks")
    lines.extend(_histogram(report))
    return "\n".join(lines)


def render_workflow_dashboard(
    job_results: Sequence["JobResult"], title: str = "job chain"
) -> str:
    """Dashboard for a chain of jobs plus a totals header."""
    total_wall = sum(r.wall_clock_seconds for r in job_results)
    total_sim = sum(r.simulated_seconds for r in job_results)
    lines = [
        f"== {title}: {len(job_results)} job(s), "
        f"wall {_fmt_s(total_wall)}, simulated {_fmt_s(total_sim)} =="
    ]
    for result in job_results:
        lines.append(render_job_dashboard(result))
    if job_results:
        lines.append(analyze_critical_path(job_results).attribution_line())
    return "\n".join(lines)
