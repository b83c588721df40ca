"""Observability for the simulated cluster: tracing, metrics and skew.

The paper's argument is entirely about *where time goes* — shuffle
volume (All-Replicate), per-job startup and DFS round-trips (2-way
Cascade), and hot partition-cells that make one reducer the critical
path (Section 6.4).  This package makes those effects visible on a run
of the reproduction:

:mod:`repro.obs.trace`
    :class:`~repro.obs.trace.TraceRecorder` — a structured span/event
    recorder (plus counter timelines) the engine, executors and
    workflow report into, with a zero-overhead
    :class:`~repro.obs.trace.NullRecorder` default.
:mod:`repro.obs.ledger`
    :class:`~repro.obs.ledger.RunLedger` — an append-only JSONL journal
    of typed run events (manifest, job brackets, task attempts, spills,
    speculation, checkpoints) with a replaying reader
    (:class:`~repro.obs.ledger.LedgerRun`).
:mod:`repro.obs.export`
    Chrome trace-event JSON (spans plus ``"C"`` counter tracks,
    loadable in Perfetto or chrome://tracing) and a plain-JSON metrics
    snapshot.
:mod:`repro.obs.skew`
    Per-reducer input histograms, straggler/duration percentiles and
    measured-vs-modelled makespan analysis.
:mod:`repro.obs.critical_path`
    Critical-path and per-phase slack analysis with the
    "1s-speedup-where-it-matters" attribution.
:mod:`repro.obs.profile`
    Opt-in per-task cProfile hooks merged into hotspot tables and
    collapsed-stack flamegraph files.
:mod:`repro.obs.dashboard`
    The plain-text "job dashboard" printed by ``python -m repro ...
    --verbose``.

Determinism contract: recording only *observes*.  Counters, part files
and simulated seconds are byte-identical with tracing, ledgering and
profiling on or off, which ``tests/obs/test_traced_golden.py`` and
``tests/obs/test_deep_golden.py`` assert.
"""

from repro.obs.critical_path import (
    JobCriticalPath,
    PhaseSegment,
    WorkflowCriticalPath,
    analyze_critical_path,
    job_critical_path,
)
from repro.obs.dashboard import render_job_dashboard, render_workflow_dashboard
from repro.obs.export import (
    experiment_metrics,
    metrics_snapshot,
    to_chrome_trace,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.obs.ledger import (
    JobRecord,
    JsonlSink,
    LedgerRun,
    MemorySink,
    NullLedger,
    RunLedger,
    read_ledger,
)
from repro.obs.profile import (
    TaskProfiler,
    render_profile_dashboard,
    write_flamegraph,
)
from repro.obs.skew import DurationStats, JobSkewReport, analyze_job, workflow_skew
from repro.obs.trace import NullRecorder, Span, TraceRecorder

__all__ = [
    "NullRecorder",
    "Span",
    "TraceRecorder",
    "NullLedger",
    "RunLedger",
    "MemorySink",
    "JsonlSink",
    "LedgerRun",
    "JobRecord",
    "read_ledger",
    "TaskProfiler",
    "render_profile_dashboard",
    "write_flamegraph",
    "PhaseSegment",
    "JobCriticalPath",
    "WorkflowCriticalPath",
    "job_critical_path",
    "analyze_critical_path",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_trace",
    "metrics_snapshot",
    "experiment_metrics",
    "write_metrics",
    "DurationStats",
    "JobSkewReport",
    "analyze_job",
    "workflow_skew",
    "render_job_dashboard",
    "render_workflow_dashboard",
]
