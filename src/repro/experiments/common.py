"""Shared experiment harness: run algorithms, collect the paper's metrics.

Each ``tableN`` module defines one experiment mirroring a table of the
paper's evaluation: a workload builder, a swept parameter, and the
algorithm line-up of that table.  This module provides the machinery:
staging, per-algorithm execution on a fresh simulated cluster, metric
extraction (Section 7.8.3's *time taken*, *rectangles replicated* and
*rectangles after replication*), cross-algorithm output verification and
plain-text rendering in the paper's table style.

Scaling: the paper joins millions of rectangles on a 16-core cluster;
the reproduction defaults to thousands on one process.  Workloads are
constructed to preserve the paper's *join selectivity* (expected join
partners per rectangle) so relative behaviour — who wins, how the gap
grows along the sweep — carries over; every table module documents its
scaling rule.  ``scale`` multiplies workload sizes for quick smoke runs
(benchmarks use ``scale < 1``).
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.data.transforms import dataset_space, max_diagonal
from repro.errors import ExperimentError
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins.base import Datasets, JoinResult
from repro.joins.registry import make_algorithm
from repro.mapreduce.cost import CostModel
from repro.mapreduce.engine import Cluster
from repro.obs.dashboard import render_workflow_dashboard
from repro.obs.skew import workflow_skew
from repro.obs.trace import NullRecorder
from repro.query.query import Query

__all__ = [
    "AlgoMetrics",
    "ExperimentRow",
    "ExperimentResult",
    "run_algorithms",
    "format_hms",
    "derive_grid",
]

#: the paper's reducer count: an 8x8 grid, 64 reduce processes
DEFAULT_GRID_CELLS = 64


@dataclass(frozen=True)
class AlgoMetrics:
    """One algorithm's measurements for one experiment row."""

    simulated_seconds: float
    shuffled_records: int
    rectangles_marked: int
    rectangles_after_replication: int
    output_tuples: int
    wall_seconds: float
    #: resolved compute kernel the run executed with ("numpy"/"python")
    kernel: str = "python"
    #: max/mean reduce input records of the heaviest reduce job in the
    #: chain (1.0 = perfectly even; 0.0 when nothing reduced)
    reduce_skew: float = 0.0
    #: measured wall clock per engine stage, summed over the job chain
    phase_wall_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentRow:
    """One swept-parameter point: label + per-algorithm metrics."""

    label: str
    metrics: dict[str, AlgoMetrics] = field(default_factory=dict)
    #: True when every algorithm produced the identical tuple set
    consistent: bool = True
    output_tuples: int = 0


@dataclass
class ExperimentResult:
    """A full table: swept rows for a fixed query and workload family."""

    table: str
    title: str
    query: str
    parameters: str
    rows: list[ExperimentRow] = field(default_factory=list)

    @property
    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for row in self.rows:
            for name in row.metrics:
                seen.setdefault(name, None)
        return list(seen)

    def column(self, algorithm: str, metric: str) -> list[float]:
        """One metric across the sweep (missing rows skipped)."""
        out = []
        for row in self.rows:
            m = row.metrics.get(algorithm)
            if m is not None:
                out.append(getattr(m, metric))
        return out

    def format(self) -> str:
        """Render in the paper's table layout (times + replication counts)."""
        algos = self.algorithms
        header = [self.rows[0].label.split("=")[0] if self.rows else "param"]
        header += [f"time {a}" for a in algos]
        header += [f"#rep {a}" for a in algos if self._replicates(a)]
        lines = [
            f"{self.table}: {self.title}",
            f"  query: {self.query}",
            f"  parameters: {self.parameters}",
            "",
        ]
        widths = [max(len(h), 12) for h in header]
        lines.append("  " + " | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  " + "-+-".join("-" * w for w in widths))
        for row in self.rows:
            cells = [row.label.split("=", 1)[-1]]
            for a in algos:
                m = row.metrics.get(a)
                cells.append(format_hms(m.simulated_seconds) if m else "-")
            for a in algos:
                if not self._replicates(a):
                    continue
                m = row.metrics.get(a)
                if m is None:
                    cells.append("-")
                else:
                    cells.append(
                        f"{m.rectangles_marked} ({m.rectangles_after_replication})"
                    )
            lines.append(
                "  " + " | ".join(c.ljust(w) for c, w in zip(cells, widths))
            )
            if not row.consistent:
                lines.append("  !! algorithms disagreed on this row")
        return "\n".join(lines)

    def _replicates(self, algorithm: str) -> bool:
        return any(
            row.metrics.get(algorithm)
            and row.metrics[algorithm].rectangles_after_replication > 0
            for row in self.rows
        )


def format_hms(seconds: float) -> str:
    """``hh:mm:ss`` rendering of simulated time (the paper prints hh:mm)."""
    s = int(round(seconds))
    return f"{s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}"


def derive_grid(
    datasets: Datasets, num_cells: int = DEFAULT_GRID_CELLS, margin: float = 0.0
) -> GridPartitioning:
    """An ``sqrt(k) x sqrt(k)`` grid over the datasets' joint space."""
    space = dataset_space(datasets, margin=margin)
    # Guard against degenerate spaces (all rects on a line).
    if space.l <= 0 or space.b <= 0:
        space = Rect.from_corners(
            space.x_min - 1.0, space.y_min - 1.0, space.x_max + 1.0, space.y_max + 1.0
        )
    return GridPartitioning.square(space, num_cells)


def execute_sweep(
    *,
    table: str,
    title: str,
    parameters: str,
    entries: Sequence[tuple[str, Query, "object", Sequence[str]]],
    grid_cells: int = DEFAULT_GRID_CELLS,
    verify: bool = True,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder: NullRecorder | None = None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Run one table: a sequence of (label, query, workload, algorithms).

    Each row runs on its own grid (derived from its data, as the
    paper re-partitions per data-set) and a cost model scaled to the
    workload's paper-equivalent size.  ``executor``/``num_workers``/
    ``kernel`` pick the cluster's task back-end and compute kernel
    (results are identical for all).  ``recorder`` traces every row into
    one timeline, ``ledger``/``profiler`` journal and profile every
    row's clusters (see :mod:`repro.obs.ledger` /
    :mod:`repro.obs.profile`), and ``verbose`` prints the per-row skew
    dashboards as the sweep runs.
    """
    result = ExperimentResult(
        table=table,
        title=title,
        query=str(entries[0][1]) if entries else "",
        parameters=parameters,
    )
    for label, query, workload, algorithms in entries:
        grid = derive_grid(workload.datasets, grid_cells)
        if verbose:
            print(f"### {table} row {label}")
        metrics, consistent, output_tuples = run_algorithms(
            query,
            workload.datasets,
            grid,
            algorithms,
            d_max=workload.d_max,
            cost_model=CostModel.scaled(workload.paper_scale),
            verify=verify,
            executor=executor,
            num_workers=num_workers,
            kernel=kernel,
            recorder=recorder,
            verbose=verbose,
            ledger=ledger,
            profiler=profiler,
        )
        result.rows.append(
            ExperimentRow(
                label=label,
                metrics=metrics,
                consistent=consistent,
                output_tuples=output_tuples,
            )
        )
    return result


def _phase_wall_totals(job_results) -> dict[str, float]:
    """Sum each job's wall-clock phase decomposition across a chain."""
    totals: dict[str, float] = {}
    for result in job_results:
        for phase, seconds in result.phases.as_dict().items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def run_algorithms(
    query: Query,
    datasets: Datasets,
    grid: GridPartitioning,
    algorithms: Sequence[str],
    *,
    d_max: float | Mapping[str, float] | None = None,
    cost_model: CostModel | None = None,
    verify: bool = True,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder: NullRecorder | None = None,
    verbose: bool = False,
    sink: dict[str, JoinResult] | None = None,
    dfs=None,
    retry=None,
    fault_plan=None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    memory_budget: int | None = None,
    replication: int | None = None,
    ledger=None,
    profiler=None,
) -> tuple[dict[str, AlgoMetrics], bool, int]:
    """Run each named algorithm on a fresh cluster over the same workload.

    Returns ``(metrics by algorithm, outputs agree, output tuple count)``.
    ``d_max`` defaults to the observed maximum diagonal (what a C-Rep-L
    deployment would precompute while loading the data).
    ``executor``/``num_workers`` select the cluster's task back-end and
    ``kernel`` its compute kernel (``"numpy"`` or ``"python"``);
    the kernel each run actually resolved to is recorded on its
    :class:`AlgoMetrics`.
    ``recorder`` (a live :class:`~repro.obs.trace.TraceRecorder`) traces
    every algorithm's jobs into one timeline; ``ledger`` (a live
    :class:`~repro.obs.ledger.RunLedger`) journals every algorithm's
    clusters into one event stream and ``profiler`` (a
    :class:`~repro.obs.profile.TaskProfiler`) merges their per-task
    cProfile stats; ``verbose`` prints the per-job skew dashboard after
    each algorithm; ``sink`` receives each algorithm's full
    :class:`~repro.joins.base.JoinResult` keyed by name (for metrics
    export).

    The fault-tolerance knobs pass straight to the cluster: ``retry`` (a
    :class:`~repro.mapreduce.faults.RetryPolicy`, whose
    ``blacklist_after``/``heartbeat_interval_s`` fields also engage the
    named-worker failure domains), ``fault_plan`` (including
    ``fail-worker``/``join-worker`` specs — worker loss mid-join is
    absorbed with byte-identical part files), ``checkpoint_dir``,
    ``resume`` and ``memory_budget`` (per-map-task
    shuffle-buffer bound in bytes — spills change telemetry only, never
    output); ``replication`` engages the durable-storage plane
    (block-level checksums, replica placement, locality-aware map
    scheduling — again telemetry-only for canonical results); ``dfs``
    substitutes a shared
    backend (e.g. a :class:`~repro.mapreduce.localfs.LocalFSDFS` so a
    later process can resume from its durable outputs) for the default
    fresh in-memory DFS per algorithm.
    """
    if not algorithms:
        raise ExperimentError("no algorithms requested")
    if d_max is None:
        d_max = max_diagonal(datasets)
    metrics: dict[str, AlgoMetrics] = {}
    reference: set[tuple[int, ...]] | None = None
    consistent = True
    output_tuples = 0
    for name in algorithms:
        algorithm = make_algorithm(name, query=query, d_max=d_max)
        cluster_kwargs = {} if dfs is None else {"dfs": dfs}
        if retry is not None:
            cluster_kwargs["retry"] = retry
        if ledger is not None:
            cluster_kwargs["ledger"] = ledger
        if profiler is not None:
            cluster_kwargs["profiler"] = profiler
        cluster = Cluster(
            cost_model=cost_model or CostModel(),
            executor=executor,
            num_workers=num_workers,
            kernel=kernel,
            recorder=recorder if recorder is not None else NullRecorder(),
            fault_plan=fault_plan,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            memory_budget=memory_budget,
            replication=replication,
            **cluster_kwargs,
        )
        if recorder is not None and recorder.enabled:
            recorder.instant(
                f"algorithm:{name}", cat="experiment", track="workflow"
            )
        started = time.perf_counter()
        result: JoinResult = algorithm.run(query, datasets, grid, cluster)
        wall = time.perf_counter() - started
        job_results = result.workflow.job_results
        metrics[name] = AlgoMetrics(
            simulated_seconds=result.stats.simulated_seconds,
            shuffled_records=result.stats.shuffled_records,
            rectangles_marked=result.stats.rectangles_marked,
            rectangles_after_replication=result.stats.rectangles_after_replication,
            output_tuples=len(result.tuples),
            wall_seconds=wall,
            kernel=cluster.resolved_kernel,
            reduce_skew=workflow_skew(job_results),
            phase_wall_seconds=_phase_wall_totals(job_results),
        )
        if sink is not None:
            sink[name] = result
        if verbose:
            print(render_workflow_dashboard(job_results, title=name))
        output_tuples = len(result.tuples)
        if verify:
            if reference is None:
                reference = result.tuples
            elif result.tuples != reference:
                consistent = False
    return metrics, consistent, output_tuples
