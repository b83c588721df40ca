"""Worker side of the suite: run one workload, check it, measure it.

One *operation* is one ``make_algorithm(...).run(...)`` call — timed,
traced, warm-up/oracle or plane.  Every operation is checked
(:class:`Checker`); a failed one is counted, never dropped.

Passes, in order (see ``README.md``):

1. set-up: generate the workload and its small twin, run all four
   algorithms once on the twin (warm-up);
2. oracle leg: the twin's results must equal ``brute_force_join``;
3. timed passes: all four algorithms round-robin, nothing patched;
4. traced pass (``trace``): one run per algorithm with layer spans on;
5. plane pass (``trace``): C-Rep-L with one opt-in plane engaged.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter

import spans
import workloads
from repro import ALGORITHMS, Cluster, brute_force_join, make_algorithm
from repro.mapreduce.faults import RetryPolicy
from repro.obs import workflow_skew
from repro.obs.ledger import MemorySink, RunLedger

__all__ = [
    "E2E_UNITS",
    "per_layer_units",
    "Tally",
    "Checker",
    "run_workload",
    "MIN_PASSES",
]

#: timed round-robin passes per run: never fewer, more while they fit
MIN_PASSES = 3

E2E_UNITS = {f"wall_s.{a}": "s" for a in ALGORITHMS} | {
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per algorithm, from the public ``JobResult`` fields of the timed runs
_TIMED_UNITS = {
    "mapreduce.engine.split_s": "s",
    "mapreduce.engine.map_s": "s",
    "mapreduce.engine.shuffle_s": "s",
    "mapreduce.engine.reduce_s": "s",
    "mapreduce.engine.write_s": "s",
    "mapreduce.executor.overhead_s": "s",
    "outside_jobs_s": "s",
    # simulated, not measured: exact for a given seed
    "sim_s": "sim_s",
    "shuffled_records": "count",
    "rectangles_marked": "count",
    "rectangles_after_replication": "count",
    "reduce_skew": "ratio",
}
#: per algorithm, span layer -> metric fed by that layer's self time
_SPAN_METRICS = {
    "mapreduce.engine": "mapreduce.engine.self_s",
    "mapreduce.executor": "mapreduce.executor.dispatch_s",
    "mapreduce.dfs": "mapreduce.dfs.io_s",
    "joins.mapper": "joins.mapper_s",
    "joins.reducer": "joins.reducer_s",
    "joins.marking": "joins.marking_s",
    "joins.local": "joins.local_s",
    "joins.collect": "joins.collect_s",
    "index.build": "index.build_s",
    "index.probe": "index.probe_s",
    "kernels.route": "kernels.route_s",
    "data.codec": "data.codec_s",
}
_TRACED_UNITS = {metric: "s" for metric in _SPAN_METRICS.values()} | {
    "index.probes": "count",
    "mapreduce.executor.ipc_bytes": "bytes",
    "span_coverage": "ratio",
    "trace_overhead_ratio": "ratio",
}
#: layers an algorithm never enters: a constant 0 is not a measurement
_NOT_APPLICABLE = {
    "cascade": {"joins.marking_s", "joins.local_s", "kernels.route_s"},
    "all-rep": {"joins.marking_s"},
}
#: C-Rep-L with exactly one opt-in plane engaged
PLANES = {
    "ledger": lambda: {"ledger": RunLedger(MemorySink())},
    "retry": lambda: {"retry": RetryPolicy(max_attempts=4)},
    "workers": lambda: {"retry": RetryPolicy(max_attempts=4, blacklist_after=2)},
    "replication2": lambda: {"replication": 2},
    "spill": lambda: {"memory_budget": 256 * 1024},
}
PLANE_ALGORITHM = "c-rep-l"
PLANE_TRIES = 2

_COUNTERS = (
    "simulated_seconds",
    "shuffled_records",
    "rectangles_marked",
    "rectangles_after_replication",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for algo in ALGORITHMS:
        for metric, unit in (_TIMED_UNITS | _TRACED_UNITS).items():
            if metric not in _NOT_APPLICABLE.get(algo, ()):
                units[f"{algo}.{metric}"] = unit
    units |= {f"plane.{p}.overhead_ratio": "ratio" for p in PLANES}
    units["output_tuples"] = "count"
    return units


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class Checker:
    """Runs operations on one input set and holds them to the contract.

    The first result becomes the reference tuple set; every later one —
    another algorithm, another repetition, a traced or plane run — must
    equal it, report each tuple exactly once, and repeat its own
    algorithm's simulated seconds and counters exactly.
    """

    def __init__(self, tally: Tally, label: str, inputs: workloads.Inputs) -> None:
        self.tally = tally
        self.label = label
        self.inputs = inputs
        self.reference: set | None = None
        self._counters: dict[str, tuple] = {}

    def run(self, algo: str, cluster_kwargs: dict, factory=make_algorithm, root=None):
        """One checked operation: ``(result or None, wall seconds)``.

        ``root`` is a context manager entered around exactly the timed
        call (the traced pass opens its root span there).
        """
        inp = self.inputs
        self.tally.attempted += 1
        gc.collect()
        with root or nullcontext():
            started = perf_counter()
            try:
                result = factory(algo, query=inp.query, d_max=inp.d_max).run(
                    inp.query, inp.datasets, inp.grid, Cluster(**cluster_kwargs)
                )
            except Exception as exc:  # report the failed operation and go on
                self.tally.fail(f"{self.label} {algo}: raised {exc!r}")
                return None, perf_counter() - started
            wall = perf_counter() - started
        problem = self._verify(algo, result)
        if problem:
            self.tally.fail(f"{self.label} {algo}: {problem}")
            return None, wall
        return result, wall

    def _verify(self, algo: str, result) -> str | None:
        stats = result.stats
        if stats.output_tuples != len(result.tuples):
            return (
                f"reported {stats.output_tuples} tuples for "
                f"{len(result.tuples)} distinct ones (duplicate output)"
            )
        if self.reference is None:
            self.reference = result.tuples
        elif result.tuples != self.reference:
            return (
                f"tuple set differs from the reference: "
                f"{len(result.tuples - self.reference)} extra, "
                f"{len(self.reference - result.tuples)} missing"
            )
        counters = tuple(getattr(stats, name) for name in _COUNTERS)
        if self._counters.setdefault(algo, counters) != counters:
            return f"counters {counters} differ from an earlier run {self._counters[algo]}"
        return None

    def check_against_oracle(self) -> None:
        """Completeness: the reference equals the brute-force join."""
        self.tally.attempted += 1
        expected = brute_force_join(self.inputs.query, self.inputs.datasets)
        if self.reference != expected:
            self.tally.fail(
                f"{self.label}: algorithms returned "
                f"{len(self.reference or ())} tuples, brute force {len(expected)}"
            )

    def check_soundness(self) -> None:
        """Every reference tuple satisfies every query triple."""
        self.tally.attempted += 1
        query = self.inputs.query
        rects = {
            slot: dict(self.inputs.datasets[query.dataset_of(slot)])
            for slot in query.slots
        }
        position = {slot: i for i, slot in enumerate(query.slots)}
        for tup in self.reference or ():
            for t in query.triples:
                left = rects[t.left][tup[position[t.left]]]
                right = rects[t.right][tup[position[t.right]]]
                if not t.predicate.holds(left, right):
                    self.tally.fail(f"{self.label}: tuple {tup} violates {t}")
                    return


def _timed_sample(result, wall: float, workers: int) -> dict[str, float]:
    """The per-layer values one timed run's ``JobResult`` fields give."""
    jobs = result.workflow.job_results
    phase = {
        name: sum(getattr(j.phases, name) for j in jobs)
        for name in ("split_s", "map_s", "shuffle_s", "reduce_s", "write_s")
    }
    task_s = sum(
        end - start
        for j in jobs
        for start, end in (*j.map_task_wall, *j.reduce_task_wall)
    )
    stats = result.stats
    return {f"mapreduce.engine.{name}": value for name, value in phase.items()} | {
        # dispatch + IPC + imbalance: phase wall not explained by task bodies
        "mapreduce.executor.overhead_s": phase["map_s"] + phase["reduce_s"] - task_s / workers,
        # staging, tuple collection, workflow glue
        "outside_jobs_s": wall - sum(j.wall_clock_seconds for j in jobs),
        "sim_s": stats.simulated_seconds,
        "shuffled_records": stats.shuffled_records,
        "rectangles_marked": stats.rectangles_marked,
        "rectangles_after_replication": stats.rectangles_after_replication,
        "reduce_skew": workflow_skew(jobs),
    }


def _traced_sample(tracer: spans.Tracer, wall: float, untraced: float) -> dict:
    totals = spans.layer_totals(tracer.spans)
    sample = {
        metric: totals.get(layer, (0.0, 0))[0] if layer in tracer.layers else None
        for layer, metric in _SPAN_METRICS.items()
    }
    sample["index.probes"] = (
        totals.get("index.probe", (0.0, 0))[1] if "index.probe" in tracer.layers else None
    )
    sample["mapreduce.executor.ipc_bytes"] = tracer.ipc_bytes
    root_self = totals[spans.ROOT_LAYER][0]
    sample["span_coverage"] = (sum(t for t, _ in totals.values()) - root_self) / wall
    sample["trace_overhead_ratio"] = wall / untraced - 1.0
    return sample


def run_workload(
    spec: workloads.WorkloadSpec,
    seed: int,
    *,
    seconds: float,
    trace: bool,
    quick: bool,
    t0: float,
    setup_only: bool = False,
    nproc: int = 1,
    factory=make_algorithm,
    log=print,
) -> dict:
    """Run every pass of one workload; returns a JSON-ready record.

    ``t0`` is the ``time.time()`` at which the caller started this
    process: set-up time runs from there to the first timed pass.
    """
    tally = Tally()
    if quick:
        spec = spec.small()
    cluster_kwargs = spec.cluster_kwargs(nproc)
    workers = cluster_kwargs.get("num_workers", 1)
    pristine = spans.snapshot()

    full = Checker(tally, spec.name, workloads.build(spec, seed))
    twin = Checker(tally, f"{spec.name}/twin", workloads.build(spec.small(), seed))
    for algo in ALGORITHMS:
        twin.run(algo, cluster_kwargs, factory)
    record = {
        "workload": spec.name,
        "n": spec.n,
        "side": spec.side,
        "query": spec.query,
        "executor": spec.executor,
        "workers": workers,
        "setup_s": time.time() - t0,
        "digest": workloads.dataset_digest(full.inputs.datasets),
    }
    if setup_only:
        return record | asdict(tally)

    twin.check_against_oracle()

    samples: dict[str, list[dict]] = {a: [] for a in ALGORITHMS}
    walls: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    min_passes = 1 if quick else MIN_PASSES
    loop_started = perf_counter()
    longest = 0.0
    passes = 0
    while passes < min_passes or (
        not trace and not quick
        and perf_counter() - loop_started + longest <= seconds
    ):
        still_patched = spans.changed_since(pristine)
        if still_patched:
            raise RuntimeError(f"span wrappers installed during timing: {still_patched}")
        pass_started = perf_counter()
        for algo in ALGORITHMS:
            result, wall = full.run(algo, cluster_kwargs, factory)
            if result is not None:
                walls[algo].append(wall)
                samples[algo].append(_timed_sample(result, wall, workers))
        longest = max(longest, perf_counter() - pass_started)
        passes += 1
    usage = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    full.check_soundness()

    # The fastest pass, not the median one: see "Why the fastest pass" in
    # README.md (the host has speed modes that outlast a whole run).
    fastest = {a: min(walls[a], default=None) for a in ALGORITHMS}
    record["passes"] = passes
    record["samples"] = {f"wall_s.{a}": walls[a] for a in ALGORITHMS}
    record["e2e"] = {f"wall_s.{a}": fastest[a] for a in ALGORITHMS} | {
        "peak_rss_mb": max(usage) / 1024.0,
        "setup_s": record["setup_s"],
    }

    if trace:
        # the layer budget of that same fastest pass, so it sums to it
        budget = {a: samples[a][walls[a].index(fastest[a])] for a in ALGORITHMS if walls[a]}
        layer, record["spans"] = _layer_passes(
            full, cluster_kwargs, factory, fastest, budget, log
        )
        record["per_layer"] = {name: layer.get(name) for name in per_layer_units()}

    return record | asdict(tally)


def _layer_passes(full, cluster_kwargs, factory, fastest, budget, log):
    """The traced and plane passes: ``(per-layer values, spans per algorithm)``.

    ``fastest`` is each algorithm's fastest untraced wall (``None`` when
    every timed run failed), ``budget`` that pass's timed layer values.
    """
    layer: dict[str, float | None] = {}
    span_lists = {}
    for algo, sample in budget.items():
        layer |= {f"{algo}.{m}": v for m, v in sample.items()}
        tracer = spans.Tracer()
        with spans.installed(tracer, warn=log):
            root = tracer.span(f"{spans.ROOT_LAYER}:{algo}")
            result, wall = full.run(algo, cluster_kwargs, factory, root)
        if result is not None:
            traced = _traced_sample(tracer, wall, fastest[algo])
            layer |= {f"{algo}.{m}": v for m, v in traced.items()}
            span_lists[algo] = tracer.spans
    base = fastest[PLANE_ALGORITHM]
    for plane, extra in PLANES.items():
        tries = [
            full.run(PLANE_ALGORITHM, cluster_kwargs | extra(), factory)
            for _ in range(PLANE_TRIES)
        ]
        best = min((w for r, w in tries if r is not None), default=None)
        layer[f"plane.{plane}.overhead_ratio"] = (
            best / base - 1.0 if best is not None and base else None
        )
    layer["output_tuples"] = len(full.reference) if full.reference is not None else None
    return layer, span_lists
