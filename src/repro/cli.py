"""Command-line interface: run the paper's experiments and ad-hoc joins.

Examples::

    # regenerate one table of the evaluation (scaled workload)
    python -m repro table2 --scale 0.5

    # regenerate every table and write a combined report
    python -m repro all --scale 1.0 --output results.txt

    # run one algorithm on a synthetic chain workload
    python -m repro join --algorithm c-rep-l --n 5000 --space 10000

    # run durably (replicated checksummed blocks), then audit the store
    python -m repro join --dfs-root ./store --replication 2
    python -m repro fsck --dfs-root ./store
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ReproError
from repro.experiments import TABLES
from repro.experiments.common import derive_grid, run_algorithms
from repro.experiments.workloads import synthetic_chain
from repro.joins.registry import ALGORITHMS
from repro.mapreduce.cost import CostModel
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spatial",
        description="Multi-way spatial joins on map-reduce (EDBT 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in sorted(TABLES):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        _add_table_args(p)

    p_all = sub.add_parser("all", help="regenerate every table")
    _add_table_args(p_all)

    p_report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (paper-vs-measured)"
    )
    _add_table_args(p_report, obs=False)

    p_explain = sub.add_parser(
        "explain", help="show how each algorithm would route a query"
    )
    p_explain.add_argument(
        "--query",
        type=str,
        default="R1 Ov R2 and R2 Ov R3",
        help="query in the paper's notation",
    )
    p_explain.add_argument("--n", type=int, default=5_000, help="rectangles per relation")
    p_explain.add_argument("--space", type=float, default=10_000.0, help="space side length")
    p_explain.add_argument("--seed", type=int, default=11, help="workload RNG seed")
    p_explain.add_argument("--grid-cells", type=int, default=64, help="reducer grid cells")

    p_join = sub.add_parser("join", help="run one algorithm on a synthetic chain")
    p_join.add_argument(
        "--algorithm", choices=ALGORITHMS, default="c-rep-l", help="algorithm to run"
    )
    p_join.add_argument("--n", type=int, default=5_000, help="rectangles per relation")
    p_join.add_argument("--space", type=float, default=10_000.0, help="space side length")
    p_join.add_argument("--relations", type=int, default=3, help="chain length")
    p_join.add_argument(
        "--range-d", type=float, default=0.0, help="range distance (0 = overlap)"
    )
    p_join.add_argument(
        "--query",
        type=str,
        default=None,
        help=(
            "explicit query in the paper's notation, e.g. "
            "'R1 Ov R2 and R2 Ra(100) R3' (overrides --relations/--range-d)"
        ),
    )
    p_join.add_argument("--seed", type=int, default=11, help="workload RNG seed")
    p_join.add_argument("--grid-cells", type=int, default=64, help="reducer grid cells")
    p_join.add_argument(
        "--dataset",
        action="append",
        default=None,
        metavar="NAME=FILE",
        help=(
            "replace one relation of the synthetic workload with a "
            "rectangle file (rid,x,y,l,b per line; repeatable)"
        ),
    )
    _add_executor_args(p_join)
    _add_obs_args(p_join)
    _add_fault_args(p_join)

    p_fsck = sub.add_parser(
        "fsck",
        help="audit (and optionally repair) a replicated on-disk DFS root",
    )
    p_fsck.add_argument(
        "--dfs-root",
        type=str,
        default=".",
        metavar="DIR",
        help=(
            "the LocalFS DFS root to audit (default: current directory); "
            "reads the _blocks/placement.json the storage plane persisted"
        ),
    )
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help=(
            "drop corrupt/missing replicas and re-replicate each "
            "damaged-but-recoverable block from a healthy copy"
        ),
    )
    p_fsck.add_argument(
        "--verbose",
        action="store_true",
        help="also list every healthy file with its block count",
    )

    return parser


def _add_table_args(p: argparse.ArgumentParser, obs: bool = True) -> None:
    p.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip cross-algorithm output verification",
    )
    p.add_argument("--output", type=str, default=None, help="also write report to file")
    _add_executor_args(p)
    if obs:
        _add_obs_args(p)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "record a Chrome trace-event JSON of the run "
            "(open in Perfetto or chrome://tracing)"
        ),
    )
    p.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="FILE",
        help="write a plain-JSON metrics snapshot of the run",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print the per-job skew/phase dashboard after each run",
    )
    p.add_argument(
        "--ledger",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "journal typed run events (manifest, job brackets, task "
            "attempts, spills, speculation, checkpoints) to this JSONL file"
        ),
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help=(
            "cProfile every map/reduce task body and print merged "
            "per-phase hotspot tables after the run"
        ),
    )
    p.add_argument(
        "--flamegraph",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "write collapsed-stack profile lines (flamegraph.pl / "
            "speedscope input; implies --profile)"
        ),
    )


def _parse_memory_budget(text: str) -> int:
    """Bytes with an optional k/m/g suffix: ``64k``, ``4m``, ``1g``."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3}
    raw = text.strip().lower()
    multiplier = 1
    if raw and raw[-1] in units:
        multiplier = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid memory budget {text!r} (expected bytes, "
            "optionally suffixed k/m/g)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive, got {text!r}"
        )
    return value


def _parse_worker_count(text: str) -> int:
    """A ``--workers`` count: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"worker count must be an integer >= 1, got {text!r}")
    return int(text)


def _build_fault_plan(args: argparse.Namespace, plan_cls):
    """The join command's FaultPlan: ``--fault-plan`` + ``--workers-fail``."""
    plan = plan_cls.load(args.fault_plan) if args.fault_plan else None
    if args.workers_fail:
        if plan is None:
            plan = plan_cls()
        for kwargs in args.workers_fail:
            plan.fail_worker(**kwargs)
    return plan


def _parse_worker_fail(text: str) -> dict:
    """Parse one ``--workers-fail`` spec into ``fail_worker`` kwargs.

    Accepted shapes: ``NAME@PHASE:TASK[:ATTEMPT][,silent]`` (fires on
    that attempt's completion report) and ``NAME@t=SECONDS[,silent]``
    (fires at the first phase boundary where the simulated clock has
    passed SECONDS).
    """
    raw = text
    silent = False
    if text.endswith(",silent"):
        silent = True
        text = text[: -len(",silent")]
    name, sep, where = text.partition("@")
    usage = (
        "--workers-fail expects NAME@PHASE:TASK[:ATTEMPT][,silent] or "
        f"NAME@t=SECONDS[,silent], got {raw!r}"
    )
    if not sep or not name or not where:
        raise argparse.ArgumentTypeError(usage)
    if where.startswith("t="):
        try:
            at_s = float(where[2:])
        except ValueError:
            raise argparse.ArgumentTypeError(usage) from None
        return {"worker": name, "silent": silent, "at_s": at_s}
    phase, sep, rest = where.partition(":")
    if not sep or not phase or not rest:
        raise argparse.ArgumentTypeError(usage)
    parts = rest.split(":")
    try:
        index = int(parts[0])
        attempt = int(parts[1]) if len(parts) > 1 else 0
    except ValueError:
        raise argparse.ArgumentTypeError(usage) from None
    return {
        "worker": name,
        "phase": phase,
        "index": index,
        "attempt": attempt,
        "silent": silent,
    }


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help=(
            "allowed failures per task before the job aborts "
            "(Hadoop's mapred.*.max.attempts; default 1 = fail fast)"
        ),
    )
    p.add_argument(
        "--speculate",
        action="store_true",
        help=(
            "launch backup attempts for stragglers, picked on the "
            "simulated clock (earlier simulated finisher wins)"
        ),
    )
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="FILE",
        help="inject the deterministic FaultPlan in this JSON file",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the workflow checkpoint manifest, skipping jobs "
            "whose outputs are complete (needs --dfs-root)"
        ),
    )
    p.add_argument(
        "--dfs-root",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "back the cluster with an on-disk DFS rooted here (durable "
            "outputs + checkpoints; enables cross-process --resume)"
        ),
    )
    p.add_argument(
        "--memory-budget",
        type=_parse_memory_budget,
        default=None,
        metavar="BYTES",
        help=(
            "per-map-task shuffle buffer bound (suffix k/m/g; Hadoop's "
            "io.sort.mb) — tasks over budget spill their buffered "
            "emissions to the DFS; output stays byte-identical"
        ),
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "hung-task watchdog: reclaim and re-dispatch any attempt "
            "that hangs longer than this many simulated seconds (every "
            "executor; Hadoop's mapred.task.timeout)"
        ),
    )
    p.add_argument(
        "--max-skipped-records",
        type=int,
        default=0,
        metavar="N",
        help=(
            "skipping mode: quarantine up to N bad records per task and "
            "retry without them (Hadoop's mapred.skip.mode; default 0 = "
            "fail on the first bad record)"
        ),
    )
    p.add_argument(
        "--workers-fail",
        type=_parse_worker_fail,
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "kill a named virtual worker: NAME@PHASE:TASK[:ATTEMPT]"
            "[,silent] fires when that attempt completes, NAME@t=SECONDS "
            "at the first phase boundary past the simulated clock; "
            "in-flight attempts are lost and the worker's committed map "
            "outputs re-execute (repeatable)"
        ),
    )
    p.add_argument(
        "--blacklist-after",
        type=int,
        default=0,
        metavar="K",
        help=(
            "blacklist a worker after K charged task failures — no new "
            "assignments, capacity removed (Hadoop's "
            "mapred.max.tracker.failures; default 0 = never)"
        ),
    )
    p.add_argument(
        "--replication",
        type=int,
        default=None,
        metavar="N",
        help=(
            "engage the durable-storage plane: chunk every DFS file into "
            "checksummed blocks placed on N distinct workers, verify on "
            "read with transparent failover, re-replicate after worker "
            "loss, and schedule map tasks data-locally (HDFS's "
            "dfs.replication; default: off)"
        ),
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help=(
            "simulated heartbeat period: the detection latency charged "
            "when a worker dies silently (default 1.0)"
        ),
    )


def _add_executor_args(p: argparse.ArgumentParser) -> None:
    from repro.mapreduce.executor import EXECUTORS

    p.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default="serial",
        help="cluster task back-end (output is identical for all)",
    )
    p.add_argument(
        "--workers",
        type=_parse_worker_count,
        default=None,
        help="worker count for thread/process executors (default: all CPUs)",
    )
    from repro.kernels import KERNELS

    p.add_argument(
        "--kernel",
        choices=KERNELS,
        default="numpy",
        help=(
            "compute kernel: 'numpy' vectorized batches (default), 'python' "
            "scalar reference (output is identical for both; "
            "REPRO_KERNEL overrides)"
        ),
    )


def _make_recorder(args: argparse.Namespace):
    """A live recorder when ``--trace`` asked for one, else ``None``."""
    if getattr(args, "trace", None):
        from repro.obs import TraceRecorder

        return TraceRecorder()
    return None


def _make_ledger(args: argparse.Namespace):
    """A live run ledger when ``--ledger`` asked for one, else ``None``."""
    if getattr(args, "ledger", None):
        from repro.obs import JsonlSink, RunLedger

        return RunLedger(JsonlSink(args.ledger))
    return None


def _make_profiler(args: argparse.Namespace):
    """A task profiler when ``--profile``/``--flamegraph`` asked for one."""
    if getattr(args, "profile", False) or getattr(args, "flamegraph", None):
        from repro.obs import TaskProfiler

        return TaskProfiler()
    return None


def _cli_manifest(args: argparse.Namespace, ledger) -> None:
    """Stamp the run manifest with the CLI-level configuration."""
    if ledger is None:
        return
    ledger.manifest(
        command=args.command,
        executor=args.executor,
        num_workers=args.workers,
        kernel=args.kernel,
        **{
            key: getattr(args, key)
            for key in ("algorithm", "n", "space", "seed", "scale", "replication")
            if hasattr(args, key)
        },
    )


def _finish_deep_obs(args: argparse.Namespace, ledger, profiler) -> None:
    """Close the ledger and print/write the profile artifacts."""
    if ledger is not None:
        ledger.close()
        print(f"wrote ledger {args.ledger}")
    if profiler is not None:
        from repro.obs import render_profile_dashboard, write_flamegraph

        if getattr(args, "flamegraph", None):
            write_flamegraph(args.flamegraph, profiler)
            print(
                f"wrote flamegraph {args.flamegraph} "
                "(collapsed stacks; feed to flamegraph.pl or speedscope)"
            )
        if getattr(args, "profile", False):
            print(render_profile_dashboard(profiler))


def _finish_obs(args: argparse.Namespace, recorder, results=None) -> None:
    """Write the trace/metrics files the obs flags requested."""
    if recorder is not None:
        from repro.obs import write_trace

        write_trace(args.trace, recorder, process_name=f"repro {args.command}")
        print(f"wrote trace {args.trace} (load in https://ui.perfetto.dev)")
    if getattr(args, "metrics", None) and results is not None:
        from repro.obs import experiment_metrics, write_metrics

        write_metrics(args.metrics, experiment_metrics(results))
        print(f"wrote metrics {args.metrics}")


def _run_tables(names: list[str], args: argparse.Namespace) -> str:
    sections = []
    recorder = _make_recorder(args)
    ledger = _make_ledger(args)
    profiler = _make_profiler(args)
    _cli_manifest(args, ledger)
    results = {}
    for name in names:
        started = time.perf_counter()
        result = TABLES[name].run(
            scale=args.scale,
            verify=not args.no_verify,
            executor=args.executor,
            num_workers=args.workers,
            kernel=args.kernel,
            recorder=recorder,
            verbose=args.verbose,
            ledger=ledger,
            profiler=profiler,
        )
        elapsed = time.perf_counter() - started
        results[name] = result
        sections.append(result.format())
        sections.append(f"  [generated in {elapsed:.1f}s wall]")
        sections.append("")
    _finish_obs(args, recorder, results)
    _finish_deep_obs(args, ledger, profiler)
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "join":
        if args.query:
            from repro.query.parser import parse_query

            query = parse_query(args.query)
            names = list(query.dataset_keys)
        else:
            names = [f"R{i + 1}" for i in range(args.relations)]
            predicate = Range(args.range_d) if args.range_d > 0 else Overlap()
            query = Query.chain(names, predicate)
        workload = synthetic_chain(
            args.n, args.space, names=tuple(names), seed=args.seed
        )
        datasets = dict(workload.datasets)
        d_max = workload.d_max
        if args.dataset:
            from repro.data.loader import load_rect_file
            from repro.data.transforms import max_diagonal
            from repro.errors import DatasetFormatError

            for spec in args.dataset:
                name, sep, file_path = spec.partition("=")
                if not sep or not name or not file_path:
                    raise DatasetFormatError(
                        f"--dataset expects NAME=FILE, got {spec!r}"
                    )
                if name not in datasets:
                    raise DatasetFormatError(
                        f"--dataset names unknown relation {name!r}; "
                        f"query uses {sorted(datasets)}"
                    )
                datasets[name] = load_rect_file(file_path)
            d_max = max_diagonal(datasets)
        grid = derive_grid(datasets, args.grid_cells)
        recorder = _make_recorder(args)
        ledger = _make_ledger(args)
        profiler = _make_profiler(args)
        _cli_manifest(args, ledger)
        sink: dict = {}
        from repro.errors import JobError
        from repro.mapreduce.faults import FaultPlan, RetryPolicy

        if args.resume and not args.dfs_root:
            raise JobError(
                "--resume needs --dfs-root (an in-memory DFS has nothing "
                "left to resume from)"
            )
        dfs = None
        if args.dfs_root:
            from repro.mapreduce.localfs import LocalFSDFS

            dfs = LocalFSDFS(args.dfs_root)
        metrics, __, output_tuples = run_algorithms(
            query,
            datasets,
            grid,
            [args.algorithm],
            d_max=d_max,
            cost_model=CostModel.scaled(workload.paper_scale),
            verify=False,
            executor=args.executor,
            num_workers=args.workers,
            kernel=args.kernel,
            recorder=recorder,
            sink=sink,
            dfs=dfs,
            retry=RetryPolicy(
                max_attempts=args.max_attempts,
                speculate=args.speculate,
                task_timeout_s=args.task_timeout,
                max_skipped_records=args.max_skipped_records,
                blacklist_after=args.blacklist_after,
                heartbeat_interval_s=args.heartbeat_interval,
            ),
            fault_plan=_build_fault_plan(args, FaultPlan),
            checkpoint_dir="checkpoints" if args.dfs_root else None,
            resume=args.resume,
            memory_budget=args.memory_budget,
            replication=args.replication,
            ledger=ledger,
            profiler=profiler,
        )
        m = metrics[args.algorithm]
        print(f"query: {query}")
        print(f"output tuples: {output_tuples}")
        print(f"kernel: {m.kernel}")
        print(f"simulated time: {m.simulated_seconds:.1f}s")
        print(f"shuffled records: {m.shuffled_records}")
        print(f"rectangles marked: {m.rectangles_marked}")
        print(f"rectangles after replication: {m.rectangles_after_replication}")
        if m.reduce_skew:
            print(f"reduce skew (max/mean): {m.reduce_skew:.2f}x")
        workflow = sink[args.algorithm].workflow
        eng = workflow.counters.engine
        if eng("task_attempts"):
            print(
                f"task attempts: {eng('task_attempts')} "
                f"({eng('task_failures')} failures, "
                f"{eng('speculative_launches')} speculative, "
                f"{eng('speculative_wins')} speculative wins)"
            )
        if eng("task_timeouts"):
            print(f"watchdog timeouts: {eng('task_timeouts')}")
        if eng("worker_failures") or eng("workers_blacklisted") or eng(
            "workers_joined"
        ):
            print(
                f"workers: {eng('worker_failures')} lost, "
                f"{eng('workers_blacklisted')} blacklisted, "
                f"{eng('workers_joined')} joined "
                f"({eng('map_output_lost')} map outputs invalidated, "
                f"{eng('tasks_reexecuted')} tasks re-executed)"
            )
        if eng("locality_hits") or eng("locality_misses"):
            total = eng("locality_hits") + eng("locality_misses")
            print(
                f"map locality: {eng('locality_hits')}/{total} task(s) "
                "data-local"
            )
        if (
            eng("block_corruptions")
            or eng("replicas_lost")
            or eng("blocks_rereplicated")
            or eng("blocks_under_replicated")
        ):
            print(
                f"storage: {eng('block_corruptions')} corrupt replica(s) "
                f"failed over, {eng('replicas_lost')} replica(s) lost, "
                f"{eng('blocks_rereplicated')} block cop(y/ies) "
                "re-replicated"
                + (
                    f", {eng('blocks_under_replicated')} block(s) "
                    "UNDER-REPLICATED"
                    if eng("blocks_under_replicated")
                    else ""
                )
            )
        if eng("spilled_records"):
            print(
                f"spilled records: {eng('spilled_records')} "
                f"({eng('spill_files')} spill files, "
                f"{eng('spill_bytes')} bytes)"
            )
        if eng("skipped_records"):
            print(f"skipped records: {eng('skipped_records')} (quarantined)")
        resumed = sum(1 for r in workflow.job_results if r.resumed)
        if resumed:
            print(
                f"resumed from checkpoint: {resumed}/{len(workflow.job_results)} "
                "job(s) restored without re-execution"
            )
        if args.verbose:
            from repro.obs import render_workflow_dashboard

            print(
                render_workflow_dashboard(
                    sink[args.algorithm].workflow.job_results, title=args.algorithm
                )
            )
        if recorder is not None:
            from repro.obs import write_trace

            write_trace(args.trace, recorder, process_name="repro join")
            print(f"wrote trace {args.trace} (load in https://ui.perfetto.dev)")
        if args.metrics:
            from repro.obs import metrics_snapshot, write_metrics

            write_metrics(
                args.metrics,
                metrics_snapshot(
                    {
                        name: result.workflow.job_results
                        for name, result in sink.items()
                    }
                ),
            )
            print(f"wrote metrics {args.metrics}")
        _finish_deep_obs(args, ledger, profiler)
        return 0

    if args.command == "fsck":
        from repro.mapreduce.blocks import BlockPlane
        from repro.mapreduce.localfs import LocalFSDFS

        plane = BlockPlane(LocalFSDFS(args.dfs_root), None, None, 1)
        report = plane.fsck(repair=args.repair)
        if args.verbose:
            for path in sorted(plane.placement.files):
                blocks = plane.placement.files[path]
                print(
                    f"{path}: {len(blocks)} block(s) x "
                    f"{plane.replication} replica(s)"
                )
        for line in report.lines():
            print(line)
        return report.exit_code

    if args.command == "explain":
        from repro.joins.explain import explain
        from repro.query.parser import parse_query

        query = parse_query(args.query)
        workload = synthetic_chain(
            args.n, args.space, names=tuple(query.dataset_keys), seed=args.seed
        )
        grid = derive_grid(workload.datasets, args.grid_cells)
        print(explain(query, workload.datasets, grid))
        return 0

    if args.command == "report":
        from repro.report import render_experiments_markdown

        markdown = render_experiments_markdown(
            scale=args.scale,
            verify=not args.no_verify,
            executor=args.executor,
            num_workers=args.workers,
            kernel=args.kernel,
        )
        target = args.output or "EXPERIMENTS.md"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"wrote {target} ({len(markdown.splitlines())} lines)")
        return 0

    names = sorted(TABLES) if args.command == "all" else [args.command]
    report = _run_tables(names, args)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
