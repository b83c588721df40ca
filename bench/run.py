"""The repo's benchmark suite: four algorithms x four workloads.

    python3 bench/run.py [--seed 11] [--out FILE]           # whole suite
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, checks every output, and
exits non-zero when any operation failed.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  See ``README.md`` in this directory.

Each workload is measured in fresh subprocesses of this same file
(``--worker``): one full run, plus further set-up-only runs so that
``setup_s`` is a median too.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
#: set-up is timed in this many fresh subprocesses per workload
SETUP_RUNS = 3
#: a worker that takes longer than this is killed and counted as failed
WORKER_TIMEOUT_S = 170


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="budget of the timed passes (default: run_seconds of BENCHMARK.json)",
    )
    p.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=1,
        help="1: three timed passes, then the traced and plane passes; "
        "0: timed passes only, as many as fit in --seconds",
    )
    p.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    p.add_argument("--quick", action="store_true", help="smoke run at one-tenth n")
    p.add_argument("--out", help="write the full result (and FILE.spans.jsonl) here")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    p.add_argument("--spans-out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Worker: one workload in this process
# ----------------------------------------------------------------------
def _worker(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import workloads
    from repro import Cluster

    def log(line: str) -> None:
        print(line, file=sys.stderr)

    kernel = Cluster().resolved_kernel
    if kernel != "numpy":
        log(f"error: the suite measures the numpy kernel, resolved {kernel!r}")
        return 2
    record = harness.run_workload(
        workloads.by_name(args.workload),
        args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        t0=args.t0,
        setup_only=args.setup_only,
        nproc=_nproc(),
        log=log,
    )
    record["kernel"] = kernel
    span_lists = record.pop("spans", {})
    if args.spans_out:
        with open(args.spans_out, "a") as f:
            for algo, span_list in span_lists.items():
                row = {"workload": record["workload"], "algorithm": algo, "spans": span_list}
                f.write(json.dumps(row) + "\n")
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: subprocesses, report, result line
# ----------------------------------------------------------------------
def _spawn(args: argparse.Namespace, workload: str, *extra: str) -> dict | None:
    """Run one worker subprocess to its end; its record, or ``None``."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.time()),
        *(["--quick"] if args.quick else []),
        *extra,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: worker for {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"error: worker for {workload} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def _fingerprint(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            # never look for a repository above the checkout
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "load_1m": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def _run_workload(args: argparse.Namespace, workload: str, spans_out: str | None) -> dict:
    """All subprocesses of one workload, merged into one record."""
    extra = ["--spans-out", spans_out] if spans_out else []
    main = _spawn(args, workload, *extra)
    setups = [_spawn(args, workload, "--setup-only") for _ in range(SETUP_RUNS - 1)]
    runs = [main, *setups]
    record = main or {"workload": workload, "e2e": {}, "errors": ["worker died"]}
    record["attempted"] = sum(r["attempted"] if r else 1 for r in runs)
    record["failed"] = sum(r["failed"] if r else 1 for r in runs)
    record["failed_share"] = record["failed"] / record["attempted"]
    for r in setups:
        record["errors"] += r["errors"] if r else ["set-up worker died"]
    if main is not None:
        setup_samples = [r["setup_s"] for r in runs if r]
        record["samples"]["setup_s"] = setup_samples
        record["e2e"]["setup_s"] = statistics.median(setup_samples)
    return record


def _print_metrics(title: str, values: dict, declared: dict, samples: dict) -> None:
    print(f"  {title}")
    for name, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        notes = []
        if name in samples:
            how = "median" if name == "setup_s" else "fastest"
            notes.append(f"{how} of {len(samples[name])}")
        if "bound" in declared[name]:
            notes.append(f"bound {declared[name]['bound']:.0%}")
        print(f"    {name:<48} {shown:>12} {declared[name]['unit']:<6} {'  '.join(notes)}")


def _report(record: dict, declared: dict) -> None:
    print(
        f"\n{record['workload']}: n={record.get('n')} side={record.get('side')} "
        f"query={record.get('query')!r} executor={record.get('executor')} "
        f"workers={record.get('workers')} kernel={record.get('kernel')} "
        f"passes={record.get('passes')} "
        f"digest={record.get('digest')}"
    )
    _print_metrics("end to end", record["e2e"], declared, record.get("samples", {}))
    print(
        f"    {'failed_share':<48} {record['failed_share']:>12.6g} "
        f"{'share':<6} {record['failed']} of {record['attempted']} operations"
    )
    if "per_layer" in record:
        _print_metrics("per layer", record["per_layer"], declared, {})
    for line in record["errors"]:
        print(f"  FAILED: {line}")


def _result_line(args: argparse.Namespace, records: list[dict], declared: dict) -> dict:
    """The contract's last line; one workload's metrics, or the suite's."""
    if args.workload:
        (record,) = records
        values = record.get("per_layer", {}) if args.trace else record["e2e"]
    else:
        values = {
            f"{r['workload']}/{name}": value
            for r in records
            for name, value in r["e2e"].items()
        }
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name.rpartition("/")[2]]["unit"]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.worker:
        return _worker(args)

    names = [w["name"] for w in manifest["workloads"]]
    if args.workload and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    fingerprint = _fingerprint(args)
    print("environment: " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))
    if fingerprint["load_1m"] > 0.5 * fingerprint["nproc"]:
        print(
            f"warning: 1-minute load {fingerprint['load_1m']:.2f} exceeds half of "
            f"{fingerprint['nproc']} CPUs; timings will be noisy"
        )
    spans_out = f"{args.out}.spans.jsonl" if args.out and args.trace else None
    if spans_out:
        Path(spans_out).write_text("")
    records = []
    for workload in [args.workload] if args.workload else names:
        record = _run_workload(args, workload, spans_out)
        _report(record, declared)
        records.append(record)
    result = _result_line(args, records, declared)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"environment": fingerprint, "workloads": records}, indent=1)
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
