"""Chained map-reduce jobs (a "round" of jobs in the paper's wording).

Controlled-Replicate is "a round of two map-reduce jobs" and the 2-way
Cascade is a chain of per-join jobs; :class:`Workflow` runs such chains
sequentially with a barrier between jobs (job N+1 only reads what job N
wrote to the DFS) and aggregates counters and simulated time.

The workflow also polices the typed-record handoff: when job N declares
an ``output_codec``, a later job reading N's output directory must
declare the same codec for that path (or none, falling back to raw
lines) — a *different* codec would silently decode one format's lines
through another format's parser, so it is rejected up front.

Checkpoint/resume (the fault-tolerance layer's chain-level recovery):
with a ``checkpoint_dir`` on the cluster, the workflow persists a JSONL
manifest — one record per *completed* job carrying its name, output
path, codec, counters, cost breakdown, task stats and an output
fingerprint (``(part file, size)`` pairs) — rewritten through the DFS
after every job.  A resumed workflow (``cluster.resume``, or
:meth:`Workflow.resume`) restores any job whose manifest record still
matches its durable output instead of re-executing it: job 1 of a
Controlled-Replicate round survives a crash in job 2, exactly as a
re-submitted Hadoop chain reuses intermediate HDFS directories.
Restored results carry the original counters and simulated seconds
(JSON floats round-trip exactly), so a resumed chain's totals match an
uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.data.io import RecordCodec
from repro.errors import DFSError, JobError
from repro.mapreduce.counters import C, Counters
from repro.mapreduce.cost import JobCostBreakdown, TaskStats
from repro.mapreduce.engine import Cluster, JobResult
from repro.mapreduce.job import MapReduceJob

__all__ = ["Workflow", "WorkflowResult", "MANIFEST_FILE"]

#: manifest file name under the cluster's ``checkpoint_dir``
MANIFEST_FILE = "workflow-manifest.jsonl"


def _stats_dict(stats: TaskStats) -> dict[str, int]:
    """JSON form of one task's volumes (attempt telemetry is not
    persisted — a restored job reports the work, not the chaos)."""
    return {
        "input_records": stats.input_records,
        "input_bytes": stats.input_bytes,
        "output_records": stats.output_records,
        "output_bytes": stats.output_bytes,
        "compute_ops": stats.compute_ops,
    }


@dataclass
class WorkflowResult:
    """Aggregated outcome of a job chain."""

    job_results: list[JobResult] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Sum of the chained jobs' simulated durations (sequential barrier)."""
        return sum(r.simulated_seconds for r in self.job_results)

    @property
    def shuffled_records(self) -> int:
        """Total intermediate key-value pairs across all jobs."""
        return sum(r.shuffled_records for r in self.job_results)

    @property
    def wall_clock_seconds(self) -> float:
        """Measured host-machine duration of the chained jobs."""
        return sum(r.wall_clock_seconds for r in self.job_results)

    @property
    def counters(self) -> Counters:
        """Merged counters of every job."""
        merged = Counters()
        for r in self.job_results:
            merged.merge(r.counters)
        return merged

    @property
    def final_output_path(self) -> str:
        """Output directory of the last job in the chain."""
        if not self.job_results:
            raise ValueError("workflow ran no jobs")
        return self.job_results[-1].output_path

    def job(self, name: str) -> JobResult:
        """Look up a job result by name."""
        for r in self.job_results:
            if r.job_name == name:
                return r
        raise KeyError(f"no job named {name!r} in workflow")


class Workflow:
    """Run jobs sequentially on one cluster, collecting their results."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.result = WorkflowResult()
        #: output path -> output codec of jobs run so far (codec handoff)
        self._output_codecs: dict[str, RecordCodec | None] = {}
        #: manifest records of jobs completed *this* run, rewritten to
        #: the checkpoint file after each job
        self._manifest_records: list[dict] = []
        #: job name -> manifest record loaded from a previous run
        self._completed: dict[str, dict] = {}
        self._resuming = False
        if cluster.resume and cluster.checkpoint_dir is not None:
            self._load_manifest()

    # ------------------------------------------------------------------
    # Checkpoint manifest
    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return f"{self.cluster.checkpoint_dir}/{MANIFEST_FILE}"

    def _load_manifest(self) -> None:
        """Load a previous run's completion records (if any) for resume."""
        self._resuming = True
        dfs = self.cluster.dfs
        if not dfs.exists(self._manifest_path):
            return
        for lineno, line in enumerate(dfs.read_file(self._manifest_path)):
            try:
                record = json.loads(line)
                name = record["name"]
            except (ValueError, TypeError, KeyError) as exc:
                raise JobError(
                    f"corrupt workflow manifest {self._manifest_path!r} "
                    f"at line {lineno}: {exc}"
                ) from exc
            self._completed[name] = record

    def _checkpoint(self, job: MapReduceJob, result: JobResult, record=None) -> None:
        """Persist one completed job; the manifest is rewritten whole.

        Called after every job (executed or restored), so the manifest
        always fingerprints exactly the chain prefix completed so far.
        """
        if self.cluster.checkpoint_dir is None:
            return
        if record is None:
            record = {
                "name": job.name,
                "output_path": job.output_path,
                "codec": job.output_codec.name if job.output_codec else None,
                "counters": result.counters.as_dict(),
                "cost": result.cost.as_dict(),
                "output_records": result.output_records,
                "map_tasks": [_stats_dict(t) for t in result.map_tasks],
                "reduce_tasks": [_stats_dict(t) for t in result.reduce_tasks],
                "parts": self.cluster.dfs.dir_manifest(job.output_path),
            }
        self._manifest_records.append(record)
        self.cluster.dfs.write_file(
            self._manifest_path,
            [
                json.dumps(r, separators=(",", ":"), sort_keys=True)
                for r in self._manifest_records
            ],
        )
        plane = self.cluster.dfs.block_plane
        if plane is not None:
            # The checkpoint is a commit point: its blocks' placement
            # must be on disk with it.
            plane.flush()
        led = self.cluster.ledger
        if led.enabled:
            # Checkpoint events carry an explicit job name: they fire
            # outside the job_start/job_commit bracket, so the ledger
            # reader cannot infer the job from position.
            led.event(
                "checkpoint_write",
                job=record["name"],
                path=self._manifest_path,
                jobs_completed=len(self._manifest_records),
            )

    def _try_restore(self, job: MapReduceJob) -> JobResult | None:
        """Rebuild a job's result from its checkpoint, or ``None``.

        A record only restores when it still describes this job (same
        output path and codec) *and* the durable output matches the
        checkpointed fingerprint file-for-file and byte-for-byte —
        anything else re-executes the job.
        """
        record = self._completed.get(job.name)
        if record is None:
            return None
        codec_name = job.output_codec.name if job.output_codec else None
        if record.get("output_path") != job.output_path:
            return None
        if record.get("codec") != codec_name:
            return None
        parts = [(f, size) for f, size in record.get("parts", [])]
        if not parts:
            return None  # every job writes >= 1 part; no fingerprint, no trust
        try:
            if self.cluster.dfs.dir_manifest(job.output_path) != parts:
                return None
        except DFSError:
            return None
        counters = Counters()
        for group, names in record["counters"].items():
            for name, value in names.items():
                counters.add(group, name, value)
        cost = record["cost"]
        return JobResult(
            job_name=job.name,
            output_path=job.output_path,
            counters=counters,
            map_tasks=[TaskStats(**t) for t in record["map_tasks"]],
            reduce_tasks=[TaskStats(**t) for t in record["reduce_tasks"]],
            cost=JobCostBreakdown(
                startup_s=cost["startup_s"],
                map_s=cost["map_s"],
                shuffle_s=cost["shuffle_s"],
                reduce_s=cost["reduce_s"],
                fault_overhead_s=cost.get("fault_overhead_s", 0.0),
                spill_overhead_s=cost.get("spill_overhead_s", 0.0),
                recovery_overhead_s=cost.get("recovery_overhead_s", 0.0),
            ),
            output_records=record["output_records"],
            resumed=True,
        )

    def _check_codec_handoff(self, job: MapReduceJob) -> None:
        for path in job.input_paths:
            if path not in self._output_codecs:
                continue
            produced = self._output_codecs[path]
            consumed = job.input_codec_for(path)
            if consumed is None or produced is None:
                continue  # raw-line reads are always valid
            if consumed.name != produced.name:
                raise JobError(
                    f"job {job.name!r} reads {path!r} with codec "
                    f"{consumed.name!r} but the upstream job wrote it "
                    f"with codec {produced.name!r}"
                )

    def run(self, job: MapReduceJob) -> JobResult:
        """Run one job and record its result.

        When the cluster carries a live trace recorder, each job also
        gets a chain-level span on the ``workflow`` track whose args are
        the job's counter deltas (its own counters *are* the deltas —
        every job runs against a fresh :class:`Counters`) plus the
        cumulative position in the chain, so a Perfetto timeline shows
        where each chained job's volume came from.
        """
        self._check_codec_handoff(job)
        rec = self.cluster.recorder
        if self._resuming:
            restored = self._try_restore(job)
            if restored is not None:
                led = self.cluster.ledger
                if led.enabled:
                    led.event(
                        "checkpoint_restore",
                        job=job.name,
                        simulated_s=restored.simulated_seconds,
                    )
                if rec.enabled:
                    rec.instant(
                        f"resume:{job.name}",
                        cat="workflow-job",
                        track="workflow",
                        args={
                            "chain_index": len(self.result.job_results),
                            "simulated_s": restored.simulated_seconds,
                        },
                    )
                self._output_codecs[job.output_path] = job.output_codec
                self.result.job_results.append(restored)
                self._checkpoint(job, restored, record=self._completed[job.name])
                return restored
            # Not restorable: any partial output of the crashed attempt
            # is stale — drop it so the re-run starts clean (the join
            # algorithms skip their own delete-preambles under resume).
            if self.cluster.dfs.exists(job.output_path):
                self.cluster.dfs.delete(job.output_path)
        with rec.span(job.name, cat="workflow-job", track="workflow") as span:
            job_result = self.cluster.run_job(job)
            span.set("chain_index", len(self.result.job_results))
            span.set("simulated_s", job_result.simulated_seconds)
            span.set(
                "cumulative_simulated_s",
                self.result.simulated_seconds + job_result.simulated_seconds,
            )
            eng = job_result.counters.engine
            span.set("map_output_records", eng(C.MAP_OUTPUT_RECORDS))
            span.set("reduce_input_records", eng(C.REDUCE_INPUT_RECORDS))
            span.set("reduce_output_records", eng(C.REDUCE_OUTPUT_RECORDS))
            span.set("dfs_bytes_read", eng(C.DFS_BYTES_READ))
            span.set("dfs_bytes_written", eng(C.DFS_BYTES_WRITTEN))
        self._output_codecs[job.output_path] = job.output_codec
        self.result.job_results.append(job_result)
        self._checkpoint(job, job_result)
        return job_result

    def run_all(self, jobs: list[MapReduceJob]) -> WorkflowResult:
        """Run a pre-built chain in order."""
        for job in jobs:
            self.run(job)
        return self.result

    def resume(self, jobs: list[MapReduceJob]) -> WorkflowResult:
        """Re-run a chain, skipping jobs checkpointed as complete.

        Explicit-resume form of ``cluster.resume``: loads the manifest
        (when not already loaded) and runs the chain — every job whose
        record still matches its durable output is restored, everything
        else (the failed suffix) executes normally.
        """
        if self.cluster.checkpoint_dir is None:
            raise JobError("Workflow.resume() needs a cluster checkpoint_dir")
        if not self._resuming:
            self._load_manifest()
        return self.run_all(jobs)
