"""The run ledger: an append-only journal of typed run events.

Where the trace recorder answers "what did the run look like" (spans on
a timeline), the ledger answers "what *happened*, durably": a JSONL
journal of typed events a cluster operator can grep, tail, or replay
after the process is gone.  One run emits

* one ``run_manifest`` — the configuration under which everything below
  executed (kernel, executor, worker count, seed, memory budget, ...);
* ``job_start`` / ``job_commit`` brackets per engine job, the commit
  carrying the final counters and simulated seconds;
* ``task_attempt`` events from the recovery layer — every launch with
  its outcome (``ok``/``failed``/``corrupt``/``lost``/``timeout``/
  ``skipped``), plus ``task_retry`` backoff charges, ``task_skip``
  quarantines, and ``speculation_launch`` markers;
* ``spill`` events per map task that exceeded its memory budget;
* ``checkpoint_write`` / ``checkpoint_restore`` events from the
  workflow's manifest path;
* worker failure-domain events when the cluster's pool is engaged —
  ``worker_lost`` (with its ``detected`` mode), ``output_invalidated``
  (the committed map outputs that died with the worker, and how many
  re-executed), ``worker_blacklisted``, ``worker_joined`` — plus
  ``warning`` events such as the block plane's under-replication notice;
* durable-storage events when the block plane is engaged
  (``Cluster(replication=N)``) — ``block_corruption`` (a checksum
  failure detected at read, failed over), ``replica_lost`` (with its
  ``reason``: a fault, a missing replica file, or ``worker_lost``),
  ``block_rereplicated`` (one healing copy, with its bytes) and
  ``locality`` (one per map task: did its first attempt land on a
  worker holding its split's blocks?).

Two implementations share one API, mirroring the recorder pair:

:class:`NullLedger`
    The default: ``enabled`` is ``False`` and every call is a no-op, so
    an unledgered run pays one attribute check per instrumentation
    point (``bench/run.py``'s plane pass measures the engaged ledger
    against it as ``plane.ledger.overhead_ratio``).
:class:`RunLedger`
    Stamps each event with a sequence number and seconds-since-epoch
    offset and appends it to a pluggable sink (:class:`MemorySink` for
    tests, :class:`JsonlSink` for durable files).

The reader half (:func:`read_ledger`, :class:`LedgerRun`) reconstructs
a run from its journal.  Replay is exact by construction: the emitting
sites are the same code paths that feed the engine counters, and each
``task_attempt`` event carries an explicit ``charged`` flag (an
attempt can end without being charged as a task failure — a ``lost``
speculative loser, a ``skipped`` bad record, a ``worker_lost``), so
``LedgerRun`` job tallies reproduce ``TASK_ATTEMPTS``/``TASK_FAILURES``
et al. without re-deriving recovery policy.

Like the trace recorder, the ledger is an observer: writing one never
changes counters, part files or simulated seconds.  This module
imports nothing from the engine, so every layer can depend on it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "NullLedger",
    "RunLedger",
    "MemorySink",
    "JsonlSink",
    "LedgerRun",
    "JobRecord",
    "read_ledger",
]

#: event types a ledger may emit (the reader accepts unknown types too,
#: for forward compatibility — they land in the event stream untallied)
EVENT_TYPES = (
    "run_manifest",
    "job_start",
    "job_commit",
    "task_attempt",
    "task_retry",
    "task_skip",
    "speculation_launch",
    "spill",
    "checkpoint_write",
    "checkpoint_restore",
    "worker_lost",
    "worker_blacklisted",
    "worker_joined",
    "output_invalidated",
    "block_corruption",
    "replica_lost",
    "block_rereplicated",
    "locality",
    "warning",
)


class MemorySink:
    """Collects events in a list — the test double."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def append(self, event: dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        return None


class JsonlSink:
    """Appends events as JSON lines to a host-filesystem file.

    The file opens lazily on the first event and is line-buffered, so a
    crashed run leaves every completed event readable (the append-only
    durability a journal exists for).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    def append(self, event: dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8", buffering=1)
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class NullLedger:
    """The zero-overhead default ledger: every call is a no-op.

    The engine and recovery layer are instrumented unconditionally but
    guard each site with ``ledger.enabled``, so the disabled cost is a
    single attribute lookup per site.
    """

    enabled: bool = False

    def manifest(self, **config: Any) -> None:
        """Record the run configuration (once; no-op here)."""
        return None

    def event(self, type_: str, **fields: Any) -> None:
        """Append one typed event (no-op here)."""
        return None

    def close(self) -> None:
        """Flush and close the sink (no-op here)."""
        return None


class RunLedger(NullLedger):
    """Journals typed events through a sink, stamped and sequenced.

    ``seq`` is a monotonically increasing event number (the total order
    of the journal); ``t_s`` is seconds since the ledger's construction
    — wall offsets for humans, never fed back into any computation.
    One ledger may span many jobs and clusters, like the recorder.
    """

    enabled = True

    def __init__(self, sink: MemorySink | JsonlSink | None = None) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.epoch = time.perf_counter()
        self.seq = 0
        self._manifested = False

    def manifest(self, **config: Any) -> None:
        """Record the run configuration.  First call wins.

        The CLI manifests before the engine does (it knows the seed and
        command line); a bare ``Cluster`` manifests its own config on
        the first job.  Either way exactly one ``run_manifest`` event
        leads the journal.
        """
        if self._manifested:
            return
        self._manifested = True
        self.event("run_manifest", config=dict(config))

    def event(self, type_: str, **fields: Any) -> None:
        record = {
            "type": type_,
            "seq": self.seq,
            "t_s": round(time.perf_counter() - self.epoch, 6),
        }
        record.update(fields)
        self.seq += 1
        self.sink.append(record)

    def close(self) -> None:
        self.sink.close()


# ----------------------------------------------------------------------
# Reader / replay
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """One job reconstructed from its journal bracket.

    The tallies mirror the engine counters the emitting sites feed:
    ``attempts`` counts launches of map/reduce tasks (write-phase
    retries are charged to ``failures`` but, like the engine's
    ``TASK_ATTEMPTS``, never to ``attempts``), ``failures`` counts
    events with ``charged=True`` across all phases.
    """

    name: str
    started: bool = False
    committed: bool = False
    restored: bool = False
    events: list[dict[str, Any]] = field(default_factory=list)
    attempts: int = 0
    failures: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    timeouts: int = 0
    skipped_records: int = 0
    spilled_records: int = 0
    spill_files: int = 0
    spill_bytes: int = 0
    checkpoint_writes: int = 0
    worker_failures: int = 0
    workers_blacklisted: int = 0
    workers_joined: int = 0
    map_outputs_lost: int = 0
    tasks_reexecuted: int = 0
    #: storage-plane tallies (block plane engaged): checksum failures
    #: detected at read, replicas lost (faults, dead workers), healing
    #: copies, and map-task locality outcomes
    block_corruptions: int = 0
    replicas_lost: int = 0
    blocks_rereplicated: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    #: in-flight attempts recorded as ``worker_lost`` — never charged
    #: as task failures (includes speculative losers on dead workers)
    lost_attempts: int = 0
    warnings: list[dict[str, Any]] = field(default_factory=list)
    simulated_seconds: float | None = None
    counters: dict[str, Any] = field(default_factory=dict)

    def tally(self, event: dict[str, Any]) -> None:
        """Fold one event of this job into the replay counts."""
        self.events.append(event)
        etype = event.get("type")
        if etype == "job_start":
            self.started = True
        elif etype == "job_commit":
            self.committed = True
            self.simulated_seconds = event.get("simulated_s")
            self.counters = dict(event.get("counters", {}))
        elif etype == "task_attempt":
            if event.get("phase") in ("map", "reduce"):
                self.attempts += 1
            if event.get("charged"):
                self.failures += 1
            if event.get("outcome") == "timeout":
                self.timeouts += 1
            if event.get("outcome") == "ok" and event.get("speculative"):
                self.speculative_wins += 1
            if event.get("outcome") == "worker_lost":
                self.lost_attempts += 1
        elif etype == "task_skip":
            self.skipped_records += 1
        elif etype == "speculation_launch":
            self.speculative_launches += 1
        elif etype == "spill":
            self.spilled_records += event.get("records", 0)
            self.spill_files += event.get("files", 0)
            self.spill_bytes += event.get("bytes", 0)
        elif etype == "checkpoint_write":
            self.checkpoint_writes += 1
        elif etype == "checkpoint_restore":
            self.restored = True
        elif etype == "worker_lost":
            self.worker_failures += 1
        elif etype == "worker_blacklisted":
            self.workers_blacklisted += 1
        elif etype == "worker_joined":
            self.workers_joined += 1
        elif etype == "output_invalidated":
            self.map_outputs_lost += len(event.get("tasks", ()))
            self.tasks_reexecuted += event.get("reexecuted", 0)
        elif etype == "block_corruption":
            self.block_corruptions += 1
        elif etype == "replica_lost":
            self.replicas_lost += 1
        elif etype == "block_rereplicated":
            self.blocks_rereplicated += 1
        elif etype == "locality":
            if event.get("hit"):
                self.locality_hits += 1
            else:
                self.locality_misses += 1
        elif etype == "warning":
            self.warnings.append(event)


@dataclass
class LedgerRun:
    """A whole run reconstructed from its journal.

    Events between a ``job_start`` and its ``job_commit`` attribute to
    that job (the engine runs jobs one at a time parent-side, so the
    brackets never interleave); ``checkpoint_*`` events fire outside
    the bracket and carry an explicit ``job`` field instead.
    """

    manifest: dict[str, Any] | None = None
    jobs: list[JobRecord] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_events(cls, events: list[dict[str, Any]]) -> "LedgerRun":
        run = cls(events=list(events))
        by_name: dict[str, JobRecord] = {}
        current: JobRecord | None = None

        def record_for(name: str) -> JobRecord:
            job = by_name.get(name)
            if job is None:
                job = by_name[name] = JobRecord(name=name)
                run.jobs.append(job)
            return job

        for event in events:
            etype = event.get("type")
            if etype == "run_manifest":
                if run.manifest is None:
                    run.manifest = dict(event.get("config", {}))
                continue
            named = event.get("job")
            if etype == "job_start":
                current = record_for(named or "?")
                current.tally(event)
                continue
            if etype == "job_commit":
                job = record_for(named) if named else current
                if job is not None:
                    job.tally(event)
                current = None
                continue
            # Mid-bracket events attribute to the open job; out-of-band
            # events (checkpoints) name their job explicitly.
            job = record_for(named) if named else current
            if job is not None:
                job.tally(event)
        return run

    @classmethod
    def from_file(cls, path: str) -> "LedgerRun":
        return cls.from_events(read_ledger(path))

    def job(self, name: str) -> JobRecord | None:
        for job in self.jobs:
            if job.name == name:
                return job
        return None

    @property
    def total_attempts(self) -> int:
        return sum(j.attempts for j in self.jobs)

    @property
    def total_failures(self) -> int:
        return sum(j.failures for j in self.jobs)


def read_ledger(path: str) -> list[dict[str, Any]]:
    """Load a JSONL journal back into its event list (blank lines skipped)."""
    events: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
