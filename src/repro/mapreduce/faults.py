"""Deterministic fault injection and task recovery (the Hadoop substrate).

The paper runs on Hadoop 0.20.2, whose defining runtime property the
plain engine lacks: *tasks fail and the job survives*.  A TaskTracker
that dies loses its attempts; the JobTracker re-schedules them up to
``mapred.map.max.attempts``; stragglers get speculative backup attempts;
and a chain of jobs resumes from durable intermediate output.  This
module supplies that machinery for the simulated cluster, built around
one headline guarantee:

    **Determinism contract.**  With any :class:`FaultPlan` the cluster
    absorbs (every task succeeds within ``max_attempts``), part files,
    counters (modulo the ``task_*``/``speculative_*`` telemetry) and
    simulated seconds are byte-identical to the fault-free run, on every
    executor.  The recovery telemetry itself — which attempts ran, which
    won, the fault overhead — is identical on every executor too:
    retries, speculation and the watchdog decide on the simulated clock.

The contract holds because task bodies are pure functions of
``(payload, task ids)``, one result per task: a retried or speculative
attempt recomputes the identical result, failed attempts have their
counter shards discarded wholesale, and retries re-use the
already-materialized split rather than re-reading the DFS (the
simulated overhead term models the wasted work instead — see
:meth:`repro.mapreduce.cost.CostModel.fault_overhead_seconds`).

Pieces:

:class:`FaultPlan`
    A seeded, declarative chaos schedule — ``fail task (phase, index,
    attempt)``, ``delay task by X``, ``corrupt worker result``, ``fail
    DFS write`` — that wraps task workers, so every recovery path is
    reproducible byte-for-byte across serial/thread/process executors.
:class:`RetryPolicy`
    Bounded attempts with exponential *simulated* backoff, plus the
    speculative-execution knobs (completion threshold, slowdown factor).
:func:`run_phase_with_recovery`
    The dispatch wrapper the engine calls instead of
    ``executor.run_phase``: capture failures in envelopes, re-dispatch
    failed tasks in deterministic rounds, optionally race backup
    attempts against stragglers picked on the simulated clock, and raise
    :class:`~repro.errors.TaskRetryExhausted` (with the full attempt
    log) only after a task burned every allowed attempt.

Injection semantics mirror what real clusters detect:

* ``fail`` — the attempt dies before producing a result (a lost
  TaskTracker);
* ``delay`` — the attempt takes ``delay_s`` more simulated seconds (a
  straggling node that still makes progress; this is what speculative
  execution races against);
* ``corrupt`` — the attempt completes but its result fails the
  (simulated) checksum, so the engine discards it and retries — Hadoop's
  shuffle/IFile checksum path;
* a ``fail`` spec on the ``write`` phase makes a part-file commit raise
  before any byte lands on the DFS (a failed output commit), retried by
  the engine's write stage;
* ``oom`` — the attempt dies with a memory-exhaustion diagnosis (a
  container killed by the memory cgroup); recovery-wise identical to
  ``fail`` but distinguishable in attempt logs and chaos assertions;
* ``hang`` — the attempt wedges for ``delay_s`` simulated seconds, making
  no progress, and then dies.  Under a :attr:`RetryPolicy.task_timeout_s`
  watchdog shorter than the hang, the attempt is reclaimed at the bound:
  logged with outcome ``"timeout"`` and re-dispatched through the normal
  retry path (Hadoop's ``mapred.task.timeout``);
* ``poison-record`` — map task ``index`` dies on split record
  ``record`` (a :class:`~repro.errors.BadRecordError`).  With
  :attr:`RetryPolicy.max_skipped_records` > 0 the retry *quarantines*
  exactly that record and skips it (Hadoop's skipping mode,
  ``mapred.skip.mode``): the skip is logged with outcome ``"skipped"``,
  does not burn a failure attempt, and the engine writes the
  quarantined records to a DFS side file and counts them under
  ``SKIPPED_RECORDS``;
* ``fail-worker`` — a *scheduler-level* fault: a named virtual worker
  (see :mod:`repro.mapreduce.workers`) dies, losing its in-flight
  attempts (outcome ``"worker_lost"``, never charged) **and** its
  committed map outputs, which Hadoop-style upstream re-execution
  recomputes; a ``silent`` death has no failure report and is caught
  by the heartbeat sweep instead;
* ``join-worker`` — a fresh worker joins the pool mid-job (elastic
  scale-up).  Both worker kinds are one-shot and coordinated by
  :class:`WorkerManager`; the attempt body ignores them.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from repro.errors import (
    BadRecordError,
    FaultPlanError,
    JobError,
    TaskRetryExhausted,
)
from repro.mapreduce.counters import C
from repro.mapreduce.executor import TaskExecutor, TaskWorker
from repro.mapreduce.workers import WorkerPool

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "TaskAttempt",
    "PhaseReport",
    "WorkerManager",
    "WorkerReport",
    "run_phase_with_recovery",
]

#: scheduler-level kinds targeting a *worker* rather than an attempt —
#: ``fail-worker`` kills a named (or the triggering attempt's) worker,
#: losing its in-flight attempts and committed map outputs;
#: ``join-worker`` adds a fresh worker to the pool mid-job.
WORKER_KINDS = ("fail-worker", "join-worker")
#: storage-plane kinds targeting a *block replica* rather than an
#: attempt — ``corrupt-block`` flips a replica's on-disk bytes (caught
#: by the checksum at the next read, which fails over), ``lose-replica``
#: deletes one outright.  Enacted at job start by the block plane; they
#: require ``Cluster(replication=N)``.
STORAGE_KINDS = ("corrupt-block", "lose-replica")
#: injection kinds and the execution phases they may target
KINDS = (
    ("fail", "delay", "corrupt", "oom", "hang", "poison-record")
    + WORKER_KINDS
    + STORAGE_KINDS
)
PHASES = ("map", "reduce", "write")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: *what* happens to *which* attempt.

    ``attempt=None`` hits every attempt (a permanent fault — the way to
    kill a job deliberately); ``job=None`` matches any job, otherwise
    the exact job name.  Instances are plain frozen data: picklable
    (they cross the fork boundary inside phase payloads) and JSON
    round-trippable (the CLI's ``--fault-plan`` file).
    """

    kind: str
    phase: str
    index: int
    attempt: int | None = 0
    job: str | None = None
    #: ``delay``/``hang`` only: the simulated seconds the attempt
    #: straggles, or wedges before it dies
    delay_s: float = 0.0
    #: split-record offset a ``poison-record`` spec poisons (map phase
    #: only): the 0-based position within the task's input split
    record: int | None = None
    #: worker-kind specs only: the named victim of a ``fail-worker``
    #: (``None``: whichever worker ran the triggering attempt) or the
    #: name a ``join-worker`` registers (``None``: auto ``w{N}``)
    worker: str | None = None
    #: ``fail-worker`` only: die without a failure report — detection
    #: falls to the heartbeat sweep, which charges its latency
    silent: bool = False
    #: worker-kind specs only: fire at the first phase boundary after
    #: the cluster's cumulative simulated clock passes this many
    #: seconds, instead of on a triggering attempt
    at_s: float | None = None
    #: storage-kind specs only: the DFS path whose replica is damaged
    path: str | None = None
    #: storage-kind specs only: block index within the file
    block: int = 0
    #: storage-kind specs only: replica index within the block's
    #: failover-ordered holder list
    replica: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise JobError(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.phase not in PHASES:
            raise JobError(f"unknown fault phase {self.phase!r}; choose from {PHASES}")
        if self.index < 0:
            raise JobError(f"fault task index must be >= 0, got {self.index}")
        if self.kind in ("delay", "hang") and self.delay_s <= 0:
            raise JobError(f"{self.kind} faults need delay_s > 0")
        if self.kind == "poison-record":
            if self.phase != "map":
                raise JobError("poison-record faults only target the map phase")
            if self.record is None or self.record < 0:
                raise JobError(
                    "poison-record faults need record >= 0 (the split offset)"
                )
        elif self.record is not None:
            raise JobError(f"{self.kind} faults do not take a record offset")
        if self.kind in WORKER_KINDS:
            if self.phase == "write":
                raise JobError(
                    f"{self.kind} faults target the map or reduce phase, not write"
                )
            if self.delay_s:
                raise JobError(f"{self.kind} faults do not take delay_s")
            if self.at_s is not None:
                if self.at_s < 0:
                    raise JobError(f"at_s must be >= 0, got {self.at_s}")
                if self.kind == "fail-worker" and self.worker is None:
                    raise JobError(
                        "an at-time fail-worker needs an explicit worker "
                        "name (there is no triggering attempt to derive "
                        "the victim from)"
                    )
            if self.silent and self.kind != "fail-worker":
                raise JobError("only fail-worker faults can be silent")
        else:
            if self.worker is not None:
                raise JobError(f"{self.kind} faults do not take a worker name")
            if self.silent:
                raise JobError(f"{self.kind} faults cannot be silent")
            if self.at_s is not None:
                raise JobError(f"{self.kind} faults do not take an at_s trigger")
        if self.kind in STORAGE_KINDS:
            if not self.path:
                raise JobError(
                    f"{self.kind} faults need the DFS path of the file to damage"
                )
            if self.phase == "write":
                raise JobError(
                    f"{self.kind} faults target the map or reduce phase, not write"
                )
            if self.delay_s:
                raise JobError(f"{self.kind} faults do not take delay_s")
            if self.block < 0:
                raise JobError(f"fault block index must be >= 0, got {self.block}")
            if self.replica < 0:
                raise JobError(
                    f"fault replica index must be >= 0, got {self.replica}"
                )
        else:
            if self.path is not None:
                raise JobError(f"{self.kind} faults do not take a path")
            if self.block:
                raise JobError(f"{self.kind} faults do not take a block index")
            if self.replica:
                raise JobError(f"{self.kind} faults do not take a replica index")

    def matches(self, job: str, phase: str, index: int, attempt: int) -> bool:
        if self.at_s is not None:
            return False  # at-time specs fire at phase boundaries instead
        if self.kind in STORAGE_KINDS:
            return False  # storage specs are enacted at job start instead
        return (
            self.phase == phase
            and self.index == index
            and (self.attempt is None or self.attempt == attempt)
            and (self.job is None or self.job == job)
        )


#: the JSON field whitelist for fault-plan specs, derived from the
#: dataclass so schema validation can never drift from the schema
_SPEC_FIELDS = tuple(f.name for f in fields(FaultSpec))


@dataclass
class FaultPlan:
    """A declarative, reproducible chaos schedule for one run.

    Build plans with the fluent helpers (each returns ``self``)::

        plan = (FaultPlan()
                .fail_task("map", 0)                  # first attempt of map task 0 dies
                .fail_task("reduce", 2, attempt=0)    # reduce task 2, attempt 0
                .delay_task("map", 1, delay_s=0.5)    # a straggler for speculation
                .corrupt_result("reduce", 1)          # checksum failure -> retry
                .fail_dfs_write(0))                   # part-00000 commit fails once

    or generate one deterministically from a seed with :meth:`random`.
    Plans serialize to/from JSON (:meth:`to_dict`/:meth:`from_dict`,
    :meth:`dump`/:meth:`load`) for the CLI and CI chaos jobs.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    #: provenance of generated plans (``None`` for hand-built ones)
    seed: int | None = None

    # -- fluent builders ------------------------------------------------
    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def fail_task(
        self,
        phase: str,
        index: int,
        attempt: int | None = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Kill one attempt of a task (``attempt=None``: every attempt)."""
        return self.add(FaultSpec("fail", phase, index, attempt, job))

    def delay_task(
        self,
        phase: str,
        index: int,
        delay_s: float,
        attempt: int | None = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Make one attempt of a task straggle by ``delay_s`` simulated seconds."""
        return self.add(FaultSpec("delay", phase, index, attempt, job, delay_s))

    def corrupt_result(
        self,
        phase: str,
        index: int,
        attempt: int | None = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Complete the attempt but fail its result checksum (discard+retry)."""
        return self.add(FaultSpec("corrupt", phase, index, attempt, job))

    def fail_dfs_write(
        self, index: int, attempt: int | None = 0, job: str | None = None
    ) -> "FaultPlan":
        """Fail the DFS commit of part file ``index`` (before any byte lands)."""
        return self.add(FaultSpec("fail", "write", index, attempt, job))

    def oom_task(
        self,
        phase: str,
        index: int,
        attempt: int | None = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Kill one attempt with a memory-exhaustion diagnosis."""
        return self.add(FaultSpec("oom", phase, index, attempt, job))

    def hang_task(
        self,
        phase: str,
        index: int,
        hang_s: float,
        attempt: int | None = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Wedge one attempt for ``hang_s`` simulated seconds, then kill it.

        A watchdog with ``task_timeout_s < hang_s`` reclaims the attempt
        at ``task_timeout_s`` instead.
        """
        return self.add(FaultSpec("hang", phase, index, attempt, job, hang_s))

    def poison_record(
        self,
        index: int,
        record: int,
        attempt: int | None = None,
        job: str | None = None,
    ) -> "FaultPlan":
        """Poison split record ``record`` of map task ``index``.

        Defaults to ``attempt=None`` (every attempt): a poison record is
        a property of the *data*, so it keeps killing retries until
        skipping mode quarantines it.
        """
        return self.add(
            FaultSpec("poison-record", "map", index, attempt, job, record=record)
        )

    def fail_worker(
        self,
        worker: str | None = None,
        phase: str = "map",
        index: int = 0,
        attempt: int | None = 0,
        job: str | None = None,
        *,
        silent: bool = False,
        at_s: float | None = None,
    ) -> "FaultPlan":
        """Kill a worker: in-flight attempts die, map outputs invalidate.

        Triggered when attempt ``(phase, index, attempt)`` reports in
        (``worker=None``: that attempt's own worker is the victim), or
        at the first phase boundary past ``at_s`` cumulative simulated
        seconds.  ``silent`` suppresses the failure report so the death
        is only caught by the heartbeat sweep.  One-shot: a spec fires
        at most once per cluster lifetime.
        """
        return self.add(
            FaultSpec(
                "fail-worker", phase, index, attempt, job,
                worker=worker, silent=silent, at_s=at_s,
            )
        )

    def join_worker(
        self,
        worker: str | None = None,
        phase: str = "map",
        index: int = 0,
        attempt: int | None = 0,
        job: str | None = None,
        *,
        at_s: float | None = None,
    ) -> "FaultPlan":
        """Add a fresh worker to the pool mid-job (``None``: auto-named).

        Same triggers as :meth:`fail_worker`; the new worker enters the
        assignment rotation immediately — an elastic scale-up riding
        the normal retry/speculation machinery.
        """
        return self.add(
            FaultSpec(
                "join-worker", phase, index, attempt, job,
                worker=worker, at_s=at_s,
            )
        )

    def corrupt_block(
        self,
        path: str,
        block: int = 0,
        replica: int = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Flip replica ``replica`` of block ``block`` of ``path``.

        Enacted at job start by the storage plane (the disk rots before
        the job reads); the damage is *detected* at the first
        checksum-verified read, which drops the replica and fails over
        (``BLOCK_CORRUPTIONS``).  Requires ``Cluster(replication=N)``.
        One-shot; a spec whose path does not exist yet stays pending
        for a later job.
        """
        return self.add(
            FaultSpec(
                "corrupt-block", "map", 0, job=job,
                path=path, block=block, replica=replica,
            )
        )

    def lose_replica(
        self,
        path: str,
        block: int = 0,
        replica: int = 0,
        job: str | None = None,
    ) -> "FaultPlan":
        """Delete replica ``replica`` of block ``block`` of ``path``.

        A vanished disk rather than flipped bits: the loss is counted
        immediately (``REPLICAS_LOST``) and the end-of-job
        re-replication pass restores the target factor.  Same triggers
        and requirements as :meth:`corrupt_block`.
        """
        return self.add(
            FaultSpec(
                "lose-replica", "map", 0, job=job,
                path=path, block=block, replica=replica,
            )
        )

    # -- queries --------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.specs

    @property
    def has_worker_faults(self) -> bool:
        """Whether any spec targets a worker (engages the worker pool)."""
        return any(s.kind in WORKER_KINDS for s in self.specs)

    def worker_specs(self) -> list[FaultSpec]:
        """The worker-kind specs, in declaration order."""
        return [s for s in self.specs if s.kind in WORKER_KINDS]

    @property
    def has_storage_faults(self) -> bool:
        """Whether any spec targets a block replica (needs the plane)."""
        return any(s.kind in STORAGE_KINDS for s in self.specs)

    def storage_specs(self) -> list[FaultSpec]:
        """The storage-kind specs, in declaration order."""
        return [s for s in self.specs if s.kind in STORAGE_KINDS]

    def matching(
        self, job: str, phase: str, index: int, attempt: int
    ) -> list[FaultSpec]:
        """Every spec hitting this attempt, in declaration order."""
        return [s for s in self.specs if s.matches(job, phase, index, attempt)]

    # -- generation / serialization ------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        num_map_tasks: int,
        num_reduce_tasks: int,
        faults: int = 2,
        kinds: tuple[str, ...] = ("fail", "corrupt"),
        max_attempt: int = 0,
    ) -> "FaultPlan":
        """A deterministic plan drawn from ``seed`` — same seed, same chaos.

        Only first-``max_attempt`` attempts are targeted, so any policy
        with ``max_attempts > max_attempt + 1`` absorbs the plan.
        """
        rng = random.Random(seed)
        plan = cls(seed=seed)
        for __ in range(faults):
            phase = rng.choice(("map", "reduce"))
            limit = num_map_tasks if phase == "map" else num_reduce_tasks
            if limit <= 0:
                continue
            plan.add(
                FaultSpec(
                    kind=rng.choice(kinds),
                    phase=phase,
                    index=rng.randrange(limit),
                    attempt=rng.randint(0, max_attempt),
                )
            )
        return plan

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "specs": [asdict(s) for s in self.specs]}

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], source: str | None = None
    ) -> "FaultPlan":
        """Validate and build a plan from its JSON form.

        Every schema violation — an unknown top-level key, spec field,
        ``kind`` or ``phase`` — raises a one-line
        :class:`~repro.errors.FaultPlanError` naming the source (the
        file path, when loaded from disk), the spec index and the
        offending key, instead of silently carrying a spec that never
        fires.
        """
        where = f"{source}: " if source else "fault plan: "
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"{where}expected a JSON object, got {type(data).__name__}"
            )
        for key in data:
            if key not in ("seed", "specs"):
                raise FaultPlanError(
                    f"{where}unknown top-level key {key!r} (known: seed, specs)"
                )
        raw_specs = data.get("specs", [])
        if not isinstance(raw_specs, list):
            raise FaultPlanError(
                f"{where}'specs' must be a list, got {type(raw_specs).__name__}"
            )
        specs = []
        for i, raw in enumerate(raw_specs):
            if not isinstance(raw, dict):
                raise FaultPlanError(
                    f"{where}spec #{i}: expected an object, "
                    f"got {type(raw).__name__}"
                )
            unknown = [k for k in raw if k not in _SPEC_FIELDS]
            if unknown:
                raise FaultPlanError(
                    f"{where}spec #{i}: unknown field {unknown[0]!r} "
                    f"(known: {', '.join(_SPEC_FIELDS)})"
                )
            try:
                specs.append(FaultSpec(**raw))
            except (JobError, TypeError) as exc:
                raise FaultPlanError(f"{where}spec #{i}: {exc}") from exc
        return cls(specs=specs, seed=data.get("seed"))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise JobError(f"cannot load fault plan {path!r}: {exc}") from exc
        return cls.from_dict(data, source=path)


@dataclass(frozen=True)
class RetryPolicy:
    """How much failure the cluster absorbs before giving up.

    ``max_attempts`` is Hadoop's ``mapred.{map,reduce}.max.attempts``:
    the number of times one task may *fail* before the job aborts.  The
    default of 1 keeps the seed's fail-fast behaviour (and its zero
    dispatch overhead); Hadoop 0.20's own default is 4.

    Backoff between attempts is **simulated**, not slept: retry ``k``
    charges ``backoff_base_s * 2**(k-1)`` simulated seconds to the job's
    fault-overhead term, keeping test wall time unaffected and the
    charge deterministic.

    Every time below is in *simulated* seconds: an attempt lasts its
    task's priced seconds (the engine's cost model) plus any injected
    ``delay``, so the decisions are the same on every executor.

    Speculation (off by default) launches a backup attempt for a running
    task once the phase is at least ``speculation_threshold`` complete
    and the task has been running longer than ``speculation_factor``
    times the median finished-task duration.  The earlier finisher wins
    (ties go to the original); the loser's result and counter shard are
    discarded, so speculation can change *telemetry* but never output.

    ``task_timeout_s`` (off by default) arms the hung-task watchdog: an
    attempt that stops making progress (a ``hang``) for longer than this
    bound is reclaimed at it, logged with outcome ``"timeout"``, charged
    as a failure, and re-dispatched through the retry path — Hadoop's
    ``mapred.task.timeout``.  A slow attempt that keeps making progress
    (a ``delay``) is left to speculation.

    ``max_skipped_records`` (0 = off) enables Hadoop-style skipping
    mode: a map attempt that dies on one identifiable record
    (:class:`~repro.errors.BadRecordError`) is retried with that record
    quarantined instead of burning a failure attempt, up to this many
    records per task.

    ``blacklist_after`` (0 = off) arms per-worker failure accounting:
    every charged task failure strikes the worker that ran the attempt,
    and a worker reaching this many strikes is blacklisted — no new
    assignments, its capacity removed from the pool — Hadoop's
    ``mapred.max.tracker.failures`` TaskTracker blacklist.  Setting it
    engages the worker pool even without a fault plan.

    ``heartbeat_interval_s`` is the *simulated* latency of detecting a
    silently-dead worker (one missed heartbeat), charged to the job's
    recovery-overhead term when a ``fail-worker`` spec is ``silent``;
    workers that die with a failure report are detected for free.
    """

    max_attempts: int = 1
    backoff_base_s: float = 1.0
    speculate: bool = False
    speculation_threshold: float = 0.75
    speculation_factor: float = 1.5
    task_timeout_s: float | None = None
    max_skipped_records: int = 0
    blacklist_after: int = 0
    heartbeat_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise JobError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 < self.speculation_threshold <= 1.0:
            raise JobError("speculation_threshold must be in (0, 1]")
        if self.speculation_factor <= 1.0:
            raise JobError("speculation_factor must be > 1")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise JobError("task_timeout_s must be > 0 (or None to disable)")
        if self.max_skipped_records < 0:
            raise JobError(
                f"max_skipped_records must be >= 0, got {self.max_skipped_records}"
            )
        if self.blacklist_after < 0:
            raise JobError(
                f"blacklist_after must be >= 0, got {self.blacklist_after}"
            )
        if self.heartbeat_interval_s <= 0:
            raise JobError(
                f"heartbeat_interval_s must be > 0, got {self.heartbeat_interval_s}"
            )

    def backoff_before(self, attempt: int) -> float:
        """Simulated seconds charged before launching retry ``attempt``."""
        if attempt <= 0:
            return 0.0
        return self.backoff_base_s * (2.0 ** (attempt - 1))

    @property
    def active(self) -> bool:
        """Whether recovery dispatch is needed at all."""
        return (
            self.max_attempts > 1
            or self.speculate
            or self.task_timeout_s is not None
            or self.max_skipped_records > 0
            or self.blacklist_after > 0
        )


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt's outcome, as recorded in the task's attempt history.

    ``outcome`` is ``"ok"`` (the winning attempt), ``"failed"`` (raised),
    ``"corrupt"`` (completed but failed the simulated checksum),
    ``"lost"`` (killed because its race partner finished first — a
    discarded speculative loser), ``"timeout"`` (reclaimed by the
    hung-task watchdog), ``"worker_lost"`` (the attempt's worker died
    under it — never charged: the attempt did nothing wrong, so Hadoop
    reschedules it without burning one of the task's allowed failures)
    or ``"skipped"`` (died on one bad record that skipping mode
    quarantined — the follow-up dispatch does not count as a failure).
    ``duration_s`` is the attempt's simulated seconds and ``backoff_s``
    the simulated backoff charged before it launched.
    """

    attempt: int
    outcome: str
    speculative: bool = False
    error: str = ""
    duration_s: float = 0.0
    backoff_s: float = 0.0


@dataclass
class PhaseReport:
    """Recovery telemetry of one phase, merged into counters and cost."""

    attempts: list[list[TaskAttempt]]
    launched: int = 0
    failures: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    #: total simulated backoff charged across every retry
    backoff_s: float = 0.0
    #: attempts abandoned by the hung-task watchdog
    timeouts: int = 0
    #: per task: quarantined ``(offset, path, lineno, record_repr)``
    #: tuples, in skip order (empty when skipping mode never fired)
    skipped: list[list[tuple]] = field(default_factory=list)

    @property
    def extra_attempts(self) -> int:
        """Attempts beyond the one-per-task minimum (retries + backups)."""
        return self.launched - len(self.attempts)

    @property
    def skipped_records(self) -> int:
        """Total records quarantined by skipping mode in this phase."""
        return sum(len(s) for s in self.skipped)


# ----------------------------------------------------------------------
# Worker failure domains: the per-job coordinator the dispatchers call
# into when the pool is engaged.
# ----------------------------------------------------------------------
@dataclass
class WorkerReport:
    """Worker-domain telemetry of one job, merged into counters/cost."""

    worker_failures: int = 0
    workers_blacklisted: int = 0
    workers_joined: int = 0
    map_output_lost: int = 0
    tasks_reexecuted: int = 0
    #: in-flight attempts that vanished with their worker (never
    #: charged as task failures — includes speculative losers)
    lost_attempts: int = 0
    #: simulated heartbeat latency of detecting silent deaths
    detection_s: float = 0.0
    #: map task ids whose committed output was recomputed (duplicates
    #: possible if a task's output is lost more than once)
    reexec_map_tasks: list[int] = field(default_factory=list)
    #: locality telemetry (block plane engaged): map tasks whose first
    #: attempt landed on a worker holding their split's blocks...
    locality_hits: int = 0
    #: ...and tasks that fell back rack-blind, pulling their split
    #: across the simulated network
    locality_misses: int = 0
    #: bytes those misses moved — charged to the network-overhead term
    remote_read_bytes: int = 0

    @property
    def engaged(self) -> bool:
        """Whether anything worker-related actually happened."""
        return bool(
            self.worker_failures
            or self.workers_blacklisted
            or self.workers_joined
            or self.map_output_lost
            or self.lost_attempts
        )


class WorkerManager:
    """Per-job coordinator of the worker failure domain.

    The engine creates one per job when the pool is engaged (the fault
    plan has worker specs, or ``policy.blacklist_after > 0``).  It owns
    the job-scoped state — which worker committed which map output,
    which deaths are queued for the liveness sweep, the telemetry
    report — while the :class:`~repro.mapreduce.workers.WorkerPool`
    itself lives for the whole cluster, so deaths and blacklists
    persist across the jobs of a chained workflow.

    Death protocol (mirrors a lost TaskTracker):

    1. a ``fail-worker`` spec fires — on a triggering attempt's
       completion report, or at a phase boundary for ``at_s`` specs —
       and the victim is *queued* (``queue_death``);
    2. the dispatcher's liveness sweep enacts it (``enact_pending``):
       the worker is marked dead, its in-flight attempts are recorded
       as ``worker_lost`` (uncharged) and re-dispatched, and every
       committed map output it owned is invalidated;
    3. invalidated map tasks re-execute — in-phase during the map
       phase, or (during the reduce phase) via the engine's deferred
       re-execution callback once the surviving reduce attempts drain,
       with the recomputed results discarded (map tasks are pure
       functions of ``(payload, index)``, so byte-identity holds).

    Detection is ``"report"`` for ordinary deaths (the failure report
    doubles as the death notice) and ``"heartbeat"`` for silent ones,
    which charge :attr:`RetryPolicy.heartbeat_interval_s` of simulated
    detection latency to the recovery-overhead term.
    """

    def __init__(
        self,
        pool: WorkerPool,
        plan: FaultPlan | None,
        job: str,
        policy: RetryPolicy,
        recorder=None,
        ledger=None,
        elapsed_s: float = 0.0,
    ) -> None:
        self.pool = pool
        self.job = job
        self.policy = policy
        self.recorder = (
            recorder if recorder is not None and recorder.enabled else None
        )
        self.ledger = ledger if ledger is not None and ledger.enabled else None
        #: cumulative simulated seconds at job start (at_s triggers)
        self.elapsed_s = elapsed_s
        self.report = WorkerReport()
        self.phase = ""
        #: committed map output ownership: task id -> worker name
        self.map_owners: dict[int, str] = {}
        self._specs = plan.worker_specs() if plan is not None else []
        self._pending_deaths: list[tuple[str, FaultSpec | None]] = []
        self._dying: set[str] = set()
        self._reexec = None
        self._deferred_reexec: list[int] = []
        #: split locality from the block plane: task -> (preferred
        #: workers in failover order, split bytes); empty unless the
        #: engine threads it in for a map phase
        self._localities: dict[int, tuple[tuple[str, ...], int]] = {}
        #: tasks whose locality was already scored (hit/miss counts
        #: once per task, on the first attempt's assignment)
        self._locality_scored: set[int] = set()

    # -- phase lifecycle -----------------------------------------------
    def begin_phase(self, phase: str, reexec=None, localities=None) -> None:
        """Enter a phase; ``reexec`` re-runs map tasks (reduce phase).

        ``localities`` (map phase, block plane engaged) maps task index
        to ``(preferred workers, split bytes)`` — the scheduler's
        data-local placement hints.

        Fires any pending at-time specs: the phase boundary is where
        the scheduler consults the simulated clock.
        """
        self.phase = phase
        self._reexec = reexec
        self._localities = dict(localities) if localities else {}
        self._locality_scored = set()
        for spec in self._specs:
            if spec.at_s is None or spec in self.pool.fired:
                continue
            if spec.job is not None and spec.job != self.job:
                continue
            if self.elapsed_s < spec.at_s:
                continue
            self.pool.fired.add(spec)
            if spec.kind == "join-worker":
                self.enact_join(spec)
            else:
                self.queue_death(spec.worker, spec)
        # No attempts are in flight at a boundary, so enacting here
        # only kills workers and invalidates prior-phase map outputs.
        self.enact_pending()

    def assign(self, index: int, attempt: int) -> str:
        """The worker for this attempt — data-local when possible.

        With locality hints present, the first attempt of a map task
        prefers a live holder of its split's blocks; the hit or miss is
        scored exactly once per task (on that first assignment) so the
        ``LOCALITY_HITS``/``LOCALITY_MISSES`` counters reconcile 1:1
        with the ledger's ``locality`` events, and a miss charges the
        split's bytes as a remote read.
        """
        hint = self._localities.get(index)
        if hint is None:
            return self.pool.assign(index, attempt)
        preferred, nbytes = hint
        worker = self.pool.assign_preferring(index, attempt, preferred)
        if index not in self._locality_scored:
            self._locality_scored.add(index)
            hit = worker in preferred
            if hit:
                self.report.locality_hits += 1
            else:
                self.report.locality_misses += 1
                self.report.remote_read_bytes += nbytes
            if self.ledger is not None:
                self.ledger.event(
                    "locality",
                    task=index,
                    worker=worker,
                    hit=hit,
                    bytes=0 if hit else nbytes,
                )
        return worker

    def task_completed(self, index: int, worker: str | None) -> None:
        """Record the winning attempt's worker as the output's owner."""
        if self.phase == "map" and worker is not None:
            self.map_owners[index] = worker

    # -- triggers ------------------------------------------------------
    def worker_events_for(self, index: int, attempt: int) -> list[FaultSpec]:
        """Worker specs this attempt triggers (consumed: one-shot)."""
        hits = []
        for spec in self._specs:
            if spec.at_s is not None or spec in self.pool.fired:
                continue
            if spec.matches(self.job, self.phase, index, attempt):
                self.pool.fired.add(spec)
                hits.append(spec)
        return hits

    def queue_death(self, victim: str | None, spec: FaultSpec | None) -> None:
        """Schedule a worker death for the next liveness sweep."""
        if victim is None:
            return
        self._pending_deaths.append((victim, spec))
        self._dying.add(victim)

    @property
    def has_pending_deaths(self) -> bool:
        return bool(self._pending_deaths)

    def is_lost_worker(self, name: str | None) -> bool:
        """Whether results from ``name`` must be discarded (dead/dying)."""
        if name is None:
            return False
        return name in self._dying or not self.pool.state(name).alive

    def enact_join(self, spec: FaultSpec) -> None:
        joined = self.pool.join(spec.worker)
        if joined is None:
            return  # the name already exists — a node cannot join twice
        self.report.workers_joined += 1
        if self.ledger is not None:
            self.ledger.event("worker_joined", worker=joined, phase=self.phase)
        if self.recorder is not None:
            self.recorder.instant(
                "worker-joined",
                cat="worker",
                track="workers",
                args={"worker": joined, "active": len(self.pool.active())},
            )

    # -- enactment -----------------------------------------------------
    def enact_pending(self) -> tuple[list[str], list[int]]:
        """Kill queued workers; returns (victims, in-phase re-runs).

        The second element lists map task ids whose committed output
        the *current map phase* must re-dispatch; reduce-phase
        invalidations are deferred to the engine callback instead,
        which re-runs them once the reduce rounds have drained.
        """
        victims: list[str] = []
        invalidated: list[int] = []
        while self._pending_deaths:
            victim, spec = self._pending_deaths.pop(0)
            self._dying.discard(victim)
            if not self.pool.kill(victim):
                continue  # already dead: nothing new to lose
            silent = spec is not None and spec.silent
            detected = "heartbeat" if silent else "report"
            self.report.worker_failures += 1
            if silent:
                self.report.detection_s += self.policy.heartbeat_interval_s
            if self.ledger is not None:
                self.ledger.event(
                    "worker_lost",
                    worker=victim,
                    phase=self.phase,
                    detected=detected,
                )
            if self.recorder is not None:
                self.recorder.instant(
                    "worker-lost",
                    cat="worker",
                    track="workers",
                    args={
                        "worker": victim,
                        "detected": detected,
                        "active": len(self.pool.active()),
                    },
                )
            victims.append(victim)
            invalidated.extend(self._invalidate(victim))
        return victims, invalidated

    def _invalidate(self, victim: str) -> list[int]:
        """Lose every committed map output the victim owned."""
        lost = sorted(t for t, w in self.map_owners.items() if w == victim)
        if not lost:
            return []
        for t in lost:
            del self.map_owners[t]
        self.report.map_output_lost += len(lost)
        self.report.tasks_reexecuted += len(lost)
        self.report.reexec_map_tasks.extend(lost)
        if self.ledger is not None:
            self.ledger.event(
                "output_invalidated",
                worker=victim,
                phase=self.phase,
                tasks=lost,
                reexecuted=len(lost),
            )
        if self.recorder is not None:
            self.recorder.instant(
                "output-invalidated",
                cat="worker",
                track="workers",
                args={"worker": victim, "tasks": lost},
            )
        if self.phase == "map":
            return lost
        self._deferred_reexec.extend(lost)
        return []

    def run_deferred_reexecution(self) -> None:
        """Re-run map tasks invalidated during the reduce phase.

        Called by the engine after the reduce dispatch drains; the
        recomputed results are discarded (the tasks are pure, so they
        are identical to the lost originals) — only the simulated
        recovery-overhead charge and the telemetry remain.
        """
        if not self._deferred_reexec or self._reexec is None:
            return
        tasks = sorted(set(self._deferred_reexec))
        self._deferred_reexec.clear()
        self._reexec(tasks)

    # -- failure accounting --------------------------------------------
    def strike(self, worker: str | None) -> None:
        """Charge one task failure against ``worker`` (may blacklist)."""
        if worker is None or self.policy.blacklist_after <= 0:
            return
        state = self.pool.state(worker)
        if not state.alive or state.blacklisted:
            return
        strikes = self.pool.strike(worker)
        if strikes < self.policy.blacklist_after:
            return
        self.pool.blacklist(worker)
        self.report.workers_blacklisted += 1
        if self.ledger is not None:
            self.ledger.event(
                "worker_blacklisted",
                worker=worker,
                strikes=strikes,
                phase=self.phase,
            )
        if self.recorder is not None:
            self.recorder.instant(
                "worker-blacklisted",
                cat="worker",
                track="workers",
                args={
                    "worker": worker,
                    "strikes": strikes,
                    "active": len(self.pool.active()),
                },
            )


def _mark_worker_lost(
    report: PhaseReport,
    workers: "WorkerManager",
    index: int,
    attempt: int,
    speculative: bool,
    duration_s: float,
    worker_name: str,
    recorder,
    phase: str,
    ledger=None,
) -> None:
    """An attempt vanished with its worker: log it, charge nothing."""
    report.attempts[index].append(
        TaskAttempt(
            attempt=attempt,
            outcome="worker_lost",
            speculative=speculative,
            error=f"worker {worker_name} died with the attempt in flight",
            duration_s=duration_s,
        )
    )
    report.launched += 1
    workers.report.lost_attempts += 1
    if ledger is not None:
        ledger.event(
            "task_attempt",
            phase=phase,
            task=index,
            attempt=attempt,
            outcome="worker_lost",
            speculative=speculative,
            charged=False,
            duration_s=round(duration_s, 6),
            worker=worker_name,
        )
    if recorder is not None and recorder.enabled:
        recorder.instant(
            "worker-lost-attempt",
            cat="attempt",
            track=f"{phase} attempts",
            args={"task": index, "attempt": attempt, "worker": worker_name},
        )


# ----------------------------------------------------------------------
# The attempt envelope: recovery-dispatched workers never raise across
# the executor boundary — they capture success/failure in an _Outcome so
# the engine can retry per task instead of aborting the whole phase.
# ----------------------------------------------------------------------
@dataclass
class _AttemptPhase:
    """Payload wrapper carrying the task body plus one round's slots.

    ``worker`` is the phase's task body: ``worker(inner, tasks)`` runs
    the logical tasks ``tasks`` (a range, or a tuple of ids) as one
    physical range and returns one result per task, in order.

    A round addresses its attempts by *slot* (an index into ``slots``),
    each an ``(index, attempt, speculative, skips, worker_name)`` tag,
    and dispatches them as ranges of slots.  ``skips`` is the tuple of
    quarantined split offsets a skipping-mode retry must not touch;
    ``worker_name`` is the virtual worker the scheduler assigned the
    attempt to (``None`` when the pool is disengaged) — it rides the
    tag so worker-loss bookkeeping is identical on every executor, but
    the attempt body itself never consults it (workers are virtual).
    Everything here is fork-inherited or picklable.  The fast path
    wraps the body with no slots (:func:`_run_range`).
    """

    inner: Any
    worker: TaskWorker
    slots: tuple[tuple[int, int, bool, tuple[int, ...], str | None], ...]
    plan: FaultPlan | None
    job: str
    phase: str


@dataclass
class _Outcome:
    """What one attempt hands back (picklable; ``value`` only when ok).

    ``t_start``/``t_end`` are worker-side wall stamps for the trace;
    every scheduling decision uses ``duration_s``, the attempt's
    simulated seconds, priced parent-side once its round is back.
    """

    index: int
    attempt: int
    speculative: bool
    ok: bool = False
    value: Any = None
    corrupt: bool = False
    error: str = ""
    t_start: float = 0.0
    t_end: float = 0.0
    #: set when the failure was a BadRecordError — the skipping-mode
    #: quarantine entry ``(offset, path, lineno, record_repr)``
    bad_record: tuple | None = None
    #: simulated seconds the attempt's ``delay`` specs add
    delay_s: float = 0.0
    #: simulated seconds a ``hang`` spec wedges the attempt (0: none)
    hang_s: float = 0.0
    duration_s: float = 0.0
    #: the watchdog reclaimed the hung attempt
    timed_out: bool = False

    @property
    def outcome_name(self) -> str:
        if self.ok:
            return "ok"
        if self.timed_out:
            return "timeout"
        return "corrupt" if self.corrupt else "failed"


def _run_range(phase: _AttemptPhase, tasks) -> list:
    """The fast path's unit: the task body over one range of tasks.

    An exception out of a range of several tasks re-runs them one at a
    time, in order, so the lowest failing task raises its own error —
    exactly what per-task dispatch raises.  Each re-run task's result
    counts the fallback (:func:`_count_rerun`).
    """
    try:
        return phase.worker(phase.inner, tasks)
    except Exception:
        if len(tasks) == 1:
            raise
    values = [value for task in tasks for value in phase.worker(phase.inner, (task,))]
    for value in values:
        _count_rerun(value)
    return values


def _count_rerun(value: Any) -> None:
    """Count one range fallback (``C.RANGE_RERUNS``) on a re-run task
    result's counter shard, when it carries one (the engine's do)."""
    counters = getattr(value, "counters", None)
    if counters is not None:
        counters.add(C.GROUP_ENGINE, C.RANGE_RERUNS)


def _run_attempt(phase: _AttemptPhase, unit) -> list[_Outcome]:
    """One range of fault-instrumented attempts: inject, run, capture.

    ``unit`` is a range of slots; one outcome per slot comes back.  The
    fault decision is made per attempt before anything runs: an attempt
    planned to ``fail``, ``oom`` or ``hang`` dies at once and is cut out
    of the range, and the others run as one call of the task body.

    Nothing here waits: ``delay`` and ``hang`` specs only stamp their
    simulated seconds on the outcome, and a hung attempt dies at once.
    Worker-kind specs are scheduler-level faults: they match attempts
    (as triggers) but inject nothing here.
    """
    outcomes = []
    run = []
    for slot in unit:
        index, attempt, speculative, skips, __ = phase.slots[slot]
        out = _Outcome(index, attempt, speculative, t_start=time.perf_counter())
        outcomes.append(out)
        specs = (
            phase.plan.matching(phase.job, phase.phase, index, attempt)
            if phase.plan is not None
            else ()
        )
        where = f"{phase.phase} task {index} attempt {attempt} of job {phase.job!r}"
        out.delay_s = sum(spec.delay_s for spec in specs if spec.kind == "delay")
        hang = next((spec for spec in specs if spec.kind == "hang"), None)
        death = next((spec for spec in specs if spec.kind in ("fail", "oom")), None)
        if hang is not None:
            out.hang_s = hang.delay_s
            out.error = f"injected hang: {where} wedged for {hang.delay_s}s and died"
        elif death is not None and death.kind == "fail":
            out.error = f"injected failure: {where}"
        elif death is not None:
            out.error = f"injected OOM: {where} exceeded its container memory limit"
        else:
            corrupt = any(spec.kind == "corrupt" for spec in specs)
            poison = tuple(spec.record for spec in specs if spec.kind == "poison-record")
            run.append((out, skips, poison, where if corrupt else None))
            continue
        out.t_end = out.t_start
    if run:
        _run_attempt_range(phase, run)
    return outcomes


def _run_attempt_range(phase: _AttemptPhase, run: list) -> None:
    """Run the surviving attempts of a range as one body call and fill
    in their outcomes.

    ``run`` holds ``(outcome, skips, poison, corrupt_where)`` per
    attempt.  An exception out of a range of several attempts re-runs
    them one at a time: each attempt's outcome — and so the attempt
    log, the charges and the telemetry — is what it would be had the
    attempt been dispatched alone, plus ``C.RANGE_RERUNS`` on the
    counter shard of each re-run attempt that succeeds.
    """
    tasks = tuple(out.index for out, *__ in run)
    t_start = time.perf_counter()
    try:
        if getattr(phase.worker, "supports_record_skipping", False):
            values = phase.worker(
                phase.inner,
                tasks,
                skips=tuple(item[1] for item in run),
                poison=tuple(item[2] for item in run),
            )
        else:
            values = phase.worker(phase.inner, tasks)
    except Exception as exc:  # noqa: BLE001 - captured, not propagated
        if len(run) > 1:
            for item in run:
                _run_attempt_range(phase, [item])
                if item[0].ok:
                    _count_rerun(item[0].value)
            return
        out = run[0][0]
        out.error = str(exc)
        if isinstance(exc, BadRecordError):
            out.bad_record = (exc.offset, exc.path, exc.lineno, exc.record)
        out.t_start, out.t_end = t_start, time.perf_counter()
        return
    t_end = time.perf_counter()
    for (out, __, __, corrupt_where), value in zip(run, values):
        # A task result that carries its worker-side stamps (the
        # engine's do: its share of the range) times the attempt.
        out.t_start = getattr(value, "t_start", t_start)
        out.t_end = getattr(value, "t_end", t_end)
        if corrupt_where is not None:
            out.corrupt = True
            out.error = (
                f"injected corruption: {corrupt_where} failed its result checksum"
            )
        else:
            out.ok = True
            out.value = value


def _flat_price(value: Any) -> float:
    """The default attempt price: one simulated second, whatever ran."""
    return 1.0


def _price_round(
    outcomes: list[_Outcome], policy: RetryPolicy, price: Callable[[Any], float]
) -> None:
    """Stamp each outcome's simulated seconds (and the watchdog's verdict).

    An attempt costs its task's priced seconds (``price(value)``; a
    failed attempt has no value and costs ``price(None)``) plus its
    ``delay`` specs.  A hung attempt costs its hang instead — or, when
    the watchdog's ``task_timeout_s`` is shorter, that bound: the
    watchdog reclaims it as ``"timeout"``.
    """
    timeout = policy.task_timeout_s
    for out in outcomes:
        if out.hang_s:
            out.timed_out = timeout is not None and timeout < out.hang_s
            base = timeout if out.timed_out else out.hang_s
        else:
            base = price(out.value if out.ok else None)
        out.duration_s = out.delay_s + base
        if out.timed_out:
            out.error = f"watchdog: attempt exceeded task_timeout_s={timeout}"


def _stragglers(
    attempts: list[tuple[int, float, bool]],
    finished: list[float],
    num_tasks: int,
    policy: RetryPolicy,
    slots: int | None,
) -> dict[int, tuple[float, float]]:
    """Hadoop's speculation rule, applied to one round on the simulated clock.

    ``attempts`` are the round's ``(index, seconds, ok)`` in task-id
    order; they are list-scheduled onto ``slots`` cluster slots (``None``:
    one each).  ``finished`` holds the simulated seconds of tasks settled
    in earlier rounds.  Once ``speculation_threshold`` of the phase has
    finished, an attempt still running longer than ``speculation_factor``
    times the median finished duration earns a backup, which takes the
    first slot that frees after that moment and holds it.  Returns
    ``{index: (original's end, backup's start)}``.
    """
    free = [0.0] * (slots or len(attempts))
    placed = []
    for index, seconds, ok in attempts:
        start = heapq.heappop(free)
        heapq.heappush(free, start + seconds)
        placed.append((index, start, start + seconds, ok))
    need = max(1, int(num_tasks * policy.speculation_threshold))
    done = list(finished)
    # Between two completions the median is constant, so each epoch
    # [t0, t1) fires a backup at the first moment its rule holds.
    epochs = [(0.0, None)] + sorted(
        (end, end - start) for __, start, end, ok in placed if ok
    )
    fires: dict[int, tuple[float, float]] = {}
    for k, (t0, seconds) in enumerate(epochs):
        if seconds is not None:
            done.append(seconds)
        if len(done) < need:
            continue
        t1 = epochs[k + 1][0] if k + 1 < len(epochs) else math.inf
        median = sorted(done)[len(done) // 2]
        for index, start, end, __ in placed:
            t = max(t0, start + policy.speculation_factor * median)
            if index not in fires and t < t1 and t < end:
                fires[index] = (t, end)
    backups = {}
    for index, (t, end) in sorted(fires.items(), key=lambda kv: (kv[1][0], kv[0])):
        slot_free = heapq.heappop(free)
        start = max(t, slot_free)
        if start < end:  # else the original finished before a slot freed
            backups[index] = (end, start)
            slot_free = math.inf
        heapq.heappush(free, slot_free)
    return backups


# ----------------------------------------------------------------------
# Recovery dispatch
# ----------------------------------------------------------------------
def run_phase_with_recovery(
    executor: TaskExecutor,
    worker: TaskWorker,
    ranges: list[range],
    payload: Any,
    *,
    job: str,
    phase: str,
    policy: RetryPolicy,
    plan: FaultPlan | None = None,
    recorder=None,
    ledger=None,
    workers: WorkerManager | None = None,
    price: Callable[[Any], float] = _flat_price,
    slots: int | None = None,
) -> tuple[list, PhaseReport | None]:
    """Run a phase with retry/speculation; returns (results, report).

    ``worker`` is the phase's task body: ``worker(payload, tasks)`` runs
    the logical tasks ``tasks`` as one physical range and returns one
    result per task.  ``ranges`` cuts the phase's tasks ``0 .. n - 1``
    into contiguous ranges, in order; ``results`` holds one result per
    logical task.

    The fast path — no fault plan, an inactive policy, no worker pool —
    is one ``executor.run_phase`` call over ``ranges``: no envelopes, no
    telemetry (``report`` is ``None``).
    Otherwise tasks run inside attempt envelopes, in deterministic
    rounds (:func:`_run_retry_rounds`): failures are captured and
    re-dispatched (fresh attempt id, simulated backoff) until they
    succeed or burn ``policy.max_attempts`` failures, at which point
    :class:`~repro.errors.TaskRetryExhausted` carries the task's full
    attempt log out of the phase.

    ``price(task_result)`` gives a successful attempt's simulated
    seconds and ``price(None)`` a failed one's; the engine passes its
    cost model's task pricing and the phase's ``slots``.  Speculation
    and the watchdog decide on those simulated seconds alone, so every
    executor, at every worker count, runs the same attempts.

    ``ledger`` (a :class:`repro.obs.ledger.NullLedger`-compatible
    object, or ``None``) receives one ``task_attempt`` event per
    recorded attempt — carrying an explicit ``charged`` flag, since an
    attempt can fail without being charged (a speculative loser) — plus
    ``task_retry``, ``task_skip`` and ``speculation_launch`` events from
    the paths that emit them.

    ``workers`` (a :class:`WorkerManager`, engine-built when the pool
    is engaged) threads the named-worker assignment through every
    attempt tag and lets the rounds enact worker deaths, output
    invalidation and blacklisting; ``None`` leaves behaviour
    bit-for-bit unchanged.
    """
    if ledger is not None and not ledger.enabled:
        ledger = None
    env = _AttemptPhase(
        inner=payload, worker=worker, slots=(), plan=plan, job=job, phase=phase
    )
    if (plan is None or plan.is_empty) and not policy.active and workers is None:
        per_range = executor.run_phase(_run_range, ranges, env)
        return [value for values in per_range for value in values], None
    if not ranges:
        return [], PhaseReport(attempts=[], skipped=[])
    return _run_retry_rounds(
        executor, env, ranges, policy, recorder, ledger, workers, price, slots
    )


def _record_attempt(
    report: PhaseReport,
    out: _Outcome,
    backoff_s: float,
    recorder,
    phase: str,
    outcome: str | None = None,
    ledger=None,
) -> None:
    """File one outcome into the report (and the trace/ledger, if on).

    ``outcome`` overrides the outcome name for dispositions the outcome
    object cannot know about: ``"skipped"`` (the failure was one bad
    record that skipping mode quarantines) and ``"lost"`` (a sibling
    attempt finished first and this one was killed).  Neither is
    charged as a task failure.
    """
    attempt = TaskAttempt(
        attempt=out.attempt,
        outcome=outcome or out.outcome_name,
        speculative=out.speculative,
        error="" if outcome == "lost" else out.error,
        duration_s=out.duration_s,
        backoff_s=backoff_s,
    )
    report.attempts[out.index].append(attempt)
    report.launched += 1
    charged = not out.ok and attempt.outcome not in ("skipped", "lost")
    if charged:
        report.failures += 1
    if ledger is not None:
        ledger.event(
            "task_attempt",
            phase=phase,
            task=out.index,
            attempt=out.attempt,
            outcome=attempt.outcome,
            speculative=out.speculative,
            charged=charged,
            duration_s=round(out.duration_s, 6),
            **({"error": attempt.error} if attempt.error else {}),
        )
    if recorder is not None and recorder.enabled:
        recorder.add_span(
            f"{phase}-{out.index}-a{out.attempt}",
            cat="attempt",
            track=f"{phase} attempts",
            start=out.t_start,
            end=out.t_end,
            args={
                "task": out.index,
                "attempt": out.attempt,
                "outcome": attempt.outcome,
                "speculative": out.speculative,
                **({"error": attempt.error} if attempt.error else {}),
            },
        )


def _exhausted_error(
    job: str, phase: str, index: int, attempts: list[TaskAttempt], last_error: str
) -> TaskRetryExhausted:
    n = sum(1 for a in attempts if a.outcome in ("failed", "corrupt", "timeout"))
    log = "; ".join(
        f"attempt {a.attempt}{' (speculative)' if a.speculative else ''}: "
        f"{a.outcome}{f' - {a.error}' if a.error else ''}"
        for a in attempts
    )
    return TaskRetryExhausted(
        f"{last_error} [{phase} task {index} of job {job!r} failed "
        f"{n} attempt(s); log: {log}]",
        attempts=tuple(attempts),
    )


def _retry_backoff(
    report: PhaseReport,
    policy: RetryPolicy,
    index: int,
    attempt: int,
    recorder,
    phase: str,
    ledger=None,
) -> float:
    """Charge (and trace) the simulated backoff before retry ``attempt``."""
    backoff = policy.backoff_before(attempt)
    report.backoff_s += backoff
    if ledger is not None:
        ledger.event(
            "task_retry",
            phase=phase,
            task=index,
            attempt=attempt,
            backoff_s=backoff,
        )
    if recorder is not None and recorder.enabled:
        recorder.instant(
            "retry-backoff",
            cat="attempt",
            track=f"{phase} attempts",
            args={"task": index, "attempt": attempt, "backoff_simulated_s": backoff},
        )
    return backoff


def _run_retry_rounds(
    executor: TaskExecutor,
    env: _AttemptPhase,
    ranges: list[range],
    policy: RetryPolicy,
    recorder,
    ledger=None,
    workers: WorkerManager | None = None,
    price: Callable[[Any], float] = _flat_price,
    slots: int | None = None,
) -> tuple[list, PhaseReport]:
    """Deterministic round-based recovery: the one dispatch loop.

    Round 0 runs every task at attempt 0, as the phase's ``ranges``
    (:func:`_run_attempt` cuts an attempt planned to die out of its
    range); each later round re-dispatches, in task-id order and as
    ranges of one, the tasks the previous round left unsettled — retries
    and speculative backups alike.  Each
    round is one ``executor.run_phase`` call, and every decision is made
    parent-side from the round's outcomes and their simulated seconds,
    so results, attempt logs and the raising task (the lowest exhausted
    id of the earliest failing round) are identical on every executor.

    Skipping mode rides the same rounds: an attempt that died on one
    bad record re-dispatches with the record quarantined instead of
    charging a failure, bounded per task by
    ``policy.max_skipped_records`` (past the bound the bad record is an
    ordinary failure again).

    Under ``policy.speculate``, :func:`_stragglers` picks the round's
    stragglers and their backups run in the next round.  The earlier
    simulated finisher of a race wins (ties go to the original) and the
    other is logged ``"lost"``; a first finisher that failed is charged,
    and the sibling still decides the task.

    With an engaged ``workers`` manager, every slot carries its
    assigned worker name, and the between-rounds step doubles as the
    liveness sweep: worker faults triggered by this round's attempts
    are enacted before any of the round's results are accepted, so an
    attempt that was in flight on a dying worker loses its result
    (outcome ``"worker_lost"``, uncharged) and invalidated committed
    map outputs rejoin the pending set — the round boundary is the
    simulated heartbeat.
    """
    num_tasks = sum(len(r) for r in ranges)
    results: list[Any] = [None] * num_tasks
    report = PhaseReport(
        attempts=[[] for __ in range(num_tasks)],
        skipped=[[] for __ in range(num_tasks)],
    )
    failed_counts = [0] * num_tasks
    launch_counts = [0] * num_tasks  # next attempt id (skips included)
    skips: list[tuple[int, ...]] = [() for __ in range(num_tasks)]
    next_backoff = [0.0] * num_tasks
    supports_skip = getattr(env.worker, "supports_record_skipping", False)
    #: simulated seconds of every settled task (the speculation median)
    finished: list[float] = []
    #: stragglers racing this round's backups: index -> (outcome,
    #: worker, simulated end, the backup's simulated start)
    racing: dict[int, tuple[_Outcome, str | None, float, float]] = {}
    retry: list[int] = []

    def accept(out: _Outcome, worker_name: str | None) -> None:
        i = out.index
        _record_attempt(
            report, out, 0.0 if out.speculative else next_backoff[i],
            recorder, env.phase, ledger=ledger,
        )
        results[i] = out.value
        finished.append(out.duration_s)
        if out.speculative:
            report.speculative_wins += 1
        if workers is not None:
            workers.task_completed(i, worker_name)

    def fail(out: _Outcome, worker_name: str | None, sibling: bool = False) -> None:
        """Settle a failed attempt; ``sibling``: its race partner still runs."""
        i = out.index
        backoff = 0.0 if out.speculative else next_backoff[i]
        if (
            out.bad_record is not None
            and supports_skip
            and policy.max_skipped_records > 0
            and out.bad_record[0] not in skips[i]
            and len(report.skipped[i]) < policy.max_skipped_records
        ):
            # One bad record, quarantine budget left: log the attempt
            # as "skipped" and re-dispatch without it — no failure
            # charged, no backoff (the record is gone, the retry is
            # expected to work).
            _record_attempt(
                report, out, backoff, recorder, env.phase,
                outcome="skipped", ledger=ledger,
            )
            report.skipped[i].append(out.bad_record)
            skips[i] = skips[i] + (out.bad_record[0],)
            if ledger is not None:
                offset, path, lineno, __ = out.bad_record
                ledger.event(
                    "task_skip",
                    phase=env.phase,
                    task=i,
                    offset=offset,
                    path=path,
                    lineno=lineno,
                )
            if not sibling:
                retry.append(i)
            return
        _record_attempt(report, out, backoff, recorder, env.phase, ledger=ledger)
        report.timeouts += out.timed_out
        failed_counts[i] += 1
        if workers is not None:
            workers.strike(worker_name)
        if sibling:
            return  # the sibling may yet win
        if failed_counts[i] >= policy.max_attempts:
            raise _exhausted_error(
                env.job, env.phase, i, report.attempts[i], out.error
            )
        next_backoff[i] = _retry_backoff(
            report, policy, i, failed_counts[i], recorder, env.phase, ledger
        )
        retry.append(i)

    def settle(out: _Outcome, worker_name: str | None) -> None:
        if out.ok:
            accept(out, worker_name)
        else:
            fail(out, worker_name)

    def race(backup: _Outcome, backup_worker: str | None, lost: set[str]) -> None:
        """Resolve a straggler against its backup: first finisher wins."""
        original, original_worker, end, start = racing.pop(backup.index)
        runners = []
        for rank, (out, name, finish) in enumerate(
            (
                (original, original_worker, end),
                (backup, backup_worker, start + backup.duration_s),
            )
        ):
            if name is not None and name in lost:
                _mark_worker_lost(
                    report, workers, out.index, out.attempt, out.speculative,
                    out.duration_s, name, recorder, env.phase, ledger,
                )
            else:
                runners.append((finish, rank, out, name))
        runners.sort(key=lambda r: r[:2])
        if not runners:
            retry.append(backup.index)
        elif len(runners) == 1:
            settle(runners[0][2], runners[0][3])
        else:
            (__, __, first, first_worker), (__, __, second, second_worker) = runners
            if first.ok:
                accept(first, first_worker)
                _record_attempt(
                    report, second, 0.0, recorder, env.phase,
                    outcome="lost", ledger=ledger,
                )
            else:
                fail(first, first_worker, sibling=True)
                settle(second, second_worker)

    pending = list(range(num_tasks))
    # Round 0's table lists every task in id order, so its slot ranges
    # are the task ranges; later rounds run every slot alone.
    units: list | None = ranges
    while pending:
        table = []
        for i in pending:
            assigned = (
                workers.assign(i, launch_counts[i])
                if workers is not None
                else None
            )
            table.append((i, launch_counts[i], i in racing, skips[i], assigned))
            launch_counts[i] += 1
        round_env = _AttemptPhase(
            inner=env.inner,
            worker=env.worker,
            slots=tuple(table),
            plan=env.plan,
            job=env.job,
            phase=env.phase,
        )
        if units is None:
            units = [(slot,) for slot in range(len(table))]
        outcomes = [
            out
            for range_outcomes in executor.run_phase(_run_attempt, units, round_env)
            for out in range_outcomes
        ]
        units = None
        _price_round(outcomes, policy, price)
        lost_workers: set[str] = set()
        invalidated: list[int] = []
        if workers is not None:
            # Scheduler-side pass first: worker faults trigger as the
            # round's attempts report in (slot order), then the sweep
            # enacts every queued death before results are accepted.
            for out, slot in zip(outcomes, table):
                for spec in workers.worker_events_for(out.index, out.attempt):
                    if spec.kind == "join-worker":
                        workers.enact_join(spec)
                    else:
                        workers.queue_death(spec.worker or slot[4], spec)
            victims, invalidated = workers.enact_pending()
            lost_workers = set(victims)
        held = {}
        if policy.speculate:
            # The round's own attempts on its timeline (backups belong
            # to the last round's), minus those lost with their worker.
            own = [
                (out, slot[4])
                for out, slot in zip(outcomes, table)
                if not out.speculative and slot[4] not in lost_workers
            ]
            backups = _stragglers(
                [(out.index, out.duration_s, out.ok) for out, __ in own],
                finished, num_tasks, policy, slots,
            )
            for out, name in own:
                if out.index in backups:
                    held[out.index] = (out, name, *backups[out.index])
                    _launch_backup(
                        report, out.index, launch_counts[out.index],
                        recorder, env.phase, ledger,
                    )
        retry = []
        for out, slot in zip(outcomes, table):  # slot order == task-id order
            i = out.index
            if out.speculative:
                race(out, slot[4], lost_workers)
            elif slot[4] is not None and slot[4] in lost_workers:
                # The attempt was in flight on the dying worker: its
                # result died with the node — not charged, re-run.
                _mark_worker_lost(
                    report, workers, i, out.attempt, out.speculative,
                    out.duration_s, slot[4], recorder, env.phase, ledger,
                )
                retry.append(i)
            elif i not in held:
                settle(out, slot[4])
        for t in invalidated:
            # Committed output from an earlier round died with its
            # worker: the task runs again (fresh attempt id, uncharged).
            results[t] = None
            retry.append(t)
        racing = held
        pending = sorted(set(retry) | set(racing))
    return results, report


def _launch_backup(
    report: PhaseReport, index: int, attempt: int, recorder, phase: str, ledger
) -> None:
    """Count (and log) one speculative backup, run in the next round."""
    report.speculative_launched += 1
    if ledger is not None:
        ledger.event("speculation_launch", phase=phase, task=index, attempt=attempt)
    if recorder is not None and recorder.enabled:
        recorder.instant(
            "speculative-launch",
            cat="attempt",
            track=f"{phase} attempts",
            args={"task": index, "attempt": attempt},
        )
