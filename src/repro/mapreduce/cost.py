"""Analytic cost model translating job volumes into simulated wall-clock.

The reproduction runs in a single process, so end-to-end times cannot be
measured the way the paper measures them on its 16-core Hadoop cluster.
Instead every job records the volumes Hadoop's own cost is driven by —
bytes read, records mapped, bytes shuffled, reduce-side records/compute,
bytes written — and this model converts them into seconds on a modelled
cluster.  The model deliberately contains the two effects the paper's
analysis (Section 6.4) attributes the naive methods' slowness to:

* a **shuffle term** proportional to the intermediate key-value volume
  (what kills *All-Replicate*), and
* per-job **startup plus DFS read/write terms**, paid once per chained
  job and proportional to intermediate result size (what kills
  *2-way Cascade*).

Task placement uses the standard makespan approximation for ``t`` tasks
on ``s`` slots: ``max(sum(t_i)/s, max(t_i))`` — perfect packing bounded
below by the longest task, which also models reducer skew (a hot cell
makes its reducer the critical path, exactly like a real straggler).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["CostModel", "TaskStats", "JobCostBreakdown"]


@dataclass(frozen=True, slots=True)
class TaskStats:
    """Work volumes of one map or reduce task.

    ``attempts`` is the task's attempt history (a tuple of
    :class:`repro.mapreduce.faults.TaskAttempt`) when the job ran under
    recovery dispatch — empty on the seed fast path.  It is telemetry
    only: the cost model charges the *winning* attempt's volumes here
    and the wasted attempts through the job-level fault-overhead term.
    """

    input_records: int = 0
    input_bytes: int = 0
    output_records: int = 0
    output_bytes: int = 0
    compute_ops: int = 0
    attempts: tuple = ()


@dataclass(frozen=True, slots=True)
class JobCostBreakdown:
    """Per-phase simulated seconds of one job.

    ``fault_overhead_s`` charges the recovery machinery's wasted work —
    re-launched attempts, speculative losers, retry backoff — and is
    deliberately **excluded** from :attr:`total_s`.  The determinism
    contract of :mod:`repro.mapreduce.faults` promises that an absorbed
    fault plan leaves the canonical simulated seconds byte-identical to
    the fault-free run; the overhead is reported separately (and folded
    in by :attr:`total_with_faults_s`) so chaos runs remain comparable
    with clean ones.

    ``spill_overhead_s`` is the same idea for memory governance: the
    local-disk round-trip of map-side spill files.  A run under a memory
    budget must keep the canonical simulated seconds identical to the
    unbounded run (the spill is a *local* implementation detail, not a
    change in the job's DFS/shuffle volumes), so spill I/O lands in its
    own non-canonical bucket.

    ``recovery_overhead_s`` charges worker failure domains: map tasks
    re-executed because their worker died after committing output,
    in-flight attempts lost with their worker, and the heartbeat
    latency of detecting a silent death.  Like the other two buckets it
    never touches the canonical total — an absorbed worker loss leaves
    the fault-free simulated seconds byte-identical.

    ``network_overhead_s`` charges the durable-storage plane's wire
    traffic: remote reads by non-local map tasks (``LOCALITY_MISSES``)
    and block copies moved by re-replication after a worker death.
    Locality and durability are thereby *measurable* without breaking
    the determinism contract — a replicated run's canonical seconds
    stay byte-identical to the unreplicated run's.
    """

    startup_s: float
    map_s: float
    shuffle_s: float
    reduce_s: float
    fault_overhead_s: float = 0.0
    spill_overhead_s: float = 0.0
    recovery_overhead_s: float = 0.0
    network_overhead_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.startup_s + self.map_s + self.shuffle_s + self.reduce_s

    @property
    def total_with_faults_s(self) -> float:
        """End-to-end seconds including the non-canonical overhead terms."""
        return (
            self.total_s
            + self.fault_overhead_s
            + self.spill_overhead_s
            + self.recovery_overhead_s
            + self.network_overhead_s
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form for metrics snapshots and dashboards."""
        return {
            "startup_s": self.startup_s,
            "map_s": self.map_s,
            "shuffle_s": self.shuffle_s,
            "reduce_s": self.reduce_s,
            "fault_overhead_s": self.fault_overhead_s,
            "spill_overhead_s": self.spill_overhead_s,
            "recovery_overhead_s": self.recovery_overhead_s,
            "network_overhead_s": self.network_overhead_s,
            "total_s": self.total_s,
        }


@dataclass(frozen=True)
class CostModel:
    """Rates of the modelled cluster.

    Defaults approximate the paper's testbed era (2012 Hadoop on SATA
    disks and 1GbE): tens of MB/s of per-task disk bandwidth, tens of
    MB/s of aggregate shuffle bandwidth, and a multi-second job startup.
    Absolute values only set the time scale; every conclusion checked in
    EXPERIMENTS.md is about ratios and orderings, which are insensitive
    to moderate changes of these rates (see the sensitivity test in
    ``tests/mapreduce/test_cost.py``).
    """

    job_startup_s: float = 8.0
    task_startup_s: float = 0.05
    dfs_read_bytes_per_s: float = 50e6
    dfs_write_bytes_per_s: float = 30e6
    map_records_per_s: float = 150_000.0
    shuffle_bytes_per_s: float = 25e6
    shuffle_record_overhead_s: float = 1e-6
    reduce_records_per_s: float = 200_000.0
    #: cheap geometric comparisons (rectangle intersection tests); fast
    #: relative to I/O — the paper's premise is that communication, not
    #: comparison work, decides run time
    compute_ops_per_s: float = 20_000_000.0
    map_slots: int = 16
    reduce_slots: int = 16
    #: local scratch-disk bandwidth for map-side spill files — spills
    #: never cross the network or the replicated DFS write path, so
    #: they get the raw single-disk rate (charged once for the write
    #: and once for the reduce-side read-back).
    spill_bytes_per_s: float = 60e6
    #: HDFS block replication factor — every byte written to the DFS is
    #: physically written this many times (Hadoop's dfs.replication=3).
    dfs_replication: float = 3.0
    #: point-to-point network bandwidth for storage-plane traffic
    #: (remote map reads, re-replication copies) — 1GbE of the paper's
    #: era, ~100 MB/s on the wire.
    network_bytes_per_s: float = 100e6

    @classmethod
    def scaled(cls, record_scale: float, **overrides) -> "CostModel":
        """A model where each record stands for ``record_scale`` records.

        The reproduction joins thousands of rectangles where the paper
        joins millions; dividing the throughput rates by the workload
        down-scaling factor makes one simulated record carry the cost of
        ``record_scale`` paper-scale records, so simulated durations land
        in the paper's regime while fixed costs (job/task startup) stay
        fixed.  ``overrides`` replace individual rates afterwards.
        """
        if record_scale <= 0:
            raise ValueError(f"record_scale must be positive, got {record_scale}")
        base = cls()
        scaled_fields = dict(
            dfs_read_bytes_per_s=base.dfs_read_bytes_per_s / record_scale,
            dfs_write_bytes_per_s=base.dfs_write_bytes_per_s / record_scale,
            map_records_per_s=base.map_records_per_s / record_scale,
            shuffle_bytes_per_s=base.shuffle_bytes_per_s / record_scale,
            shuffle_record_overhead_s=base.shuffle_record_overhead_s * record_scale,
            reduce_records_per_s=base.reduce_records_per_s / record_scale,
            compute_ops_per_s=base.compute_ops_per_s / record_scale,
        )
        scaled_fields.update(overrides)
        return cls(**scaled_fields)

    # ------------------------------------------------------------------
    def map_task_seconds(self, task: TaskStats) -> float:
        """Time of one map task: startup + read + per-record map work."""
        return (
            self.task_startup_s
            + task.input_bytes / self.dfs_read_bytes_per_s
            + task.input_records / self.map_records_per_s
            + task.compute_ops / self.compute_ops_per_s
        )

    def reduce_task_seconds(self, task: TaskStats) -> float:
        """Time of one reduce task: startup + reduce work + DFS write.

        ``task.input_bytes`` (the reduce task's share of the shuffled
        volume) is charged once, cluster-wide, by
        :meth:`shuffle_seconds`; charging it here again would
        double-count the shuffle, so the per-task term uses records and
        compute only.
        """
        return (
            self.task_startup_s
            + task.input_records / self.reduce_records_per_s
            + task.compute_ops / self.compute_ops_per_s
            + task.output_bytes * self.dfs_replication / self.dfs_write_bytes_per_s
        )

    def shuffle_seconds(self, records: int, nbytes: int) -> float:
        """Cluster-wide shuffle/sort time for the intermediate volume."""
        return (
            nbytes / self.shuffle_bytes_per_s
            + records * self.shuffle_record_overhead_s
        )

    def fault_overhead_seconds(self, wasted_attempts: int, backoff_s: float) -> float:
        """Simulated cost of recovery: wasted launches plus retry backoff.

        Each wasted attempt (a failed try, a discarded speculative
        loser, a failed part-file commit) burned at least its task
        startup; ``backoff_s`` is the already-simulated exponential
        backoff charged by the retry policy.  Reported on
        :attr:`JobCostBreakdown.fault_overhead_s`, outside the canonical
        total — see that field's docstring.
        """
        return wasted_attempts * self.task_startup_s + backoff_s

    def recovery_overhead_seconds(
        self,
        reexecution_s: float,
        detection_s: float,
        lost_attempts: int,
    ) -> float:
        """Simulated cost of worker loss: re-run maps, detection, waste.

        ``reexecution_s`` is the summed :meth:`map_task_seconds` of map
        tasks whose committed output died with its worker and had to be
        recomputed; ``detection_s`` is the heartbeat latency already
        simulated for silently-dead workers; each in-flight attempt
        that vanished with its worker burned at least a task startup.
        Reported on :attr:`JobCostBreakdown.recovery_overhead_s`,
        outside the canonical total — see that field's docstring.
        """
        return reexecution_s + detection_s + lost_attempts * self.task_startup_s

    def network_transfer_seconds(self, nbytes: int) -> float:
        """Simulated wire time of storage-plane traffic.

        Charged for the bytes a non-local map task pulls across the
        network (its split's blocks live on other workers) and for the
        block copies re-replication moves to heal a worker death.
        Reported on :attr:`JobCostBreakdown.network_overhead_s`,
        outside the canonical total — see that field's docstring.
        """
        return nbytes / self.network_bytes_per_s

    def spill_overhead_seconds(self, spill_bytes: int) -> float:
        """Simulated cost of memory-budget spills: write + read-back.

        ``spill_bytes`` are the spilled emissions' shuffle bytes — the
        unit the budget and ``MAP_OUTPUT_BYTES`` count.  Each spilled
        byte hits local scratch disk twice (the map side writes the run,
        the reduce task reads it back where it was emitted).  Reported
        on :attr:`JobCostBreakdown.spill_overhead_s`, outside the
        canonical total — see that field's docstring.
        """
        return 2.0 * spill_bytes / self.spill_bytes_per_s

    @staticmethod
    def makespan(task_seconds: Sequence[float], slots: int) -> float:
        """Makespan of tasks greedily packed onto ``slots`` parallel slots."""
        if not task_seconds:
            return 0.0
        return max(sum(task_seconds) / slots, max(task_seconds))

    # ------------------------------------------------------------------
    def job_seconds(
        self,
        map_tasks: Sequence[TaskStats],
        reduce_tasks: Sequence[TaskStats],
        shuffle_records: int,
        shuffle_bytes: int,
    ) -> JobCostBreakdown:
        """Simulated end-to-end seconds of one job."""
        map_s = self.makespan(
            [self.map_task_seconds(t) for t in map_tasks], self.map_slots
        )
        reduce_s = self.makespan(
            [self.reduce_task_seconds(t) for t in reduce_tasks], self.reduce_slots
        )
        shuffle_s = self.shuffle_seconds(shuffle_records, shuffle_bytes)
        return JobCostBreakdown(
            startup_s=self.job_startup_s,
            map_s=map_s,
            shuffle_s=shuffle_s,
            reduce_s=reduce_s,
        )
