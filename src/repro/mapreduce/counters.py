"""Job counters, mirroring Hadoop's counter groups.

Counters are the measurement backbone of the reproduction: the paper's
efficiency arguments are phrased in terms of the number of intermediate
key-value pairs (communication cost) and the read/write volume of chained
jobs, all of which are recorded here and consumed by the cost model.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Mapping

__all__ = ["Counters", "C"]


class C:
    """Well-known counter names used by the engine and the cost model."""

    GROUP_ENGINE = "engine"

    MAP_INPUT_RECORDS = "map_input_records"
    MAP_OUTPUT_RECORDS = "map_output_records"
    MAP_OUTPUT_BYTES = "map_output_bytes"
    COMBINE_INPUT_RECORDS = "combine_input_records"
    COMBINE_OUTPUT_RECORDS = "combine_output_records"
    REDUCE_INPUT_GROUPS = "reduce_input_groups"
    REDUCE_INPUT_RECORDS = "reduce_input_records"
    REDUCE_OUTPUT_RECORDS = "reduce_output_records"
    REDUCE_COMPUTE_OPS = "reduce_compute_ops"
    MAP_COMPUTE_OPS = "map_compute_ops"
    DFS_BYTES_READ = "dfs_bytes_read"
    DFS_BYTES_WRITTEN = "dfs_bytes_written"

    # Recovery telemetry (only present when the job ran under recovery
    # dispatch — a fault plan, max_attempts > 1 or speculation; the seed
    # fast path emits none of these, and the fault-tolerance golden
    # tests compare counters modulo this set).
    TASK_ATTEMPTS = "task_attempts"
    TASK_FAILURES = "task_failures"
    TASK_TIMEOUTS = "task_timeouts"
    SPECULATIVE_LAUNCHES = "speculative_launches"
    SPECULATIVE_WINS = "speculative_wins"

    # Memory-governance telemetry (only present when the cluster runs
    # under a memory budget or in skipping mode; like the recovery
    # block above, these never change canonical counters — golden tests
    # strip the ``spill``/``skipped_`` prefixes alongside ``task_``).
    SPILLED_RECORDS = "spilled_records"
    SPILL_FILES = "spill_files"
    SPILL_BYTES = "spill_bytes"
    SKIPPED_RECORDS = "skipped_records"

    # Worker failure-domain telemetry (only present when a job ran with
    # an engaged worker pool — a ``fail-worker``/``join-worker`` fault
    # spec or ``blacklist_after > 0``; inert clusters emit none of
    # these, and chaos golden tests strip the ``worker``/
    # ``map_output_lost``/``tasks_reexecuted`` prefixes alongside the
    # recovery block above).
    WORKER_FAILURES = "worker_failures"
    WORKERS_BLACKLISTED = "workers_blacklisted"
    WORKERS_JOINED = "workers_joined"
    MAP_OUTPUT_LOST = "map_output_lost"
    TASKS_REEXECUTED = "tasks_reexecuted"

    # Durable-storage telemetry (only present when the block plane is
    # engaged via ``Cluster(replication=N)``; unreplicated clusters emit
    # none of these, and chaos golden tests strip the ``block``/
    # ``blocks_``/``replicas_``/``locality_`` prefixes alongside the
    # blocks above — corruption, loss, healing and locality move
    # telemetry only, never canonical counters).
    BLOCK_CORRUPTIONS = "block_corruptions"
    REPLICAS_LOST = "replicas_lost"
    BLOCKS_REREPLICATED = "blocks_rereplicated"
    BLOCKS_UNDER_REPLICATED = "blocks_under_replicated"
    LOCALITY_HITS = "locality_hits"
    LOCALITY_MISSES = "locality_misses"


class Counters:
    """A two-level ``group -> name -> int`` counter map.

    Instances are picklable (plain dicts, no factory closures): parallel
    executors run each task against its own ``Counters`` shard and ship
    the shard back to the engine, which :meth:`merge`\\ s the shards in
    task-id order.
    """

    def __init__(self) -> None:
        self._groups: dict[str, defaultdict[str, int]] = {}

    def add(self, group: str, name: str, amount: int = 1) -> None:
        """Increment ``group/name`` by ``amount`` (negative allowed)."""
        names = self._groups.get(group)
        if names is None:
            names = self._groups[group] = defaultdict(int)
        names[name] += amount

    def get(self, group: str, name: str) -> int:
        """Current value of ``group/name`` (0 when never incremented)."""
        return self._groups.get(group, {}).get(name, 0)

    def engine(self, name: str) -> int:
        """Shorthand for the engine counter group."""
        return self.get(C.GROUP_ENGINE, name)

    def merge(self, other: "Counters") -> None:
        """Accumulate every counter of ``other`` into this object."""
        for group, names in other._groups.items():
            mine = self._groups.get(group)
            if mine is None:
                mine = self._groups[group] = defaultdict(int)
            for name, value in names.items():
                mine[name] += value

    def groups(self) -> Iterator[tuple[str, Mapping[str, int]]]:
        """Iterate ``(group, {name: value})`` pairs, sorted by group."""
        for group in sorted(self._groups):
            yield group, dict(self._groups[group])

    def as_dict(self) -> dict[str, dict[str, int]]:
        """A plain-dict snapshot (for reports and tests)."""
        return {group: dict(names) for group, names in self._groups.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.as_dict()!r})"
