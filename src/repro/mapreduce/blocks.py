"""The durable storage plane: replicated, checksummed DFS blocks.

The paper's cluster assumes a GFS/HDFS-style store — files chunked into
blocks, each block replicated on several DataNodes with end-to-end
checksums, reads failing over between replicas and a namenode
re-replicating when a node dies.  This module supplies that layer under
both DFS backends:

* every tracked file is chunked into line-range blocks of
  ``block_records`` records, each with a CRC-32 checksum over its
  encoded bytes (``zlib.crc32``: Hadoop 0.20.2, the paper's substrate,
  checksums HDFS blocks with plain CRC-32);
* each block is copied onto ``replication`` distinct workers from the
  cluster's :class:`~repro.mapreduce.workers.WorkerPool` — replica
  copies live in the DFS's *side-file* namespace under ``_blocks/``
  (durable, never charged to the canonical byte counters);
* every read reassembles the file from replicas, verifying each
  block's checksum: a corrupt replica is dropped and the read fails
  over to the next holder (counted as ``BLOCK_CORRUPTIONS``); a block
  with no healthy replica raises — data loss is loud, never silent;
* worker death marks its replicas lost, and the end-of-job
  re-replication pass copies from surviving holders until the target
  factor is restored (``BLOCKS_REREPLICATED``, with the copied bytes
  charged to the cost model's non-canonical network-overhead term);
* :meth:`BlockPlane.fsck` audits the whole placement — the offline
  ``python -m repro fsck`` walks it in a fresh process via the
  placement map persisted at ``_blocks/placement.json``.

The plane engages only when ``Cluster(replication=N)`` is set; a DFS
without a plane attached behaves byte-for-byte as before.  Replica
content always equals the primary content, so serving reads through the
plane never changes canonical bytes, counters or simulated seconds —
corruption and loss move *telemetry* (counters, ledger events, the
non-canonical overhead buckets), exactly like the fault-tolerance
layers before it.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import DFSError, FaultPlanError
from repro.mapreduce.job import SplitEntries
from repro.mapreduce.placement import (
    PLACEMENT_PATH,
    REPLICA_ROOT,
    BlockMeta,
    PlacementMap,
)

__all__ = [
    "block_payload",
    "chunk_blocks",
    "BlockPlane",
    "StorageReport",
    "FsckReport",
]


def block_payload(lines: list[str]) -> bytes:
    """The encoded bytes a block checksums: lines + trailing newlines."""
    return "\n".join([*lines, ""]).encode("utf-8")


def chunk_blocks(lines: Sequence[str], block_records: int) -> list[tuple[int, list[str]]]:
    """Chunk a file's lines into ``(start_line, block_lines)`` pairs.

    An empty file has zero blocks; blocks never span files (like HDFS
    blocks, which is what makes split↔block locality exact when the
    split size equals the block size).
    """
    if block_records < 1:
        raise DFSError(f"block_records must be >= 1, got {block_records}")
    return [
        (lo, lines[lo : lo + block_records])
        for lo in range(0, len(lines), block_records)
    ]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
@dataclass
class StorageReport:
    """Per-job storage-plane telemetry, merged into counters and cost."""

    block_corruptions: int = 0
    replicas_lost: int = 0
    blocks_rereplicated: int = 0
    #: bytes copied across the (simulated) network by re-replication —
    #: charged to the cost breakdown's non-canonical network overhead
    rereplicated_bytes: int = 0
    #: blocks still below the target factor after re-replication (the
    #: pool is too small) — surfaced loudly, never silently absorbed
    under_replicated: int = 0


@dataclass
class FsckReport:
    """One placement audit: block health plus one line per problem."""

    blocks: int = 0
    healthy: int = 0
    under_replicated: int = 0
    corrupt: int = 0
    problems: list[str] = field(default_factory=list)
    repaired: int = 0

    @property
    def exit_code(self) -> int:
        """0 healthy / 1 under-replicated (recoverable) / 2 corrupt."""
        if self.corrupt:
            return 2
        if self.under_replicated:
            return 1
        return 0

    def lines(self) -> list[str]:
        """One line per problem, then the summary — the CLI output."""
        out = list(self.problems)
        status = ("HEALTHY", "UNDER-REPLICATED", "CORRUPT")[self.exit_code]
        out.append(
            f"fsck: {self.blocks} block(s): {self.healthy} healthy, "
            f"{self.under_replicated} under-replicated, "
            f"{self.corrupt} corrupt"
            + (f", {self.repaired} repaired" if self.repaired else "")
            + f" -- {status}"
        )
        return out


# ----------------------------------------------------------------------
# The plane
# ----------------------------------------------------------------------
class BlockPlane:
    """Replication, checksumming and placement under one DFS instance.

    The engine attaches one plane per cluster (``dfs.block_plane``)
    when ``Cluster(replication=N)`` is set; the DFS write/read/delete
    paths call the ``on_write``/``read``/``on_delete`` hooks.
    ``pool`` may be ``None`` for offline audits (``fsck`` in a fresh
    process) — placement then comes entirely from the persisted map —
    and ``replication`` may be ``None`` there too, deferring to the
    factor the persisted map was written with.
    """

    def __init__(
        self,
        dfs,
        pool,
        replication: int | None,
        block_records: int,
        ledger=None,
    ) -> None:
        if replication is not None and replication < 1:
            raise DFSError(f"replication factor must be >= 1, got {replication}")
        self.dfs = dfs
        self.pool = pool
        self.block_records = block_records
        self.ledger = (
            ledger if ledger is not None and getattr(ledger, "enabled", False)
            else None
        )
        self.report = StorageReport()
        #: the placement map changed since it was last persisted
        self.dirty = False
        self.placement = self._load_placement(replication)
        if pool is not None:
            for name in pool.workers:
                self.placement.note_worker(name)

    @property
    def replication(self) -> int:
        return self.placement.replication

    # -- persistence ---------------------------------------------------
    def _load_placement(self, replication: int | None) -> PlacementMap:
        """Restore a persisted map (fresh process over a LocalFS root)."""
        try:
            lines = self.dfs.read_side_file(PLACEMENT_PATH)
        except DFSError:
            # No persisted map: an offline audit (replication=None) sees
            # an empty-but-healthy store rather than an error.
            return PlacementMap(replication if replication is not None else 1)
        pmap = PlacementMap.from_json("\n".join(lines))
        # An explicit factor wins over the persisted one (re-attaching
        # with a different target re-replicates toward the new factor).
        if replication is not None:
            pmap.replication = replication
        return pmap

    def _persist(self) -> None:
        self.dfs.write_side_file(PLACEMENT_PATH, [self.placement.to_json()])
        self.dirty = False

    def flush(self) -> None:
        """Persist the placement map if it changed.

        Mutations only mark the map dirty; the engine flushes at each
        job's start and commit barriers and the workflow after each
        checkpoint, so the map on disk is the store as of the last
        barrier — what a resumed run or an offline audit reads.
        """
        if self.dirty:
            self._persist()

    # -- replica addressing --------------------------------------------
    @staticmethod
    def _replica_path(worker: str, path: str, index: int) -> str:
        # '/' -> '#' keeps every mangled path one directory level per
        # worker; '#' is inside the LocalFS-safe segment charset.
        return f"{REPLICA_ROOT}/{worker}/{path.replace('/', '#')}/b-{index:05d}"

    @staticmethod
    def _is_internal(path: str) -> bool:
        return path == REPLICA_ROOT or path.startswith(REPLICA_ROOT + "/")

    def _alive(self, worker: str) -> bool:
        if self.pool is None:
            return True  # offline: liveness unknown, trust placement
        state = self.pool.workers.get(worker)
        return state is not None and state.alive

    def _active_workers(self) -> list[str]:
        if self.pool is not None:
            return self.pool.active()
        return list(self.placement.workers)

    # -- write path ----------------------------------------------------
    def on_write(self, path: str, lines: Sequence[str]) -> None:
        """(Re)place every block of a freshly written file.

        ``lines`` may be a bundle's lazy text: chunking formats it once.
        """
        if self._is_internal(path):
            return
        self._drop_replicas(path)
        blocks: list[BlockMeta] = []
        active = self._active_workers()
        # Deterministic placement: the first replica offset comes from a
        # CRC of the path (process-salted hash() would break replays),
        # subsequent replicas walk the active list.
        path_crc = zlib.crc32(path.encode("utf-8"))
        for index, (start, chunk) in enumerate(
            chunk_blocks(lines, self.block_records)
        ):
            payload = block_payload(chunk)
            meta = BlockMeta(
                index=index,
                start=start,
                count=len(chunk),
                nbytes=len(payload),
                crc=zlib.crc32(payload),
            )
            if active:
                offset = (path_crc + index) % len(active)
                for k in range(min(self.replication, len(active))):
                    worker = active[(offset + k) % len(active)]
                    self.dfs.write_side_file(
                        self._replica_path(worker, path, index), chunk
                    )
                    meta.replicas.append(worker)
            blocks.append(meta)
        self.placement.set_file(path, blocks)
        self.dirty = True

    def ensure(self, path: str) -> bool:
        """Lazily ingest a pre-existing file (staged before the plane).

        Returns ``True`` when the path is tracked afterwards.  Content
        is read through the unaccounted side-file path, so ingestion
        never disturbs the canonical byte counters.
        """
        if self._is_internal(path):
            return False
        if self.placement.tracks(path):
            return True
        try:
            lines = self.dfs.read_side_file(path)
        except DFSError:
            return False
        self.on_write(path, lines)
        return True

    def on_delete(self, path: str) -> None:
        if self._is_internal(path) or not self.placement.tracks(path):
            return
        self._drop_replicas(path)
        self.placement.drop_file(path)
        self.dirty = True

    def _drop_replicas(self, path: str) -> None:
        for block in self.placement.blocks(path):
            for worker in block.replicas:
                self.dfs.delete(self._replica_path(worker, path, block.index))

    # -- read path -----------------------------------------------------
    def read(self, path: str) -> list[str] | None:
        """Reassemble ``path`` from replicas, verifying every checksum.

        Returns ``None`` for untracked paths (the DFS falls back to its
        primary store).  A corrupt replica is dropped with a counted
        ledger event and the read fails over to the next holder; a
        block with no healthy replica raises :class:`DFSError`.
        """
        if not self.ensure(path):
            return None
        out: list[str] = []
        for block in list(self.placement.blocks(path)):
            out.extend(self._read_block(path, block))
        return out

    def _read_block(self, path: str, block: BlockMeta) -> list[str]:
        """One block's lines from its first healthy replica (failover)."""
        for worker in list(block.replicas):
            if not self._alive(worker):
                continue  # the sweep will count the node's losses
            try:
                lines = self._replica_lines(path, block, worker)
            except DFSError:
                self._lose(path, block, worker, reason="missing")
                continue
            if lines is not None:
                return lines
            self.report.block_corruptions += 1
            if self.ledger is not None:
                self.ledger.event(
                    "block_corruption",
                    path=path,
                    block=block.index,
                    worker=worker,
                )
            block.replicas.remove(worker)
            self.dfs.delete(self._replica_path(worker, path, block.index))
            self.dirty = True
        raise DFSError(
            f"block lost: {path!r} block {block.index} has no healthy "
            f"replica (holders tried: {block.replicas})"
        )

    def _replica_lines(self, path: str, block: BlockMeta, worker: str) -> list[str] | None:
        """``worker``'s copy of ``block``, or ``None`` if it fails its
        checksum; a missing copy raises :class:`DFSError`."""
        lines = self.dfs.read_side_file(
            self._replica_path(worker, path, block.index)
        )
        return lines if zlib.crc32(block_payload(lines)) == block.crc else None

    # -- fault enactment -----------------------------------------------
    def enact_faults(self, plan, job: str) -> None:
        """Fire pending ``corrupt-block``/``lose-replica`` specs.

        Called at job start, before the split phase reads inputs, so
        detection (and its counters) happens deterministically during
        this job's reads.  One-shot per cluster lifetime, tracked in
        the pool's fired set like worker specs; a spec whose path does
        not exist yet stays pending for a later job.  Once the path
        exists, a spec naming a block past its last or a replica past
        the replication factor could never fire: it raises
        :class:`~repro.errors.FaultPlanError`.
        """
        if plan is None or self.pool is None:
            return
        for spec in plan.storage_specs():
            if spec in self.pool.fired:
                continue
            if spec.job is not None and spec.job != job:
                continue
            if not self.ensure(spec.path):
                continue  # path not written yet: try again next job
            nblocks = len(self.placement.blocks(spec.path))
            if spec.block >= nblocks or spec.replica >= self.replication:
                raise FaultPlanError(
                    f"{spec.kind} fault on {spec.path!r} names block "
                    f"{spec.block}, replica {spec.replica}, but the file "
                    f"has {nblocks} block(s) at replication "
                    f"{self.replication}"
                )
            if spec.kind == "corrupt-block":
                if self._corrupt_replica(spec.path, spec.block, spec.replica):
                    self.pool.fired.add(spec)
            else:  # lose-replica
                if self._lose_replica(spec.path, spec.block, spec.replica):
                    self.pool.fired.add(spec)

    def _located(self, path: str, block: int, replica: int):
        blocks = self.placement.blocks(path)
        if block >= len(blocks):
            return None, None
        meta = blocks[block]
        if replica >= len(meta.replicas):
            return None, None
        return meta, meta.replicas[replica]

    def _corrupt_replica(self, path: str, block: int, replica: int) -> bool:
        """Flip a replica's bytes on disk; detection happens at read."""
        meta, worker = self._located(path, block, replica)
        if meta is None:
            return False
        self.dfs.write_side_file(
            self._replica_path(worker, path, meta.index),
            ["#corrupted-by-fault-injection"],
        )
        return True

    def _lose_replica(self, path: str, block: int, replica: int) -> bool:
        """Drop a replica outright (a vanished disk, not flipped bits)."""
        meta, worker = self._located(path, block, replica)
        if meta is None:
            return False
        self.dfs.delete(self._replica_path(worker, path, meta.index))
        self._lose(path, meta, worker, reason="fault")
        return True

    def _lose(self, path: str, block: BlockMeta, worker: str, reason: str) -> None:
        if worker in block.replicas:
            block.replicas.remove(worker)
        self.report.replicas_lost += 1
        if self.ledger is not None:
            self.ledger.event(
                "replica_lost",
                path=path,
                block=block.index,
                worker=worker,
                reason=reason,
            )
        self.dirty = True

    # -- self-healing --------------------------------------------------
    def sweep_dead_workers(self) -> None:
        """Mark every replica held by a dead worker as lost."""
        if self.pool is None:
            return
        dead = {w.name for w in self.pool.workers.values() if not w.alive}
        if not dead:
            return
        for path, blocks in self.placement.files.items():
            for block in blocks:
                for worker in [w for w in block.replicas if w in dead]:
                    self.dfs.delete(self._replica_path(worker, path, block.index))
                    self._lose(path, block, worker, reason="worker_lost")

    def rereplicate(self) -> None:
        """Restore the target factor from surviving replicas.

        The end-of-job "background" pass: runs after the job's phases
        drain (before the next job's barrier), copying each
        under-replicated block from a healthy holder onto active
        workers not yet holding it.  Copied bytes land in the report
        (charged to the non-canonical network-overhead cost term); a
        block the pool is too small to restore counts as
        under-replicated and is surfaced loudly.
        """
        self.sweep_dead_workers()
        active = self._active_workers()
        for path, blocks in self.placement.files.items():
            for block in blocks:
                if len(block.replicas) >= self.replication:
                    continue
                # No healthy source copies nothing: the next read of
                # the block raises data loss.
                for worker in self._top_up(path, block, active):
                    self.placement.note_worker(worker)
                    self.report.blocks_rereplicated += 1
                    self.report.rereplicated_bytes += block.nbytes
                    if self.ledger is not None:
                        self.ledger.event(
                            "block_rereplicated",
                            path=path,
                            block=block.index,
                            worker=worker,
                            bytes=block.nbytes,
                        )
                if len(block.replicas) < self.replication:
                    self.report.under_replicated += 1
                    self._warn_under_replicated(path, block)
        self.dirty = True

    def _top_up(self, path: str, block: BlockMeta, candidates: list[str]) -> list[str]:
        """Copy ``block`` from a checksum-clean replica onto candidates
        not yet holding it until the factor is met; returns the workers
        copied onto (none when no replica is clean)."""
        lines = None
        for worker in block.replicas:
            try:
                lines = self._replica_lines(path, block, worker)
            except DFSError:
                continue
            if lines is not None:
                break
        if lines is None:
            return []
        added: list[str] = []
        for worker in candidates:
            if len(block.replicas) >= self.replication:
                break
            if worker in block.replicas:
                continue
            self.dfs.write_side_file(
                self._replica_path(worker, path, block.index), lines
            )
            block.replicas.append(worker)
            added.append(worker)
        return added

    def _warn_under_replicated(self, path: str, block: BlockMeta) -> None:
        if self.ledger is not None:
            self.ledger.event(
                "warning",
                kind="under_replicated",
                path=path,
                block=block.index,
                replicas=len(block.replicas),
                target=self.replication,
            )

    def drain_report(self) -> StorageReport:
        """This job's storage telemetry; resets for the next job."""
        report, self.report = self.report, StorageReport()
        return report

    # -- locality ------------------------------------------------------
    def split_localities(
        self, splits: list[list[tuple[str, int, object, int]] | SplitEntries]
    ) -> dict[int, tuple[tuple[str, ...], int]]:
        """Preferred workers per map split: ``{task: (workers, bytes)}``.

        A split's entries are ``(path, lineno, record, nbytes)`` rows of
        one file (splits never span files), so the holders of the
        overlapping blocks are the workers that can run the map task
        without a remote read.  A :class:`SplitEntries` gives its path,
        line range and size from its metadata, without building rows.
        Splits of untracked files are omitted (the scheduler falls back
        rack-blind without counting a miss).
        """
        localities: dict[int, tuple[tuple[str, ...], int]] = {}
        for i, split in enumerate(splits):
            if not split:
                continue
            if isinstance(split, SplitEntries):
                path, first, nbytes = split.path, split.lo, split.nbytes
                last = first + len(split) - 1
            else:
                path, first, last = split[0][0], split[0][1], split[-1][1]
                nbytes = sum(entry[3] for entry in split)
            if self.placement.tracks(path):
                localities[i] = (self.placement.holders(path, first, last), nbytes)
        return localities

    # -- audit ---------------------------------------------------------
    def fsck(self, repair: bool = False) -> FsckReport:
        """Audit every replica of every block; optionally repair.

        With ``repair=True``, checksum-bad and missing replicas are
        dropped and each damaged-but-recoverable block is re-replicated
        from a healthy copy; the returned report is a fresh *post*-repair
        audit (problems are what remains wrong) carrying the count of
        replicas restored, so a fully healed store exits 0 immediately.
        """
        report = FsckReport()
        for path in sorted(self.placement.files):
            for block in self.placement.files[path]:
                report.blocks += 1
                healthy: list[str] = []
                bad: list[str] = []
                for worker in block.replicas:
                    try:
                        lines = self._replica_lines(path, block, worker)
                    except DFSError:
                        report.problems.append(
                            f"missing: {path} block {block.index} replica "
                            f"on {worker} is gone"
                        )
                        bad.append(worker)
                        continue
                    if lines is None:
                        report.problems.append(
                            f"corrupt: {path} block {block.index} replica "
                            f"on {worker} fails its checksum"
                        )
                        bad.append(worker)
                        continue
                    healthy.append(worker)
                if not healthy:
                    report.corrupt += 1
                    report.problems.append(
                        f"lost: {path} block {block.index} has no healthy "
                        "replica (data loss)"
                    )
                    continue
                if bad or len(healthy) < self.replication:
                    report.under_replicated += 1
                    if len(healthy) < self.replication:
                        report.problems.append(
                            f"under-replicated: {path} block {block.index} "
                            f"has {len(healthy)}/{self.replication} healthy "
                            "replica(s)"
                        )
                    if repair:
                        for worker in bad:
                            self.dfs.delete(
                                self._replica_path(worker, path, block.index)
                            )
                            block.replicas.remove(worker)
                        report.repaired += len(
                            self._top_up(path, block, self._active_workers())
                        )
                else:
                    report.healthy += 1
        if repair:
            self.dirty = True
            self.flush()
            # The verdict (and exit code) must describe the store as
            # repaired, so audit again and carry the repair count over.
            fixed = self.fsck(repair=False)
            fixed.repaired = report.repaired
            return fixed
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPlane(replication={self.replication}, "
            f"{len(self.placement.files)} files)"
        )
