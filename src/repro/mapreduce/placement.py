"""Block placement: which named workers hold which block replicas.

The durable-storage plane (:mod:`repro.mapreduce.blocks`) chunks every
DFS file into line-range blocks and stores ``replication`` checksummed
copies of each block on distinct workers from the cluster's
:class:`~repro.mapreduce.workers.WorkerPool`.  This module is the pure
bookkeeping half: :class:`BlockMeta` describes one block (line range,
byte size, CRC-32, replica holders in failover order) and
:class:`PlacementMap` is the namenode-style table mapping file paths to
their block lists.

Placement is deterministic — the first replica offset is derived from a
CRC of the path (never ``hash()``, which is salted per process), and
further replicas walk the active worker list — so identical runs place
identical replicas on every executor, which is what lets the chaos
golden tests assert byte-identical telemetry.

The map serializes to a single JSON line and persists as a DFS *side
file* (``_blocks/placement.json``), so a ``LocalFSDFS`` root carries its
placement across processes and ``python -m repro fsck`` can audit a
store long after the cluster object is gone.  The map names its block
checksum (``"checksum": "crc32"``); a map without that tag was written
with CRC32C block checksums and is refused rather than audited as
corrupt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import DFSError

__all__ = ["BlockMeta", "PlacementMap", "PLACEMENT_PATH", "REPLICA_ROOT"]

#: DFS namespace prefix holding every replica copy and the placement
#: map itself; the block plane ignores reads/writes under it so replica
#: traffic can never recursively re-enter the plane.
REPLICA_ROOT = "_blocks"
#: side-file path of the persisted placement map (one JSON line)
PLACEMENT_PATH = f"{REPLICA_ROOT}/placement.json"
#: the block checksum a persisted map declares (``zlib.crc32``)
CHECKSUM = "crc32"


@dataclass
class BlockMeta:
    """One block of one file: a line range plus its replica set.

    ``replicas`` lists worker names in failover order — a reader tries
    them first to last, so dropping a corrupt replica from the front
    is exactly HDFS's "switch to the next DataNode".
    """

    index: int
    start: int
    count: int
    nbytes: int
    crc: int
    replicas: list[str] = field(default_factory=list)

    @property
    def end(self) -> int:
        """Last line number covered by this block (inclusive)."""
        return self.start + self.count - 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "count": self.count,
            "nbytes": self.nbytes,
            "crc": self.crc,
            "replicas": list(self.replicas),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BlockMeta":
        return cls(
            index=int(data["index"]),
            start=int(data["start"]),
            count=int(data["count"]),
            nbytes=int(data["nbytes"]),
            crc=int(data["crc"]),
            replicas=[str(w) for w in data.get("replicas", [])],
        )


class PlacementMap:
    """The namenode table: file path -> ordered block list.

    Also records the target ``replication`` factor and every worker
    name that ever held a replica, so an *offline* auditor (``fsck`` in
    a fresh process, with no live pool) still knows what "fully
    replicated" means and which workers it may repair onto.
    """

    def __init__(self, replication: int) -> None:
        if replication < 1:
            raise DFSError(
                f"replication factor must be >= 1, got {replication}"
            )
        self.replication = replication
        self.files: dict[str, list[BlockMeta]] = {}
        #: every worker name placement has ever used, in first-seen
        #: order — the offline repair candidate set
        self.workers: list[str] = []

    # ------------------------------------------------------------------
    def tracks(self, path: str) -> bool:
        return path in self.files

    def blocks(self, path: str) -> list[BlockMeta]:
        return self.files.get(path, [])

    def set_file(self, path: str, blocks: list[BlockMeta]) -> None:
        self.files[path] = blocks
        for block in blocks:
            for worker in block.replicas:
                if worker not in self.workers:
                    self.workers.append(worker)

    def drop_file(self, path: str) -> list[BlockMeta]:
        return self.files.pop(path, [])

    def note_worker(self, worker: str) -> None:
        if worker not in self.workers:
            self.workers.append(worker)

    def holders(self, path: str, start: int, end: int) -> tuple[str, ...]:
        """Workers holding the line range ``[start, end]`` of ``path``.

        Prefers workers holding *every* overlapping block (full
        locality); when no single worker covers the whole range, falls
        back to the union (partial locality beats a blind pick).  Order
        is deterministic: replica order of the first overlapping block,
        then first-seen order for the rest.
        """
        overlapping = [
            b for b in self.blocks(path) if b.start <= end and b.end >= start
        ]
        if not overlapping:
            return ()
        full: list[str] = []
        for worker in overlapping[0].replicas:
            if all(worker in b.replicas for b in overlapping):
                full.append(worker)
        if full:
            return tuple(full)
        union: list[str] = []
        for block in overlapping:
            for worker in block.replicas:
                if worker not in union:
                    union.append(worker)
        return tuple(union)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Single-line JSON form (side files reject embedded newlines)."""
        return json.dumps(
            {
                "checksum": CHECKSUM,
                "replication": self.replication,
                "workers": list(self.workers),
                "files": {
                    path: [b.as_dict() for b in blocks]
                    for path, blocks in sorted(self.files.items())
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PlacementMap":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise DFSError(f"corrupt placement map: {exc}") from exc
        if not isinstance(data, dict) or "replication" not in data:
            raise DFSError("corrupt placement map: missing 'replication'")
        if data.get("checksum") != CHECKSUM:
            raise DFSError(
                "placement map was written with CRC32C block checksums "
                f"(no 'checksum': {CHECKSUM!r} tag): re-stage the store"
            )
        pmap = cls(int(data["replication"]))
        pmap.workers = [str(w) for w in data.get("workers", [])]
        for path, blocks in data.get("files", {}).items():
            pmap.files[path] = [BlockMeta.from_dict(b) for b in blocks]
        return pmap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nblocks = sum(len(b) for b in self.files.values())
        return (
            f"PlacementMap({len(self.files)} files, {nblocks} blocks, "
            f"replication={self.replication})"
        )
