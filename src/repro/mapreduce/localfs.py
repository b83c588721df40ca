"""A file-system-backed DFS: the in-memory store's persistent sibling.

``LocalFSDFS`` implements the same interface as
:class:`~repro.mapreduce.dfs.InMemoryDFS` on top of a real directory
tree, so workloads and results survive the process — useful for
inspecting intermediate job outputs, resuming long experiment sessions,
or feeding externally-produced rectangle files straight into the join
algorithms.  The engine is backend-agnostic (it only calls the shared
interface), which the substitution test-suite verifies by running whole
joins on both backends and comparing outputs byte for byte.

DFS paths map to paths under the root directory; path components are
restricted to a safe character set so a DFS path can never escape the
root.
"""

from __future__ import annotations

import os
import re
import shutil
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.errors import DFSError
from repro.mapreduce.dfs import codec_name, text_bytes, typed_form

__all__ = ["LocalFSDFS"]

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9._#=-]+$")


class LocalFSDFS:
    """Line-oriented file store rooted at a local directory.

    Typed records (see :class:`~repro.mapreduce.dfs.InMemoryDFS`) are
    held in a process-local cache next to the on-disk lines: the files
    stay plain text — a fresh process, or an externally modified file,
    simply decodes again.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: in-memory typed shadow of codec-written/decoded files:
        #: path -> (codec name, records)
        self._records: dict[str, tuple[str, list[Any]]] = {}
        #: process-local derived artifacts per file version (a codec's
        #: split entries); dropped with ``_records``
        self._derived: dict[str, dict[str, Any]] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        #: the durable-storage plane when ``Cluster(replication=N)``
        #: engaged it; ``None`` leaves every path byte-for-byte as before
        self.block_plane = None

    # ------------------------------------------------------------------
    def _resolve_path(self, path: str) -> Path:
        segments = [s for s in path.strip("/").split("/") if s]
        if not segments:
            raise DFSError(f"invalid DFS path {path!r}")
        for segment in segments:
            if segment in (".", "..") or not _SEGMENT_RE.match(segment):
                raise DFSError(
                    f"path segment {segment!r} outside the safe character set"
                )
        return self.root.joinpath(*segments)

    @staticmethod
    def _normalized(path: str) -> str:
        return path.strip("/")

    def _write_atomic(
        self, path: str, target: Path, lines: Iterable[str]
    ) -> tuple[list[str], int]:
        """Write lines crash-safely: temp file + ``os.replace``.

        A killed process can never leave a truncated file under the
        final name — the rename is atomic on the same filesystem — so a
        resumed workflow never fingerprint-matches half a part file.
        """
        if target.is_dir():
            raise DFSError(f"{path!r} is a directory")
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.parent / f".{target.name}.tmp"
        stored: list[str] = []
        nbytes = 0
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                for line in lines:
                    if "\n" in line:
                        raise DFSError(
                            f"record contains a newline: {line!r}"
                        )
                    fh.write(line)
                    fh.write("\n")
                    stored.append(line)
                    nbytes += text_bytes(line) + 1
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, target)
        return stored, nbytes

    # ------------------------------------------------------------------
    # Write / read
    # ------------------------------------------------------------------
    def write_file(self, path: str, lines: Iterable[str]) -> int:
        """Create (or replace) a file; returns the number of bytes written."""
        target = self._resolve_path(path)
        stored, nbytes = self._write_atomic(path, target, lines)
        self._records.pop(self._normalized(path), None)
        self._derived.pop(self._normalized(path), None)
        self.bytes_written += nbytes
        if self.block_plane is not None:
            self.block_plane.on_write(self._normalized(path), stored)
        return nbytes

    def write_records(
        self, path: str, records: Sequence[Any], codec, lines: list[str] | None = None
    ) -> int:
        """Create (or replace) a file from typed records — encode once
        (see :meth:`repro.mapreduce.dfs.InMemoryDFS.write_records`)."""
        if codec is not None:
            records = codec.columns(records)
        name, records, lines = typed_form(records, codec, lines)
        nbytes = self.write_file(path, lines)
        self._records[self._normalized(path)] = (name, records)
        return nbytes

    def typed_records(self, path: str, codec) -> list[Any] | None:
        """Cached typed records of a file (same codec), or ``None``."""
        cached = self._records.get(self._normalized(path))
        if cached is None or cached[0] != codec_name(codec):
            return None
        return cached[1]

    def cache_records(self, path: str, records: Sequence[Any], codec) -> None:
        """Attach decoded records to an existing on-disk file."""
        if not self._resolve_path(path).is_file():
            raise DFSError(f"no such file: {path!r}")
        if not hasattr(records, "take"):
            records = list(records)
        self._records[self._normalized(path)] = (codec.name, records)

    def derived_get(self, path: str, tag: str) -> Any | None:
        """A derived artifact of the current version of ``path``.

        See :meth:`repro.mapreduce.dfs.InMemoryDFS.derived_get`; like
        the typed-record cache this shadow is process-local, so a fresh
        process simply rebuilds.
        """
        cached = self._derived.get(self._normalized(path))
        return None if cached is None else cached.get(tag)

    def derived_put(self, path: str, tag: str, value: Any) -> None:
        """Attach a derived artifact to the current version of ``path``."""
        if not self._resolve_path(path).is_file():
            raise DFSError(f"no such file: {path!r}")
        self._derived.setdefault(self._normalized(path), {})[tag] = value

    def charge_read(self, path: str) -> None:
        """Account one full read of ``path`` without touching the disk.

        See :meth:`repro.mapreduce.dfs.InMemoryDFS.charge_read`.
        """
        if self.block_plane is not None:
            self.block_plane.read(self._normalized(path))
        self.bytes_read += self.file_size(path)

    def write_side_file(self, path: str, lines: Iterable[str]) -> int:
        """Create (or replace) a task side file — durable but unaccounted.

        See :meth:`repro.mapreduce.dfs.InMemoryDFS.write_side_file`:
        spill runs and quarantine files must persist like any other file
        but stay off the ``bytes_written`` ledger.
        """
        target = self._resolve_path(path)
        _, nbytes = self._write_atomic(path, target, lines)
        self._records.pop(self._normalized(path), None)
        self._derived.pop(self._normalized(path), None)
        return nbytes

    def read_side_file(self, path: str) -> list[str]:
        """All lines of a task side file — no read accounting."""
        target = self._resolve_path(path)
        if not target.is_file():
            raise DFSError(f"no such file: {path!r}")
        return target.read_text(encoding="utf-8").splitlines()

    def read_file(self, path: str) -> list[str]:
        """All lines of a file; accounts the read volume.

        With the storage plane engaged, tracked files are served from
        checksummed block replicas with transparent failover; verified
        replicas hold exactly the primary bytes, so the charged volume
        is identical either way.
        """
        target = self._resolve_path(path)
        if not target.is_file():
            raise DFSError(f"no such file: {path!r}")
        if self.block_plane is not None:
            served = self.block_plane.read(self._normalized(path))
            if served is not None:
                self.bytes_read += sum(text_bytes(line) + 1 for line in served)
                return served
        text = target.read_text(encoding="utf-8")
        self.bytes_read += text_bytes(text)
        return text.splitlines()

    def iter_records(self, path: str) -> Iterator[tuple[int, str]]:
        """Yield ``(line_number, line)`` pairs, the map-input record form."""
        for i, line in enumerate(self.read_file(path)):
            yield (i, line)

    # ------------------------------------------------------------------
    # Directory-ish operations
    # ------------------------------------------------------------------
    def list_dir(self, path: str) -> list[str]:
        """All file paths under a directory prefix, sorted."""
        target = self._resolve_path(path)
        if not target.is_dir():
            return []
        out = []
        for child in sorted(target.rglob("*")):
            if child.is_file():
                rel = child.relative_to(self.root)
                out.append("/".join(rel.parts))
        return out

    def read_dir(self, path: str) -> list[str]:
        """Concatenated lines of every file under a directory, part order."""
        files = self.list_dir(path)
        if not files:
            raise DFSError(f"no files under directory {path!r}")
        lines: list[str] = []
        for f in files:
            lines.extend(self.read_file(f))
        return lines

    def resolve(self, path: str) -> list[str]:
        """Expand a path to input files: itself if a file, else a directory."""
        target = self._resolve_path(path)
        if target.is_file():
            return [self._normalized(path)]
        files = self.list_dir(path)
        if not files:
            raise DFSError(f"no such file or directory: {path!r}")
        return files

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether the path is a file or a non-empty directory."""
        target = self._resolve_path(path)
        return target.is_file() or (target.is_dir() and bool(self.list_dir(path)))

    def file_size(self, path: str) -> int:
        """Size of one file in bytes."""
        target = self._resolve_path(path)
        if not target.is_file():
            raise DFSError(f"no such file: {path!r}")
        return target.stat().st_size

    def dir_size(self, path: str) -> int:
        """Total size of every file under a directory."""
        return sum(self.file_size(f) for f in self.list_dir(path))

    def dir_manifest(self, path: str) -> list[tuple[str, int]]:
        """Sorted ``(file, size)`` pairs under a directory — no read charge.

        See :meth:`repro.mapreduce.dfs.InMemoryDFS.dir_manifest`; here
        the sizes come from the on-disk files, so a resume in a fresh
        process verifies real durable state.
        """
        return [(f, self.file_size(f)) for f in self.list_dir(path)]

    def num_records(self, path: str) -> int:
        """Record (line) count of a file or directory."""
        target = self._resolve_path(path)
        files = [path] if target.is_file() else self.list_dir(path)
        return sum(len(self.read_side_file(f)) for f in files)

    def delete(self, path: str) -> int:
        """Delete a file or directory subtree; returns #files removed."""
        target = self._resolve_path(path)
        if target.is_file():
            target.unlink()
            self._records.pop(self._normalized(path), None)
            self._derived.pop(self._normalized(path), None)
            if self.block_plane is not None:
                self.block_plane.on_delete(self._normalized(path))
            return 1
        doomed = self.list_dir(path)
        for f in doomed:
            self._records.pop(f, None)
            self._derived.pop(f, None)
        if target.is_dir():
            shutil.rmtree(target)
        if self.block_plane is not None:
            for f in doomed:
                self.block_plane.on_delete(f)
        return len(doomed)

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalFSDFS({self.root})"
