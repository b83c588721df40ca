"""An in-memory distributed file system with I/O accounting.

The paper's cluster stores inputs and intermediate results on HDFS; the
reproduction replaces it with an in-process store that keeps the two
properties the evaluation depends on:

* every file has a canonical line-oriented text form — sizes, the final
  join output and externally-visible reads are always the encoded
  lines — and
* every byte read or written is accounted, because the read/write volume
  of the 2-way Cascade is one of the paper's two cost stories.

Since PR 2 a file may additionally carry its *typed records*: when a
reduce phase writes through a :class:`~repro.data.io.RecordCodec`, each
record is encoded exactly once (the lines above — that write is what the
byte accounting charges) and the decoded objects are kept alongside.  A
downstream job that declares a matching input codec reads the objects
back without re-parsing; byte accounting is unchanged because reads are
still charged at the encoded size.  Rewriting or deleting a path drops
its typed records, so lines stay the source of truth.  The typed form
may be a *column bundle* (:mod:`repro.kernels.batch`) — a lazy sequence
of those same records that the store keeps whole — and a writer that
has already encoded its records passes the lines along with them.

A file's size is always the size of its encoded lines, but those lines
need not exist to be sized.  A bundle that measures its own lines by
column (``line_sizes``) is stored without text: its size is the sum of
those measures, and the text is formatted from the bundle by the codec
the first time something reads it (:meth:`InMemoryDFS.read_file`,
:meth:`~InMemoryDFS.read_side_file`, or the block plane, which formats
it at write time to checksum its blocks and leaves it for later reads).

Paths behave like HDFS paths: plain strings with ``/`` separators.  A job
writes one ``part-NNNNN`` file per reducer under its output directory and
downstream jobs read the directory back via :meth:`InMemoryDFS.read_dir`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import DFSError

__all__ = ["InMemoryDFS", "codec_name", "text_bytes", "typed_form"]


def _normalize(path: str) -> str:
    if not path or path.startswith("/") and len(path) == 1:
        raise DFSError(f"invalid DFS path {path!r}")
    return path.strip("/")


def text_bytes(text: str) -> int:
    """UTF-8 size of ``text``: what a file holding it occupies on disk.
    ASCII text — nearly every line — is measured without encoding it."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def codec_name(codec) -> str:
    """The typed store's key for ``codec``; ``None`` names the records
    of a text file — its lines."""
    return "lines" if codec is None else codec.name


def _encode(records: Sequence[Any], codec) -> list[str]:
    """The lines of ``records`` (their rows when ``codec`` is ``None``)."""
    return list(records) if codec is None else codec.encode_lines(records)


def typed_form(records: Sequence[Any], codec, lines) -> tuple[str, Sequence[Any], list[str]]:
    """``(codec name, records, lines)`` as :meth:`InMemoryDFS.write_records`
    stores them (shared by both DFS back-ends).

    A column bundle (a sequence with ``take``) is kept whole, anything
    else copied into a list — the writer has already turned ``records``
    into the codec's bundle, for a format whose files keep one
    (:meth:`~repro.data.io.RecordCodec.columns`); ``lines`` are encoded
    here unless the writer already did.
    """
    if not hasattr(records, "take"):
        records = list(records)
    if lines is None:
        lines = _encode(records, codec)
    elif len(lines) != len(records):
        raise DFSError(
            f"{len(lines)} encoded lines do not match {len(records)} typed records"
        )
    return codec_name(codec), records, lines


class _BundleText(Sequence):
    """The lines of a bundle-backed file, formatted on first access.

    Its length is the bundle's record count; iterating or indexing it
    encodes the bundle through ``codec`` (the bundle's own rows when
    ``codec`` is ``None``) once and keeps the lines.
    """

    __slots__ = ("records", "codec", "_lines")

    def __init__(self, records: Sequence[Any], codec) -> None:
        self.records = records
        self.codec = codec
        self._lines: list[str] | None = None

    def _text(self) -> list[str]:
        if self._lines is None:
            self._lines = _encode(self.records, self.codec)
        return self._lines

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self._text()[i]

    def __iter__(self):
        return iter(self._text())


class InMemoryDFS:
    """A minimal HDFS stand-in: named immutable line files plus accounting."""

    def __init__(self) -> None:
        #: path -> lines (a :class:`_BundleText` for a bundle sized by column)
        self._files: dict[str, Sequence[str]] = {}
        #: path -> byte size (UTF-8 line sizes + newlines), set at write time
        self._sizes: dict[str, int] = {}
        #: typed-record shadow of ``_files`` (only codec-written paths):
        #: path -> (codec name, records); the codec name guards against
        #: reading one format's objects through another format's codec
        self._records: dict[str, tuple[str, list[Any]]] = {}
        #: per-file-version derived artifacts (a codec's split entries):
        #: path -> tag -> value, dropped whenever the path is rewritten
        #: or deleted — exactly like ``_records``
        self._derived: dict[str, dict[str, Any]] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        #: the durable-storage plane (:class:`repro.mapreduce.blocks
        #: .BlockPlane`) when ``Cluster(replication=N)`` engaged it;
        #: ``None`` means every hook below is a single identity check —
        #: the unreplicated store behaves byte-for-byte as before
        self.block_plane = None

    # ------------------------------------------------------------------
    # Write / read
    # ------------------------------------------------------------------
    def write_file(self, path: str, lines: Iterable[str]) -> int:
        """Create (or replace) a file; returns the number of bytes written.

        Each line is stored without a trailing newline but accounted with
        one, matching text-file sizes on a real DFS.
        """
        path = _normalize(path)
        nbytes = self._store(path, lines)
        self.bytes_written += nbytes
        if self.block_plane is not None:
            self.block_plane.on_write(path, self._files[path])
        return nbytes

    def _store(self, path: str, lines: Iterable[str]) -> int:
        """Validate, size and keep the lines of (normalized) ``path``,
        dropping what was derived from its previous version."""
        stored = list(lines)
        # One join stands for the per-line newline test and length sum
        # (``in`` on the joined text is a memchr; ``count`` is not).
        joined = "".join(stored)
        if "\n" in joined:
            line = next(line for line in stored if "\n" in line)
            raise DFSError(f"record contains a newline: {line!r}")
        nbytes = text_bytes(joined) + len(stored)
        self._keep(path, stored, nbytes)
        return nbytes

    def _keep(self, path: str, lines: Sequence[str], nbytes: int) -> None:
        """Make ``lines`` the current version of (normalized) ``path``."""
        self._files[path] = lines
        self._sizes[path] = nbytes
        self._records.pop(path, None)
        self._derived.pop(path, None)

    def write_records(
        self, path: str, records: Sequence[Any], codec, lines: list[str] | None = None
    ) -> int:
        """Create (or replace) a file from typed records — encode once.

        Each record is serialized through ``codec`` at most once — here,
        by the writer that passes the result as ``lines`` (a reduce task
        encodes its own record objects), or on first read: the lines are
        the durable, accounted form (identical bytes to a string-path
        writer), and the records are kept so a downstream job reading
        with the same codec skips the parse entirely.

        A bundle passed without ``lines`` that sizes its own lines
        (``line_sizes()`` not ``None``) is charged the sum of those sizes
        and its text is formatted only when first needed: by a read, or
        by the block plane's checksums when the plane is engaged.
        """
        sizes = None
        if codec is not None:
            records = codec.columns(records)
        if lines is None and hasattr(records, "line_sizes"):
            sizes = records.line_sizes()
        norm = _normalize(path)
        if sizes is None:
            name, records, lines = typed_form(records, codec, lines)
            nbytes = self.write_file(norm, lines)
        else:
            name, nbytes = codec_name(codec), int(sizes.sum())
            self._keep(norm, _BundleText(records, codec), nbytes)
            self.bytes_written += nbytes
            if self.block_plane is not None:
                self.block_plane.on_write(norm, self._files[norm])
        self._records[norm] = (name, records)
        return nbytes

    def typed_records(self, path: str, codec) -> list[Any] | None:
        """The typed records of a codec-written file, or ``None``.

        Returns the resident objects only when they were produced by the
        same codec (matched by registry name) — a format mismatch falls
        back to ``None`` and the caller decodes the lines, which raises
        the usual malformed-record error.

        Does **not** account a read: callers pair this with
        :meth:`read_file` (or :meth:`file_size`) so the charged volume is
        exactly the encoded size, typed or not.  The returned list is
        shared — records are treated as immutable by convention (the
        engine never mutates shuffled values).
        """
        cached = self._records.get(_normalize(path))
        if cached is None or cached[0] != codec_name(codec):
            return None
        return cached[1]

    def cache_records(self, path: str, records: Sequence[Any], codec) -> None:
        """Attach decoded records to an existing line file (decode once).

        Used by the engine after lazily decoding a file that was written
        as plain lines (e.g. externally staged input), so repeated reads
        — the Cascade re-reads base relations at every step — parse each
        line at most once per file version.
        """
        norm = _normalize(path)
        if norm not in self._files:
            raise DFSError(f"no such file: {path!r}")
        if not hasattr(records, "take"):
            records = list(records)
        if len(records) != len(self._files[norm]):
            raise DFSError(
                f"typed record count {len(records)} does not match the "
                f"{len(self._files[norm])} lines of {path!r}"
            )
        self._records[norm] = (codec.name, records)

    def derived_get(self, path: str, tag: str) -> Any | None:
        """A derived artifact of the *current* version of ``path``.

        Derived artifacts (a codec's split entries) are pure functions
        of a file's content; rewriting or deleting the file drops them,
        so a hit is always consistent.  Like
        :meth:`typed_records` this never accounts a read — callers pair
        it with :meth:`charge_read` so byte accounting is unchanged.
        """
        cached = self._derived.get(_normalize(path))
        return None if cached is None else cached.get(tag)

    def derived_put(self, path: str, tag: str, value: Any) -> None:
        """Attach a derived artifact to the current version of ``path``."""
        norm = _normalize(path)
        if norm not in self._files:
            raise DFSError(f"no such file: {path!r}")
        self._derived.setdefault(norm, {})[tag] = value

    def charge_read(self, path: str) -> None:
        """Account one full read of ``path`` without materialising lines.

        The byte-accounting half of :meth:`read_file`, for callers that
        already hold the file's records (typed or derived caches): the
        canonical ``DFS_BYTES_READ`` volume stays exactly what a line
        read would have charged.
        """
        if self.block_plane is not None:
            # Cache hits still verify checksums end to end, so corrupt
            # replicas are detected at identical points whether or not
            # the lines materialise.
            self.block_plane.read(path)
        self.bytes_read += self.file_size(path)

    def write_side_file(self, path: str, lines: Iterable[str]) -> int:
        """Create (or replace) a task side file — durable but unaccounted.

        Side files are the engine's scratch artifacts (map-side spill
        runs, bad-record quarantines): they must survive like any other
        file — reduce tasks and post-mortems read them back — but they
        are *not* job I/O, so they bypass the ``bytes_written`` ledger
        the canonical ``DFS_BYTES_WRITTEN`` counter is derived from.
        Returns the byte size the file would account at.
        """
        return self._store(_normalize(path), lines)

    def read_side_file(self, path: str) -> list[str]:
        """All lines of a task side file — no read accounting.

        The unaccounted twin of :meth:`read_file`, for reading task
        side files (spill runs, quarantines) back without disturbing
        the canonical ``DFS_BYTES_READ`` counter.
        """
        path = _normalize(path)
        if path not in self._files:
            raise DFSError(f"no such file: {path!r}")
        return list(self._files[path])

    def read_file(self, path: str) -> list[str]:
        """All lines of a file; accounts the read volume.

        With the storage plane engaged, tracked files are reassembled
        from checksummed block replicas (failing over past corrupt or
        lost copies); the charged volume is identical either way, since
        verified replicas hold exactly the primary bytes.
        """
        path = _normalize(path)
        if path not in self._files:
            raise DFSError(f"no such file: {path!r}")
        served = None if self.block_plane is None else self.block_plane.read(path)
        self.bytes_read += self.file_size(path)
        return list(self._files[path]) if served is None else served

    def iter_records(self, path: str) -> Iterator[tuple[int, str]]:
        """Yield ``(line_number, line)`` pairs, the map-input record form."""
        for i, line in enumerate(self.read_file(path)):
            yield (i, line)

    # ------------------------------------------------------------------
    # Directory-ish operations
    # ------------------------------------------------------------------
    def list_dir(self, path: str) -> list[str]:
        """All file paths under a directory prefix, sorted."""
        prefix = _normalize(path) + "/"
        return sorted(p for p in self._files if p.startswith(prefix))

    def read_dir(self, path: str) -> list[str]:
        """Concatenated lines of every file under a directory, part order."""
        files = self.list_dir(path)
        if not files:
            raise DFSError(f"no files under directory {path!r}")
        out: list[str] = []
        for f in files:
            out.extend(self.read_file(f))
        return out

    def resolve(self, path: str) -> list[str]:
        """Expand a path to input files: itself if a file, else a directory."""
        norm = _normalize(path)
        if norm in self._files:
            return [norm]
        files = self.list_dir(norm)
        if not files:
            raise DFSError(f"no such file or directory: {path!r}")
        return files

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether the path is a file or a non-empty directory."""
        norm = _normalize(path)
        return norm in self._files or bool(self.list_dir(norm))

    @property
    def is_empty(self) -> bool:
        """``True`` when the store holds no files at all.

        Used by the cluster's resume guard: an *empty* in-memory DFS has
        nothing a resumed workflow could possibly restore.
        """
        return not self._files

    def file_size(self, path: str) -> int:
        """Size of one file in bytes (UTF-8 line sizes + newlines)."""
        path = _normalize(path)
        if path not in self._files:
            raise DFSError(f"no such file: {path!r}")
        return self._sizes[path]

    def dir_size(self, path: str) -> int:
        """Total size of every file under a directory."""
        return sum(self.file_size(f) for f in self.list_dir(path))

    def dir_manifest(self, path: str) -> list[tuple[str, int]]:
        """Sorted ``(file, size)`` pairs under a directory — no read charge.

        The completeness fingerprint workflow checkpoints store and
        verify on resume: a job output whose manifest matches was fully
        committed (part files are written atomically, last file last).
        """
        return [(f, self.file_size(f)) for f in self.list_dir(path)]

    def num_records(self, path: str) -> int:
        """Record (line) count of a file or directory."""
        norm = _normalize(path)
        if norm in self._files:
            return len(self._files[norm])
        return sum(len(self._files[f]) for f in self.list_dir(norm))

    def delete(self, path: str) -> int:
        """Delete a file or directory subtree; returns #files removed."""
        norm = _normalize(path)
        doomed = [norm] if norm in self._files else self.list_dir(norm)
        for f in doomed:
            del self._files[f]
            del self._sizes[f]
            self._records.pop(f, None)
            self._derived.pop(f, None)
        if self.block_plane is not None:
            for f in doomed:
                self.block_plane.on_delete(f)
        return len(doomed)

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InMemoryDFS({len(self._files)} files)"
