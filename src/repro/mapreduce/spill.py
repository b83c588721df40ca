"""Spill-run format and the reduce-side read-back.

Memory governance splits a map task's shuffle buffer into *runs*: when
the buffered bytes (measured by the job's :class:`ShuffleCodec` sizers,
the same accounting the canonical ``MAP_OUTPUT_BYTES`` counter uses)
exceed the task's budget, the buffered slice of every bucket is written
to the DFS as a side file; the final unspilled remainder travels in the
task result as before.

A run is its bucket slice in *emission order*: the ``(key, value)``
list of a row bucket, or one :class:`~repro.mapreduce.job.BucketSegment`
over just the slice's values for a columnar bucket.  A task's spilled
runs followed by its resident remainder are therefore exactly its
unbounded bucket, so the reduce task reads each run back where it was
emitted (:meth:`SpillStore.read_back`) and groups with the same stable
sort an unbudgeted run uses.  Byte-for-byte part files, identical
counters, identical canonical simulated seconds.

A run file is one line, ``base64(pickle(run))`` — pickling because
shuffle values are arbitrary Python objects, base64 because DFS lines
must stay newline-free text.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass, field
from typing import Any

__all__ = ["SpillRun", "SpillStore", "decode_run", "encode_run", "spill_dir"]


def spill_dir(job_name: str) -> str:
    """DFS directory holding a job's spill runs."""
    return f"_spill/{job_name}"


def encode_run(run: Any) -> str:
    """A run file's one line: newline-free text for a bucket slice."""
    blob = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


def decode_run(line: str) -> Any:
    """Inverse of :func:`encode_run`."""
    return pickle.loads(base64.b64decode(line.encode("ascii")))


@dataclass(frozen=True, slots=True)
class SpillRun:
    """A reference to one spilled run, standing in a reducer's input
    where the run's emissions were made by map task ``task``."""

    path: str
    task: int | None = None


@dataclass(slots=True)
class SpillStore:
    """A read-only snapshot of one job's spill side files.

    The engine writes every run to the DFS (durability — the files are
    inspectable until the job commits) and hands reduce tasks this
    snapshot instead, which pickles at the size of the spilled data
    alone, so process-pool workers never serialize the whole DFS.
    """

    files: dict[str, list[str]] = field(default_factory=dict)

    def read_back(self, items: list, rows: bool = False) -> list:
        """``items`` with every :class:`SpillRun` replaced in place by its
        run: a row run's pairs, or its segment — as pairs when ``rows``
        (a reducer on the row shuffle)."""
        out: list = []
        for item in items:
            if type(item) is not SpillRun:
                out.append(item)
                continue
            run = decode_run(self.files[item.path][0])
            if isinstance(run, list):
                out.extend(run)
            elif rows:
                out.extend(run.pairs())
            else:
                run.task = item.task
                out.append(run)
        return out
