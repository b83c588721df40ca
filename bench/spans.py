"""Layer spans recorded from the benchmark's own files.

The program under test is not instrumented.  For the *traced* pass only,
:func:`installed` patches the public callables at each layer boundary
(class and module attributes) with wrappers that record a span — name,
start, end, parent — into an in-memory :class:`Tracer`, and restores the
original objects in a ``finally``.  Timed repetitions run with nothing
installed (:func:`changed_since` checks that).

A span's *self time* is its duration minus the part of that interval its
child spans cover, so the self times of all spans under one root add up
to the root's duration: the per-layer budget sums to the wall clock.

A target that no longer exists (renamed or removed by a later refactor)
is skipped with one warning line and its layer reports ``None`` when no
callable of the layer is left — the traced pass never fails the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Tracer",
    "TARGETS",
    "installed",
    "snapshot",
    "changed_since",
    "layer_totals",
    "ROOT_LAYER",
]

#: layer of the benchmark's own span around ``algorithm.run``
ROOT_LAYER = "bench.run"

_DFS_IO = (
    "write_file",
    "write_records",
    "typed_records",
    "cache_records",
    "read_file",
    "read_dir",
    "delete",
)
_BULK_CODEC = ("encode_lines", "decode_lines")

#: (layer, "module" or "module:Class", attribute names).  The job's
#: mapper / batch_mapper / reducer callables and the executors' task
#: workers have no importable name; they are wrapped as they cross
#: ``Cluster.run_job`` and ``run_phase`` (see :func:`installed`).
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("mapreduce.engine", "repro.mapreduce.engine:Cluster", ("run_job",)),
    ("mapreduce.executor", "repro.mapreduce.executor:SerialExecutor", ("run_phase",)),
    ("mapreduce.executor", "repro.mapreduce.executor:ProcessExecutor", ("run_phase",)),
    (
        "mapreduce.executor",
        "repro.mapreduce.executor",
        ("pack_task_result", "unpack_task_result"),
    ),
    ("mapreduce.dfs", "repro.mapreduce.dfs:InMemoryDFS", _DFS_IO),
    ("joins.marking", "repro.joins.marking:MarkingEngine", ("select_marked",)),
    (
        "joins.local",
        "repro.joins.local:LocalJoiner",
        ("enumerate", "enumerate_columnar"),
    ),
    ("joins.collect", "repro.joins.base:MultiWayJoinAlgorithm", ("_collect_tuples",)),
    ("index.build", "repro.index.grid_index:GridIndex", ("__init__",)),
    (
        "index.probe",
        "repro.index.grid_index:GridIndex",
        ("search", "search_batch", "probe_batch", "probe_frontier"),
    ),
    (
        "kernels.route",
        "repro.kernels.transforms",
        ("overlap_cell_lists", "cell_ids_of_starts", "quadrant_cell_lists"),
    ),
    ("data.codec", "repro.data.io:RecordCodec", _BULK_CODEC),
    ("data.codec", "repro.data.io:RectCodec", _BULK_CODEC),
    ("data.codec", "repro.data.io:TaggedCodec", ("encode_lines",)),
    ("data.codec", "repro.data.io:TupleCodec", ("encode_lines",)),
)
#: the two ends of the task-result pipe change the wire format together
_PAIRED = "repro.mapreduce.executor"
#: layers of the callables wrapped in flight rather than by name
_JOB_CALLABLES = (
    ("mapper", "joins.mapper"),
    ("batch_mapper", "joins.mapper"),
    ("reducer", "joins.reducer"),
)


class Tracer:
    """In-memory span store: ``(id, parent id, name, start, end)`` tuples.

    Span names are ``"<layer>:<callable>"``.  The store is per process; a
    forked task ships the spans it closed back with its result (see the
    ``pack_task_result`` / ``unpack_task_result`` wrappers) and the
    parent adopts them under fresh ids.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[tuple[int, int, str, float]] = []
        self._next = 0
        #: spans below this index were closed before the current phase
        #: forked its workers (what a forked task must *not* ship back)
        self._fork_base = 0
        self.ipc_bytes = 0
        #: layers with at least one callable installed
        self.layers: set[str] = set()

    def begin(self, name: str) -> tuple[int, int, str, float]:
        self._next += 1
        stack = self._stack
        frame = (self._next, stack[-1][0] if stack else 0, name, perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame: tuple[int, int, str, float]) -> None:
        now = perf_counter()
        self._stack.pop()
        self.spans.append(frame + (now,))

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    # -- fork hand-over -------------------------------------------------
    def mark_fork(self) -> None:
        self._fork_base = len(self.spans)

    def drain_task_spans(self) -> list[tuple[int, int, str, float, float]]:
        """In a forked task: the spans closed since the fork, removed."""
        batch = self.spans[self._fork_base :]
        del self.spans[self._fork_base :]
        return batch

    def adopt(self, batch) -> None:
        """In the parent: take a forked task's spans under fresh ids.

        Ids inside the batch are remapped (two workers hand out the same
        ones); a parent id outside the batch names a span that was open
        when the pool forked, which has the same id here.
        """
        fresh = {}
        for sid, *_ in batch:
            self._next += 1
            fresh[sid] = self._next
        for sid, parent, name, start, end in batch:
            self.spans.append((fresh[sid], fresh.get(parent, parent), name, start, end))


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _traced(tracer: Tracer, name: str, fn):
    begin, end = tracer.begin, tracer.end
    # A span around a generator call would close before the body runs:
    # drain it inside the span.  Same items, same order.
    drain = inspect.isgeneratorfunction(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = begin(name)
        try:
            result = fn(*args, **kwargs)
            return iter(list(result)) if drain else result
        finally:
            end(frame)

    return traced


def _traced_run_job(tracer: Tracer, name: str, run_job):
    """``Cluster.run_job`` span that also wraps the job's user callables.

    The engine gets a copy of the job whose mapper / batch_mapper /
    reducer record spans: the engine <-> user-code boundary.
    """
    traced_run = _traced(tracer, name, run_job)

    @functools.wraps(run_job)
    def run_job_traced(cluster, job):
        changes = {
            field: _traced(tracer, f"{layer}:{field}", getattr(job, field))
            for field, layer in _JOB_CALLABLES
            if getattr(job, field, None) is not None
        }
        return traced_run(cluster, dataclasses.replace(job, **changes))

    return run_job_traced


def _traced_run_phase(tracer: Tracer, name: str, run_phase):
    """Executor span; each task body becomes an engine span."""
    traced_phase = _traced(tracer, name, run_phase)

    @functools.wraps(run_phase)
    def run_phase_traced(executor, worker, num_tasks, payload):
        tracer.mark_fork()
        task = _traced(tracer, "mapreduce.engine:task", worker)
        return traced_phase(executor, task, num_tasks, payload)

    return run_phase_traced


def _traced_pack(tracer: Tracer, name: str, pack):
    """Child side of the pipe: append the task's spans to the payload."""
    traced_pack = _traced(tracer, name, pack)

    @functools.wraps(pack)
    def pack_traced(result):
        data, buffers = traced_pack(result)
        return data, buffers, tracer.drain_task_spans()

    return pack_traced


def _traced_unpack(tracer: Tracer, name: str, unpack):
    """Parent side: count payload bytes, adopt the spans, then unpack."""
    traced_unpack = _traced(tracer, name, unpack)

    @functools.wraps(unpack)
    def unpack_traced(packed):
        data, buffers, task_spans = packed
        tracer.ipc_bytes += len(data) + sum(len(b) for b in buffers)
        tracer.adopt(task_spans)
        return traced_unpack((data, buffers))

    return unpack_traced


_SPECIAL = {
    "run_job": _traced_run_job,
    "run_phase": _traced_run_phase,
    "pack_task_result": _traced_pack,
    "unpack_task_result": _traced_unpack,
}


def _wrap_attr(tracer: Tracer, layer: str, owner, attr: str, original):
    name = f"{layer}:{owner.__name__.rpartition('.')[2]}.{attr}"
    make = _SPECIAL.get(attr, _traced)
    if isinstance(original, staticmethod):
        return staticmethod(make(tracer, name, original.__func__))
    return make(tracer, name, original)


def _lookup(path: str, attrs) -> tuple[object, dict]:
    """``(owner, {attr: object stored under it})`` for the attrs that exist."""
    try:
        owner = _resolve(path)
    except (ImportError, AttributeError):
        return None, {}
    return owner, {a: vars(owner)[a] for a in attrs if a in vars(owner)}


@contextmanager
def installed(tracer: Tracer, targets=TARGETS, warn=print):
    """Patch every target for the duration of the block, then restore."""
    patches = []
    try:
        for layer, path, attrs in targets:
            owner, found = _lookup(path, attrs)
            for attr in attrs:
                if attr not in found:
                    warn(f"warning: span target {path}.{attr} not found; skipped")
            if path == _PAIRED and len(found) < len(attrs):
                continue
            for attr, original in found.items():
                setattr(owner, attr, _wrap_attr(tracer, layer, owner, attr, original))
                patches.append((owner, attr, original))
                tracer.layers.add(layer)
                if attr == "run_job":
                    tracer.layers.update(lyr for _, lyr in _JOB_CALLABLES)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def snapshot(targets=TARGETS) -> dict:
    """The object currently stored under every target that exists."""
    return {
        (path, attr): obj
        for _, path, attrs in targets
        for attr, obj in _lookup(path, attrs)[1].items()
    }


def changed_since(pristine: dict) -> list[str]:
    """Targets that are no longer the objects of ``pristine``."""
    return [
        f"{path}.{attr}"
        for (path, attr), obj in snapshot().items()
        if obj is not pristine.get((path, attr))
    ]


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """``layer -> (summed self time, span count)``.

    Child cover is the *union* of the child intervals, so the tasks of a
    process-executor phase, which overlap in time, are not subtracted
    twice from the executor span that waited for them.
    """
    covered: dict[int, float] = defaultdict(float)
    cursor: dict[int, float] = {}
    for _sid, parent, _name, start, end in sorted(spans, key=lambda s: s[3]):
        lo = max(start, cursor.get(parent, start))
        if end > lo:
            covered[parent] += end - lo
            cursor[parent] = end
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for sid, _parent, name, start, end in spans:
        self_s = (end - start) - covered.get(sid, 0.0)
        if self_s < -1e-6:
            raise AssertionError(f"span {name} has negative self time {self_s}")
        entry = totals[name.partition(":")[0]]
        entry[0] += max(self_s, 0.0)
        entry[1] += 1
    return {layer: (t, n) for layer, (t, n) in totals.items()}
