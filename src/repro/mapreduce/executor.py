"""Pluggable task executors: how the simulated cluster runs its tasks.

The engine models a k-reducer Hadoop cluster; this module decides how
much *actual* hardware parallelism backs that model.  A phase (all map
tasks, or all reduce tasks, of one job) is a list of independent task
invocations ``worker(payload, index)`` where

* ``payload`` is the phase-wide immutable state (the job plus the task
  inputs), shared by reference in-process and inherited by forked
  workers, and
* ``index`` is the task id (split index or reducer id).

Three back-ends are provided:

``serial``
    Run tasks one after another in the calling thread (the seed
    behaviour, and the default).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Python threads
    only overlap during C-level work, but the back-end exercises the
    same task isolation as processes and is cheap to spin up.
``process``
    ``num_workers`` processes run tasks, and the calling process is one
    of them: ``run_phase`` forks ``num_workers - 1`` children, then the
    parent and the children claim task ids from one shared counter.
    Children inherit the payload through copy-on-write memory, so job
    closures (mappers capturing grids, marking engines, joiners) need
    not be picklable; only the children's task *results* cross a pipe.
    Only streaming sessions (:meth:`TaskExecutor.open_session`) use a
    :class:`multiprocessing.pool.Pool`, because they must be able to
    abandon a running attempt.  On platforms without ``fork`` the
    back-end degrades to threads.

Determinism contract: ``run_phase`` returns results indexed by task id
regardless of completion order, and workers must be pure functions of
``(payload, index)``.  The engine merges results in task-id order, so a
job produces byte-identical output at every worker count.

Timing contract (observability): executors do not time tasks — the task
functions stamp ``time.perf_counter()`` at entry and exit *inside the
worker* and ship the stamps back in their result objects.  That way the
per-task durations the dashboard and trace report are true worker-side
durations on every back-end: thread-pool queueing shows up as a gap
between dispatch and ``t_start``, not as inflated task time, and forked
workers' stamps are directly comparable with the parent's because
``perf_counter`` is the system-wide CLOCK_MONOTONIC on Linux.  Back-ends
that fall back (``process`` without ``fork`` support degrades to
threads) therefore keep honest timelines with no executor cooperation.

Result contract: everything a task hands back must be **picklable** —
the process back-end ships the results of forked tasks through a pipe.
That includes the observability payloads riding in result objects:
worker-side time stamps, counter shards, and (under ``--profile``) the
raw cProfile stats dict ``{(file, line, func): (cc, nc, tt, ct,
callers)}``, which is plain tuples/dicts/strings by construction.

Worker identity: executors know nothing about the *named* virtual
workers of :mod:`repro.mapreduce.workers` — threads and processes here
are anonymous interchangeable capacity.  The recovery dispatcher assigns
each attempt a worker name parent-side and threads it through the
opaque session tag (the 5-tuple ``(index, attempt, speculative, skips,
worker_name)``), so failure domains are identical on every back-end
without the back-ends cooperating: killing virtual worker ``w2`` loses
the same attempts and the same committed map outputs whether the tasks
physically ran on one thread or sixteen forks.
"""

from __future__ import annotations

import abc
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Any

from repro.errors import JobError

__all__ = [
    "EXECUTORS",
    "TaskExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "PhaseSession",
    "make_executor",
    "default_workers",
]

#: worker(payload, task_index) -> task result
TaskWorker = Callable[[Any, int], Any]


def default_workers() -> int:
    """Worker count when the caller does not pick one: usable CPUs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class PhaseSession(abc.ABC):
    """Streaming task dispatch: submit tagged invocations, await completions.

    The recovery layer (:mod:`repro.mapreduce.faults`) uses sessions for
    speculative execution, where the task population grows *while* the
    phase runs — a straggler gets a backup attempt submitted mid-flight
    and the first finisher wins — and for the hung-task watchdog, which
    sweeps between completions and re-dispatches any attempt past its
    wall-clock bound (an abandoned attempt keeps occupying its pool slot
    until it returns or the session closes; its late result is dropped
    by the caller).  ``run_phase`` cannot express either (its task list
    is fixed up front), so parallel back-ends expose this lower-level
    API as well:

    * :meth:`submit` enqueues ``worker(payload, tag)`` where ``tag`` is
      an arbitrary (picklable) value identifying the invocation — the
      recovery layer uses ``(task index, attempt id, speculative)``
      tuples;
    * :meth:`next_done` blocks until any submitted invocation finishes
      and returns ``(tag, result)``, or ``None`` on timeout so the
      caller can run its straggler monitor and watchdog sweep between
      completions.

    Sessions are context managers; leaving the ``with`` block releases
    the pool, abandoning invocations that are still running (their
    results are discarded — exactly the semantics a speculative loser
    needs).
    """

    @abc.abstractmethod
    def submit(self, tag: Any) -> None:
        """Enqueue one ``worker(payload, tag)`` invocation."""

    @abc.abstractmethod
    def next_done(self, timeout: float | None = None):
        """``(tag, result)`` of the next finished invocation, or ``None``.

        Raises the invocation's exception if it raised.  ``None`` is
        returned only on timeout; with no timeout the call blocks until
        a completion arrives (calling with nothing outstanding is a
        caller bug and raises :class:`~repro.errors.JobError`).
        """

    def __enter__(self) -> "PhaseSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @abc.abstractmethod
    def close(self) -> None:
        """Release the pool, discarding unfinished invocations."""


class TaskExecutor(abc.ABC):
    """Runs one phase of independent tasks, preserving task-id order."""

    name: str = "abstract"

    @abc.abstractmethod
    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        """Run ``worker(payload, i)`` for ``i in range(num_tasks)``.

        Returns the results ordered by task id.  A task exception
        aborts the phase and propagates to the caller.
        """

    def open_session(self, worker: TaskWorker, payload: Any) -> PhaseSession | None:
        """A streaming :class:`PhaseSession`, or ``None`` when the
        back-end has no useful concurrency to offer (serial execution,
        or a single worker).  Callers must fall back to :meth:`run_phase`
        on ``None``."""
        return None


class SerialExecutor(TaskExecutor):
    """Tasks run inline, one after another — the seed engine behaviour."""

    name = "serial"

    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        return [worker(payload, i) for i in range(num_tasks)]


class ThreadExecutor(TaskExecutor):
    """Tasks run on a thread pool sharing the payload by reference."""

    name = "thread"

    def __init__(self, num_workers: int | None = None) -> None:
        self.num_workers = num_workers if num_workers else default_workers()

    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        if num_tasks <= 1 or self.num_workers <= 1:
            return SerialExecutor().run_phase(worker, num_tasks, payload)
        with ThreadPoolExecutor(
            max_workers=min(self.num_workers, num_tasks)
        ) as pool:
            futures = [
                pool.submit(worker, payload, i) for i in range(num_tasks)
            ]
            # Wait until everything finished or something failed; a
            # failure cancels the still-queued tail instead of running
            # every remaining task to completion first (the pool starts
            # tasks in submission order, so cancelled futures are always
            # a suffix and never hide a lower failing task id).
            wait(futures, return_when=FIRST_EXCEPTION)
            if any(f.done() and not f.cancelled() and f.exception() for f in futures):
                for f in futures:
                    f.cancel()
            # Collect in submission order: results land at their task id
            # and the lowest failing task id is the one that raises.
            return [f.result() for f in futures if not f.cancelled()]

    def open_session(self, worker: TaskWorker, payload: Any) -> PhaseSession | None:
        if self.num_workers <= 1:
            return None
        return _ThreadSession(worker, payload, self.num_workers)


class _ThreadSession(PhaseSession):
    """Thread-pool session: payload shared by reference, tags by value."""

    def __init__(self, worker: TaskWorker, payload: Any, num_workers: int) -> None:
        self._pool = ThreadPoolExecutor(max_workers=num_workers)
        self._worker = worker
        self._payload = payload
        self._pending: dict[Any, Any] = {}  # future -> tag

    def submit(self, tag: Any) -> None:
        self._pending[self._pool.submit(self._worker, self._payload, tag)] = tag

    def next_done(self, timeout: float | None = None):
        if not self._pending:
            raise JobError("next_done called with no outstanding invocations")
        done, __ = wait(self._pending, timeout=timeout, return_when=FIRST_COMPLETED)
        if not done:
            return None
        future = next(iter(done))
        tag = self._pending.pop(future)
        return tag, future.result()

    def close(self) -> None:
        # Unstarted invocations are dropped; running ones finish in the
        # background with their results discarded (speculative losers).
        for future in self._pending:
            future.cancel()
        self._pool.shutdown(wait=False)
        self._pending.clear()


# Payload handoff for session pools.  Set in the parent immediately
# before a session's pool forks; its workers inherit it through
# copy-on-write, so nothing here is ever pickled.  The lock serializes
# the set-fork-restore window so concurrent sessions (two clusters on
# two threads) can never fork a pool against another call's payload;
# save-and-restore (instead of resetting to ``None``) keeps an outer
# call's state intact across an inner one.  ``run_phase`` needs none of
# this: its children inherit the worker and payload as locals.
_FORK_STATE: tuple[TaskWorker, Any] | None = None
_FORK_LOCK = threading.Lock()


def pack_task_result(result) -> tuple[bytes, list[bytes]]:
    """Serialize a task result for the pipe: protocol 5, out-of-band.

    The worker serializes once with pickle protocol 5, exporting large
    contiguous buffers (numpy key arrays of columnar bucket segments)
    out-of-band via ``buffer_callback`` instead of
    re-framing them inside the stream.  The pipe then carries
    ``(data, buffers)`` — two flat byte payloads — rather than
    re-pickling the whole object graph at the transport's default
    protocol 4.  Combined with the compact ``__getstate__`` forms of
    ``Rect``/``TaggedRect`` this measurably shrinks per-task IPC (see
    the regression test in ``tests/mapreduce/test_executor.py``).
    """
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    return data, [b.raw().tobytes() for b in buffers]


def unpack_task_result(packed: tuple[bytes, list[bytes]]):
    """Inverse of :func:`pack_task_result`."""
    data, buffers = packed
    return pickle.loads(data, buffers=buffers)


def _run_forked_task(tag):
    worker, payload = _FORK_STATE  # type: ignore[misc] - set before fork
    return pack_task_result(worker(payload, tag))


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


def _portable(exc: Exception, index: int) -> Exception:
    """``exc`` if it survives a pickle round trip, else a :class:`JobError`
    naming the task (an exception the parent cannot rebuild must still
    say which task raised it)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return JobError(
            f"task {index} raised {type(exc).__name__}: {exc} "
            "(the exception cannot be pickled to the parent)"
        )
    return exc


#: result slot of a task that has not delivered one
_NO_RESULT = object()


class _ForkedPhase:
    """One ``ProcessExecutor.run_phase`` call: the parent is a worker.

    The parent forks its children first and only then runs tasks itself.
    Everyone claims the next task id from ``_claims`` — shared memory
    inherited through fork — under ``_lock``, so the ids are handed out
    in increasing order.  A child sends ``(id, True, packed result)`` or
    ``(id, False, exception)`` per task over its own pipe, then ``None``
    as its end marker, and leaves through ``os._exit``.  The parent reads
    the pipes between its own tasks and once it has run out of ids.

    Error contract (the serial executor's): after the first failure
    nobody claims a new id; lower ids already running finish, and the
    lowest failing id raises.  A child whose pipe closes before its end
    marker died mid-phase: one :class:`JobError` names its pid, its exit
    status and the task ids it took with it.  On any exception in the
    parent the children are killed; they are always reaped.
    """

    def __init__(self, worker: TaskWorker, num_tasks: int, payload: Any) -> None:
        self._ctx = multiprocessing.get_context("fork")
        self._worker = worker
        self._num_tasks = num_tasks
        self._payload = payload
        self._lock = self._ctx.Lock()
        #: [next unclaimed task id, 1 once a failure stopped the claims]
        self._claims = self._ctx.RawArray("q", 2)
        self._results: list[Any] = [_NO_RESULT] * num_tasks
        self._errors: dict[int, BaseException] = {}
        #: read end of every child's pipe that is still open -> its pid
        self._pipes: dict[Any, int] = {}
        self._unreaped: list[int] = []
        #: (pid, exit status) of every child that died mid-phase
        self._dead: list[tuple[int, int]] = []

    def run(self, children: int) -> list:
        try:
            _flush_std_streams()  # or a child's exit would print it again
            for __ in range(children):
                self._fork()
            while (index := self._claim()) is not None:
                try:
                    self._results[index] = self._worker(self._payload, index)
                except Exception as exc:
                    self._errors[index] = exc
                    self._halt()
                self._receive(timeout=0)
            while self._pipes:
                self._receive(timeout=None)
        except BaseException:
            for pid in self._unreaped:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid in self._unreaped:
                os.waitpid(pid, 0)
            for pipe in self._pipes:
                pipe.close()
        if self._dead:
            claimed = self._claims[0]
            lost = [
                i
                for i in range(claimed)
                if self._results[i] is _NO_RESULT and i not in self._errors
            ]
            who = ", ".join(f"pid {p} exited with status {s}" for p, s in self._dead)
            self._errors.setdefault(
                min(lost, default=claimed),
                JobError(f"forked worker {who}, losing task(s) {lost}"),
            )
        if self._errors:
            raise self._errors[min(self._errors)]
        return self._results

    def _claim(self) -> int | None:
        with self._lock:
            index, halted = self._claims
            if halted or index >= self._num_tasks:
                return None
            self._claims[0] = index + 1
        return index

    def _halt(self) -> None:
        with self._lock:
            self._claims[1] = 1

    def _fork(self) -> None:
        reader, writer = self._ctx.Pipe(duplex=False)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                reader.close()
                self._serve(writer)
                _flush_std_streams()
                code = 0
            finally:
                os._exit(code)
        writer.close()
        self._pipes[reader] = pid
        self._unreaped.append(pid)

    def _serve(self, pipe) -> None:
        """A child's whole life: claim, run, send, until the ids run out."""
        while (index := self._claim()) is not None:
            try:
                packed = pack_task_result(self._worker(self._payload, index))
            except Exception as exc:
                self._halt()
                pipe.send((index, False, _portable(exc, index)))
                break
            pipe.send((index, True, packed))
        pipe.send(None)

    def _receive(self, timeout: float | None) -> None:
        """Read every message the children have ready (waiting up to
        ``timeout`` for the first one)."""
        for pipe in multiprocessing.connection.wait(list(self._pipes), timeout):
            while True:
                try:
                    message = pipe.recv()
                except EOFError:
                    pid = self._pipes.pop(pipe)
                    pipe.close()
                    self._halt()
                    self._unreaped.remove(pid)
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    self._dead.append((pid, status))
                    break
                if message is None:
                    del self._pipes[pipe]
                    pipe.close()
                    break
                index, ok, value = message
                if ok:
                    self._results[index] = unpack_task_result(value)
                else:
                    self._errors[index] = value
                if not pipe.poll():
                    break


class ProcessExecutor(TaskExecutor):
    """Tasks run on ``num_workers`` processes, the calling one included.

    ``run_phase`` forks ``min(num_workers, num_tasks) - 1`` children and
    works alongside them (:class:`_ForkedPhase`), so ``process`` x 2 is
    the parent plus one child.  Sessions fork a ``num_workers``-process
    :class:`multiprocessing.pool.Pool` instead: speculation and the
    watchdog abandon running attempts, and a task running in the parent
    cannot be abandoned.
    """

    name = "process"

    def __init__(self, num_workers: int | None = None) -> None:
        self.num_workers = num_workers if num_workers else default_workers()

    def run_phase(self, worker: TaskWorker, num_tasks: int, payload: Any) -> list:
        if num_tasks <= 1 or self.num_workers <= 1:
            return SerialExecutor().run_phase(worker, num_tasks, payload)
        if "fork" not in multiprocessing.get_all_start_methods():
            # No copy-on-write payload inheritance without fork (e.g.
            # Windows); threads keep the same semantics and determinism.
            return ThreadExecutor(self.num_workers).run_phase(
                worker, num_tasks, payload
            )
        phase = _ForkedPhase(worker, num_tasks, payload)
        return phase.run(min(self.num_workers, num_tasks) - 1)

    def open_session(self, worker: TaskWorker, payload: Any) -> PhaseSession | None:
        if self.num_workers <= 1:
            return None
        if "fork" not in multiprocessing.get_all_start_methods():
            return ThreadExecutor(self.num_workers).open_session(worker, payload)
        # The pool's workers inherit ``(worker, payload)`` through
        # _FORK_STATE, published only for the duration of the fork.
        global _FORK_STATE
        with _FORK_LOCK:
            saved = _FORK_STATE
            _FORK_STATE = (worker, payload)
            try:
                pool = multiprocessing.get_context("fork").Pool(self.num_workers)
            finally:
                _FORK_STATE = saved
        return _ProcessSession(pool)


class _ProcessSession(PhaseSession):
    """Forked-pool session: workers inherited the payload at fork time;
    each submit ships only the (small, picklable) tag."""

    #: polling interval for completion checks (``AsyncResult`` has no
    #: select()-style multiplexed wait)
    _POLL_S = 0.002

    def __init__(self, pool) -> None:
        self._pool = pool
        self._pending: list[tuple[Any, Any]] = []  # (tag, AsyncResult)

    def submit(self, tag: Any) -> None:
        self._pending.append((tag, self._pool.apply_async(_run_forked_task, (tag,))))

    def next_done(self, timeout: float | None = None):
        if not self._pending:
            raise JobError("next_done called with no outstanding invocations")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for i, (tag, ar) in enumerate(self._pending):
                if ar.ready():
                    del self._pending[i]
                    return tag, unpack_task_result(ar.get())
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self._POLL_S)

    def close(self) -> None:
        # terminate (not close): running losers are killed, not awaited.
        self._pool.terminate()
        self._pool.join()
        self._pending.clear()


EXECUTORS: dict[str, type[TaskExecutor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(name: str, num_workers: int | None = None) -> TaskExecutor:
    """Build the named executor (``serial`` ignores ``num_workers``)."""
    cls = EXECUTORS.get(name)
    if cls is None:
        raise JobError(
            f"unknown executor {name!r}; choose one of {sorted(EXECUTORS)}"
        )
    if cls is SerialExecutor:
        return cls()
    return cls(num_workers)
