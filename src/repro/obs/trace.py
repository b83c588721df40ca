"""Structured tracing: spans and instants on named tracks.

The recorder is the collection point of the observability layer.  The
engine opens *spans* (named intervals with attached key/value ``args``)
around each execution stage — job, split construction, map phase,
shuffle merge, reduce phase, part-file write — and retro-reports
*task* spans from start/end stamps measured inside the workers.  The
workflow adds per-job chain spans with counter deltas.

Two implementations share one API:

:class:`NullRecorder`
    The default.  Every call is a no-op returning shared singletons, so
    an uninstrumented run pays only the cost of the calls themselves
    (one attribute lookup and one no-op method per stage — no
    allocation, no timestamps).
:class:`TraceRecorder`
    Records everything, timestamped with :func:`time.perf_counter`
    relative to the recorder's construction (its *epoch*).  On Linux
    ``perf_counter`` is CLOCK_MONOTONIC, which is system-wide, so
    stamps taken inside forked worker processes are directly comparable
    with the parent's — per-task spans from the ``process`` executor
    land on the same timeline as the engine's phase spans.

Tracks are plain strings (``"engine"``, ``"map tasks"``, ...).  Spans
on one track must either nest (job contains phase) or be disjoint
(consecutive jobs); genuinely concurrent spans — parallel tasks — are
laid out into non-overlapping lanes by the exporter, not here.

Besides spans and instants the recorder collects *counter timelines*:
named series of ``(t, value)`` samples — in-flight tasks per phase,
worker occupancy, cumulative shuffle/spill bytes — recorded at task
boundaries via :meth:`~TraceRecorder.counter_sample` (absolute gauge)
and :meth:`~TraceRecorder.counter_add` (running total).  The exporter
renders each series as a Chrome trace-event ``"C"`` counter track.

This module deliberately imports nothing from the engine, so every
layer of the stack can depend on it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Span", "NullRecorder", "TraceRecorder"]


@dataclass
class Span:
    """One named interval on a track.

    ``start_s``/``end_s`` are seconds since the recorder's epoch.
    ``args`` carries structured metadata (record counts, byte volumes,
    simulated seconds) into the exported trace.
    """

    name: str
    cat: str
    track: str
    start_s: float = 0.0
    end_s: float = 0.0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def set(self, key: str, value: Any) -> None:
        """Attach one metadata value (shown in the trace viewer)."""
        self.args[key] = value


class _NullSpan:
    """Shared do-nothing span: context manager and ``set`` sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead default recorder: every call is a no-op.

    The engine is instrumented unconditionally; with this recorder the
    instrumentation reduces to no-op method calls on shared singletons,
    preserving the hot path: every untraced ``wall_s.*`` of
    ``bench/run.py`` (the process-executor ``proc2`` workload included)
    runs with it, under that suite's bounds.
    """

    enabled: bool = False

    def span(self, name: str, cat: str = "span", track: str = "engine"):
        """A context manager timing the enclosed block (no-op here)."""
        return _NULL_SPAN

    def add_span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record an already-measured interval (no-op here).

        ``start``/``end`` are raw :func:`time.perf_counter` stamps (the
        recorder converts to its epoch), so workers can measure time
        without knowing the recorder exists.
        """
        return None

    def instant(
        self,
        name: str,
        cat: str = "event",
        track: str = "engine",
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a zero-duration marker (no-op here)."""
        return None

    def counter_sample(self, name: str, t: float, value: float) -> None:
        """Record one absolute gauge sample (no-op here).

        ``t`` is a raw :func:`time.perf_counter` stamp (the recorder
        converts to its epoch), matching :meth:`add_span`.
        """
        return None

    def counter_add(self, name: str, t: float, delta: float) -> None:
        """Add ``delta`` to a running total and sample it (no-op here)."""
        return None


class _SpanContext:
    """Times one ``with`` block and files the span on exit."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        self._span.start_s = self._recorder.now()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end_s = self._recorder.now()
        self._recorder.spans.append(self._span)
        return None


class TraceRecorder(NullRecorder):
    """Collects spans and instants for export.

    Spans are appended at *close* time, so nested spans appear after
    their parent closes; the exporter orders by timestamp.  One
    recorder may span many jobs, many clusters and many algorithms —
    the CLI uses a single recorder for a whole experiment table.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.instants: list[Span] = []
        #: counter timelines: name -> [(seconds since epoch, value), ...]
        self.counters: dict[str, list[tuple[float, float]]] = {}
        self._counter_totals: dict[str, float] = {}

    def now(self) -> float:
        """Seconds since the recorder's epoch."""
        return time.perf_counter() - self.epoch

    def span(self, name: str, cat: str = "span", track: str = "engine"):
        return _SpanContext(self, Span(name=name, cat=cat, track=track))

    def add_span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.spans.append(
            Span(
                name=name,
                cat=cat,
                track=track,
                start_s=start - self.epoch,
                end_s=end - self.epoch,
                args=dict(args) if args else {},
            )
        )

    def instant(
        self,
        name: str,
        cat: str = "event",
        track: str = "engine",
        args: dict[str, Any] | None = None,
    ) -> None:
        t = self.now()
        self.instants.append(
            Span(
                name=name,
                cat=cat,
                track=track,
                start_s=t,
                end_s=t,
                args=dict(args) if args else {},
            )
        )

    def counter_sample(self, name: str, t: float, value: float) -> None:
        self.counters.setdefault(name, []).append((t - self.epoch, value))

    def counter_add(self, name: str, t: float, delta: float) -> None:
        total = self._counter_totals.get(name, 0.0) + delta
        self._counter_totals[name] = total
        self.counters.setdefault(name, []).append((t - self.epoch, total))

    def tracks(self) -> list[str]:
        """Track names in order of first appearance (spans then instants)."""
        seen: dict[str, None] = {}
        for s in sorted(self.spans + self.instants, key=lambda s: s.start_s):
            seen.setdefault(s.track, None)
        return list(seen)
