"""Hierarchical trace spans, and the one route every engine event takes.

A *span* is one timed, named piece of work.  Spans nest: each carries a
``trace_id`` (shared by everything one logical operation did, across threads
and worker processes), its own ``span_id``, and the ``parent_id`` of the
enclosing span, so a journal of finished spans reconstructs the full tree of
one ``repro fuzz --repair`` run or one ``/analyze`` request.

Spans are deliberately *not* a telemetry channel of their own: a finished
span is a :class:`SpanFinished` event -- a plain
:class:`~repro.engine.events.EngineEvent` -- and :func:`emit` delivers it
exactly like every other engine event.  :func:`emit` is the only route: the
learner, the fuzzer, the repair engine, the control plane and the server
all call it, and it hands each event once to every *ambient sink*.  A
:class:`~repro.obs.journal.JournalSink` persists them, the server's
``MetricsSink`` folds them into counters and per-phase latency histograms,
and the progress ``StreamSink`` prints one line per event.

Three propagation mechanisms cover the system's concurrency shapes:

* **Nesting within a thread** is implicit: :func:`span` stores the current
  context in thread-local state, so an inner ``span()`` parents itself under
  the outer one.
* **Crossing threads** is explicit: capture :func:`current_context` where
  the work is enqueued and :func:`activate` it in the thread that runs it.
* **Crossing processes** is explicit too: :func:`capture` returns a
  picklable state blob the parallel executors ship to worker processes via
  their pool initializers; :func:`adopt` re-establishes the context (and
  re-opens the journal) on the far side, so worker-side spans land in the
  same trace and the same journal file as parent-side ones.

Ambient sinks are a process-global set (the CLI's ``--journal`` and
``--progress`` sinks, a running server's metrics) plus a thread-local set
(events emitted on the registering thread only, e.g. a test collecting one
thread's telemetry).  A sink that raises loses that one event, which is
counted (:func:`repro.engine.events.dropped_event_count`); the other sinks
still receive it.  With no sink installed, :func:`emit` delivers nothing --
instrumented code does not need to know whether anyone is listening.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.engine.events import EngineEvent, EventSink, count_dropped_event


# --------------------------------------------------------------------- identity
def new_id() -> str:
    """A fresh 16-hex-digit identifier (random, never derived from content)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The ambient position in a trace: which trace, and which current span."""

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"])


@dataclass(frozen=True)
class SpanFinished(EngineEvent):
    """One completed span, emitted through the ordinary event-sink plumbing.

    ``attrs`` is a tuple of ``(key, value)`` string pairs (not a dict) so the
    event stays hashable/frozen like every other engine event; consumers that
    want a mapping call :meth:`attributes`.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    started_at: float  # unix epoch seconds
    elapsed_seconds: float
    attrs: Tuple[Tuple[str, str], ...] = ()

    def attributes(self) -> Dict[str, str]:
        return dict(self.attrs)


class Span:
    """The mutable in-flight half of a span (what ``with span(...)`` yields)."""

    def __init__(
        self,
        name: str,
        context: TraceContext,
        parent_id: Optional[str],
        attrs: Dict[str, str],
    ):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attrs = attrs

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def set(self, key: str, value) -> None:
        """Attach one attribute to the span before it finishes."""
        self.attrs[str(key)] = str(value)


# ---------------------------------------------------------------- ambient state
class _Local(threading.local):
    """Per-thread state; the class attributes are each thread's defaults."""

    context: Optional[TraceContext] = None
    sinks: Tuple[EventSink, ...] = ()


_LOCAL = _Local()

_PROCESS_LOCK = threading.Lock()
#: immutable, so :func:`emit` reads it without the lock; add and remove
#: replace it under the lock.  A sink added twice appears once.
_PROCESS_SINKS: Tuple[EventSink, ...] = ()
#: thread-local registrations across all threads; while there are none,
#: :func:`emit` skips the thread-local lookup (it costs as much as the rest)
_LOCAL_SINKS_IN_USE = 0

#: journal path the process-global journal sink (if any) writes to; shipped to
#: worker processes by :func:`capture` so they append to the same file
_JOURNAL_PATH: Optional[str] = None


def current_context() -> Optional[TraceContext]:
    """The calling thread's trace context, or ``None`` outside any span."""
    return _LOCAL.context


def add_ambient_sink(sink: EventSink, thread_local: bool = False) -> None:
    """Register a sink every emitted event is delivered to.

    Process-global sinks (the default) receive events from every thread --
    that is what the CLI's ``--journal`` and ``--progress`` install.
    ``thread_local=True`` restricts delivery to events emitted on the
    *calling* thread.
    """
    global _PROCESS_SINKS, _LOCAL_SINKS_IN_USE
    with _PROCESS_LOCK:
        if thread_local:
            if sink not in _LOCAL.sinks:
                _LOCAL.sinks += (sink,)
                _LOCAL_SINKS_IN_USE += 1
        elif sink not in _PROCESS_SINKS:
            _PROCESS_SINKS += (sink,)


def remove_ambient_sink(sink: EventSink, thread_local: bool = False) -> None:
    """Unregister a sink previously passed to :func:`add_ambient_sink`."""
    global _PROCESS_SINKS, _LOCAL_SINKS_IN_USE
    with _PROCESS_LOCK:
        if thread_local:
            if sink in _LOCAL.sinks:
                _LOCAL.sinks = tuple(s for s in _LOCAL.sinks if s is not sink)
                _LOCAL_SINKS_IN_USE -= 1
        else:
            _PROCESS_SINKS = tuple(s for s in _PROCESS_SINKS if s is not sink)


@contextmanager
def ambient_sink(sink: EventSink, thread_local: bool = False) -> Iterator[EventSink]:
    """Scope-bound :func:`add_ambient_sink` / :func:`remove_ambient_sink`."""
    add_ambient_sink(sink, thread_local=thread_local)
    try:
        yield sink
    finally:
        remove_ambient_sink(sink, thread_local=thread_local)


def reset_ambient_sinks() -> None:
    """Drop every ambient sink this thread would deliver to (and the journal path).

    For the child side of a ``fork()``: a pre-forked serving worker inherits
    the parent's ambient sinks (journal, progress, metrics) by memory copy,
    but its telemetry must flow through its pipe to the parent -- which
    re-emits into those very sinks.  Without this reset every worker-side
    event would be delivered twice (once directly into the inherited sink's
    copy, once via the parent), and two processes would interleave writes
    into one journal file.  The calling thread's own sinks go too: the
    child's one thread is a copy of the thread that forked it.
    """
    global _JOURNAL_PATH, _PROCESS_SINKS, _LOCAL_SINKS_IN_USE
    with _PROCESS_LOCK:
        _PROCESS_SINKS = _LOCAL.sinks = ()
        _LOCAL_SINKS_IN_USE = 0
    _JOURNAL_PATH = None


def set_journal_path(path: Optional[str]) -> None:
    """Remember the ambient journal's path for cross-process propagation."""
    global _JOURNAL_PATH
    _JOURNAL_PATH = path


def journal_path() -> Optional[str]:
    return _JOURNAL_PATH


def emit(event: EngineEvent) -> None:
    """Deliver *event* once to every process-global and thread-local sink.

    A sink that raises loses this one event (counted by
    :func:`~repro.engine.events.count_dropped_event`); the remaining sinks
    still receive it, so one broken consumer never aborts a run.
    """
    sinks = _PROCESS_SINKS
    if _LOCAL_SINKS_IN_USE:
        sinks += tuple(sink for sink in _LOCAL.sinks if sink not in sinks)
    for sink in sinks:
        try:
            sink.emit(event)
        except Exception:  # noqa: BLE001 - isolate the sink, keep the run
            count_dropped_event()


# ----------------------------------------------------------------------- spans
@contextmanager
def span(name: str, trace_id: Optional[str] = None, **attrs) -> Iterator[Span]:
    """Time one named piece of work as a span of the current trace.

    Opens a child of the calling thread's current span (or roots a fresh
    trace when there is none -- *trace_id* forces the id of such a root,
    which is how the HTTP layer honors a client-supplied
    ``X-Repro-Trace-Id``), makes it the current context for the duration of
    the ``with`` block, and emits one :class:`SpanFinished` on exit -- to the
    ambient sinks and, when given, the explicit *sink*.
    """
    parent = current_context()
    if parent is not None:
        trace = parent.trace_id
        parent_id: Optional[str] = parent.span_id
    else:
        trace = trace_id if trace_id else new_id()
        parent_id = None
    context = TraceContext(trace_id=trace, span_id=new_id())
    active = Span(
        name, context, parent_id, {str(key): str(value) for key, value in attrs.items()}
    )
    _LOCAL.context = context
    started_wall = time.time()
    started = time.perf_counter()
    try:
        yield active
    finally:
        elapsed = time.perf_counter() - started
        _LOCAL.context = parent
        emit(
            SpanFinished(
                name=name,
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id=parent_id,
                started_at=started_wall,
                elapsed_seconds=elapsed,
                attrs=tuple(sorted(active.attrs.items())),
            )
        )


@contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[None]:
    """Make *context* the calling thread's current context for the block.

    The cross-thread half of propagation: capture :func:`current_context`
    where work is enqueued, :func:`activate` it in the thread that executes.
    ``None`` is a no-op (work enqueued outside any trace stays traceless).
    """
    if context is None:
        yield
        return
    previous = current_context()
    _LOCAL.context = context
    try:
        yield
    finally:
        _LOCAL.context = previous


# ------------------------------------------------------------- process boundary
def capture() -> Optional[Dict]:
    """The picklable observability state a worker process must inherit.

    ``None`` when there is nothing to propagate -- the executors ship the
    blob through their pool initializers, so an untraced, unjournaled run
    adds zero overhead.
    """
    context = current_context()
    if context is None and _JOURNAL_PATH is None:
        return None
    return {
        "context": context.to_dict() if context is not None else None,
        "journal": _JOURNAL_PATH,
    }


def adopt(state: Optional[Dict]) -> None:
    """Re-establish captured observability state inside a worker process.

    Installs the parent's journal (skipped when the fork already inherited a
    sink on that path) and adopts the parent's span as the worker's ambient
    context, so worker-side spans join the parent's trace.
    """
    if not state:
        return
    journal = state.get("journal")
    if journal:
        from repro.obs.journal import install_journal

        install_journal(journal)
    context = state.get("context")
    _LOCAL.context = TraceContext.from_dict(context) if context else None


__all__ = [
    "Span",
    "SpanFinished",
    "TraceContext",
    "activate",
    "add_ambient_sink",
    "adopt",
    "ambient_sink",
    "capture",
    "current_context",
    "emit",
    "journal_path",
    "new_id",
    "remove_ambient_sink",
    "reset_ambient_sinks",
    "set_journal_path",
    "span",
]
