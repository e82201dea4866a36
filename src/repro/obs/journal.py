"""A durable, append-only JSONL journal of engine events and trace spans.

The journal is the telemetry twin of the oracle cache: one self-describing
JSON line per event, append-only, safe to tee into from several processes at
once (every write is a single ``O_APPEND`` line), and readable long after
the run that produced it.  Every CLI entry point can write one via
``--journal PATH`` (or the ``REPRO_JOURNAL`` environment variable), and
``repro obs tail|summary|trace`` read them back.

Each line is an *envelope* around one event::

    {"format": "repro.obs.journal/1", "ts": 1754550000.12,
     "trace_id": "9f0c...", "span_id": "1b77...", "parent_id": null,
     "event": "ClusterFinished", "data": {...event fields...}}

``ts`` is stamped at write time; ``trace_id``/``span_id`` come from the
emitting thread's ambient :class:`~repro.obs.trace.TraceContext` (or from
the span itself for :class:`~repro.obs.trace.SpanFinished` events), which is
what lets one journal line for a served request be joined against the spans
of the analysis that answered it.  The envelope is schema-versioned per line
so a mixed-version journal (an old file appended to by a newer build)
remains partially readable instead of wholly unparseable.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.engine.events import EngineEvent, EventSink
from repro.jsonl import json_object, json_objects
from repro.obs import trace as _trace
from repro.obs.trace import SpanFinished

JOURNAL_FORMAT = "repro.obs.journal/1"


def event_payload(event: EngineEvent) -> Dict:
    """The JSON-serializable field dict of one event (tuples become lists)."""
    return dataclasses.asdict(event)


class JournalSink(EventSink):
    """Appends every emitted event to a JSONL journal file.

    Writes are line-buffered and serialized under an instance lock; the file
    is opened in append mode, so several sinks (or several processes, via
    :func:`install_journal` in executor workers) can share one path -- lines
    interleave but never tear.  Like every sink, ``emit`` must not raise:
    I/O errors mark the sink broken and subsequent emits are dropped
    (counted by :func:`repro.engine.events.dropped_event_count`) rather than
    aborting the instrumented run.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")
        self._broken = False

    def emit(self, event: EngineEvent) -> None:
        from repro.engine.events import count_dropped_event

        if isinstance(event, SpanFinished):
            trace_id: Optional[str] = event.trace_id
            span_id: Optional[str] = event.span_id
            parent_id = event.parent_id
        else:
            context = _trace.current_context()
            trace_id = context.trace_id if context is not None else None
            span_id = context.span_id if context is not None else None
            parent_id = None
        envelope = {
            "format": JOURNAL_FORMAT,
            "ts": time.time(),
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "event": type(event).__name__,
            "data": event_payload(event),
        }
        line = json.dumps(envelope, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._broken:
                count_dropped_event()
                return
            try:
                self._handle.write(line)
                self._handle.flush()
            except (OSError, ValueError):  # ValueError: write to a closed file
                self._broken = True
                count_dropped_event()

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.close()
            except OSError:
                pass
            self._broken = True


# ------------------------------------------------------------- ambient install
_INSTALL_LOCK = threading.Lock()
_INSTALLED: Dict[str, JournalSink] = {}


def install_journal(path: str) -> JournalSink:
    """Open *path* as this process's ambient journal (idempotent per path).

    The sink is registered as a process-global ambient span sink and the
    path is remembered for :func:`repro.obs.trace.capture`, so parallel
    executors propagate it to their worker processes automatically.  A
    second install on the same path (including one inherited across a
    ``fork``) returns the existing sink instead of double-registering.
    """
    with _INSTALL_LOCK:
        sink = _INSTALLED.get(path)
        if sink is None:
            sink = JournalSink(path)
            _INSTALLED[path] = sink
            _trace.add_ambient_sink(sink)
        _trace.set_journal_path(path)
        return sink


def uninstall_journal(path: str) -> None:
    """Close and unregister an installed journal (tests and CLI teardown)."""
    with _INSTALL_LOCK:
        sink = _INSTALLED.pop(path, None)
        if sink is not None:
            _trace.remove_ambient_sink(sink)
            sink.close()
        if _trace.journal_path() == path:
            _trace.set_journal_path(None)


# -------------------------------------------------------------------- reading
@dataclass(frozen=True)
class JournalEntry:
    """One decoded journal line."""

    ts: float
    trace_id: Optional[str]
    span_id: Optional[str]
    parent_id: Optional[str]
    event: str
    data: Dict = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.event == "SpanFinished"


def read_journal(path: str) -> List[JournalEntry]:
    """Decode every well-formed line of a journal (malformed lines skipped).

    Tolerating torn or foreign lines is deliberate: a journal written by a
    crashed run, or interleaved by a concurrent writer mid-line, must stay
    readable for everything it *did* record.
    """
    return list(iter_journal(path))


def parse_journal_line(line: Union[str, bytes]) -> Optional[JournalEntry]:
    """Decode one journal line; ``None`` for blank, torn, or foreign lines."""
    raw = json_object(line)
    return _journal_entry(raw) if raw is not None else None


def _clock_time(ts) -> bool:
    """Whether *ts* is a number the local clock can render.

    JSON booleans are not timestamps, and an infinite, NaN or out-of-range
    ``ts`` would only fail later, in whatever formats it.
    """
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        return False
    try:
        time.localtime(ts)
    except (OverflowError, OSError, ValueError):
        return False
    return True


def _journal_entry(raw: Dict) -> Optional[JournalEntry]:
    """The entry one decoded line describes; ``None`` when a field is foreign."""
    ts = raw.get("ts", 0.0)
    data = raw.get("data") or {}
    ids = (raw.get("trace_id"), raw.get("span_id"), raw.get("parent_id"))
    if (
        "event" not in raw
        or not _clock_time(ts)
        or not isinstance(data, dict)
        or not all(value is None or isinstance(value, str) for value in ids)
    ):
        return None
    return JournalEntry(
        ts=float(ts),
        trace_id=ids[0],
        span_id=ids[1],
        parent_id=ids[2],
        event=str(raw["event"]),
        data=data,
    )


def iter_journal(path: str) -> Iterator[JournalEntry]:
    for raw in json_objects(path):
        entry = _journal_entry(raw)
        if entry is not None:
            yield entry


__all__ = [
    "JOURNAL_FORMAT",
    "JournalEntry",
    "JournalSink",
    "event_payload",
    "install_journal",
    "iter_journal",
    "parse_journal_line",
    "read_journal",
    "uninstall_journal",
]
