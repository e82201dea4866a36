"""repro.obs -- the unified observability layer.

Four pieces, layered on the engine's existing event plumbing:

* :mod:`repro.obs.trace` -- :func:`emit`, the one route every engine event
  takes to the ambient sinks, and hierarchical spans (``SpanFinished`` is an
  ordinary ``EngineEvent``) whose context propagates across threads and the
  parallel-executor process boundary.
* :mod:`repro.obs.journal` -- a durable, schema-versioned JSONL journal
  every CLI entry point can tee into via ``--journal``/``REPRO_JOURNAL``.
* :mod:`repro.obs.metrics` -- a generic counter/gauge/histogram registry
  with Prometheus text exposition; ``ServerMetrics`` is built on it.
* :mod:`repro.obs.report` -- offline journal analysis backing the
  ``repro obs tail|summary|trace`` commands.
"""

from repro.obs.journal import (
    JOURNAL_FORMAT,
    JournalEntry,
    JournalSink,
    install_journal,
    iter_journal,
    parse_journal_line,
    read_journal,
    uninstall_journal,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    percentile,
)
from repro.obs.report import (
    build_trace,
    critical_path,
    render_summary,
    render_trace,
    summarize,
    trace_ids,
)
from repro.obs.trace import (
    Span,
    SpanFinished,
    TraceContext,
    activate,
    add_ambient_sink,
    adopt,
    ambient_sink,
    capture,
    current_context,
    emit,
    new_id,
    remove_ambient_sink,
    span,
)

__all__ = [
    "JOURNAL_FORMAT",
    "JournalEntry",
    "JournalSink",
    "install_journal",
    "iter_journal",
    "parse_journal_line",
    "read_journal",
    "uninstall_journal",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "percentile",
    "build_trace",
    "critical_path",
    "render_summary",
    "render_trace",
    "summarize",
    "trace_ids",
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
    "new_id",
    "remove_ambient_sink",
    "span",
]
