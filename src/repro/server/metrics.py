"""Thread-safe request metrics for the analysis daemon.

One :class:`ServerMetrics` instance is shared by the pool's loop thread
(which runs the front door too) and the store poller in a
:class:`~repro.server.front.ShardedAnalysisServer`; the ``GET /metrics``
endpoint renders :meth:`ServerMetrics.snapshot` as JSON (the default) or
:meth:`ServerMetrics.to_prometheus` as the Prometheus text exposition
(``?format=prometheus``).  Two feeds fill it:

* the HTTP layer records each request's status class and wall-clock latency
  (:meth:`ServerMetrics.record_request`), and
* :class:`MetricsSink` -- an :class:`~repro.engine.events.EventSink` that
  the server adds to the process-global ambient sinks while it runs --
  counts the telemetry the workers emit while analyzing.  Every finished
  span (:class:`~repro.obs.trace.SpanFinished`) lands in the per-phase
  latency histogram (``repro_phase_seconds{phase=...}``), and three span
  names also feed counters: ``analysis.analyze`` (one per program, with its
  ``flows``), ``service.batch`` (one per batch) and ``analysis.solve`` (by
  outcome).  Lifecycle events count the rest --
  :class:`~repro.engine.events.SpecCompiled` per worker compilation,
  :class:`~repro.engine.events.SpecReloaded` per hot reload -- so the
  per-worker compile counters that prove "specs are compiled once per
  worker, not once per request" come from the same stream.

The counters live in a :class:`repro.obs.metrics.MetricsRegistry`; the JSON
snapshot is *derived* from the registry, so the two expositions can never
drift apart.  Only the latency percentile window is registry-external: a
fixed-bucket histogram cannot produce a sliding-window p50/p90/p99, and the
window semantics ("recent behavior, not whole history") predate this layer.

Example::

    >>> metrics = ServerMetrics()
    >>> metrics.record_request(200, 0.012)
    >>> metrics.snapshot()["requests"]["total"]
    1
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from repro.engine.events import (
    CanaryFinished,
    EngineEvent,
    EventSink,
    ShadowCompared,
    SpecCompiled,
    SpecPromoted,
    SpecReloaded,
    SpecRolledBack,
    dropped_event_count,
)
from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.trace import SpanFinished

#: latencies kept for percentile estimation (a sliding window, so a
#: long-lived daemon reports recent behavior, not its whole history)
DEFAULT_LATENCY_WINDOW = 1024

_PERCENTILES = (50.0, 90.0, 99.0)


class ServerMetrics:
    """Counters and latency percentiles for one daemon instance.

    Every mutator takes the registry lock (or the window lock), so the
    pool's loop thread (front door included) and the store poller can
    write concurrently; :meth:`snapshot` returns a plain,
    JSON-serializable dict.
    """

    def __init__(self, latency_window: int = DEFAULT_LATENCY_WINDOW):
        self.started_at = time.time()
        self.registry = MetricsRegistry()
        reg = self.registry
        self._requests = reg.counter(
            "repro_requests_total", "HTTP requests handled, by status code", ("status",)
        )
        self._rejected = reg.counter(
            "repro_requests_rejected_total", "Requests shed with 503 (queue full)"
        )
        self._admission_rejected = reg.counter(
            "repro_admission_rejected_total",
            "Requests shed by front-door admission control before reaching the pool",
        )
        self._coalesced = reg.counter(
            "repro_requests_coalesced_total",
            "Requests answered with an identical in-flight request's response",
        )
        self._latency = reg.histogram(
            "repro_request_latency_seconds", "Wall-clock latency of 200 responses"
        )
        self._error_latency = reg.histogram(
            "repro_request_error_latency_seconds",
            "Wall-clock latency of non-200 responses (backpressure and 4xx paths)",
        )
        self._analyses = reg.counter(
            "repro_analyses_total", "Client programs analyzed"
        )
        self._flows = reg.counter(
            "repro_flows_total", "Information flows reported across all analyses"
        )
        self._batches = reg.counter("repro_batches_total", "Batch analyses completed")
        self._compilations = reg.counter(
            "repro_spec_compilations_total",
            "Spec-to-analyzer compilations, by warm worker",
            ("worker",),
        )
        self._reloads = reg.counter(
            "repro_spec_hot_reloads_total", "Store-poller hot reloads applied"
        )
        self._canaries = reg.counter(
            "repro_canary_total", "Candidate canary evaluations, by verdict", ("result",)
        )
        self._shadow = reg.counter(
            "repro_shadow_requests_total",
            "Requests mirrored through a shadow candidate, by comparison result",
            ("result",),
        )
        self._promotions = reg.counter(
            "repro_spec_promotions_total", "Candidates promoted to servable"
        )
        self._rollbacks = reg.counter(
            "repro_spec_rollbacks_total", "Spec versions rolled back"
        )
        self._active_version = reg.gauge(
            "repro_spec_active_version", "Version number of the actively served spec"
        )
        self._phases = reg.histogram(
            "repro_phase_seconds", "Per-phase (span) wall-clock time", ("phase",)
        )
        self._solves = reg.counter(
            "repro_solve_total",
            "Compiled-solver analyses, by outcome (hit, incremental, cold)",
            ("outcome",),
        )
        self._queue_depth = reg.gauge("repro_queue_depth", "Queued requests at scrape time")
        self._queue_capacity = reg.gauge(
            "repro_queue_capacity", "Bounded queue capacity"
        )
        self._workers = reg.gauge("repro_workers", "Warm analysis workers")
        self._uptime = reg.gauge("repro_uptime_seconds", "Daemon uptime at scrape time")
        self._dropped = reg.counter(
            "repro_obs_dropped_events_total",
            "Telemetry events dropped by misbehaving or broken sinks",
        )
        self._window_lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=latency_window)

    # --------------------------------------------------------------- recording
    def record_request(self, status: int, seconds: float) -> None:
        """Count one finished HTTP request; latency feeds the window on 200s.

        Only successful analyses contribute to the percentile window and the
        main latency histogram -- under backpressure, near-instant 503
        rejections would otherwise drown out the served-request latencies an
        operator actually needs.  Non-200 latencies are not discarded,
        though: they land in a separate error-latency histogram, which is
        what makes 503 shed-rates and slow 4xx paths visible.
        """
        self._requests.inc(status=status)
        if status == 503:
            self._rejected.inc()
        if status == 200:
            self._latency.observe(seconds)
            with self._window_lock:
                self._latencies.append(seconds)
        else:
            self._error_latency.observe(seconds)

    def record_admission_rejected(self) -> None:
        """Count one request shed by the front door's in-flight cap.

        Distinct from :meth:`record_request`'s 503 accounting (which still
        runs for these) so operators can tell admission-control sheds from
        pool-queue sheds -- the two bounds are tuned independently.
        """
        self._admission_rejected.inc()

    def record_coalesced(self) -> None:
        """Count one follower served from an identical in-flight request."""
        self._coalesced.inc()

    def record_event(self, event: EngineEvent) -> None:
        """Fold one engine event into the counters (see :class:`MetricsSink`)."""
        if isinstance(event, SpanFinished):
            self._phases.observe(event.elapsed_seconds, phase=event.name)
            if event.name == "analysis.solve":
                outcome = event.attributes().get("outcome")
                if outcome:
                    self._solves.inc(outcome=outcome)
            elif event.name == "analysis.analyze":
                self._analyses.inc()
                self._flows.inc(int(event.attributes().get("flows", 0)))
            elif event.name == "service.batch":
                self._batches.inc()
        elif isinstance(event, SpecCompiled):
            self._compilations.inc(worker=event.worker)
        elif isinstance(event, SpecReloaded):
            self._reloads.inc()
        elif isinstance(event, CanaryFinished):
            self._canaries.inc(result="pass" if event.passed else "fail")
        elif isinstance(event, ShadowCompared):
            self._shadow.inc(result="mismatch" if event.mismatches else "match")
        elif isinstance(event, SpecPromoted):
            self._promotions.inc()
        elif isinstance(event, SpecRolledBack):
            self._rollbacks.inc()

    # ------------------------------------------------------- derived properties
    @property
    def requests_total(self) -> int:
        return int(sum(self._requests.series().values()))

    @property
    def rejected_total(self) -> int:
        return int(self._rejected.value())

    @property
    def admission_rejected_total(self) -> int:
        return int(self._admission_rejected.value())

    @property
    def coalesced_total(self) -> int:
        return int(self._coalesced.value())

    @property
    def analyses_total(self) -> int:
        return int(self._analyses.value())

    @property
    def flows_total(self) -> int:
        return int(self._flows.value())

    @property
    def batches_total(self) -> int:
        return int(self._batches.value())

    @property
    def spec_compilations_total(self) -> int:
        return int(sum(self._compilations.series().values()))

    @property
    def spec_compilations_by_worker(self) -> Dict[str, int]:
        return {key[0]: int(value) for key, value in self._compilations.series().items()}

    @property
    def hot_reloads_total(self) -> int:
        return int(self._reloads.value())

    @property
    def solves_by_outcome(self) -> Dict[str, int]:
        return {key[0]: int(value) for key, value in self._solves.series().items()}

    @property
    def canaries_by_result(self) -> Dict[str, int]:
        return {key[0]: int(value) for key, value in self._canaries.series().items()}

    @property
    def promotions_total(self) -> int:
        return int(self._promotions.value())

    @property
    def rollbacks_total(self) -> int:
        return int(self._rollbacks.value())

    # ---------------------------------------------------------------- snapshot
    def snapshot(
        self,
        queue_depth: Optional[int] = None,
        queue_capacity: Optional[int] = None,
        workers: Optional[int] = None,
        active_version: Optional[int] = None,
    ) -> Dict:
        """A JSON-serializable view of every counter, plus live gauges.

        The queue/worker gauges describe the pool at scrape time and are
        passed in by the HTTP layer (the metrics object itself does not hold
        a pool reference).
        """
        with self._window_lock:
            ordered = sorted(self._latencies)
        latency = {
            "count": len(ordered),
            "percentiles_seconds": {
                f"p{fraction:g}": percentile(ordered, fraction) for fraction in _PERCENTILES
            }
            if ordered
            else {},
            "max_seconds": ordered[-1] if ordered else None,
        }
        error_count = self._error_latency.count()
        snapshot = {
            "uptime_seconds": time.time() - self.started_at,
            "requests": {
                "total": self.requests_total,
                "by_status": {
                    key[0]: int(value) for key, value in self._requests.series().items()
                },
                "rejected": self.rejected_total,
                "admission_rejected": self.admission_rejected_total,
                "coalesced": self.coalesced_total,
            },
            "latency": latency,
            "error_latency": {
                "count": error_count,
                "total_seconds": self._error_latency.sum(),
            },
            "analyses": {
                "programs": self.analyses_total,
                "flows": self.flows_total,
                "batches": self.batches_total,
            },
            "specs": {
                "compilations": self.spec_compilations_total,
                "compilations_by_worker": dict(
                    sorted(self.spec_compilations_by_worker.items())
                ),
                "hot_reloads": self.hot_reloads_total,
                "active_version": active_version,
                "promotions": self.promotions_total,
                "rollbacks": self.rollbacks_total,
            },
            "canaries": dict(sorted(self.canaries_by_result.items())),
            "solver": self._solver_snapshot(),
            "dropped_events": dropped_event_count(),
        }
        queue: Dict = {}
        if queue_depth is not None:
            queue["depth"] = queue_depth
        if queue_capacity is not None:
            queue["capacity"] = queue_capacity
        if queue:
            snapshot["queue"] = queue
        if workers is not None:
            snapshot["workers"] = workers
        return snapshot

    def _solver_snapshot(self) -> Dict:
        """The solve counters: per-outcome counts plus derived rates.

        All zeros before the first analysis -- the block is always present
        so dashboards need not special-case an idle daemon.
        """
        by_outcome = self.solves_by_outcome
        total = sum(by_outcome.values())
        hits = by_outcome.get("hit", 0)
        incremental = by_outcome.get("incremental", 0)
        return {
            "total": total,
            "by_outcome": dict(sorted(by_outcome.items())),
            "cache_hit_rate": (hits / total) if total else None,
            "incremental_share": (incremental / total) if total else None,
        }

    # -------------------------------------------------------------- prometheus
    def to_prometheus(
        self,
        queue_depth: Optional[int] = None,
        queue_capacity: Optional[int] = None,
        workers: Optional[int] = None,
        active_version: Optional[int] = None,
    ) -> str:
        """The Prometheus text exposition of every instrument.

        Scrape-time gauges (queue, workers, uptime) are set just before
        rendering, and the process-wide dropped-event counter is mirrored
        into the registry, so one render is a complete, self-consistent
        scrape.
        """
        self._uptime.set(time.time() - self.started_at)
        if queue_depth is not None:
            self._queue_depth.set(queue_depth)
        if queue_capacity is not None:
            self._queue_capacity.set(queue_capacity)
        if workers is not None:
            self._workers.set(workers)
        if active_version is not None:
            self._active_version.set(active_version)
        self._dropped.set_total(dropped_event_count())
        return self.registry.render_prometheus()


class MetricsSink(EventSink):
    """Routes engine events into a :class:`ServerMetrics` instance.

    Install it beside any other sink -- a progress stream, a journal -- and
    :func:`repro.obs.trace.emit` feeds each of them from one event flow::

        >>> from repro.obs import ambient_sink
        >>> metrics = ServerMetrics()
        >>> with ambient_sink(MetricsSink(metrics)):
        ...     pass  # every event emitted here is counted
    """

    def __init__(self, metrics: ServerMetrics):
        self.metrics = metrics

    def emit(self, event: EngineEvent) -> None:
        self.metrics.record_event(event)


__all__ = [
    "DEFAULT_LATENCY_WINDOW",
    "MetricsSink",
    "ServerMetrics",
    "percentile",
]
