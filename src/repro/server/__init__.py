"""The long-running analysis daemon: warm worker processes behind an HTTP door.

The service layer (:mod:`repro.service`) makes "learn once, analyze many"
scriptable, but each invocation is a one-shot process that recompiles the
stored specification on the way in.  This subsystem makes the serving side
*resident*, which is what the paper's economics call for: specifications are
learned once precisely so clients can query them cheaply and often
(conf_pldi_Bastani0AL18).

* :mod:`repro.server.procpool` -- :class:`ProcessWorkerPool`: pre-forked
  worker processes that compile the stored spec to a
  :class:`~repro.service.analyzer.ClientAnalyzer` **once at startup**, a
  bounded request budget with backpressure (:class:`PoolSaturated`), hot
  reload of newly stored specs without dropping in-flight requests,
  spec-id routing, a re-dispatch of jobs a dead worker held
  (:class:`WorkerLost` once none is left), and telemetry and shadow
  mirroring forwarded across the fork boundary.
* :mod:`repro.server.front` -- :class:`ShardedAnalysisServer`: the asyncio
  front door exposing ``POST /analyze`` (the existing
  :class:`~repro.service.api.AnalyzeRequest` / ``FlowReport`` JSON bodies),
  ``GET /healthz``, ``GET /specs``, and ``GET /metrics``, plus admission
  control and single-flight request coalescing keyed on
  :func:`~repro.service.api.canonical_request_key`.
* :mod:`repro.server.metrics` -- :class:`ServerMetrics` + :class:`MetricsSink`:
  request counts, latency percentiles, queue depth, and per-worker spec
  compilation counters fed from :mod:`repro.engine.events`.
* :mod:`repro.server.bench` -- :func:`run_load` / :func:`run_open_load`:
  seeded closed- and open-loop load generators (latency anchored at first
  attempt / intended send -- no coordinated omission) whose responses are
  verified bit-identical to in-process
  :func:`~repro.service.api.handle_request`.

The CLI surface is ``repro serve`` (``--processes N`` sizes the fleet) and
``repro bench-serve`` (load-test one, ``--mode open`` for the
scheduled-arrival harness); ``examples/serve_http.py`` walks the whole path
in-process.
"""

from repro.server.bench import (
    LoadResult,
    canonical_reports,
    fetch_json,
    parse_retry_after,
    post_analyze,
    run_load,
    run_open_load,
    verify_against_inprocess,
)
from repro.server.front import (
    DEFAULT_HOST,
    DEFAULT_POLL_INTERVAL_SECONDS,
    DEFAULT_PORT,
    ShardedAnalysisServer,
    spec_status,
)
from repro.server.metrics import MetricsSink, ServerMetrics, percentile
from repro.server.procpool import (
    DEFAULT_QUEUE_DEPTH,
    PoolSaturated,
    ProcessWorkerPool,
    WorkerLost,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_POLL_INTERVAL_SECONDS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_DEPTH",
    "LoadResult",
    "MetricsSink",
    "PoolSaturated",
    "ProcessWorkerPool",
    "ServerMetrics",
    "ShardedAnalysisServer",
    "WorkerLost",
    "canonical_reports",
    "fetch_json",
    "parse_retry_after",
    "percentile",
    "post_analyze",
    "run_load",
    "run_open_load",
    "spec_status",
    "verify_against_inprocess",
]
