"""The HTTP front door of the analysis daemon.

:class:`ShardedAnalysisServer` is what ``repro serve`` runs: requests are
accepted by a single-threaded asyncio event loop (stdlib streams, manual
HTTP/1.1 framing, keep-alive) and analyzed by a
:class:`~repro.server.procpool.ProcessWorkerPool` of pre-forked worker
processes, so throughput scales with cores instead of capping at one GIL.
The loop is the pool's own (:attr:`~repro.server.procpool.ProcessWorkerPool.loop`):
the thread that parses a request also writes its job to a worker's pipe,
reads the reply, and writes the body the worker encoded back unchanged.

========  ===========  ====================================================
method    path         body
========  ===========  ====================================================
``POST``  /analyze     :class:`~repro.service.api.AnalyzeRequest` JSON in,
                       :class:`~repro.service.api.AnalyzeResponse` JSON out
``GET``   /healthz     liveness + the spec id currently being served
``GET``   /specs       the store listing (one record per stored version)
``GET``   /metrics     :meth:`~repro.server.metrics.ServerMetrics.snapshot`
                       as JSON; ``?format=prometheus`` renders the registry
                       as Prometheus text exposition instead
========  ===========  ====================================================

Every ``/analyze`` response carries an ``X-Repro-Trace-Id`` header (the root
span of the request's trace -- client-supplied via the same request header,
or freshly minted) and, on success, a ``Server-Timing`` header breaking the
request into queue wait and analysis phases.  Status mapping: ``200`` on
success, ``400`` for malformed JSON / an unsupported ``format`` version /
unknown app names, ``404`` for a spec id the store does not hold, ``503`` +
``Retry-After`` when the door or the pool sheds the request or no worker
process is left to answer it, ``500`` for unexpected analysis failures.
Unframeable input is answered and the connection closed: ``400`` for a bad
``Content-Length``, ``413`` for a body over :data:`MAX_BODY_BYTES`, ``414`` /
``431`` for a request / header line over the stream's line limit, and
``431`` for more than :data:`MAX_HEADERS` header lines.

Two request-shaping layers live in the front door itself, above the pool's
bounded queue:

* **Admission control** -- at most ``admission_limit`` ``/analyze`` requests
  may be in flight through the pool at once; excess arrivals are shed
  immediately with ``503`` + ``Retry-After`` (and a dedicated metric), so a
  burst fails fast at the door instead of stacking up in the event loop.
  Coalesced followers do not count: they consume no pool capacity.
* **Request coalescing** -- the analysis is deterministic, so two in-flight
  requests with the same :func:`repro.service.api.canonical_request_key`
  (canonical document + resolved spec id, a faithful stand-in for the
  corpus's ``repro.lang.serialize`` program digests) must produce the same
  bytes.  The first becomes the *leader*; the rest await its response and
  receive the leader's body verbatim (bit-identical, flagged with
  ``X-Repro-Coalesced: 1``).  Keys resolve the spec id at arrival time, so a
  hot reload never coalesces across spec versions.

Trace note: the loop handles many requests on one thread, so the
thread-local ``span()`` context manager would cross-contaminate interleaved
tasks.  The front door mints each request's :class:`~repro.obs.trace.TraceContext`
explicitly, ships it to the worker through ``pool.dispatch(request, context)``,
and emits the root ``server.request`` span by hand when the response is written.

Example::

    >>> server = ShardedAnalysisServer(store, port=0, processes=2)
    >>> server.start()
    >>> server.url
    'http://127.0.0.1:40121'
    >>> server.close()
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import trace as _trace
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import SpanFinished, TraceContext
from repro.server.metrics import MetricsSink, ServerMetrics
from repro.server.procpool import (
    DEFAULT_QUEUE_DEPTH,
    PoolSaturated,
    ProcessWorkerPool,
    WorkerLost,
    encode_json,
)
from repro.service.api import (
    AnalyzeRequest,
    UnknownAppsError,
    canonical_request_key,
)
from repro.service.store import (
    STATE_CANDIDATE,
    SpecNotFoundError,
    SpecStore,
    SpecStoreError,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8080
DEFAULT_POLL_INTERVAL_SECONDS = 2.0
#: the largest request body the door reads; request documents are ~1 KiB
MAX_BODY_BYTES = 1 << 20
#: the most header lines the door reads for one request (``http.client``'s limit)
MAX_HEADERS = 100
JSON_CONTENT_TYPE = "application/json"

#: (status, body bytes, extra headers, content type) -- one rendered response
_Rendered = Tuple[int, bytes, Dict[str, str], str]


def spec_status(pool, store: SpecStore) -> dict:
    """Lifecycle view of the store as seen from what *pool* serves.

    The active spec (id, version, lineage depth) and any candidates awaiting
    a canary verdict for the same library -- shared by ``/healthz``,
    ``/specs``, and ``/metrics``.
    """
    current = pool.current_spec_id
    states = store.states()
    candidates = [
        record.spec_id
        for record in store.list(fingerprint=pool.fingerprint)
        if states.get(record.spec_id) == STATE_CANDIDATE
    ]
    active_version: Optional[int] = None
    lineage_depth: Optional[int] = None
    if current is not None:
        try:
            active_version = store.record(current).version
            lineage_depth = store.lineage_depth(current)
        except SpecStoreError:
            pass  # the served spec predates this index (or store moved)
    return {
        "active_spec_id": current,
        "active_version": active_version,
        "lineage_depth": lineage_depth,
        "candidate_spec_ids": candidates,
    }


def _json(status: int, payload, headers: Optional[Dict[str, str]] = None) -> _Rendered:
    """A JSON response: compact 200s (machine-consumed hot path), readable errors."""
    body = (
        encode_json(payload)
        if status == 200
        else json.dumps(payload, indent=1).encode("utf-8") + b"\n"
    )
    return status, body, headers or {}, JSON_CONTENT_TYPE


def _retry_later(error) -> _Rendered:
    """503 + ``Retry-After`` for a shed or orphaned request."""
    seconds = error.retry_after_seconds
    return _json(
        503,
        {"error": str(error), "retry_after_seconds": seconds},
        {"Retry-After": str(seconds)},
    )


def _server_timing(timing: Dict[str, float]) -> str:
    """The per-phase breakdown header from the worker's shipped timings."""
    parts = []
    for phase, key in (
        ("queue", "queue_seconds"),
        ("andersen", "andersen_seconds"),
        ("taint", "taint_seconds"),
        ("solve", "solve_seconds"),
        ("analysis", "analysis_seconds"),
    ):
        seconds = timing.get(key)
        if seconds is not None:
            parts.append(f"{phase};dur={seconds * 1000.0:.3f}")
    return ", ".join(parts)


class ShardedAnalysisServer:
    """Process pool + metrics + asyncio HTTP front door, one lifecycle.

    ``start()`` forks and warms every worker process, begins store polling
    for hot reload, and serves HTTP on the pool's event loop -- the thread
    that also carries every request to its worker and back; ``close()`` (or
    the context manager) tears all of it down.
    ``port=0`` binds an ephemeral port, read back from :attr:`address` /
    :attr:`url`.
    """

    def __init__(
        self,
        store: SpecStore,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        processes: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        poll_interval: float = DEFAULT_POLL_INTERVAL_SECONDS,
        metrics: Optional[ServerMetrics] = None,
        library_program=None,
        admission_limit: Optional[int] = None,
        analysis_cache_dir: Optional[str] = None,
    ):
        self.store = store
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._metrics_sink = MetricsSink(self.metrics)
        self.pool = ProcessWorkerPool(
            store,
            processes=processes,
            queue_depth=queue_depth,
            library_program=library_program,
            analysis_cache_dir=analysis_cache_dir,
        )
        # headroom above the pool bound: the door sheds before the loop fills
        # with tasks that would only be shed by the pool anyway
        self.admission_limit = (
            admission_limit
            if admission_limit is not None
            else queue_depth + 2 * self.pool.processes
        )
        self._inflight = 0
        self._leaders: Dict[str, "asyncio.Future[_Rendered]"] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = threading.Event()
        self._bound: Optional[Tuple[str, int]] = None

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Warm the worker fleet, then bind the socket and serve on its loop.

        The metrics sink becomes an ambient sink before the fleet forks, so
        the workers' startup compilations are counted.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        _trace.add_ambient_sink(self._metrics_sink)
        try:
            self.pool.start()
            self.pool.start_polling(self.poll_interval)
            self._closed.clear()
            self._server = asyncio.run_coroutine_threadsafe(
                asyncio.start_server(self._handle_client, self.host, self.port),
                self.pool.loop,
            ).result()
        except BaseException:
            self.close()
            raise
        self._bound = self._server.sockets[0].getsockname()[:2]

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`close` (or interrupt)."""
        if self._server is None:
            raise RuntimeError("server is not running (call start() first)")
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting connections, drain the fleet, stop the workers.

        Requests already with a worker are still answered while the fleet
        drains; connections left open after that are dropped.
        """
        if self._server is not None and self.pool.running:
            self.pool.loop.call_soon_threadsafe(self._server.close)
        self._server = self._bound = None
        if self.pool.running:  # tolerate close() after a failed start()
            self.pool.stop()
        _trace.remove_ambient_sink(self._metrics_sink)
        self._closed.set()

    def __enter__(self) -> "ShardedAnalysisServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ address
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` -- the real port even when 0 was asked."""
        if self._bound is None:
            raise RuntimeError("server is not running")
        return self._bound

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # --------------------------------------------------------------- connection
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive HTTP/1.1 connection: parse, route, frame, repeat.

        Input that leaves the stream unframeable is answered, then the
        connection is closed: nothing after it can be trusted as the start
        of the next request.
        """
        try:
            while True:
                answered = await self._serve_one(reader)
                if answered is None:
                    break
                rendered, close = answered
                await self._write(writer, rendered, close=close)
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[_Rendered, bool]]:
        """Read and answer one request: ``(response, close)``, ``None`` at EOF."""
        try:
            request_line = await reader.readline()
        except ValueError:  # over the StreamReader line limit
            return _json(414, {"error": "request line too long"}), True
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return _json(400, {"error": "malformed request line"}), True
        method, target, version = parts
        headers: Dict[str, str] = {}
        lines = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return _json(431, {"error": "header line too long"}), True
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADERS:
                return _json(431, {"error": f"over {MAX_HEADERS} header lines"}), True
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            return _json(400, {"error": "invalid Content-Length header"}), True
        if length > MAX_BODY_BYTES:
            return _json(413, {"error": f"request body over {MAX_BODY_BYTES} bytes"}), True
        body = await reader.readexactly(length) if length > 0 else b""
        close = (
            headers.get("connection", "").lower() == "close"
            or version.upper() == "HTTP/1.0"
        )
        return await self._route(method, target, headers, body), close

    async def _write(
        self, writer: asyncio.StreamWriter, rendered: _Rendered, close: bool
    ) -> None:
        status, body, extra_headers, content_type = rendered
        reason = http.client.responses.get(status, "")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Server: repro-serve/2",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if close:
            head.append("Connection: close")
        for name, value in extra_headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------- routes
    async def _route(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> _Rendered:
        parsed = urlsplit(target)
        if method == "POST":
            if parsed.path != "/analyze":
                return _json(404, {"error": f"no such endpoint: {target}"})
            return await self._analyze(headers, body)
        if method == "GET":
            return self._get(parsed)
        return _json(405, {"error": f"method {method} not allowed"})

    def _get(self, parsed) -> _Rendered:
        if parsed.path == "/metrics":
            gauges = dict(
                queue_depth=self.pool.queue_depth,
                queue_capacity=self.pool.queue_capacity,
                workers=self.pool.processes,
                active_version=spec_status(self.pool, self.store)["active_version"],
            )
            formats = parse_qs(parsed.query).get("format", ["json"])
            if formats[-1] == "prometheus":
                text = self.metrics.to_prometheus(**gauges)
                return 200, text.encode("utf-8"), {}, PROMETHEUS_CONTENT_TYPE
            return _json(200, self.metrics.snapshot(**gauges))
        if parsed.path == "/healthz":
            payload = {
                "status": "ok",
                "spec_id": self.pool.current_spec_id,
                "workers": self.pool.processes,
                "processes": self.pool.processes,
                "uptime_seconds": time.time() - self.metrics.started_at,
            }
            payload.update(spec_status(self.pool, self.store))
            return _json(200, payload)
        if parsed.path == "/specs":
            states = self.store.states()
            specs = []
            for record in self.store.records():
                entry = record.to_dict()
                entry["state"] = states.get(record.spec_id)
                specs.append(entry)
            payload = {"current": self.pool.current_spec_id, "specs": specs}
            payload.update(spec_status(self.pool, self.store))
            return _json(200, payload)
        return _json(404, {"error": f"no such endpoint: {parsed.path}"})

    # ------------------------------------------------------------------ analyze
    async def _analyze(self, headers: Dict[str, str], body: bytes) -> _Rendered:
        started_wall = time.time()
        started = time.perf_counter()
        client_trace = (headers.get("x-repro-trace-id") or "").strip() or None
        # minted by hand: the loop thread interleaves requests, so the
        # thread-local span() contextmanager would attach spans to whichever
        # task last switched in
        context = TraceContext(
            trace_id=client_trace if client_trace else _trace.new_id(),
            span_id=_trace.new_id(),
        )
        status, payload, extra, content_type = await self._analyze_inner(body, context)
        elapsed = time.perf_counter() - started
        _trace.emit(
            SpanFinished(
                name="server.request",
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id=None,
                started_at=started_wall,
                elapsed_seconds=elapsed,
                attrs=(("status", str(status)),),
            )
        )
        self.metrics.record_request(status, elapsed)
        extra = dict(extra)
        extra["X-Repro-Trace-Id"] = context.trace_id
        return status, payload, extra, content_type

    async def _analyze_inner(self, body: bytes, context: TraceContext) -> _Rendered:
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            return _json(400, {"error": f"invalid JSON body: {error}"})
        try:
            request = AnalyzeRequest.from_dict(data)
        except (ValueError, TypeError, AttributeError) as error:
            return _json(400, {"error": f"bad request: {error}"})

        key = canonical_request_key(request, self.pool.current_spec_id)
        leader = self._leaders.get(key)
        if leader is not None:
            # follower: no admission slot, no pool submit -- the leader's
            # bytes are this request's bytes, by determinism
            self.metrics.record_coalesced()
            try:
                status, payload, extra, content_type = await asyncio.shield(leader)
            except Exception:  # noqa: BLE001 - leader died; have them retry
                return _json(503, {"error": "coalesced leader failed; retry"}, {"Retry-After": "0"})
            extra = dict(extra)
            extra["X-Repro-Coalesced"] = "1"
            return status, payload, extra, content_type

        if self._inflight >= self.admission_limit:
            self.metrics.record_admission_rejected()
            return _json(
                503,
                {
                    "error": (
                        f"admission limit reached "
                        f"({self.admission_limit} requests in flight)"
                    ),
                    "retry_after_seconds": 1,
                },
                {"Retry-After": "1"},
            )

        waiter: "asyncio.Future[_Rendered]" = asyncio.get_running_loop().create_future()
        self._leaders[key] = waiter
        self._inflight += 1
        rendered: Optional[_Rendered] = None
        try:
            rendered = await self._serve_via_pool(request, context)
            return rendered
        finally:
            self._inflight -= 1
            self._leaders.pop(key, None)
            if not waiter.done():
                # resolve even on leader cancellation so followers never
                # hang; they see a retryable 503 instead of an exception
                waiter.set_result(
                    rendered
                    if rendered is not None
                    else _json(
                        503, {"error": "coalesced leader cancelled; retry"}, {"Retry-After": "0"}
                    )
                )

    async def _serve_via_pool(self, request: AnalyzeRequest, context: TraceContext) -> _Rendered:
        try:
            reply = self.pool.dispatch(request, context)
        except (PoolSaturated, WorkerLost) as error:
            return _retry_later(error)
        except RuntimeError as error:  # pool stopping: shutdown race ends 503
            return _json(503, {"error": f"server unavailable: {error}"}, {"Retry-After": "1"})
        try:
            body, timing = await reply
        except SpecNotFoundError as error:
            return _json(404, {"error": f"unknown spec: {error}"})
        except UnknownAppsError as error:
            return _json(400, {"error": f"bad request: {error}"})
        except WorkerLost as error:
            return _retry_later(error)
        except Exception as error:  # noqa: BLE001 - the wire needs *some* answer
            return _json(500, {"error": f"analysis failed: {error}"})
        # the worker's bytes, as it encoded them
        return 200, body, {"Server-Timing": _server_timing(timing)}, JSON_CONTENT_TYPE


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_POLL_INTERVAL_SECONDS",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "ShardedAnalysisServer",
    "spec_status",
]
