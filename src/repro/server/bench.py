"""A seeded load generator for the analysis daemon.

``repro bench-serve`` (and ``examples/serve_http.py``) use this module to
fire N copies of one benchgen-derived
:class:`~repro.service.api.AnalyzeRequest` at a running daemon and report
sustained throughput and client-observed latency.  Because the request
document fully determines its corpus (seeded suite) and the analysis is
deterministic, every response must be **bit-identical** to running
:func:`repro.service.api.handle_request` in-process --
:func:`verify_against_inprocess` asserts exactly that, which is the
end-to-end proof that the warm-worker fast path changes *where* the work
happens, never *what* it computes.

Two load models, one result shape:

* :func:`run_load` is **closed-loop**: a fixed set of client threads, each
  issuing its next request only after the previous one finished.  Throughput
  self-limits to what the server sustains, which is why the closed-loop
  number is the trajectory headline (``BENCH_*.json``).
* :func:`run_open_load` is **open-loop**: requests are dispatched on a fixed
  schedule (``rate_rps``) regardless of how the server is doing, the way
  independent clients actually arrive.  Latency is measured from the
  *intended* send time, so server-induced queueing cannot hide in the
  generator -- the coordinated-omission failure mode of naive harnesses.

Both models measure a request's latency **from its first attempt**: a 503
round-trip and its ``Retry-After`` sleep are part of what the client waited,
so they stay in the reported number, while the final attempt's service time
is kept separately (:attr:`LoadResult.service_seconds`).  Clients honor
backpressure: a ``503`` is counted, then retried after the server's
``Retry-After`` hint (numeric seconds or HTTP-date), so a bounded queue
shapes the load instead of failing it.

Example::

    >>> request = AnalyzeRequest(suite=SuiteSpec(count=3, max_statements=50))
    >>> result = run_load("http://127.0.0.1:8080", request, total_requests=50, clients=8)
    >>> result.ok, result.throughput_rps
    (50, 11.3)
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from typing import Dict, List, Optional, Tuple

from repro.server.metrics import percentile
from repro.service.api import AnalyzeRequest, handle_request
from repro.service.store import SpecStore

DEFAULT_TIMEOUT_SECONDS = 600.0
DEFAULT_MAX_ATTEMPTS = 60
#: fallback sleep before retrying a 503 that carried no usable Retry-After
DEFAULT_RETRY_SLEEP_SECONDS = 0.1


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """``Retry-After`` header -> seconds to wait, or ``None`` if unusable.

    RFC 9110 allows both forms -- ``Retry-After: 3`` (delay-seconds) and
    ``Retry-After: Fri, 08 Aug 2026 07:28:00 GMT`` (HTTP-date) -- and a
    load client must not die on either (an uncaught ``ValueError`` from
    ``float()`` once killed whole bench client threads silently).  Dates in
    the past and negative delays clamp to ``0.0``, which callers must treat
    as "retry immediately", distinct from ``None`` ("no hint given").
    """
    if value is None:
        return None
    text = str(value).strip()
    if not text:
        return None
    try:
        seconds = float(text)
    except ValueError:
        try:
            when = parsedate_to_datetime(text)
        except (TypeError, ValueError):
            return None
        if when is None:  # pre-3.10 parsedate behavior, kept for safety
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return max(0.0, seconds)


@dataclass
class LoadResult:
    """Everything one load run observed, from the client side of the wire."""

    total_requests: int
    clients: int
    elapsed_seconds: float
    statuses: Dict[int, int]
    retries_after_503: int
    #: per-request latency measured from the FIRST attempt (closed loop) or
    #: the intended send time (open loop) -- 503 round-trips and Retry-After
    #: sleeps are part of what the client waited, so they are in here
    latencies_seconds: List[float]
    #: parsed JSON bodies of the 200 responses, indexed by request number
    responses: Dict[int, dict] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: wall-clock of the final (successful) attempt alone -- the server's
    #: service time, without the backpressure wait the latency includes
    service_seconds: List[float] = field(default_factory=list)
    #: attempts each successful request needed (1 = no 503 on the way)
    attempts: List[int] = field(default_factory=list)
    #: ``"closed"`` (:func:`run_load`) or ``"open"`` (:func:`run_open_load`)
    mode: str = "closed"
    #: the scheduled arrival rate of an open-loop run (``None`` when closed)
    target_rps: Optional[float] = None
    #: open loop only: how far behind schedule each dispatch actually started
    #: (a loaded generator shows up here instead of silently skewing latency)
    send_lateness_seconds: List[float] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def latency_percentile(self, fraction: float) -> Optional[float]:
        if not self.latencies_seconds:
            return None
        return percentile(sorted(self.latencies_seconds), fraction)

    def service_percentile(self, fraction: float) -> Optional[float]:
        if not self.service_seconds:
            return None
        return percentile(sorted(self.service_seconds), fraction)

    def summary(self) -> str:
        label = "open-loop" if self.mode == "open" else "closed-loop"
        rate = f" at {self.target_rps:g} req/s scheduled" if self.target_rps else ""
        lines = [
            f"{self.ok}/{self.total_requests} requests ok ({label}{rate}, "
            f"{self.clients} clients) in {self.elapsed_seconds:.2f}s "
            f"({self.throughput_rps:.1f} req/s)",
        ]
        if self.latencies_seconds:
            lines.append(
                "latency (from first attempt): "
                + ", ".join(
                    f"p{f:g}={self.latency_percentile(f):.3f}s" for f in (50.0, 90.0, 99.0)
                )
            )
        if self.service_seconds:
            lines.append(
                "service (final attempt only): "
                + ", ".join(
                    f"p{f:g}={self.service_percentile(f):.3f}s" for f in (50.0, 90.0, 99.0)
                )
            )
        if self.retries_after_503:
            lines.append(f"backpressure: {self.retries_after_503} retries after 503")
        for status, count in sorted(self.statuses.items()):
            if status != 200:
                lines.append(f"status {status}: {count}")
        for error in self.errors[:5]:
            lines.append(f"error: {error}")
        return "\n".join(lines)


def post_analyze(
    base_url: str, payload: bytes, timeout: float = DEFAULT_TIMEOUT_SECONDS
) -> Tuple[int, dict, Optional[float]]:
    """POST one request body; returns ``(status, body, retry_after_seconds)``."""
    http_request = urllib.request.Request(
        base_url.rstrip("/") + "/analyze",
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(http_request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8")), None
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", errors="replace")
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError:
            parsed = {"error": body}
        return error.code, parsed, parse_retry_after(error.headers.get("Retry-After"))


def fetch_json(base_url: str, path: str, timeout: float = 30.0) -> dict:
    """GET a JSON endpoint (``/healthz``, ``/specs``, ``/metrics``)."""
    with urllib.request.urlopen(base_url.rstrip("/") + path, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class _Recorder:
    """Thread-safe accumulation shared by the closed- and open-loop drivers."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.statuses: Dict[int, int] = {}
        self.latencies: List[float] = []
        self.service: List[float] = []
        self.attempts: List[int] = []
        self.responses: Dict[int, dict] = {}
        self.errors: List[str] = []
        self.retries = 0

    def run_one(
        self,
        base_url: str,
        payload: bytes,
        index: int,
        reference_started: float,
        timeout: float,
        max_attempts: int,
    ) -> None:
        """Issue request *index* until it lands (or attempts run out).

        *reference_started* is the ``perf_counter`` instant latency is
        measured from: the first attempt (closed loop) or the scheduled
        arrival time (open loop).  It is NOT reset across retries -- the
        whole point; resetting it per attempt made a saturated server look
        *faster* because every 503 round-trip and Retry-After sleep was
        dropped from the reported latency.
        """
        for attempt in range(1, max_attempts + 1):
            attempt_started = time.perf_counter()
            try:
                status, body, retry_after = post_analyze(base_url, payload, timeout=timeout)
            except (urllib.error.URLError, OSError) as error:
                with self.lock:
                    self.errors.append(f"request {index}: {error}")
                return
            finished = time.perf_counter()
            if status == 503:
                with self.lock:
                    self.statuses[503] = self.statuses.get(503, 0) + 1
                    self.retries += 1
                # an explicit ``Retry-After: 0`` means "retry now", which is
                # not the same as no hint at all -- hence ``is None``
                sleep = retry_after if retry_after is not None else DEFAULT_RETRY_SLEEP_SECONDS
                if sleep > 0:
                    time.sleep(sleep)
                continue
            with self.lock:
                self.statuses[status] = self.statuses.get(status, 0) + 1
                if status == 200:
                    self.latencies.append(finished - reference_started)
                    self.service.append(finished - attempt_started)
                    self.attempts.append(attempt)
                    self.responses[index] = body
                else:
                    self.errors.append(f"request {index}: status {status}: {body.get('error')}")
            return
        with self.lock:
            self.errors.append(f"request {index}: gave up after {max_attempts} attempts")


def run_load(
    base_url: str,
    request: AnalyzeRequest,
    total_requests: int,
    clients: int,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> LoadResult:
    """Fire *total_requests* copies of *request* from *clients* threads.

    Closed-loop: each client thread takes the next request number off a
    shared counter, POSTs, and on a 503 sleeps the server's ``Retry-After`` hint
    before retrying (up to *max_attempts* attempts per request), so every
    request eventually lands unless the server is down.  Latency is measured
    client-side from the request's **first** attempt.
    """
    payload = json.dumps(request.to_dict()).encode("utf-8")
    numbers = itertools.count()  # next() on it is atomic under the GIL
    recorder = _Recorder()

    def client_loop() -> None:
        while True:
            index = next(numbers)
            if index >= total_requests:
                return
            recorder.run_one(
                base_url,
                payload,
                index,
                reference_started=time.perf_counter(),
                timeout=timeout,
                max_attempts=max_attempts,
            )

    threads = [
        threading.Thread(target=client_loop, name=f"bench-client-{i}", daemon=True)
        for i in range(max(1, clients))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return LoadResult(
        total_requests=total_requests,
        clients=max(1, clients),
        elapsed_seconds=elapsed,
        statuses=recorder.statuses,
        retries_after_503=recorder.retries,
        latencies_seconds=recorder.latencies,
        responses=recorder.responses,
        errors=recorder.errors,
        service_seconds=recorder.service,
        attempts=recorder.attempts,
        mode="closed",
    )


def vary_request_seed(request: AnalyzeRequest, index: int) -> AnalyzeRequest:
    """Request *index* of a distinct-corpus run: same shape, shifted seed.

    Used to defeat response coalescing when the point of a run is per-request
    compute (scaling measurements) rather than cache behavior -- each request
    then names a different (but same-sized) deterministic corpus.
    """
    return replace(request, suite=replace(request.suite, seed=request.suite.seed + index))


def run_open_load(
    base_url: str,
    request: AnalyzeRequest,
    total_requests: int,
    rate_rps: float,
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    distinct_seeds: bool = False,
) -> LoadResult:
    """Dispatch *total_requests* on a fixed schedule of *rate_rps* per second.

    Open-loop, coordinated-omission-free: request *i* is *scheduled* at
    ``i / rate_rps`` seconds after the run starts and dispatched on its own
    thread, whether or not earlier requests have finished.  Latency is
    measured from the **intended** send time, so when the server (or the
    generator) falls behind, the backlog shows up in the latency numbers
    instead of silently stretching the arrival schedule.  Dispatch lateness
    is recorded separately (:attr:`LoadResult.send_lateness_seconds`) so a
    starved generator is distinguishable from a slow server.

    *distinct_seeds* gives every request its own suite seed (same corpus
    shape) via :func:`vary_request_seed`, defeating the front door's response
    coalescing when per-request compute is what the run must measure.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps!r}")
    payloads = []
    for index in range(total_requests):
        doc = vary_request_seed(request, index) if distinct_seeds else request
        payloads.append(json.dumps(doc.to_dict()).encode("utf-8"))
    recorder = _Recorder()
    lateness: List[float] = []
    lateness_lock = threading.Lock()
    threads: List[threading.Thread] = []
    epoch = time.perf_counter()
    for index in range(total_requests):
        scheduled = epoch + index / rate_rps
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with lateness_lock:
            lateness.append(max(0.0, time.perf_counter() - scheduled))
        thread = threading.Thread(
            target=recorder.run_one,
            args=(base_url, payloads[index], index),
            kwargs={
                "reference_started": scheduled,
                "timeout": timeout,
                "max_attempts": max_attempts,
            },
            name=f"bench-open-{index}",
            daemon=True,
        )
        threads.append(thread)
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - epoch
    return LoadResult(
        total_requests=total_requests,
        clients=total_requests,  # open loop: every arrival is its own client
        elapsed_seconds=elapsed,
        statuses=recorder.statuses,
        retries_after_503=recorder.retries,
        latencies_seconds=recorder.latencies,
        responses=recorder.responses,
        errors=recorder.errors,
        service_seconds=recorder.service,
        attempts=recorder.attempts,
        mode="open",
        target_rps=rate_rps,
        send_lateness_seconds=lateness,
    )


# ------------------------------------------------------------ bench artifacts
BENCH_FORMAT = "repro.bench.serve/1"


def _percentile_block(values: List[float]) -> dict:
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 50.0) if ordered else None,
        "p90": percentile(ordered, 90.0) if ordered else None,
        "p99": percentile(ordered, 99.0) if ordered else None,
        "max": ordered[-1] if ordered else None,
    }


def bench_artifact(
    result: LoadResult,
    request: AnalyzeRequest,
    metrics_snapshot: Optional[dict] = None,
    meta: Optional[dict] = None,
) -> dict:
    """A machine-readable bench record: throughput, latency, phase times.

    This is the unit of the committed perf trajectory (``BENCH_*.json``):
    one schema-versioned document per recorded run, comparable across
    commits.  Phase times aggregate the per-report timing of every 200
    response; the optional server-side ``/metrics`` snapshot is embedded
    verbatim for queue/compilation context.  The latency block reports the
    first-attempt-anchored numbers; ``service_seconds`` carries the final
    attempt alone, and ``attempts`` how many tries requests needed -- under
    backpressure the gap between the two is the price of the bounded queue.
    """
    phases = {"andersen_seconds": 0.0, "taint_seconds": 0.0, "total_seconds": 0.0}
    programs = 0
    for body in result.responses.values():
        for report in body.get("reports", ()):
            timing = report.get("timing") or {}
            programs += 1
            for key in phases:
                phases[key] += float(timing.get(key, 0.0))
    artifact = {
        "format": BENCH_FORMAT,
        "request": request.to_dict(),
        "load": {
            "mode": result.mode,
            "target_rps": result.target_rps,
            "total_requests": result.total_requests,
            "clients": result.clients,
            "elapsed_seconds": result.elapsed_seconds,
            "ok": result.ok,
            "statuses": {str(k): v for k, v in sorted(result.statuses.items())},
            "retries_after_503": result.retries_after_503,
            "errors": len(result.errors),
        },
        "throughput_rps": result.throughput_rps,
        "latency_seconds": _percentile_block(result.latencies_seconds),
        "service_seconds": _percentile_block(result.service_seconds),
        "attempts": {
            "mean": (sum(result.attempts) / len(result.attempts)) if result.attempts else None,
            "max": max(result.attempts) if result.attempts else None,
        },
        "phases": {"programs_analyzed": programs, **phases},
    }
    if result.mode == "open" and result.send_lateness_seconds:
        artifact["load"]["send_lateness_seconds"] = _percentile_block(
            result.send_lateness_seconds
        )
    if metrics_snapshot is not None:
        artifact["server_metrics"] = metrics_snapshot
    if meta:
        artifact["meta"] = dict(meta)
    return artifact


def write_bench_artifact(path: str, artifact: dict) -> str:
    """Write one bench artifact as pretty-printed JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return path


def canonical_reports(response_body: dict) -> List[dict]:
    """The timing-free portion of a wire response's per-program reports."""
    return [
        {key: value for key, value in report.items() if key != "timing"}
        for report in response_body.get("reports", ())
    ]


def verify_against_inprocess(
    result: LoadResult,
    store: SpecStore,
    request: AnalyzeRequest,
    library_program=None,
    interface=None,
) -> Tuple[bool, str]:
    """Check every daemon response against an in-process ``handle_request``.

    Compares the canonical (timing-free) report lists and the resolved spec
    id; returns ``(ok, human-readable detail)``.  This is the acceptance
    check that the warm-worker path is an optimization, not a semantic fork.
    Only meaningful for same-document runs -- a ``distinct_seeds`` open-loop
    run names a different corpus per request and must be verified per
    request instead.
    """
    expected_response = handle_request(
        request, store, library_program=library_program, interface=interface
    )
    expected = [report.canonical() for report in expected_response.result.reports]
    mismatches = 0
    for index, body in sorted(result.responses.items()):
        if body.get("spec_id") != expected_response.spec_id:
            mismatches += 1
        elif canonical_reports(body) != expected:
            mismatches += 1
    if mismatches:
        return False, (
            f"{mismatches}/{len(result.responses)} responses differ from in-process "
            f"handle_request (spec {expected_response.spec_id})"
        )
    return True, (
        f"all {len(result.responses)} responses bit-identical to in-process "
        f"handle_request (spec {expected_response.spec_id})"
    )


__all__ = [
    "BENCH_FORMAT",
    "LoadResult",
    "bench_artifact",
    "canonical_reports",
    "fetch_json",
    "parse_retry_after",
    "post_analyze",
    "run_load",
    "run_open_load",
    "vary_request_seed",
    "verify_against_inprocess",
    "write_bench_artifact",
]
