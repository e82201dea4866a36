"""Pre-forked analysis worker processes behind per-worker job queues.

:class:`ProcessWorkerPool` is the serving side of "learn once, query many":
each worker process compiles the stored spec to a
:class:`~repro.service.analyzer.ClientAnalyzer` **once at startup**
(emitting :class:`~repro.engine.events.SpecCompiled`), then answers any
number of requests through :func:`repro.service.api.run_request` -- the same
cheap half :func:`~repro.service.api.handle_request` uses, so a daemon
response equals a one-shot response for the same request document.
Requests are dispatched over a per-worker job queue and results come back
over one shared result queue; analysis throughput scales with cores instead
of one GIL.

Design points worth knowing before reading the code:

* **Backpressure.**  ``queue_depth`` bounds the outstanding requests across
  the fleet; :meth:`ProcessWorkerPool.submit` raises :class:`PoolSaturated`
  instead of queueing unboundedly, which the front door turns into ``503`` +
  ``Retry-After``.
* **Hot reload.**  :meth:`ProcessWorkerPool.poll_once` re-reads the store's
  append-only index; a newer latest spec moves the dispatch target, workers
  compile it lazily on their next job, and in-flight requests finish on the
  spec they were dispatched under.
* **Spec-id routing.**  Requests pinned to a spec id other than the
  dispatch target are sharded onto a stable worker (hash of the id), so a
  pinned minority reuses one process's compiled-analyzer cache instead of
  forcing every process to compile every historical version.  Unpinned
  requests, and requests pinned to the target itself, go to the worker with
  the fewest outstanding jobs.
* **Dead workers.**  A monitor thread watches every worker's
  ``Process.sentinel``.  A worker that exits unasked leaves routing, each
  job it held is re-dispatched once to a live sibling under a fresh job id
  (so a late result from the dead worker resolves nothing), and a job with
  no live worker left -- or whose retry dies too -- fails with
  :class:`WorkerLost`, which the front door turns into ``503`` +
  ``Retry-After``.
* **One message per reply; telemetry rides it as data.**  A worker holds
  the engine events and finished spans it emits (frozen picklable
  dataclasses) in its ambient sink, and every message it sends --
  ``ready``, ``startup_error``, ``result``, ``shadow`` -- carries what it
  held since its last one, so a request crosses the result queue once.
  The parent's collector thread re-emits that telemetry into the pool's
  sink before it acts on the message -- one journal writer, one metrics
  registry, and the "compiled once per worker, never once per request"
  counters keep working, all updated before a client sees its answer.  The
  queue wait is measured at the worker's dequeue and shipped as the
  result's ``queue_seconds``; the parent, which holds the request's trace
  context and enqueue time, builds the ``server.queue_wait`` span from it.
  The worker resets the fork-inherited ambient sinks first
  (:func:`repro.obs.trace.reset_ambient_sinks`), so nothing is delivered
  twice.
* **Shadow mirroring stays parent-sampled.**  The parent decides at dispatch
  whether a request is mirrored through a candidate spec (the observer's
  ``sample()`` runs exactly once per request, in one process); the worker
  analyzes the mirror *after* shipping the served result, and the parent
  rehydrates both responses (:meth:`repro.service.api.AnalyzeResponse.from_dict`)
  to drive the observer's ``observe``/``observe_error`` -- so the canary's
  events and metrics are emitted in the parent, and a shadow failure never
  reaches the client.
* **Trace contexts are explicit.**  ``submit(request, context=...)`` ships a
  :class:`~repro.obs.trace.TraceContext` dict to the worker, which adopts it
  around the analysis, so worker-process spans join the HTTP request's
  trace.  The asyncio front door passes contexts explicitly (thread-local
  ambience is meaningless under task interleaving); threaded callers fall
  back to :func:`repro.obs.trace.current_context`.

Example::

    >>> pool = ProcessWorkerPool(store, processes=2, queue_depth=16)
    >>> pool.start()                      # 2 processes forked, 2 compilations
    >>> response = pool.submit(AnalyzeRequest(suite=SuiteSpec(count=5))).result()
    >>> pool.stop()
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue as queue_module
import random
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_ready
from typing import Dict, List, Optional, Tuple

from repro.engine.cache import program_fingerprint
from repro.engine.events import CollectingSink, EventSink, NullSink, SpecCompiled, SpecReloaded
from repro.library.registry import build_library_program, build_spec_interface
from repro.obs import trace as _trace
from repro.obs.trace import SpanFinished, TraceContext
from repro.service.analyzer import ClientAnalyzer
from repro.service.api import (
    AnalyzeRequest,
    AnalyzeResponse,
    UnknownAppsError,
    run_request,
)
from repro.service.store import SpecNotFoundError, SpecStore

DEFAULT_QUEUE_DEPTH = 16
DEFAULT_RETRY_AFTER_SECONDS = 1
#: per-worker compiled-analyzer cache bound (current spec + reload/pin history)
MAX_CACHED_ANALYZERS = 4
#: how long stop() waits for a worker to exit cleanly before terminating it
STOP_GRACE_SECONDS = 30.0
#: how long start() waits for every worker to finish its startup compilation
STARTUP_TIMEOUT_SECONDS = 600.0
#: ceiling on the store-poll backoff when the store is unreadable
POLL_BACKOFF_CAP_SECONDS = 30.0
#: proportional jitter added to backed-off delays (desynchronizes daemons
#: sharing one store so they do not retry a broken filesystem in lockstep)
POLL_BACKOFF_JITTER = 0.25


def poll_backoff_delay(interval_seconds: float, failures: int, rng: random.Random) -> float:
    """The delay before the next store poll after *failures* consecutive errors.

    A healthy store (``failures == 0``) polls at exactly *interval_seconds*
    -- hot-reload promptness is unchanged.  Each consecutive failure doubles
    the delay up to :data:`POLL_BACKOFF_CAP_SECONDS` and adds up to
    :data:`POLL_BACKOFF_JITTER` proportional jitter, so an unreadable store
    (unmounted NFS, wrecked permissions) is probed gently instead of
    hot-looped at the fixed interval.
    """
    if failures <= 0:
        return interval_seconds
    cap = max(interval_seconds, POLL_BACKOFF_CAP_SECONDS)
    delay = min(interval_seconds * (2.0 ** failures), cap)
    return delay * (1.0 + POLL_BACKOFF_JITTER * rng.random())


class PoolSaturated(RuntimeError):
    """The bounded request queue is full; shed this request.

    ``retry_after_seconds`` is a hint for the HTTP ``Retry-After`` header.
    """

    def __init__(self, depth: int, retry_after_seconds: int = DEFAULT_RETRY_AFTER_SECONDS):
        super().__init__(f"request queue full ({depth} requests pending)")
        self.depth = depth
        self.retry_after_seconds = retry_after_seconds


class WorkerLost(RuntimeError):
    """No live worker could answer this job; the client should retry later.

    Raised by :meth:`ProcessWorkerPool.submit` once every worker has died,
    and set on a job's future when its worker died and no retry could
    finish it.  ``retry_after_seconds`` is a hint for ``Retry-After``.
    """

    retry_after_seconds = DEFAULT_RETRY_AFTER_SECONDS


def _evict_stale(analyzers: Dict[str, ClientAnalyzer], protected: set) -> None:
    """Bound a worker's analyzer cache (hot reloads and pinned ids add up).

    Drops the oldest analyzers outside *protected* (the dispatch target, the
    spec just used, the shadow candidate) past :data:`MAX_CACHED_ANALYZERS`
    -- a long-lived daemon's memory must not grow with the number of
    deploys or with clients pinning historical spec ids.
    """
    while len(analyzers) > MAX_CACHED_ANALYZERS:
        for spec_id in analyzers:
            if spec_id not in protected:
                del analyzers[spec_id]
                break
        else:
            return


def _worker_main(
    name: str,
    store_root: str,
    jobs,
    results,
    initial_spec_id: str,
    analysis_cache_dir: Optional[str] = None,
) -> None:
    """One pre-forked worker: compile once, then serve jobs until the sentinel.

    Module-level (not a closure) so the pool works under the ``spawn`` start
    method too; everything it needs arrives as picklable arguments, and the
    library program/interface are rebuilt in-process (they are deterministic,
    so the fingerprint matches the parent's).
    """
    try:  # the parent owns shutdown; a Ctrl-C broadcast must not race it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    _trace.reset_ambient_sinks()  # see module docstring: no double delivery
    held = CollectingSink()
    _trace.add_ambient_sink(held)

    def send(kind: str, *fields) -> None:
        """One message to the parent, carrying the telemetry held since the last."""
        telemetry, held.events = held.events, []
        results.put((kind, name, telemetry, *fields))

    try:
        store = SpecStore(store_root)
        library = build_library_program()
        interface = build_spec_interface(library)
    except BaseException as error:  # noqa: BLE001 - surfaced to start()
        send("startup_error", f"{type(error).__name__}: {error}")
        return

    analyzers: Dict[str, ClientAnalyzer] = {}

    def compile_spec(spec_id: str) -> ClientAnalyzer:
        started = time.perf_counter()
        analyzer = ClientAnalyzer.from_store(
            store,
            spec_id=spec_id,
            library_program=library,
            interface=interface,
            analysis_cache_dir=analysis_cache_dir,
            # per-process cache files in one shared directory: each worker
            # appends to its own, loads the union -- no write interleaving
            analysis_cache_worker=name,
        )
        held.emit(
            SpecCompiled(
                worker=name,
                spec_id=analyzer.spec_id,
                elapsed_seconds=time.perf_counter() - started,
            )
        )
        return analyzer

    try:
        analyzers[initial_spec_id] = compile_spec(initial_spec_id)
    except BaseException as error:  # noqa: BLE001 - surfaced to start()
        send("startup_error", f"{type(error).__name__}: {error}")
        return
    send("ready")

    while True:
        message = jobs.get()
        if message is None:
            return
        job_id, request_doc, target_spec_id, context_doc, shadow_spec_id, enqueued_at = message
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's enqueue
        # stamp is comparable here; clamp anyway for exotic platforms
        timing = {"queue_seconds": max(0.0, time.perf_counter() - enqueued_at)}
        context = TraceContext.from_dict(context_doc) if context_doc else None
        try:
            request = AnalyzeRequest.from_dict(request_doc)
        except (ValueError, TypeError) as error:
            send("result", job_id, "error", str(error), timing)
            continue
        spec_id = request.spec_id if request.spec_id is not None else target_spec_id
        analysis_started = time.perf_counter()
        try:
            if spec_id not in analyzers:
                analyzers[spec_id] = compile_spec(spec_id)
            _evict_stale(
                analyzers, {target_spec_id, spec_id, shadow_spec_id} - {None}
            )
            with _trace.activate(context):
                response = run_request(request, analyzers[spec_id])
        except SpecNotFoundError as error:
            send("result", job_id, "spec_not_found", str(error), timing)
            continue
        except UnknownAppsError as error:
            send("result", job_id, "unknown_apps", str(error), timing)
            continue
        except BaseException as error:  # noqa: BLE001 - the wire needs an answer
            send("result", job_id, "error", f"{type(error).__name__}: {error}", timing)
            continue
        reports = response.result.reports
        timing.update(
            analysis_seconds=time.perf_counter() - analysis_started,
            andersen_seconds=sum(r.timing.andersen_seconds for r in reports),
            taint_seconds=sum(r.timing.taint_seconds for r in reports),
            solve_seconds=sum(r.timing.solve_seconds for r in reports),
        )
        send("result", job_id, "ok", response.to_dict(), timing)
        if shadow_spec_id is not None and request.spec_id is None:
            # strictly after the served result shipped: nothing below can
            # affect what the client got
            try:
                if shadow_spec_id not in analyzers:
                    analyzers[shadow_spec_id] = compile_spec(shadow_spec_id)
                with _trace.activate(context):
                    shadowed = run_request(request, analyzers[shadow_spec_id])
                send("shadow", job_id, "ok", shadowed.to_dict())
            except Exception as error:  # noqa: BLE001 - shadows are best-effort
                send("shadow", job_id, "error", f"{type(error).__name__}: {error}")


@dataclass
class _Pending:
    """Parent-side state of one dispatched job."""

    request: AnalyzeRequest
    future: Future
    #: the request's wire form, kept so a dead worker's job can be re-sent
    document: dict
    #: the spec id unpinned requests were dispatched under
    target_spec_id: Optional[str] = None
    context: Optional[dict] = None
    shadow_spec_id: Optional[str] = None
    worker: str = ""
    #: wall-clock time of the latest dispatch: where ``server.queue_wait`` starts
    enqueued_at: float = 0.0
    retried: bool = False
    served: Optional[AnalyzeResponse] = None  # kept only until the shadow lands


_ERROR_TYPES = {
    "spec_not_found": SpecNotFoundError,
    "unknown_apps": UnknownAppsError,
}


class ProcessWorkerPool:
    """A fixed fleet of pre-forked worker processes serving one spec store.

    ``queue_depth`` bounds the *total* outstanding requests across the
    fleet -- the admission contract a 503 + ``Retry-After`` is derived from.
    """

    def __init__(
        self,
        store: SpecStore,
        processes: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        events: Optional[EventSink] = None,
        library_program=None,
        analysis_cache_dir: Optional[str] = None,
    ):
        self.store = store
        self.processes = max(1, int(processes))
        self.queue_capacity = max(1, int(queue_depth))
        self.events = events if events is not None else NullSink()
        self.analysis_cache_dir = analysis_cache_dir
        # parent-side library build is for the fingerprint only; each worker
        # rebuilds its own copy (deterministic, so fingerprints agree)
        self.library_program = (
            library_program if library_program is not None else build_library_program()
        )
        self._fingerprint = program_fingerprint(self.library_program)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
        self._job_queues: List = []
        self._results = None
        self._processes: List = []
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_wakeup = None
        self._lock = threading.Lock()
        self._started = False
        self._job_counter = 0
        self._pending: Dict[int, _Pending] = {}
        #: outstanding jobs per *live* worker; a dead worker leaves routing
        self._outstanding: Dict[str, int] = {}
        self._target_spec_id: Optional[str] = None
        self._startup_errors: List[str] = []
        self._ready_events: Dict[str, threading.Event] = {}
        self._shadow = None
        self._poller: Optional[threading.Thread] = None
        self._stop_polling_event = threading.Event()
        self._poll_failures = 0

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Fork the fleet and block until every worker has compiled its spec.

        Raises :class:`~repro.service.store.SpecNotFoundError` when the store
        holds nothing for this library (checked before any fork), and
        ``RuntimeError`` when a worker fails its startup compilation.
        """
        if self._started or self._processes:
            raise RuntimeError("pool already started")
        record = self.store.latest(fingerprint=self._fingerprint)
        if record is None:
            raise SpecNotFoundError(
                f"no stored specification for this library in {self.store.root} "
                "(run `repro learn` before `repro serve`)"
            )
        self._target_spec_id = record.spec_id
        self._startup_errors = []
        self._pending = {}
        self._results = self._ctx.Queue()
        self._job_queues = [self._ctx.Queue() for _ in range(self.processes)]
        self._ready_events = {}
        self._outstanding = {}
        names = [f"proc-{index}" for index in range(self.processes)]
        for name, jobs in zip(names, self._job_queues):
            self._ready_events[name] = threading.Event()
            self._outstanding[name] = 0
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    name,
                    str(self.store.root),
                    jobs,
                    self._results,
                    record.spec_id,
                    self.analysis_cache_dir,
                ),
                name=f"repro-serve-{name}",
                daemon=True,
            )
            self._processes.append(process)
            process.start()
        # opened after the forks, so no worker inherits the wake-up pipe
        wakeup, self._monitor_wakeup = multiprocessing.Pipe(duplex=False)
        self._monitor = threading.Thread(
            target=self._monitor_loop, args=(wakeup,), name="repro-serve-monitor", daemon=True
        )
        self._monitor.start()
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-serve-collector", daemon=True
        )
        self._collector.start()
        deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
        for name, event in self._ready_events.items():
            if not event.wait(max(0.0, deadline - time.monotonic())):
                self._startup_errors.append(f"{name}: startup timed out")
        if self._startup_errors:
            errors = "; ".join(self._startup_errors)
            self.stop()
            raise RuntimeError(f"worker startup failed: {errors}")
        with self._lock:
            self._started = True

    def stop(self) -> None:
        """Stop polling, retire every worker, fail any unresolved futures."""
        self.stop_polling()
        with self._lock:
            self._started = False
        # the monitor goes first: a worker retiring on its sentinel is not lost
        if self._monitor is not None:
            self._monitor_wakeup.send_bytes(b"stop")
            self._monitor.join()
            self._monitor_wakeup.close()
            self._monitor = self._monitor_wakeup = None
        for jobs in self._job_queues:
            try:
                jobs.put(None)
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + STOP_GRACE_SECONDS
        for process in self._processes:
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        if self._results is not None:
            self._results.put(("stop",))
        if self._collector is not None:
            self._collector.join()
            self._collector = None
        with self._lock:
            stragglers = list(self._pending.values())
            self._pending = {}
        for job in stragglers:
            if not job.future.done():
                job.future.set_exception(RuntimeError("pool is shutting down"))
        for jobs in self._job_queues:
            jobs.close()
        if self._results is not None:
            self._results.close()
            self._results = None
        self._job_queues = []
        self._processes = []

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------------- requests
    def submit(
        self, request: AnalyzeRequest, context: Optional[TraceContext] = None
    ) -> "Future[AnalyzeResponse]":
        """Dispatch one request to a worker process; never blocks.

        Raises :class:`PoolSaturated` once ``queue_depth`` requests are
        outstanding across the fleet, and :class:`WorkerLost` once no worker
        is alive.  *context* carries the caller's trace explicitly (required
        from asyncio, where thread-local ambience is meaningless); threaded
        callers may omit it and inherit :func:`repro.obs.trace.current_context`.
        """
        if context is None:
            context = _trace.current_context()
        shadow = self.shadow
        job = _Pending(
            request=request,
            future=Future(),
            document=request.to_dict(),
            context=context.to_dict() if context is not None else None,
        )
        with self._lock:
            if not self._started:
                raise RuntimeError("pool is not running (call start() first)")
            if len(self._pending) >= self.queue_capacity:
                raise PoolSaturated(self.queue_capacity)
            if not self._outstanding:
                raise WorkerLost("no live worker process")
            job.target_spec_id = self._target_spec_id
            if shadow is not None and request.spec_id is None:
                try:
                    if shadow.sample():
                        job.shadow_spec_id = shadow.spec_id
                except Exception:  # noqa: BLE001 - a broken sampler mirrors nothing
                    job.shadow_spec_id = None
            index, message = self._assign(job)
        self._job_queues[index].put(message)
        return job.future

    def _assign(self, job: _Pending) -> Tuple[int, tuple]:
        """Route *job* under a fresh job id; returns (queue index, message).

        Called with the lock held.
        """
        worker = self._route(job.request)
        self._job_counter += 1
        job_id = self._job_counter
        job.worker = worker
        job.enqueued_at = time.time()
        self._pending[job_id] = job
        self._outstanding[worker] += 1
        message = (
            job_id,
            job.document,
            job.target_spec_id,
            job.context,
            job.shadow_spec_id,
            time.perf_counter(),
        )
        return int(worker.rsplit("-", 1)[1]), message

    def _route(self, request: AnalyzeRequest) -> str:
        """Pick a live worker: a stable shard for an id pinned to any spec
        but the dispatch target, least-loaded otherwise.

        A pin to the dispatch target routes like an unpinned request: every
        worker compiles that spec, so hashing it would only pile the load
        onto one process.
        """
        names = sorted(self._outstanding)
        if request.spec_id not in (None, self._target_spec_id):
            digest = hashlib.sha256(request.spec_id.encode("utf-8")).hexdigest()
            return names[int(digest, 16) % len(names)]
        return min(names, key=lambda name: (self._outstanding[name], name))

    def _retire(self, job_id: int) -> Optional[_Pending]:
        """Drop a finished job and free its worker's slot (lock held)."""
        job = self._pending.pop(job_id, None)
        if job is not None and job.worker in self._outstanding:
            self._outstanding[job.worker] -= 1
        return job

    # ------------------------------------------------------------------ monitor
    def _monitor_loop(self, wakeup) -> None:
        """Block on the workers' sentinels; hand each unasked exit to
        :meth:`_on_worker_exit`.  ``stop()`` wakes it through *wakeup*."""
        sentinels = {
            process.sentinel: f"proc-{index}" for index, process in enumerate(self._processes)
        }
        try:
            while True:
                ready = wait_for_ready([wakeup, *sentinels])
                if wakeup in ready:
                    return
                for sentinel in ready:
                    self._on_worker_exit(sentinels.pop(sentinel))
        finally:
            wakeup.close()

    def _on_worker_exit(self, name: str) -> None:
        """Take a dead worker out of routing and settle every job it held."""
        index = int(name.rsplit("-", 1)[1])
        process = self._processes[index]
        process.join(1.0)  # reap it, so the exit code is known
        reason = f"worker {name} exited (code {process.exitcode})"
        retries, failed, lost_shadows = [], [], []
        with self._lock:
            self._outstanding.pop(name, None)
            orphans = [job_id for job_id, job in self._pending.items() if job.worker == name]
            for job_id in orphans:
                job = self._pending.pop(job_id)
                if job.served is not None:
                    lost_shadows.append(job)  # the client already has its answer
                elif job.retried or not self._outstanding:
                    failed.append(job)
                else:
                    job.retried = True
                    retries.append(self._assign(job))
        # nothing reads this queue any more; never block exit on its feeder
        self._job_queues[index].cancel_join_thread()
        ready = self._ready_events[name]
        if not ready.is_set():
            self._startup_errors.append(reason)
            ready.set()
        for queue_index, message in retries:
            self._job_queues[queue_index].put(message)
        for job in failed:
            job.future.set_exception(WorkerLost(reason))
        shadow = self.shadow
        for job in lost_shadows:
            try:
                if shadow is not None:
                    shadow.observe_error(job.request, WorkerLost(reason))
            except Exception:  # noqa: BLE001 - observer bugs stay out of serving
                pass

    # ---------------------------------------------------------------- collector
    def _collector_loop(self) -> None:
        """Drain the shared result queue: results, shadows, lifecycle.

        The single place worker messages re-enter the parent -- which is what
        keeps one journal writer, one metrics registry, and a race-free
        shadow observer without any cross-process locking.
        """
        while True:
            message = self._results.get()
            kind = message[0]
            if kind == "stop":
                # worker puts and this parent put are not globally ordered
                # across processes; drain briefly so late results still land
                while True:
                    try:
                        message = self._results.get(timeout=0.2)
                    except (queue_module.Empty, OSError, ValueError):
                        return
                    if message[0] != "stop":
                        self._dispatch_message(message)
                return
            self._dispatch_message(message)

    def _dispatch_message(self, message) -> None:
        """Act on one worker message ``(kind, worker, telemetry, *fields)``."""
        try:
            kind, worker, telemetry, *fields = message
            if kind == "result":  # emits the telemetry itself, after queue_wait
                self._on_result(worker, telemetry, *fields)
                return
            for event in telemetry:
                self.events.emit(event)
            if kind == "ready":
                self._ready_events[worker].set()
            elif kind == "startup_error":
                self._startup_errors.append(f"{worker}: {fields[0]}")
                self._ready_events[worker].set()
            elif kind == "shadow":
                self._on_shadow(*fields)
        except Exception:  # noqa: BLE001 - the collector must outlive bad messages
            pass

    def _on_result(
        self, worker: str, telemetry: List, job_id: int, status: str, payload, timing
    ) -> None:
        response = AnalyzeResponse.from_dict(payload) if status == "ok" else None
        with self._lock:
            job = self._pending.get(job_id)
            if job is not None:
                if response is not None and job.shadow_spec_id is not None:
                    job.served = response  # keep pending until the shadow lands
                else:
                    self._retire(job_id)
        if job is not None and job.context is not None:
            self.events.emit(
                SpanFinished(
                    name="server.queue_wait",
                    trace_id=job.context["trace_id"],
                    span_id=_trace.new_id(),
                    parent_id=job.context["span_id"],
                    started_at=job.enqueued_at,
                    elapsed_seconds=timing["queue_seconds"],
                    attrs=(("worker", worker),),
                )
            )
        for event in telemetry:
            self.events.emit(event)
        if job is None:
            return  # settled already (its worker died and it was retried)
        if response is None:
            error_type = _ERROR_TYPES.get(status, RuntimeError)
            job.future.set_exception(error_type(payload))
            return
        # timing attributes ride the future (no __slots__), so the front door
        # renders Server-Timing without changing the submit()/result() contract
        for key, value in timing.items():
            setattr(job.future, key, value)
        job.future.set_result(response)

    def _on_shadow(self, job_id: int, status: str, payload) -> None:
        with self._lock:
            job = self._retire(job_id)
        if job is None:
            return
        shadow = self.shadow
        if shadow is None:
            return
        try:
            if status == "ok":
                shadow.observe(job.request, job.served, AnalyzeResponse.from_dict(payload))
            else:
                shadow.observe_error(job.request, RuntimeError(payload))
        except Exception:  # noqa: BLE001 - observer bugs stay out of serving
            pass

    # --------------------------------------------------------------- properties
    @property
    def running(self) -> bool:
        return self._started

    @property
    def queue_depth(self) -> int:
        """Outstanding requests across the fleet (dispatched, unresolved)."""
        with self._lock:
            return len(self._pending)

    @property
    def current_spec_id(self) -> Optional[str]:
        with self._lock:
            return self._target_spec_id

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    # ------------------------------------------------------------ shadow canary
    def set_shadow(self, shadow) -> None:
        """Install a shadow observer (see :class:`repro.plane.canary.ShadowCanary`).

        The observer needs a ``spec_id`` attribute (the candidate to mirror
        through), ``sample() -> bool`` (the per-request sampling decision),
        and ``observe(request, served, shadowed)`` /
        ``observe_error(request, error)`` callbacks.  Only one shadow runs at
        a time -- installing a new one replaces the old.  Requests pinned to
        an explicit spec id are never mirrored: they are not incumbent
        traffic, so a diff would compare the wrong baseline.
        """
        with self._lock:
            self._shadow = shadow

    def clear_shadow(self) -> None:
        with self._lock:
            self._shadow = None

    @property
    def shadow(self):
        with self._lock:
            return self._shadow

    # --------------------------------------------------------------- hot reload
    def poll_once(self) -> bool:
        """Re-read the store index; retarget the fleet on a newer latest spec.

        Only the dispatch target moves: jobs already queued carry the spec id
        they were dispatched under, and each worker compiles the new spec
        lazily on its first post-swap job -- in-flight requests are never
        migrated.
        """
        record = self.store.latest(fingerprint=self._fingerprint)
        if record is None:
            return False
        with self._lock:
            if record.spec_id == self._target_spec_id:
                return False
            previous = self._target_spec_id
            self._target_spec_id = record.spec_id
        self.events.emit(SpecReloaded(previous_spec_id=previous or "", spec_id=record.spec_id))
        return True

    def start_polling(self, interval_seconds: float) -> None:
        """Poll the store for new specs every *interval_seconds* in a thread.

        A poll that raises (transient store read error) must not kill the
        poller -- and hot reload -- for good; instead consecutive failures
        back off exponentially with jitter (:func:`poll_backoff_delay`) and
        the first successful poll snaps back to the fixed interval.
        """
        if self._poller is not None or interval_seconds <= 0:
            return
        self._stop_polling_event.clear()
        rng = random.Random()

        def loop() -> None:
            while True:
                delay = poll_backoff_delay(interval_seconds, self._poll_failures, rng)
                if self._stop_polling_event.wait(delay):
                    return
                try:
                    self.poll_once()
                    self._poll_failures = 0
                except Exception:  # noqa: BLE001 - transient store read error
                    self._poll_failures += 1

        self._poller = threading.Thread(target=loop, name="repro-serve-poller", daemon=True)
        self._poller.start()

    @property
    def poll_failures(self) -> int:
        """Consecutive failed store polls (0 while the store is healthy)."""
        return self._poll_failures

    def stop_polling(self) -> None:
        if self._poller is None:
            return
        self._stop_polling_event.set()
        self._poller.join()
        self._poller = None


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "MAX_CACHED_ANALYZERS",
    "POLL_BACKOFF_CAP_SECONDS",
    "POLL_BACKOFF_JITTER",
    "PoolSaturated",
    "ProcessWorkerPool",
    "STARTUP_TIMEOUT_SECONDS",
    "STOP_GRACE_SECONDS",
    "WorkerLost",
    "poll_backoff_delay",
]
