"""Pre-forked analysis worker processes, one pipe each, carried by one event loop.

:class:`ProcessWorkerPool` is the serving side of "learn once, query many":
each worker process compiles the stored spec to a
:class:`~repro.service.analyzer.ClientAnalyzer` **once at startup**
(emitting :class:`~repro.engine.events.SpecCompiled`), then answers any
number of requests through :func:`repro.service.api.run_request` -- the same
cheap half :func:`~repro.service.api.handle_request` uses, so a daemon
response equals a one-shot response for the same request document.
Analysis throughput scales with cores instead of one GIL.

Design points worth knowing before reading the code:

* **One pipe per worker, one loop for all of them.**  Each worker owns one
  duplex :func:`multiprocessing.Pipe`; the worker blocks on its end, the
  parent's end is non-blocking.  The parent forks every worker *before* it
  starts any thread, then runs a single asyncio loop on one thread.  That
  loop writes each job to its worker's pipe, reads every reply and every
  worker's ``Process.sentinel``, and resolves the waiting request.  Frames
  use the ``multiprocessing.connection`` length header on both sides, so
  the worker's plain ``send_bytes`` / ``recv_bytes`` and the loop's partial,
  non-blocking reads and writes agree; a full pipe (a deep queue to a
  stopped worker, a reply over the pipe's buffer) waits for room without
  ever blocking the loop.  The HTTP front door serves on the same loop
  (:attr:`ProcessWorkerPool.loop`), so a request wakes three threads: the
  loop, the worker, the loop again.
* **The worker encodes the 200 body.**  A served reply carries the response
  already rendered by :func:`encode_json`; the front door writes those
  bytes as they are (:meth:`ProcessWorkerPool.dispatch` resolves with a
  :class:`Reply`).  The parent rebuilds an
  :class:`~repro.service.api.AnalyzeResponse` only when something needs
  one: a threaded :meth:`ProcessWorkerPool.submit` caller, or a shadow
  comparison.
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
* **Dead workers.**  When a worker's sentinel turns readable, the loop first
  reads that worker's pipe to its end, so a reply it finished before dying
  is delivered rather than retried.  The worker then leaves routing, each
  job it still held is re-dispatched once to a live sibling under a fresh
  job id, and a job with no live worker left -- or whose retry dies too --
  fails with :class:`WorkerLost`, which the front door turns into ``503`` +
  ``Retry-After``.  A worker has nothing shared to hold when it dies, so
  its siblings never notice.
* **One message per reply; telemetry rides it as data.**  A worker holds
  the engine events and finished spans it emits (frozen picklable
  dataclasses) in its ambient sink, and every message it sends --
  ``ready``, ``startup_error``, ``result``, ``shadow`` -- carries what it
  held since its last one, so a request crosses its pipe once each way.
  The loop re-emits that telemetry (:func:`repro.obs.trace.emit`, to the
  parent's ambient sinks) before it acts on the message -- one journal
  writer, one metrics registry, and the "compiled once per worker, never
  once per request" counters keep working, all updated before a client
  sees its answer.  The queue wait is
  measured at the worker's dequeue and shipped as the result's
  ``queue_seconds``; the parent, which holds the request's trace context
  and enqueue time, builds the ``server.queue_wait`` span from it.  The
  worker resets the fork-inherited ambient sinks first
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
* **Stop.**  :meth:`ProcessWorkerPool.stop` asks every worker to exit after
  the jobs it holds, keeps delivering their replies meanwhile, reads each
  pipe to its end once the workers are gone, and only then fails whatever
  is left.

Example::

    >>> pool = ProcessWorkerPool(store, processes=2, queue_depth=16)
    >>> pool.start()                      # 2 processes forked, 2 compilations
    >>> response = pool.submit(AnalyzeRequest(suite=SuiteSpec(count=5))).result()
    >>> pool.stop()
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import signal
import struct
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.engine.cache import program_fingerprint
from repro.engine.events import CollectingSink, SpecCompiled, SpecReloaded
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
#: a frame's length header, as ``multiprocessing.connection`` writes it: a
#: 4-byte big-endian length, or -1 and then an 8-byte one past 2 GiB
_HEADER = struct.Struct("!i")
_LONG_HEADER = struct.Struct("!Q")
#: the most the loop reads from one pipe per wake-up
_READ_CHUNK = 1 << 16


def encode_json(payload) -> bytes:
    """The one encoding of a ``200`` body: compact JSON plus a newline.

    Workers render served responses with it, and the front door renders its
    own ``200`` documents with it, so both are byte-identical to what a
    single encoder would write.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def _frame(message) -> bytes:
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload)) + payload


#: the job message that tells a worker to exit
_STOP = _frame(None)


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


def _evict_stale(
    analyzers: Dict[str, ClientAnalyzer], protected: set
) -> List[ClientAnalyzer]:
    """Bound a worker's analyzer cache (hot reloads and pinned ids add up).

    Drops the oldest analyzers outside *protected* (the dispatch target, the
    spec just used, the shadow candidate) past :data:`MAX_CACHED_ANALYZERS`
    -- a long-lived daemon's memory must not grow with the number of
    deploys or with clients pinning historical spec ids -- and returns the
    ones it dropped, oldest first.
    """
    dropped = []
    while len(analyzers) > MAX_CACHED_ANALYZERS:
        for spec_id in analyzers:
            if spec_id not in protected:
                dropped.append(analyzers.pop(spec_id))
                break
        else:
            break
    return dropped


def _worker_main(
    name: str,
    store_root: str,
    conn,
    initial_spec_id: str,
    analysis_cache_dir: Optional[str] = None,
) -> None:
    """One pre-forked worker: compile once, then serve jobs until told to stop.

    Module-level (not a closure) so the pool works under the ``spawn`` start
    method too; everything it needs arrives as picklable arguments, and the
    library program/interface are rebuilt in-process (they are deterministic,
    so the fingerprint matches the parent's).  *conn* is the worker's end of
    its pipe; the worker is single-threaded and blocks on it.
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
        conn.send_bytes(pickle.dumps((kind, telemetry, *fields), pickle.HIGHEST_PROTOCOL))

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
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:
            message = None  # the parent is gone
        if message is None:
            for analyzer in analyzers.values():
                analyzer.close()
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
            protected = {target_spec_id, spec_id, shadow_spec_id} - {None}
            for dropped in _evict_stale(analyzers, protected):
                dropped.close()
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
        send("result", job_id, "ok", encode_json(response.to_dict()), timing)
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


class Reply(NamedTuple):
    """A served request as the front door writes it."""

    #: the response as the worker encoded it (:func:`encode_json`)
    body: bytes
    #: the worker's phase timings: ``queue_seconds``, ``analysis_seconds``, ...
    timing: Dict[str, float]


@dataclass(eq=False)
class _Worker:
    """The parent's side of one worker: its process and its end of the pipe.

    Only the loop reads or writes the (non-blocking) pipe.
    """

    name: str
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    fd: int
    #: bytes read that do not make a whole frame yet
    inbox: bytearray = field(default_factory=bytearray)
    #: bytes the pipe had no room for yet
    outbox: bytearray = field(default_factory=bytearray)

    def messages(self) -> List:
        """Take every whole frame off the inbox, unpickled."""
        inbox, offset, found = self.inbox, 0, []
        while True:
            start = offset + _HEADER.size
            if start > len(inbox):
                break
            (size,) = _HEADER.unpack_from(inbox, offset)
            if size < 0:
                start += _LONG_HEADER.size
                if start > len(inbox):
                    break
                (size,) = _LONG_HEADER.unpack_from(inbox, start - _LONG_HEADER.size)
            if start + size > len(inbox):
                break
            found.append(pickle.loads(inbox[start : start + size]))
            offset = start + size
        del inbox[:offset]
        return found


@dataclass
class _Pending:
    """Parent-side state of one dispatched job."""

    request: AnalyzeRequest
    #: resolved on the loop: with a :class:`Reply` when ``encoded`` (the
    #: front door's asyncio future), else with an ``AnalyzeResponse``
    future: Union[Future, "asyncio.Future[Reply]"]
    #: the request's wire form, kept so a dead worker's job can be re-sent
    document: dict
    encoded: bool = False
    #: the spec id unpinned requests were dispatched under
    target_spec_id: Optional[str] = None
    context: Optional[dict] = None
    shadow_spec_id: Optional[str] = None
    worker: str = ""
    #: wall-clock time of the latest dispatch: where ``server.queue_wait`` starts
    enqueued_at: float = 0.0
    retried: bool = False
    served: Optional[AnalyzeResponse] = None  # kept only until the shadow lands


def _resolve(future, result=None, error: Optional[BaseException] = None) -> None:
    """Settle a job's future unless its waiter already cancelled it."""
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


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
        library_program=None,
        analysis_cache_dir: Optional[str] = None,
    ):
        self.store = store
        self.processes = max(1, int(processes))
        self.queue_capacity = max(1, int(queue_depth))
        self.analysis_cache_dir = analysis_cache_dir
        # parent-side library build is for the fingerprint only; each worker
        # rebuilds its own copy (deterministic, so fingerprints agree)
        self.library_program = (
            library_program if library_program is not None else build_library_program()
        )
        self._fingerprint = program_fingerprint(self.library_program)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
        self._workers: Dict[str, _Worker] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._closed: Optional[asyncio.Future] = None
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
        """Fork the fleet, start the loop, block until every worker compiled its spec.

        Raises :class:`~repro.service.store.SpecNotFoundError` when the store
        holds nothing for this library (checked before any fork), and
        ``RuntimeError`` when a worker fails its startup compilation.
        """
        if self._started or self._workers:
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
        self._ready_events = {}
        self._outstanding = {}
        for index in range(self.processes):
            name = f"proc-{index}"
            ours, theirs = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(name, str(self.store.root), theirs, record.spec_id, self.analysis_cache_dir),
                name=f"repro-serve-{name}",
                daemon=True,
            )
            process.start()
            # closed before the next fork: only this worker holds its end, so
            # the pipe ends exactly when the worker does
            theirs.close()
            os.set_blocking(ours.fileno(), False)
            self._workers[name] = _Worker(name, process, ours, ours.fileno())
            self._ready_events[name] = threading.Event()
            self._outstanding[name] = 0
        # every worker is forked: only now does the parent start a thread
        running = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._serve(running),), name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        running.wait()
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

    async def _serve(self, running: threading.Event) -> None:
        """The loop thread's body: watch every pipe and sentinel until stop()."""
        self._loop = loop = asyncio.get_running_loop()
        self._closed = loop.create_future()
        for worker in self._workers.values():
            loop.add_reader(worker.fd, self._receive, worker)
            loop.add_reader(worker.process.sentinel, self._on_worker_exit, worker)
        running.set()
        await self._closed

    def stop(self) -> None:
        """Stop polling, retire every worker, fail any unresolved futures.

        Workers finish the jobs they hold before they exit, and the loop
        delivers those replies as they arrive.  Once every worker is gone,
        each pipe is read to its end; whatever is still pending then fails.
        Call it from any thread but the loop's.
        """
        self.stop_polling()
        with self._lock:
            self._started = False
        if self._thread is None:
            return
        self._on_loop(self._retire_fleet)
        deadline = time.monotonic() + STOP_GRACE_SECONDS
        for worker in self._workers.values():
            process = worker.process
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        self._on_loop(self._settle)
        self._thread.join()
        self._thread = self._loop = self._closed = None
        for worker in self._workers.values():
            worker.conn.close()
        self._workers = {}

    def _on_loop(self, function) -> None:
        """Run *function* on the loop thread and wait until it has run."""

        async def call() -> None:
            function()

        asyncio.run_coroutine_threadsafe(call(), self._loop).result()

    def _retire_fleet(self) -> None:
        """Ask every worker to exit after the jobs it holds (on the loop)."""
        for worker in self._workers.values():
            # a worker that exits on request is retiring, not lost
            self._loop.remove_reader(worker.process.sentinel)
            self._send(worker, _STOP)

    def _settle(self) -> None:
        """Deliver what the exited workers wrote, fail the rest, end the loop."""
        for worker in self._workers.values():
            self._receive(worker, to_eof=True)
        with self._lock:
            stragglers = list(self._pending.values())
            self._pending = {}
        for job in stragglers:
            _resolve(job.future, error=RuntimeError("pool is shutting down"))
        self._closed.set_result(None)

    def __enter__(self) -> "ProcessWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------------- requests
    def submit(
        self, request: AnalyzeRequest, context: Optional[TraceContext] = None
    ) -> "Future[AnalyzeResponse]":
        """Dispatch one request to a worker process from any thread; never blocks.

        Raises :class:`PoolSaturated` once ``queue_depth`` requests are
        outstanding across the fleet, and :class:`WorkerLost` once no worker
        is alive.  *context* carries the caller's trace explicitly (required
        from asyncio, where thread-local ambience is meaningless); threaded
        callers may omit it and inherit :func:`repro.obs.trace.current_context`.
        """
        if context is None:
            context = _trace.current_context()
        job = _Pending(request=request, future=Future(), document=request.to_dict())
        worker, frame = self._admit(job, context)
        self._loop.call_soon_threadsafe(self._send, worker, frame)
        return job.future

    def dispatch(
        self, request: AnalyzeRequest, context: TraceContext
    ) -> "asyncio.Future[Reply]":
        """:meth:`submit` for a caller on the pool's loop: the front door.

        The job is written to its worker's pipe at once, and the returned
        future resolves on this loop with the worker's encoded body -- no
        response object is rebuilt.  Raises what :meth:`submit` raises.
        """
        job = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            document=request.to_dict(),
            encoded=True,
        )
        self._send(*self._admit(job, context))
        return job.future

    def _admit(
        self, job: _Pending, context: Optional[TraceContext]
    ) -> Tuple[_Worker, bytes]:
        """Admit *job* under the fleet-wide bound and route it."""
        job.context = context.to_dict() if context is not None else None
        with self._lock:
            if not self._started:
                raise RuntimeError("pool is not running (call start() first)")
            if len(self._pending) >= self.queue_capacity:
                raise PoolSaturated(self.queue_capacity)
            if not self._outstanding:
                raise WorkerLost("no live worker process")
            job.target_spec_id = self._target_spec_id
            shadow = self._shadow
            if shadow is not None and job.request.spec_id is None:
                try:
                    if shadow.sample():
                        job.shadow_spec_id = shadow.spec_id
                except Exception:  # noqa: BLE001 - a broken sampler mirrors nothing
                    job.shadow_spec_id = None
            return self._assign(job)

    def _assign(self, job: _Pending) -> Tuple[_Worker, bytes]:
        """Route *job* under a fresh job id; returns its worker and the framed job.

        Called with the lock held.
        """
        name = self._route(job.request)
        self._job_counter += 1
        job_id = self._job_counter
        job.worker = name
        job.enqueued_at = time.time()
        self._pending[job_id] = job
        self._outstanding[name] += 1
        frame = _frame(
            (
                job_id,
                job.document,
                job.target_spec_id,
                job.context,
                job.shadow_spec_id,
                time.perf_counter(),
            )
        )
        return self._workers[name], frame

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

    # ------------------------------------------------------------ the pipes
    def _send(self, worker: _Worker, frame: bytes) -> None:
        """Write *frame* to *worker*'s pipe without blocking (on the loop).

        What the pipe has no room for waits in the worker's outbox, and the
        loop writes it as the worker reads.
        """
        if worker.outbox:  # earlier bytes still wait: keep the order
            worker.outbox += frame
            return
        try:
            sent = os.write(worker.fd, frame)
        except BlockingIOError:
            sent = 0
        except OSError:
            return  # the worker is gone; its sentinel settles the job
        if sent < len(frame):
            worker.outbox += frame[sent:]
            self._loop.add_writer(worker.fd, self._flush, worker)

    def _flush(self, worker: _Worker) -> None:
        try:
            sent = os.write(worker.fd, worker.outbox)
        except BlockingIOError:
            return
        except OSError:
            sent = len(worker.outbox)  # the worker is gone: drop the rest
        del worker.outbox[:sent]
        if not worker.outbox:
            self._loop.remove_writer(worker.fd)

    def _receive(self, worker: _Worker, to_eof: bool = False) -> None:
        """Read what *worker*'s pipe holds and act on every whole message.

        One read per wake-up: the selector calls again while bytes remain.
        *to_eof* reads until the pipe is empty, for a worker that has exited.
        """
        while True:
            try:
                chunk = os.read(worker.fd, _READ_CHUNK)
            except BlockingIOError:
                break
            except OSError:
                chunk = b""
            if not chunk:  # the worker has exited
                self._loop.remove_reader(worker.fd)
                break
            worker.inbox += chunk
            if not to_eof:
                break
        for message in worker.messages():
            self._dispatch_message(worker.name, message)

    # ------------------------------------------------------------- dead workers
    def _on_worker_exit(self, worker: _Worker) -> None:
        """Take a worker that exited unasked out of routing; settle its jobs."""
        self._loop.remove_reader(worker.process.sentinel)
        # a reply it finished before it died is delivered, not retried
        self._receive(worker, to_eof=True)
        self._loop.remove_writer(worker.fd)
        worker.outbox.clear()
        worker.process.join(1.0)  # reap it, so the exit code is known
        reason = f"worker {worker.name} exited (code {worker.process.exitcode})"
        retries, failed, lost_shadows = [], [], []
        with self._lock:
            self._outstanding.pop(worker.name, None)
            orphans = [
                job_id for job_id, job in self._pending.items() if job.worker == worker.name
            ]
            for job_id in orphans:
                job = self._pending.pop(job_id)
                if job.served is not None:
                    lost_shadows.append(job)  # the client already has its answer
                elif job.retried or not self._outstanding:
                    failed.append(job)
                else:
                    job.retried = True
                    retries.append(self._assign(job))
        ready = self._ready_events[worker.name]
        if not ready.is_set():
            self._startup_errors.append(reason)
            ready.set()
        for target, frame in retries:
            self._send(target, frame)
        for job in failed:
            _resolve(job.future, error=WorkerLost(reason))
        shadow = self.shadow
        for job in lost_shadows:
            try:
                if shadow is not None:
                    shadow.observe_error(job.request, WorkerLost(reason))
            except Exception:  # noqa: BLE001 - observer bugs stay out of serving
                pass

    # ------------------------------------------------------------------ replies
    def _dispatch_message(self, worker: str, message) -> None:
        """Act on one message ``(kind, telemetry, *fields)`` from *worker*."""
        try:
            kind, telemetry, *fields = message
            if kind == "result":  # emits the telemetry itself, after queue_wait
                self._on_result(worker, telemetry, *fields)
                return
            for event in telemetry:
                _trace.emit(event)
            if kind == "ready":
                self._ready_events[worker].set()
            elif kind == "startup_error":
                self._startup_errors.append(f"{worker}: {fields[0]}")
                self._ready_events[worker].set()
            elif kind == "shadow":
                self._on_shadow(*fields)
        except Exception:  # noqa: BLE001 - the loop must outlive bad messages
            pass

    def _on_result(
        self, worker: str, telemetry: List, job_id: int, status: str, payload, timing
    ) -> None:
        with self._lock:
            job = self._pending.get(job_id)
            mirrored = job is not None and status == "ok" and job.shadow_spec_id is not None
            if job is not None and not mirrored:  # a mirrored job waits for its shadow
                self._retire(job_id)
        if job is not None and job.context is not None:
            _trace.emit(
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
            _trace.emit(event)
        if job is None:
            return  # settled already
        if status != "ok":
            _resolve(job.future, error=_ERROR_TYPES.get(status, RuntimeError)(payload))
            return
        response = None
        if mirrored or not job.encoded:
            response = AnalyzeResponse.from_dict(json.loads(payload))
        if mirrored:
            job.served = response
        _resolve(job.future, Reply(payload, timing) if job.encoded else response)

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
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The event loop that carries the hop while the pool runs.

        The front door serves HTTP on it and calls :meth:`dispatch` from it.
        """
        return self._loop

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
        _trace.emit(SpecReloaded(previous_spec_id=previous or "", spec_id=record.spec_id))
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
    "Reply",
    "STARTUP_TIMEOUT_SECONDS",
    "STOP_GRACE_SECONDS",
    "WorkerLost",
    "encode_json",
    "poll_backoff_delay",
]
