"""The worker process pool across the fork boundary.

Answers bit-identical to in-process ``handle_request``, one ``SpecCompiled``
per *process* (never per request), one pipe message per request, one parent
thread for the whole hop, backpressure (``PoolSaturated`` at the
admission bound), zero-downtime hot reload, after-the-fact shadow
mirroring, and a dead worker's jobs re-dispatched to a live sibling.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.engine.events import SpecCompiled, SpecReloaded
from repro.obs.trace import SpanFinished, TraceContext, new_id
from repro.server.metrics import ServerMetrics
from repro.server.procpool import PoolSaturated, ProcessWorkerPool, WorkerLost
from repro.service.api import AnalyzeRequest, SuiteSpec, UnknownAppsError, handle_request
from repro.service.store import SpecNotFoundError, SpecStore
from repro.testing import freeze_workers, thaw_workers


def _request(**overrides):
    defaults = dict(
        suite=SuiteSpec(count=1, max_statements=30), include_timing=False
    )
    defaults.update(overrides)
    return AnalyzeRequest(**defaults)


def _flows(response):
    return [report.canonical()["flows"] for report in response.result.reports]


class _Shadow:
    """A minimal always-sampling shadow observer (the canary protocol)."""

    def __init__(self, spec_id):
        self.spec_id = spec_id
        self.lock = threading.Lock()
        self.compared = []
        self.errors = []

    def sample(self):
        return True

    def observe(self, request, served, shadowed):
        with self.lock:
            self.compared.append((request, served, shadowed))

    def observe_error(self, request, error):
        with self.lock:
            self.errors.append(error)


def test_empty_store_fails_before_any_fork(tmp_path, library_program):
    pool = ProcessWorkerPool(
        SpecStore(str(tmp_path / "empty")), processes=2, library_program=library_program
    )
    with pytest.raises(SpecNotFoundError):
        pool.start()
    assert not pool.running


def test_responses_match_inprocess_and_compile_once_per_process(
    tiny_store, library_program, interface, global_sink
):
    sink = global_sink
    request = _request()
    expected = handle_request(
        request, tiny_store, library_program=library_program, interface=interface
    )
    pool = ProcessWorkerPool(
        tiny_store, processes=2, queue_depth=32, library_program=library_program
    )
    with pool:
        assert len(sink.of_type(SpecCompiled)) == 2  # one per process, at startup
        futures = [pool.submit(request) for _ in range(4)]
        responses = [future.result(timeout=120) for future in futures]
    for response in responses:
        assert response.spec_id == expected.spec_id
        assert response.result.canonical() == expected.result.canonical()
    # four requests, still two compilations: amortization across the fork
    compiles = sink.of_type(SpecCompiled)
    assert len(compiles) == 2
    assert {event.worker for event in compiles} == {"proc-0", "proc-1"}


def test_each_request_is_one_message_with_the_same_telemetry(
    tiny_store, library_program, tmp_path, global_sink
):
    sink = global_sink
    pool = ProcessWorkerPool(
        tiny_store,
        processes=2,
        library_program=library_program,
        analysis_cache_dir=str(tmp_path / "analysis-cache"),
    )
    kinds = []
    dispatch = pool._dispatch_message

    def recording(worker, message):  # every message the loop reads off a pipe
        kinds.append(message[0])
        dispatch(worker, message)

    pool._dispatch_message = recording
    request = _request()
    expected_names = {
        # finish order: the parent's queue wait, then the worker's spans
        "cold": ["server.queue_wait", "analysis.solve", "analysis.taint",
                 "analysis.analyze", "service.batch", "service.request"],
        "hit": ["server.queue_wait", "analysis.solve",
                "analysis.analyze", "service.batch", "service.request"],
    }
    responses = []
    with pool:
        assert kinds == ["ready", "ready"]
        for outcome in ("cold", "hit"):  # the same request twice: the second hits
            context = TraceContext(trace_id=new_id(), span_id=new_id())
            before = len(kinds)
            response = pool.submit(request, context=context).result(timeout=120)
            responses.append(response)
            assert kinds[before:] == ["result"]
            # emitted before the future resolved: no wait needed
            spans = [
                event
                for event in sink.of_type(SpanFinished)
                if event.trace_id == context.trace_id
            ]
            assert [span.name for span in spans] == expected_names[outcome]
            wait, solve, analyze = spans[0], spans[1], spans[-3]
            assert wait.parent_id == context.span_id
            assert wait.attributes()["worker"] in ("proc-0", "proc-1")
            assert solve.attributes()["outcome"] == outcome
            assert int(analyze.attributes()["flows"]) == response.result.total_flows
    assert kinds == ["ready", "ready", "result", "result"]

    metrics = ServerMetrics()
    for event in sink.events:
        metrics.record_event(event)
    snapshot = metrics.snapshot()
    assert snapshot["analyses"] == {
        "programs": 2,
        "flows": sum(response.result.total_flows for response in responses),
        "batches": 2,
    }
    assert snapshot["specs"]["compilations"] == pool.processes
    assert snapshot["solver"]["by_outcome"] == {"cold": 1, "hit": 1}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_the_hop_adds_one_parent_thread_and_workers_run_one(tiny_store, library_program):
    """No collector, monitor or queue-feeder threads: the parent gains only
    the loop that carries the hop, and each worker is single-threaded."""
    before = set(threading.enumerate())
    pool = ProcessWorkerPool(tiny_store, processes=2, library_program=library_program)
    with pool:
        assert pool.submit(_request()).result(timeout=120) is not None
        added = sorted(thread.name for thread in set(threading.enumerate()) - before)
        workers = [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-serve-proc-")
        ]
        tasks = {child.name: len(os.listdir(f"/proc/{child.pid}/task")) for child in workers}
    for retired in ("repro-serve-collector", "repro-serve-monitor"):
        assert retired not in added
    assert not [name for name in added if name.startswith("QueueFeederThread")]
    assert added == ["repro-serve-loop"]
    assert tasks == {"repro-serve-proc-0": 1, "repro-serve-proc-1": 1}


def test_frames_larger_than_the_pipe_cross_without_blocking_the_loop(
    tiny_store, library_program
):
    """A job bigger than the pipe's buffer, sent while its worker is frozen,
    waits in the parent instead of blocking the loop, and the error reply
    that echoes its names back takes many reads.  The job queued behind it
    keeps its place."""
    names = tuple(f"no-such-app-{index:06d}-" + "x" * 40 for index in range(20000))
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    with pool:
        frozen = freeze_workers(pool)
        big = pool.submit(_request(apps=names))  # ~1.2 MB: far over the pipe's buffer
        small = pool.submit(_request())
        # the loop still runs callbacks while the big job waits for room
        asyncio.run_coroutine_threadsafe(asyncio.sleep(0), pool.loop).result(timeout=10)
        thaw_workers(frozen)
        with pytest.raises(UnknownAppsError) as excinfo:
            big.result(timeout=120)
        assert names[0] in str(excinfo.value) and names[-1] in str(excinfo.value)
        assert _flows(small.result(timeout=120)) == _flows(
            handle_request(_request(), tiny_store, library_program=library_program)
        )


def test_saturation_raises_instead_of_queueing_unboundedly(
    tiny_store, library_program
):
    pool = ProcessWorkerPool(
        tiny_store, processes=1, queue_depth=1, library_program=library_program
    )
    with pool:
        first = pool.submit(_request())
        with pytest.raises(PoolSaturated) as excinfo:
            pool.submit(_request())
        assert excinfo.value.retry_after_seconds >= 1
        assert first.result(timeout=120) is not None
        # capacity frees up once the outstanding request resolves
        assert pool.submit(_request()).result(timeout=120) is not None


def test_hot_reload_under_load_drops_nothing(
    tiny_store, tiny_atlas_result, library_program, global_sink
):
    sink = global_sink
    expected = _flows(handle_request(_request(), tiny_store, library_program=library_program))
    old_spec_id = tiny_store.latest().spec_id
    pool = ProcessWorkerPool(
        tiny_store, processes=2, queue_depth=64, library_program=library_program
    )
    with pool:
        startup_compiles = len(sink.of_type(SpecCompiled))
        assert startup_compiles == 2

        # first wave: put the workers under load
        first_wave = [pool.submit(_request()) for _ in range(8)]

        # deploy a new spec version while those requests are in flight
        record = tiny_store.put(tiny_atlas_result, library_program=library_program)
        assert record.spec_id != old_spec_id
        assert pool.poll_once() is True
        assert pool.current_spec_id == record.spec_id

        # second wave: submitted after the swap, still racing the first
        second_wave = [pool.submit(_request()) for _ in range(8)]
        responses = [future.result(timeout=300) for future in first_wave + second_wave]

    # zero dropped, zero incorrect: every response holds the expected flows
    assert len(responses) == 16
    for response in responses:
        assert _flows(response) == expected
        assert response.spec_id in (old_spec_id, record.spec_id)
    assert responses[-1].spec_id == record.spec_id

    reloads = sink.of_type(SpecReloaded)
    assert len(reloads) == 1
    assert reloads[0].previous_spec_id == old_spec_id
    assert reloads[0].spec_id == record.spec_id

    # workers recompiled lazily: at most one extra compile per process
    compiles = sink.of_type(SpecCompiled)
    assert startup_compiles < len(compiles) <= startup_compiles + 2
    assert any(event.spec_id == record.spec_id for event in compiles)


def test_pinned_requests_are_served_under_their_spec(
    tiny_store, tiny_atlas_result, library_program
):
    old_spec_id = tiny_store.latest().spec_id
    record = tiny_store.put(tiny_atlas_result, library_program=library_program)
    pool = ProcessWorkerPool(tiny_store, processes=2, library_program=library_program)
    with pool:
        assert pool.current_spec_id == record.spec_id
        pinned = pool.submit(_request(spec_id=old_spec_id)).result(timeout=120)
        unpinned = pool.submit(_request()).result(timeout=120)
    assert pinned.spec_id == old_spec_id
    assert unpinned.spec_id == record.spec_id


def test_a_pin_to_the_served_spec_routes_like_an_unpinned_request(
    tiny_store, tiny_atlas_result, library_program, global_sink
):
    old_spec_id = tiny_store.latest().spec_id
    record = tiny_store.put(tiny_atlas_result, library_program=library_program)
    sink = global_sink
    pool = ProcessWorkerPool(tiny_store, processes=2, library_program=library_program)

    def workers(spec_id):
        """The workers that two concurrent requests pinned to *spec_id* land on."""
        contexts = [TraceContext(trace_id=new_id(), span_id=new_id()) for _ in range(2)]
        frozen = freeze_workers(pool)  # both are routed before either finishes
        futures = [
            pool.submit(_request(spec_id=spec_id), context=context) for context in contexts
        ]
        thaw_workers(frozen)
        for future in futures:
            assert future.result(timeout=120).spec_id == spec_id
        waits = {
            span.trace_id: span.attributes()["worker"]
            for span in sink.of_type(SpanFinished)
            if span.name == "server.queue_wait"
        }
        return [waits[context.trace_id] for context in contexts]

    with pool:
        assert pool.current_spec_id == record.spec_id
        # the served id: least-loaded, like an unpinned request
        assert sorted(workers(record.spec_id)) == ["proc-0", "proc-1"]
        # an older id still hashes to one stable worker
        first, second = workers(old_spec_id)
        assert first == second


def test_unknown_pinned_spec_maps_to_spec_not_found(tiny_store, library_program):
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    with pool:
        future = pool.submit(_request(spec_id="no-such-spec"))
        with pytest.raises(SpecNotFoundError):
            future.result(timeout=120)


def test_shadow_mirroring_across_the_fork_boundary(
    tiny_store, tiny_atlas_result, library_program, wait_until
):
    incumbent_id = tiny_store.latest().spec_id
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    with pool:
        # the candidate lands after startup; without poll_once() the pool
        # still targets the incumbent, so mirrors compare across versions
        candidate = tiny_store.put(tiny_atlas_result, library_program=library_program)
        shadow = _Shadow(candidate.spec_id)
        assert pool.current_spec_id == incumbent_id
        pool.set_shadow(shadow)
        served = [pool.submit(_request()).result(timeout=120) for _ in range(3)]
        # mirrors land after the served futures resolve; wait for the tail
        assert wait_until(lambda: len(shadow.compared) == 3, timeout=120.0)
        # pinned requests are never mirrored (wrong baseline for a diff)
        pinned = pool.submit(_request(spec_id=incumbent_id)).result(timeout=120)
    assert shadow.errors == []
    assert len(shadow.compared) == 3
    for _request_seen, observed_served, observed_shadowed in shadow.compared:
        assert observed_served.spec_id == incumbent_id
        assert observed_shadowed.spec_id == candidate.spec_id
        # same tiny result stored twice: canonical flows must agree
        assert [r.canonical()["flows"] for r in observed_served.result.reports] == [
            r.canonical()["flows"] for r in observed_shadowed.result.reports
        ]
    assert pinned.spec_id == incumbent_id
    assert served[0].spec_id == incumbent_id


def test_dead_workers_lost_shadow_is_reported_and_nothing_hangs(
    tiny_store, library_program, wait_until
):
    """A job whose served result already landed has nothing to retry; the
    mirror that died with its worker is reported through observe_error."""
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    with pool:
        shadow = _Shadow(pool.current_spec_id)
        pool.set_shadow(shadow)
        (only,) = freeze_workers(pool)
        pool.submit(_request())
        (job,) = pool._pending.values()
        job.served = object()  # as if the result shipped and only the mirror is left
        unserved = pool.submit(_request())
        os.kill(only.pid, signal.SIGKILL)
        with pytest.raises(WorkerLost):
            unserved.result(timeout=30)  # no sibling to retry on
        assert wait_until(lambda: len(shadow.errors) == 1, timeout=30)
        assert isinstance(shadow.errors[0], WorkerLost)
        assert pool.queue_depth == 0
        with pytest.raises(WorkerLost):
            pool.submit(_request())


def test_a_worker_killed_during_a_reply_burst_wedges_nothing(
    tiny_store, library_program, global_sink
):
    """Both workers answer a burst at once and one is killed in the middle of
    it.  Every request still gets exactly one answer -- from the survivor, or
    from the victim when it finished before it died -- the survivor serves on,
    and stop() returns promptly."""
    sink = global_sink
    expected = _flows(handle_request(_request(), tiny_store, library_program=library_program))
    pool = ProcessWorkerPool(
        tiny_store, processes=2, queue_depth=32, library_program=library_program
    )
    pool.start()
    try:
        contexts = [TraceContext(trace_id=new_id(), span_id=new_id()) for _ in range(8)]
        frozen = freeze_workers(pool)  # least-loaded routing: four jobs on each
        futures = [pool.submit(_request(), context=context) for context in contexts]
        thaw_workers(frozen)
        os.kill(frozen[1].pid, signal.SIGKILL)
        for future in futures:
            # proc-0 lives, so every retry lands: no WorkerLost
            assert _flows(future.result(timeout=60)) == expected
        served_by = {}
        for span in sink.of_type(SpanFinished):
            if span.name == "server.queue_wait":
                served_by.setdefault(span.trace_id, []).append(span.attributes()["worker"])
        assert sorted(served_by) == sorted(context.trace_id for context in contexts)
        assert all(len(workers) == 1 for workers in served_by.values())
        assert _flows(pool.submit(_request()).result(timeout=60)) == expected
    finally:
        stopper = threading.Thread(target=pool.stop, daemon=True)
        started = time.monotonic()
        stopper.start()
        stopper.join(timeout=10)
    assert not stopper.is_alive(), "stop() wedged"
    assert time.monotonic() - started < 10
