"""Tests for the worker pool: one compile per worker, backpressure, reload."""

import pytest

from repro.engine.events import SpecCompiled, SpecReloaded
from repro.server import procpool
from repro.server.procpool import (
    MAX_CACHED_ANALYZERS,
    PoolSaturated,
    ProcessWorkerPool,
    _evict_stale,
)
from repro.service.api import AnalyzeRequest, SuiteSpec, run_request
from repro.service.store import SpecNotFoundError, SpecStore
from repro.testing import freeze_workers, thaw_workers

SMALL = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40))


@pytest.fixture
def pool_factory(tiny_store, library_program):
    pools = []

    def make(**kwargs):
        kwargs.setdefault("library_program", library_program)
        pool = ProcessWorkerPool(tiny_store, **kwargs)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        if pool.running:
            pool.stop()


# ------------------------------------------------------------- warm compilation
def test_specs_compile_once_per_worker_not_per_request(pool_factory, global_sink):
    sink = global_sink
    pool = pool_factory(processes=2)
    pool.start()
    futures = [pool.submit(SMALL) for _ in range(6)]
    responses = [future.result(timeout=60) for future in futures]
    assert all(len(response.result.reports) == 2 for response in responses)
    compiled = sink.of_type(SpecCompiled)
    assert len(compiled) == 2  # one per worker, despite 6 requests
    assert {event.worker for event in compiled} == {"proc-0", "proc-1"}


def test_pool_responses_match_direct_run_request(pool_factory, tiny_store, library_program, interface):
    from repro.service.api import resolve_analyzer

    pool = pool_factory(processes=1)
    pool.start()
    served = pool.submit(SMALL).result(timeout=60)
    direct = run_request(
        SMALL, resolve_analyzer(SMALL, tiny_store, library_program=library_program, interface=interface)
    )
    assert served.result.canonical() == direct.result.canonical()
    assert served.spec_id == direct.spec_id


# ---------------------------------------------------------------- backpressure
def test_bounded_queue_saturates_instead_of_growing(pool_factory):
    pool = pool_factory(processes=1, queue_depth=2)
    pool.start()
    frozen = freeze_workers(pool)  # nothing resolves until the thaw
    in_flight = [pool.submit(SMALL), pool.submit(SMALL)]  # fills the depth-2 budget
    with pytest.raises(PoolSaturated) as excinfo:
        pool.submit(SMALL)
    assert excinfo.value.retry_after_seconds >= 1
    thaw_workers(frozen)
    assert [len(f.result(timeout=60).result.reports) for f in in_flight] == [2, 2]


def test_submit_before_start_is_an_error(pool_factory):
    pool = pool_factory(processes=1)
    with pytest.raises(RuntimeError):
        pool.submit(SMALL)


# ------------------------------------------------------------------ hot reload
def test_poll_once_swaps_to_newer_spec(
    pool_factory, tiny_store, tiny_atlas_result, library_program, global_sink
):
    sink = global_sink
    pool = pool_factory(processes=1)
    pool.start()
    first = pool.submit(SMALL).result(timeout=60)
    assert first.spec_id == tiny_store.latest().spec_id

    assert pool.poll_once() is False  # nothing new yet
    newer = tiny_store.put(tiny_atlas_result, library_program=library_program)
    assert pool.poll_once() is True
    assert pool.current_spec_id == newer.spec_id
    reloads = sink.of_type(SpecReloaded)
    assert len(reloads) == 1 and reloads[0].spec_id == newer.spec_id

    second = pool.submit(SMALL).result(timeout=60)
    assert second.spec_id == newer.spec_id
    # the reload cost one extra compile on the (single) worker
    assert len(sink.of_type(SpecCompiled)) == 2


def test_in_flight_request_keeps_its_analyzer_across_reload(
    pool_factory, tiny_store, tiny_atlas_result, library_program
):
    pool = pool_factory(processes=1)
    pool.start()
    original = pool.current_spec_id
    frozen = freeze_workers(pool)
    in_flight = pool.submit(SMALL)
    tiny_store.put(tiny_atlas_result, library_program=library_program)
    assert pool.poll_once() is True  # swap happens while the request waits
    thaw_workers(frozen)
    assert in_flight.result(timeout=60).spec_id == original


# -------------------------------------------------------------- pinned spec ids
def test_explicitly_pinned_spec_id_is_served(
    pool_factory, tiny_store, tiny_atlas_result, library_program, global_sink
):
    old = tiny_store.latest().spec_id
    tiny_store.put(tiny_atlas_result, library_program=library_program)
    sink = global_sink
    pool = pool_factory(processes=1)
    pool.start()  # compiles the new latest
    pinned = AnalyzeRequest(suite=SuiteSpec(count=1, max_statements=40), spec_id=old)
    response = pool.submit(pinned).result(timeout=60)
    assert response.spec_id == old
    assert len(sink.of_type(SpecCompiled)) == 2  # latest at startup + pinned on demand


def test_unknown_pinned_spec_id_fails_that_request_only(pool_factory):
    pool = pool_factory(processes=1)
    pool.start()
    bad = AnalyzeRequest(suite=SuiteSpec(count=1), spec_id="does-not-exist-v1")
    with pytest.raises(SpecNotFoundError):
        pool.submit(bad).result(timeout=60)
    # the worker survives and keeps serving
    assert len(pool.submit(SMALL).result(timeout=60).result.reports) == 2


def test_worker_analyzer_cache_is_bounded():
    analyzers = {f"spec-v{i}": object() for i in range(MAX_CACHED_ANALYZERS + 3)}
    _evict_stale(analyzers, {"spec-v6", "spec-v5"})
    assert len(analyzers) == MAX_CACHED_ANALYZERS
    assert "spec-v6" in analyzers and "spec-v5" in analyzers  # in-use survive
    assert "spec-v0" not in analyzers  # oldest history evicted first


def test_eviction_returns_what_it_drops():
    analyzers = {f"spec-v{i}": f"analyzer-{i}" for i in range(MAX_CACHED_ANALYZERS + 2)}
    dropped = _evict_stale(analyzers, {"spec-v0"})
    assert dropped == ["analyzer-1", "analyzer-2"]  # oldest first, protected kept
    assert _evict_stale(analyzers, set()) == []


def test_a_worker_closes_the_analyzers_it_drops_and_holds(
    pool_factory, tiny_store, tiny_atlas_result, library_program, tmp_path, monkeypatch
):
    """Evicted analyzers close at eviction, the rest when the worker exits."""
    closed_log = tmp_path / "closed.log"

    def logging_close(analyzer):
        with open(closed_log, "a", encoding="utf-8") as handle:
            handle.write(analyzer.spec_id + "\n")

    # the pool forks its workers, which inherit both patches
    monkeypatch.setattr(procpool.ClientAnalyzer, "close", logging_close)
    monkeypatch.setattr(procpool, "MAX_CACHED_ANALYZERS", 1)
    old = tiny_store.latest().spec_id
    tiny_store.put(tiny_atlas_result, library_program=library_program)
    pool = pool_factory(processes=1, analysis_cache_dir=str(tmp_path / "cache"))
    pool.start()
    current = pool.current_spec_id
    pinned = AnalyzeRequest(suite=SuiteSpec(count=1, max_statements=40), spec_id=old)
    assert pool.submit(pinned).result(timeout=60).spec_id == old
    assert pool.submit(SMALL).result(timeout=60).spec_id == current  # evicts old
    pool.stop()
    assert closed_log.read_text(encoding="utf-8").split() == [old, current]


# ----------------------------------------------------------------- empty store
def test_start_on_empty_store_raises(tmp_path, library_program):
    pool = ProcessWorkerPool(
        SpecStore(str(tmp_path / "none")),
        processes=1,
        library_program=library_program,
    )
    with pytest.raises(SpecNotFoundError):
        pool.start()
    with pytest.raises(RuntimeError):
        pool.submit(SMALL)  # a failed start leaves nothing to submit to
