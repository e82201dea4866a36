"""Hot reload from the background poller: no explicit ``poll_once()`` needed.

The daemon's deploy story is "``repro learn`` into the served store equals a
zero-downtime deploy".  ``test_server_procpool.py`` swaps the spec with an
explicit ``poll_once()``; here the pool's own polling thread notices the new
version while requests are in flight, emits ``SpecReloaded``, and keeps
serving under it.
"""

from repro.engine.events import SpecCompiled, SpecReloaded
from repro.server.procpool import ProcessWorkerPool
from repro.service.api import AnalyzeRequest, SuiteSpec, handle_request


def _request():
    return AnalyzeRequest(suite=SuiteSpec(count=1, max_statements=30), include_timing=False)


def _flows(response):
    return [report.canonical()["flows"] for report in response.result.reports]


def test_hot_reload_under_load_drops_nothing(
    tiny_store, tiny_atlas_result, library_program, wait_until, global_sink
):
    sink = global_sink
    expected = _flows(handle_request(_request(), tiny_store, library_program=library_program))
    old_spec_id = tiny_store.latest().spec_id

    pool = ProcessWorkerPool(
        tiny_store,
        processes=2,
        queue_depth=64,
        library_program=library_program,
    )
    with pool:
        startup_compiles = len(sink.of_type(SpecCompiled))
        assert startup_compiles == 2  # one per process, at startup
        pool.start_polling(0.05)

        # first wave: put the workers under load
        first_wave = [pool.submit(_request()) for _ in range(8)]

        # deploy a new spec version while those requests are in flight; the
        # polling thread, not the test, performs the swap
        record = tiny_store.put(tiny_atlas_result, library_program=library_program)
        assert record.spec_id != old_spec_id
        assert wait_until(lambda: pool.current_spec_id == record.spec_id, timeout=10.0)

        # second wave: submitted after the swap, still racing the first
        second_wave = [pool.submit(_request()) for _ in range(8)]

        responses = [future.result(timeout=300) for future in first_wave + second_wave]

    # zero dropped, zero incorrect: every response holds the expected flows
    assert len(responses) == 16
    for response in responses:
        assert _flows(response) == expected
        assert response.spec_id in (old_spec_id, record.spec_id)

    # the swap happened and was counted exactly once
    reloads = sink.of_type(SpecReloaded)
    assert len(reloads) == 1
    assert reloads[0].previous_spec_id == old_spec_id
    assert reloads[0].spec_id == record.spec_id

    # workers recompiled lazily for the new spec: at most one extra compile
    # per process, never one per request
    compiles = sink.of_type(SpecCompiled)
    assert startup_compiles < len(compiles) <= startup_compiles + 2
    assert any(event.spec_id == record.spec_id for event in compiles)

    # requests handled after the swap were served under the new spec
    assert responses[-1].spec_id == record.spec_id


def test_polling_thread_bumps_the_reload_counter(
    tiny_store, tiny_atlas_result, library_program, wait_until, global_sink
):
    sink = global_sink
    pool = ProcessWorkerPool(tiny_store, processes=1, library_program=library_program)
    with pool:
        pool.start_polling(0.05)
        tiny_store.put(tiny_atlas_result, library_program=library_program)
        assert wait_until(lambda: sink.of_type(SpecReloaded), timeout=10.0)
        # the pool keeps serving after the background swap
        response = pool.submit(_request()).result(timeout=30)
        assert response.spec_id == tiny_store.latest().spec_id
