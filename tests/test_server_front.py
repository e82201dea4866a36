"""End-to-end tests of the asyncio front door over the process pool.

The contract under test: responses canonically identical to in-process
``handle_request``; coalesced followers receive the leader's bytes
**verbatim**; admission control sheds with 503 + ``Retry-After`` before the
pool is touched; unframeable input gets a typed 4xx and a closed
connection; a worker killed mid-request costs a retry, not the request.
"""

import http.client
import json
import os
import signal
import socket
import threading

import pytest

from repro.server.bench import canonical_reports, fetch_json, post_analyze
from repro.server.front import MAX_HEADERS, ShardedAnalysisServer
from repro.service.api import (
    AnalyzeRequest,
    SuiteSpec,
    canonical_request_key,
    corpus_digest,
    handle_request,
)
from repro.testing import freeze_workers, thaw_workers


def _request(**overrides):
    defaults = dict(suite=SuiteSpec(count=1, max_statements=30), include_timing=False)
    defaults.update(overrides)
    return AnalyzeRequest(**defaults)


def _post_raw(address, payload: bytes, extra_headers=None):
    """POST /analyze and return (status, headers dict, raw body bytes)."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"}
        headers.update(extra_headers or {})
        connection.request("POST", "/analyze", body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


@pytest.fixture
def front(tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=1, queue_depth=16, library_program=library_program
    )
    with server:
        yield server


def test_analyze_matches_inprocess_and_carries_headers(
    front, tiny_store, library_program, interface
):
    request = _request()
    expected = handle_request(
        request, tiny_store, library_program=library_program, interface=interface
    )
    status, headers, raw = _post_raw(
        front.address, json.dumps(request.to_dict()).encode("utf-8")
    )
    assert status == 200
    body = json.loads(raw.decode("utf-8"))
    assert body["spec_id"] == expected.spec_id
    assert canonical_reports(body) == [r.canonical() for r in expected.result.reports]
    assert headers.get("X-Repro-Trace-Id")
    assert "queue;dur=" in headers.get("Server-Timing", "")


def test_client_supplied_trace_id_is_echoed(front):
    status, headers, _raw = _post_raw(
        front.address,
        json.dumps(_request().to_dict()).encode("utf-8"),
        extra_headers={"X-Repro-Trace-Id": "cafecafecafecafe"},
    )
    assert status == 200
    assert headers["X-Repro-Trace-Id"] == "cafecafecafecafe"


def test_get_endpoints_report_the_fleet(front, tiny_store):
    health = fetch_json(front.url, "/healthz")
    assert health["status"] == "ok"
    assert health["processes"] == 1
    assert health["spec_id"] == tiny_store.latest().spec_id
    assert health["active_spec_id"] == health["spec_id"]

    specs = fetch_json(front.url, "/specs")
    assert specs["current"] == health["spec_id"]
    assert len(specs["specs"]) == 1

    metrics = fetch_json(front.url, "/metrics")
    assert metrics["requests"]["total"] >= 0
    assert metrics["workers"] == 1
    assert "coalesced" in metrics["requests"]


def test_metrics_prometheus_exposition(front):
    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/metrics?format=prometheus")
        response = connection.getresponse()
        text = response.read().decode("utf-8")
    finally:
        connection.close()
    assert response.status == 200
    assert "repro_requests_coalesced_total" in text
    assert "repro_admission_rejected_total" in text
    assert "repro_workers 1" in text


def test_bad_json_and_unknown_routes(front):
    status, _headers, raw = _post_raw(front.address, b"{not json")
    assert status == 400
    assert "invalid JSON body" in json.loads(raw)["error"]

    status, _body, _retry = post_analyze(
        front.url, json.dumps({"format": "repro.service.analyze-request/999"}).encode()
    )
    assert status == 400

    host, port = front.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/nope")
        assert connection.getresponse().status == 404
    finally:
        connection.close()


def test_unknown_pinned_spec_maps_to_404(front):
    status, body, _retry = post_analyze(
        front.url, json.dumps(_request(spec_id="no-such-spec").to_dict()).encode()
    )
    assert status == 404
    assert "unknown spec" in body["error"]


def test_coalesced_followers_get_the_leaders_bytes_verbatim(front, wait_until):
    """Concurrent identical requests: one pool submission, N identical
    responses.  Byte identity (not just canonical identity) is the claim --
    followers receive the leader's rendered body.  The workers stay frozen
    until every follower has joined, so the six requests are concurrent by
    construction rather than by the luck of thread scheduling."""
    payload = json.dumps(_request(include_timing=True).to_dict()).encode("utf-8")
    results = []
    lock = threading.Lock()

    def fire():
        outcome = _post_raw(front.address, payload)
        with lock:
            results.append(outcome)

    frozen = freeze_workers(front.pool)  # the leader stays in flight
    threads = [threading.Thread(target=fire) for _ in range(6)]
    for thread in threads:
        thread.start()
    joined = wait_until(lambda: front.metrics.snapshot()["requests"]["coalesced"] == 5, timeout=30)
    thaw_workers(frozen)
    for thread in threads:
        thread.join(timeout=60)
    assert joined and not any(thread.is_alive() for thread in threads)

    assert [status for status, _h, _b in results] == [200] * 6
    bodies = {raw for _s, _h, raw in results}
    assert len(bodies) == 1  # bit-identical across all six responses
    coalesced = [h for _s, h, _b in results if h.get("X-Repro-Coalesced") == "1"]
    metrics = fetch_json(front.url, "/metrics")
    assert metrics["requests"]["coalesced"] == len(coalesced)
    assert len(coalesced) >= 1
    # exactly one leader went through the pool for this burst
    assert metrics["requests"]["coalesced"] + metrics["analyses"]["batches"] >= 6


def test_admission_control_sheds_at_the_door(tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=1,
        library_program=library_program,
        admission_limit=0,  # every analyze request is shed before the pool
    )
    with server:
        status, body, retry_after = post_analyze(
            server.url, json.dumps(_request().to_dict()).encode("utf-8")
        )
        assert status == 503
        assert retry_after == 1.0
        assert "admission limit" in body["error"]
        metrics = fetch_json(server.url, "/metrics")
        assert metrics["requests"]["admission_rejected"] == 1
        assert metrics["requests"]["rejected"] == 1
        # the fleet itself is untouched and healthy
        assert fetch_json(server.url, "/healthz")["status"] == "ok"


def test_hot_reload_through_the_front_door(
    tiny_store, tiny_atlas_result, library_program, wait_until
):
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=1, poll_interval=0.05, library_program=library_program
    )
    with server:
        old_spec_id = tiny_store.latest().spec_id
        first = fetch_json(server.url, "/healthz")
        assert first["spec_id"] == old_spec_id
        record = tiny_store.put(tiny_atlas_result, library_program=library_program)
        assert wait_until(
            lambda: server.pool.current_spec_id == record.spec_id, timeout=30.0
        )
        status, body, _retry = post_analyze(
            server.url, json.dumps(_request().to_dict()).encode("utf-8")
        )
        assert status == 200
        assert body["spec_id"] == record.spec_id


def _raw_exchange(address, data: bytes) -> int:
    """Send raw bytes on a fresh connection; the status of the one reply."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(data)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


_LONG = b"a" * (70 * 1024)  # past the 64 KiB StreamReader line limit


@pytest.mark.parametrize(
    "data, status",
    [
        (b"GET /" + _LONG + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\nX-Padding: " + _LONG + b"\r\n\r\n", 431),
        (b"POST /analyze HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}", 400),
        (b"POST /analyze HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
    ],
    ids=["long-request-line", "long-header-line", "negative-length", "huge-length"],
)
def test_unframeable_input_gets_a_typed_4xx_and_a_closed_connection(front, data, status):
    assert _raw_exchange(front.address, data) == status
    health = fetch_json(front.url, "/healthz")  # a fresh connection is served
    assert health["status"] == "ok"


def _header_lines(count: int) -> bytes:
    return b"".join(b"X-Header-%d: v\r\n" % index for index in range(count))


def _read_to_close(sock) -> bytes:
    """Everything the peer sends until it closes (a reset counts as closed)."""
    reply = b""
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return reply
            reply += chunk
    except ConnectionResetError:
        return reply


def test_a_101st_header_line_gets_431_and_a_closed_connection(front):
    """The header section is bounded like http.client bounds it: 100 header
    lines are served, and the 101st is answered 431 before the rest of the
    section is read, then the connection is closed."""
    request = b"GET /healthz HTTP/1.1\r\n"
    assert _raw_exchange(front.address, request + _header_lines(MAX_HEADERS) + b"\r\n") == 200
    with socket.create_connection(front.address, timeout=30) as sock:
        sock.sendall(request + _header_lines(MAX_HEADERS + 1) + b"\r\n")
        reply = _read_to_close(sock)  # a door that kept it open times out here
    assert reply.startswith(b"HTTP/1.1 431 ")
    assert fetch_json(front.url, "/healthz")["status"] == "ok"


def _post_in_background(address, payload):
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(_post_raw(address, payload)), daemon=True
    )
    thread.start()
    return thread, outcome


def _holder(server):
    (job,) = server.pool._pending.values()
    return int(job.worker.rsplit("-", 1)[1])


def test_worker_killed_mid_request_costs_a_retry_not_the_request(
    tiny_store, library_program, interface, wait_until
):
    request = _request()
    expected = handle_request(
        request, tiny_store, library_program=library_program, interface=interface
    )
    canonical = [r.canonical() for r in expected.result.reports]
    payload = json.dumps(request.to_dict()).encode("utf-8")
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=2, poll_interval=0, library_program=library_program
    )
    with server:
        processes = freeze_workers(server.pool)  # hold the job wherever it is routed
        thread, outcome = _post_in_background(server.address, payload)
        assert wait_until(lambda: server.pool.queue_depth == 1, timeout=30)
        victim = _holder(server)
        os.kill(processes[victim].pid, signal.SIGKILL)
        thaw_workers([processes[1 - victim]])
        thread.join(timeout=90)
        assert not thread.is_alive(), "the orphaned request hung"
        status, _headers, raw = outcome[0]
        assert status == 200
        assert canonical_reports(json.loads(raw)) == canonical
        for _ in range(4):  # the survivor serves everything from here on
            status, _headers, raw = _post_raw(server.address, payload)
            assert status == 200
            assert canonical_reports(json.loads(raw)) == canonical
        assert server.pool.queue_depth == 0


def test_no_live_worker_left_is_503_with_retry_after(tiny_store, library_program, wait_until):
    payload = json.dumps(_request().to_dict()).encode("utf-8")
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=1, poll_interval=0, library_program=library_program
    )
    with server:
        (only,) = freeze_workers(server.pool)
        thread, outcome = _post_in_background(server.address, payload)
        assert wait_until(lambda: server.pool.queue_depth == 1, timeout=30)
        os.kill(only.pid, signal.SIGKILL)
        thread.join(timeout=90)
        assert not thread.is_alive(), "the orphaned request hung"
        status, headers, raw = outcome[0]
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "proc-0 exited" in json.loads(raw)["error"]
        # later arrivals are shed at submit, not queued behind a dead worker
        status, body, retry_after = post_analyze(server.url, payload)
        assert status == 503 and retry_after == 1.0
        assert "no live worker" in body["error"]
        assert server.pool.queue_depth == 0
        assert fetch_json(server.url, "/healthz")["status"] == "ok"


def test_close_still_answers_a_request_its_worker_holds(
    tiny_store, library_program, interface, wait_until
):
    """Shutdown lets each worker finish the jobs it holds, and the loop keeps
    running until their replies are written: the client gets its 200, not a
    dropped connection."""
    request = _request()
    expected = handle_request(
        request, tiny_store, library_program=library_program, interface=interface
    )
    payload = json.dumps(request.to_dict()).encode("utf-8")
    server = ShardedAnalysisServer(
        tiny_store, port=0, processes=1, poll_interval=0, library_program=library_program
    )
    server.start()
    frozen = freeze_workers(server.pool)
    thread, outcome = _post_in_background(server.address, payload)
    assert wait_until(lambda: server.pool.queue_depth == 1, timeout=30)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    assert wait_until(lambda: not server.pool.running, timeout=30)  # close() is under way
    thaw_workers(frozen)
    closer.join(timeout=60)
    thread.join(timeout=60)
    assert not closer.is_alive() and not thread.is_alive()
    status, _headers, raw = outcome[0]
    assert status == 200
    assert canonical_reports(json.loads(raw)) == [r.canonical() for r in expected.result.reports]


def test_canonical_request_key_tracks_the_corpus_digest():
    """The cheap request key coalesces exactly when the expensive
    program-digest identity would: same document, same key and digest;
    different seed, different key and digest."""
    a = _request()
    b = _request()
    shifted = _request(suite=SuiteSpec(count=1, max_statements=30, seed=3000))
    assert canonical_request_key(a, "spec-1") == canonical_request_key(b, "spec-1")
    assert corpus_digest(a) == corpus_digest(b)
    assert canonical_request_key(a, "spec-1") != canonical_request_key(shifted, "spec-1")
    assert corpus_digest(a) != corpus_digest(shifted)
    # resolving the spec id into the key separates hot-reload generations
    assert canonical_request_key(a, "spec-1") != canonical_request_key(a, "spec-2")
    # a pinned request keys on its pin, not the currently served spec
    pinned = _request(spec_id="spec-9")
    assert canonical_request_key(pinned, "spec-1") == canonical_request_key(pinned, "spec-2")
