"""End-to-end tests of the HTTP daemon over real sockets (ephemeral ports)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.server import ShardedAnalysisServer
from repro.server.bench import (
    canonical_reports,
    fetch_json,
    post_analyze,
    run_load,
    verify_against_inprocess,
)
from repro.service.api import AnalyzeRequest, SuiteSpec, handle_request
from repro.testing import freeze_workers, thaw_workers

SMALL = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40))


def post_raw(url, body: bytes):
    """POST arbitrary bytes to /analyze; returns (status, parsed body)."""
    request = urllib.request.Request(
        url + "/analyze", data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


@pytest.fixture
def server(tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=2,
        poll_interval=0,  # reload is driven explicitly via pool.poll_once()
        library_program=library_program,
    )
    with server:
        yield server


# ------------------------------------------------------------------- liveness
def test_healthz_reports_spec_and_workers(server, tiny_store):
    health = fetch_json(server.url, "/healthz")
    assert health["status"] == "ok"
    assert health["spec_id"] == tiny_store.latest().spec_id
    assert health["workers"] == health["processes"] == 2
    assert health["uptime_seconds"] >= 0.0


def test_specs_lists_the_store(server, tiny_store):
    listing = fetch_json(server.url, "/specs")
    assert listing["current"] == tiny_store.latest().spec_id
    assert [record["spec_id"] for record in listing["specs"]] == [
        record.spec_id for record in tiny_store.records()
    ]


def test_unknown_endpoints_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch_json(server.url, "/nope")
    assert excinfo.value.code == 404
    status, _body = post_raw(server.url, b"{}")  # POST /analyze is fine ...
    assert status == 200
    request = urllib.request.Request(server.url + "/healthz", data=b"{}", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:  # ... POST elsewhere is not
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 404


# -------------------------------------------------------------------- analyze
def test_analyze_round_trip_matches_inprocess(server, tiny_store, library_program, interface):
    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    status, body, _retry = post_analyze(server.url, payload)
    assert status == 200
    expected = handle_request(
        SMALL, tiny_store, library_program=library_program, interface=interface
    )
    assert canonical_reports(body) == [report.canonical() for report in expected.result.reports]
    assert body["spec_id"] == expected.spec_id
    assert body["request"]["suite"]["count"] == 2


def test_concurrent_load_is_bit_identical(server, tiny_store, library_program, interface):
    result = run_load(server.url, SMALL, total_requests=12, clients=4)
    assert result.ok == 12
    ok, detail = verify_against_inprocess(
        result, tiny_store, SMALL, library_program=library_program, interface=interface
    )
    assert ok, detail


def test_metrics_count_requests_and_per_worker_compiles(server):
    run_load(server.url, SMALL, total_requests=8, clients=4)
    metrics = fetch_json(server.url, "/metrics")
    assert metrics["requests"]["total"] >= 8
    assert metrics["requests"]["by_status"].get("200") >= 8
    assert metrics["latency"]["count"] >= 8
    assert set(metrics["latency"]["percentiles_seconds"]) == {"p50", "p90", "p99"}
    # the load-bearing claim: 8 requests, exactly one compile per worker
    assert metrics["specs"]["compilations"] == 2
    assert metrics["specs"]["compilations_by_worker"] == {"proc-0": 1, "proc-1": 1}
    # every request was analyzed (2 programs each) or coalesced onto one that was
    analyzed = metrics["analyses"]["programs"] // SMALL.suite.count
    assert analyzed + metrics["requests"]["coalesced"] >= 8
    assert metrics["queue"]["capacity"] == server.pool.queue_capacity
    assert metrics["workers"] == 2


# ------------------------------------------------------------------ bad input
def test_malformed_json_is_400(server):
    status, body = post_raw(server.url, b"{not json")
    assert status == 400
    assert "invalid JSON" in body["error"]


def test_unknown_request_format_is_400(server):
    status, body = post_raw(
        server.url, json.dumps({"format": "repro.service.analyze-request/999"}).encode()
    )
    assert status == 400
    assert "unsupported request format" in body["error"]


def test_missing_spec_id_is_404(server):
    document = SMALL.to_dict()
    document["spec_id"] = "no-such-spec-v1"
    status, body = post_raw(server.url, json.dumps(document).encode())
    assert status == 404
    assert "no-such-spec-v1" in body["error"]


def test_unknown_app_is_400(server):
    document = SMALL.to_dict()
    document["apps"] = ["App99"]
    status, body = post_raw(server.url, json.dumps(document).encode())
    assert status == 400
    assert "App99" in body["error"]


def test_empty_suite_is_served(server):
    document = AnalyzeRequest(suite=SuiteSpec(count=0)).to_dict()
    status, body = post_raw(server.url, json.dumps(document).encode())
    assert status == 200
    assert body["num_programs"] == 0 and body["reports"] == []


def test_keepalive_connection_survives_404_post_with_body(server):
    """A POST body must be drained even on error paths, or the next request
    on the same HTTP/1.1 connection starts parsing mid-body."""
    import http.client

    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", "/analyzee", body=json.dumps(SMALL.to_dict()),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 404
        response.read()
        # same socket: a well-formed follow-up must not see leftover bytes
        connection.request("GET", "/healthz")
        follow_up = connection.getresponse()
        assert follow_up.status == 200
        assert json.loads(follow_up.read())["status"] == "ok"
    finally:
        connection.close()


# --------------------------------------------------------------- backpressure
def test_full_queue_is_503_with_retry_after(tiny_store, library_program, wait_until):
    """The pool's bound sheds with 503 + Retry-After even when the door's
    admission limit would still let the request through."""
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=1,
        queue_depth=1,
        admission_limit=4,
        poll_interval=0,
        library_program=library_program,
    )
    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    # a different document: it must reach the pool, not coalesce onto the first
    other = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40, seed=7))
    with server:
        frozen = freeze_workers(server.pool)  # the only worker holds the job
        results = []
        first = threading.Thread(
            target=lambda: results.append(post_analyze(server.url, payload)), daemon=True
        )
        first.start()
        assert wait_until(lambda: server.pool.queue_depth == 1)

        status, body, retry_after = post_analyze(
            server.url, json.dumps(other.to_dict()).encode("utf-8")
        )  # overflows the depth-1 pool
        assert status == 503
        assert retry_after is not None and retry_after >= 1
        assert "queue full" in body["error"]

        thaw_workers(frozen)
        first.join(timeout=60)
        assert not first.is_alive()
        assert [status for status, _body, _retry in results] == [200]
        metrics = fetch_json(server.url, "/metrics")
        assert metrics["requests"]["rejected"] == 1
        assert metrics["requests"]["by_status"]["503"] == 1
        assert metrics["requests"]["admission_rejected"] == 0


# ------------------------------------------------------------------ hot reload
def test_hot_reload_serves_newly_stored_spec(
    server, tiny_store, tiny_atlas_result, library_program
):
    before = fetch_json(server.url, "/healthz")["spec_id"]
    newer = tiny_store.put(tiny_atlas_result, library_program=library_program)
    assert server.pool.poll_once() is True

    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    status, body, _retry = post_analyze(server.url, payload)
    assert status == 200
    assert body["spec_id"] == newer.spec_id != before
    assert fetch_json(server.url, "/healthz")["spec_id"] == newer.spec_id
    assert fetch_json(server.url, "/metrics")["specs"]["hot_reloads"] == 1
