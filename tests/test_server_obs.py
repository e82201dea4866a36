"""HTTP-level observability: Prometheus exposition, trace ids, phase timing."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.server import ShardedAnalysisServer
from repro.server.bench import bench_artifact, fetch_json, run_load
from repro.server.metrics import ServerMetrics
from repro.service.api import AnalyzeRequest, SuiteSpec

SMALL = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40))


@pytest.fixture
def server(tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=2,
        poll_interval=0,
        library_program=library_program,
    )
    with server:
        yield server


def post(url, body: bytes, headers=None):
    """POST bytes to /analyze; returns (status, parsed body, response headers)."""
    request = urllib.request.Request(
        url + "/analyze",
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), error.headers


def scrape(url: str):
    """GET the Prometheus exposition; returns (text, content type, series map)."""
    with urllib.request.urlopen(url + "/metrics?format=prometheus", timeout=30) as resp:
        content_type = resp.headers.get("Content-Type")
        text = resp.read().decode("utf-8")
    series = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        series[name] = float(value)
    return text, content_type, series


# ------------------------------------------------------------------ prometheus
def test_prometheus_exposition_is_valid_and_complete(server):
    status, _body, _headers = post(server.url, json.dumps(SMALL.to_dict()).encode())
    assert status == 200
    text, content_type, series = scrape(server.url)

    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert text.endswith("\n")
    # every series has HELP and TYPE lines, and HELP precedes TYPE precedes data
    for metric in (
        "repro_requests_total",
        "repro_requests_rejected_total",
        "repro_request_latency_seconds",
        "repro_request_error_latency_seconds",
        "repro_queue_depth",
        "repro_queue_capacity",
        "repro_workers",
        "repro_spec_compilations_total",
        "repro_phase_seconds",
        "repro_obs_dropped_events_total",
    ):
        assert f"# HELP {metric} " in text, metric
        assert f"# TYPE {metric} " in text, metric

    assert series['repro_requests_total{status="200"}'] == 1
    assert series["repro_requests_rejected_total"] == 0
    assert series["repro_request_latency_seconds_count"] == 1
    assert series['repro_request_latency_seconds_bucket{le="+Inf"}'] == 1
    assert series["repro_queue_depth"] == 0
    assert series["repro_queue_capacity"] == server.pool.queue_capacity
    assert series["repro_workers"] == 2
    assert series['repro_spec_compilations_total{worker="proc-0"}'] == 1
    assert series['repro_spec_compilations_total{worker="proc-1"}'] == 1
    assert series["repro_uptime_seconds"] > 0
    # request phases landed in the per-phase histogram via SpanFinished events
    for phase in ("server.request", "server.queue_wait", "analysis.solve"):
        assert series[f'repro_phase_seconds_count{{phase="{phase}"}}'] >= 1, phase


def test_json_metrics_stay_the_default(server):
    metrics = fetch_json(server.url, "/metrics")
    assert metrics["requests"]["total"] == 0
    assert metrics["error_latency"] == {"count": 0, "total_seconds": 0.0}
    assert "dropped_events" in metrics


# ---------------------------------------------------------------- trace headers
def test_analyze_responses_carry_a_trace_id(server):
    status, _body, headers = post(server.url, json.dumps(SMALL.to_dict()).encode())
    assert status == 200
    trace_id = headers.get("X-Repro-Trace-Id")
    assert trace_id and len(trace_id) == 16


def test_client_supplied_trace_id_is_honored(server):
    status, _body, headers = post(
        server.url,
        json.dumps(SMALL.to_dict()).encode(),
        headers={"X-Repro-Trace-Id": "cafe0123cafe0123"},
    )
    assert status == 200
    assert headers.get("X-Repro-Trace-Id") == "cafe0123cafe0123"


def test_error_responses_also_carry_a_trace_id(server):
    status, _body, headers = post(server.url, b"{not json")
    assert status == 400
    assert len(headers.get("X-Repro-Trace-Id", "")) == 16


def test_server_timing_breaks_the_request_into_phases(server):
    status, _body, headers = post(server.url, json.dumps(SMALL.to_dict()).encode())
    assert status == 200
    timing = headers.get("Server-Timing")
    parts = dict(
        part.strip().split(";dur=", 1) for part in timing.split(",") if ";dur=" in part
    )
    assert set(parts) == {"queue", "andersen", "taint", "solve", "analysis"}
    durations = {name: float(value) for name, value in parts.items()}
    assert durations["analysis"] >= durations["andersen"] >= durations["solve"] >= 0.0
    assert durations["queue"] >= 0.0


# ---------------------------------------------------------------- error latency
def test_non_200_latencies_land_in_the_error_histogram(server):
    for _ in range(3):
        status, _body, _headers = post(server.url, b"{not json")
        assert status == 400
    status, _body, _headers = post(server.url, json.dumps(SMALL.to_dict()).encode())
    assert status == 200

    metrics = fetch_json(server.url, "/metrics")
    assert metrics["error_latency"]["count"] == 3
    assert metrics["error_latency"]["total_seconds"] >= 0.0
    assert metrics["latency"]["count"] == 1  # 200s only in the main window

    _text, _content_type, series = scrape(server.url)
    assert series["repro_request_error_latency_seconds_count"] == 3
    assert series["repro_request_latency_seconds_count"] == 1
    assert series['repro_requests_total{status="400"}'] == 3


def test_rejected_total_counts_503s_in_both_expositions():
    metrics = ServerMetrics()
    metrics.record_request(503, 0.001)
    metrics.record_request(200, 0.050)
    snapshot = metrics.snapshot()
    assert snapshot["requests"]["rejected"] == 1
    assert snapshot["error_latency"]["count"] == 1
    text = metrics.to_prometheus()
    assert "repro_requests_rejected_total 1" in text
    assert 'repro_requests_total{status="503"} 1' in text


# ---------------------------------------------------------------- bench artifact
def test_bench_artifact_records_throughput_latency_and_phases(server):
    result = run_load(server.url, SMALL, total_requests=4, clients=2)
    assert result.ok == 4
    metrics = fetch_json(server.url, "/metrics")
    artifact = bench_artifact(
        result, SMALL, metrics_snapshot=metrics, meta={"url": server.url}
    )
    assert artifact["format"] == "repro.bench.serve/1"
    assert artifact["request"] == SMALL.to_dict()
    assert artifact["load"]["ok"] == 4
    assert artifact["load"]["statuses"]["200"] == 4
    assert artifact["throughput_rps"] > 0
    latency = artifact["latency_seconds"]
    assert latency["count"] == 4
    assert 0 < latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["max"]
    phases = artifact["phases"]
    assert phases["programs_analyzed"] == 4 * SMALL.suite.count
    assert phases["total_seconds"] >= phases["andersen_seconds"] > 0
    assert artifact["server_metrics"]["requests"]["total"] == 4
    assert artifact["meta"] == {"url": server.url}
    assert json.loads(json.dumps(artifact)) == artifact
