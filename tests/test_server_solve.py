"""The daemon's compiled solver, with and without a shared analysis cache."""

import json
import urllib.request

import pytest

from repro.server import ShardedAnalysisServer
from repro.server.bench import canonical_reports, fetch_json, post_analyze
from repro.service.api import AnalyzeRequest, SuiteSpec, handle_request

SMALL = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40))


@pytest.fixture
def compiled_server(tmp_path, tiny_store, library_program):
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=2,
        poll_interval=0,
        library_program=library_program,
        analysis_cache_dir=str(tmp_path / "analysis-cache"),
    )
    with server:
        yield server


def _post(url, payload):
    request = urllib.request.Request(
        url + "/analyze",
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read().decode("utf-8")), dict(
            response.headers
        )


def test_compiled_responses_match_reference_inprocess(
    compiled_server, tiny_store, library_program, interface
):
    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    status, body, _retry = post_analyze(compiled_server.url, payload)
    assert status == 200
    expected = handle_request(
        SMALL, tiny_store, library_program=library_program, interface=interface
    )
    assert canonical_reports(body) == [report.canonical() for report in expected.result.reports]


def test_server_timing_exposes_the_solve_phase(compiled_server):
    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    status, _body, headers = _post(compiled_server.url, payload)
    assert status == 200
    timing = headers.get("Server-Timing", "")
    assert "solve;dur=" in timing
    assert "analysis;dur=" in timing


def test_metrics_count_solver_outcomes_and_cache_hits(compiled_server):
    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    assert post_analyze(compiled_server.url, payload)[0] == 200
    first = fetch_json(compiled_server.url, "/metrics")["solver"]
    assert first["total"] >= 2  # one solve span per program in the suite
    assert first["by_outcome"].get("cold", 0) >= 1

    # the second identical request is answered from the analysis cache
    assert post_analyze(compiled_server.url, payload)[0] == 200
    second = fetch_json(compiled_server.url, "/metrics")["solver"]
    assert second["by_outcome"].get("hit", 0) >= 2
    assert second["cache_hit_rate"] > 0.0


def test_cache_warmth_survives_a_server_restart(tmp_path, tiny_store, library_program):
    payload = json.dumps(SMALL.to_dict()).encode("utf-8")
    cache_dir = str(tmp_path / "analysis-cache")

    def boot():
        return ShardedAnalysisServer(
            tiny_store,
            port=0,
            processes=1,
            poll_interval=0,
            library_program=library_program,
            analysis_cache_dir=cache_dir,
        )

    with boot() as server:
        assert post_analyze(server.url, payload)[0] == 200
    with boot() as server:
        assert post_analyze(server.url, payload)[0] == 200
        solver = fetch_json(server.url, "/metrics")["solver"]
        assert solver["by_outcome"].get("hit", 0) >= 2
        assert solver["by_outcome"].get("cold", 0) == 0


def test_reference_tier_is_unchanged(tiny_store, library_program):
    # without a cache the daemon still runs the one engine: every request
    # is solved, nothing is a hit
    server = ShardedAnalysisServer(
        tiny_store,
        port=0,
        processes=1,
        poll_interval=0,
        library_program=library_program,
    )
    with server:
        payload = json.dumps(SMALL.to_dict()).encode("utf-8")
        status, _body, headers = _post(server.url, payload)
        assert status == 200
        assert "solve;dur=" in headers.get("Server-Timing", "")
        solver = fetch_json(server.url, "/metrics")["solver"]
        assert solver["total"] >= 2  # one solve span per program in the suite
        assert "hit" not in solver["by_outcome"]
