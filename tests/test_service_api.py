"""Tests for the JSON request/response API and spec resolution."""

import pytest

from repro.engine import CollectingSink
from repro.obs.trace import SpanFinished, ambient_sink
from repro.service.analyzer import ClientAnalyzer
from repro.service.api import (
    AnalyzeRequest,
    SuiteSpec,
    build_corpus,
    handle_request,
    resolve_analyzer,
    run_request,
)
from repro.service.store import SpecNotFoundError, SpecStore


@pytest.fixture
def store(tmp_path, tiny_atlas_result, library_program):
    store = SpecStore(str(tmp_path / "specs"))
    store.put(tiny_atlas_result, library_program=library_program)
    return store


# ---------------------------------------------------------------- serialization
def test_request_dict_round_trip():
    request = AnalyzeRequest(
        suite=SuiteSpec(count=3, seed=5, max_statements=50, min_statements=30),
        spec_id="abc-def-v1",
        workers=2,
        apps=("App00", "App02"),
        include_timing=False,
    )
    assert AnalyzeRequest.from_dict(request.to_dict()) == request


def test_request_defaults_tolerate_sparse_documents():
    request = AnalyzeRequest.from_dict({"suite": {"count": 4}})
    assert request.suite.count == 4
    assert request.suite.seed == SuiteSpec().seed
    assert request.spec_id is None
    assert request.workers == 0


def test_request_rejects_unknown_format():
    with pytest.raises(ValueError):
        AnalyzeRequest.from_dict({"format": "repro.service.analyze-request/999"})


def test_request_rejects_malformed_format_values():
    # a non-string format is malformed, not merely unknown
    with pytest.raises(ValueError):
        AnalyzeRequest.from_dict({"format": 1})
    with pytest.raises(ValueError):
        AnalyzeRequest.from_dict({"format": None})


# -------------------------------------------------------------------- handling
def test_handle_request_end_to_end(store, library_program, interface):
    sink = CollectingSink()
    request = AnalyzeRequest(suite=SuiteSpec(count=3, max_statements=50), workers=2)
    with ambient_sink(sink):
        response = handle_request(
            request, store, library_program=library_program, interface=interface
        )
    assert response.spec_id == store.latest().spec_id  # latest resolved implicitly
    assert len(response.result.reports) == 3
    (batch,) = [span for span in sink.of_type(SpanFinished) if span.name == "service.batch"]
    assert batch.attributes()["programs"] == "3"
    assert batch.attributes()["flows"] == str(response.result.total_flows)

    payload = response.to_dict()
    assert payload["spec_id"] == response.spec_id
    assert payload["num_programs"] == 3
    assert payload["request"]["workers"] == 2


def test_handle_request_app_subset(store, library_program, interface):
    request = AnalyzeRequest(
        suite=SuiteSpec(count=4, max_statements=50), apps=("App01", "App03")
    )
    response = handle_request(
        request, store, library_program=library_program, interface=interface
    )
    assert [report.program for report in response.result.reports] == ["App01", "App03"]


def test_handle_request_unknown_app(store, library_program, interface):
    request = AnalyzeRequest(suite=SuiteSpec(count=2), apps=("App99",))
    with pytest.raises(KeyError):
        handle_request(request, store, library_program=library_program, interface=interface)


def test_explicit_spec_id_is_honored(store, tiny_atlas_result, library_program, interface):
    first = store.latest()
    store.put(tiny_atlas_result, library_program=library_program)  # supersede it
    request = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40), spec_id=first.spec_id)
    response = handle_request(
        request, store, library_program=library_program, interface=interface
    )
    assert response.spec_id == first.spec_id


def test_empty_store_has_no_latest_spec(tmp_path, library_program):
    empty = SpecStore(str(tmp_path / "empty"))
    with pytest.raises(SpecNotFoundError):
        ClientAnalyzer.from_store(empty, library_program=library_program)


def test_empty_suite_yields_empty_batch(store, library_program, interface):
    request = AnalyzeRequest(suite=SuiteSpec(count=0))
    response = handle_request(
        request, store, library_program=library_program, interface=interface
    )
    assert response.result.reports == []
    assert response.result.total_flows == 0
    payload = response.to_dict()
    assert payload["num_programs"] == 0 and payload["reports"] == []


def test_missing_spec_id_raises_not_found(store, library_program, interface):
    request = AnalyzeRequest(suite=SuiteSpec(count=1), spec_id="no-such-spec-v1")
    with pytest.raises(SpecNotFoundError):
        handle_request(request, store, library_program=library_program, interface=interface)


def test_build_corpus_filters_in_suite_order():
    request = AnalyzeRequest(
        suite=SuiteSpec(count=4, max_statements=50), apps=("App03", "App01")
    )
    assert [app.name for app in build_corpus(request)] == ["App01", "App03"]
    assert build_corpus(AnalyzeRequest(suite=SuiteSpec(count=0))) == []


def test_run_request_equals_handle_request(store, library_program, interface):
    """The split halves compose to exactly the one-shot entry point."""
    request = AnalyzeRequest(suite=SuiteSpec(count=2, max_statements=40))
    analyzer = resolve_analyzer(
        request, store, library_program=library_program, interface=interface
    )
    warmed = run_request(request, analyzer)
    one_shot = handle_request(
        request, store, library_program=library_program, interface=interface
    )
    assert warmed.result.canonical() == one_shot.result.canonical()
    assert warmed.spec_id == one_shot.spec_id


def test_from_store_can_pin_a_learner_config(store, tiny_atlas_result, library_program, interface):
    import dataclasses

    other = dataclasses.replace(
        tiny_atlas_result, config=dataclasses.replace(tiny_atlas_result.config, seed=99)
    )
    first = store.records()[0]
    newer = store.put(other, library_program=library_program)  # newest overall
    assert store.latest().spec_id == newer.spec_id
    pinned = ClientAnalyzer.from_store(
        store,
        library_program=library_program,
        interface=interface,
        config=tiny_atlas_result.config,
    )
    assert pinned.spec_id == first.spec_id
