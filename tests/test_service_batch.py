"""Tests for the client analyzer and the batch scheduler.

The acceptance bar mirrors the engine's: a parallel batch must produce flow
reports bit-identical to serial execution, merged in corpus order.
"""

import pytest

from repro.benchgen.suite import benchmark_suite
from repro.library import ground_truth_program
from repro.obs.journal import install_journal, read_journal, uninstall_journal
from repro.service.analyzer import ClientAnalyzer, FlowReport
from repro.service.batch import BatchAnalysisScheduler


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite(count=6, seed=11, max_statements=60, min_statements=30)


@pytest.fixture(scope="module")
def analyzer(interface, library_program):
    return ClientAnalyzer(
        ground_truth_program(interface),
        library_program=library_program,
        spec_id="ground-truth",
    )


# -------------------------------------------------------------------- analyzer
def test_analyze_app_reports_flows_and_timing(analyzer, suite):
    report = analyzer.analyze_app(suite.apps[0])
    assert report.program == suite.apps[0].name
    assert report.spec_id == "ground-truth"
    assert report.timing.total_seconds > 0
    assert report.timing.total_seconds >= report.timing.andersen_seconds
    assert list(report.flows) == sorted(report.flows, key=lambda flow: tuple(vars(flow).values()))


def test_flow_report_dict_round_trip(analyzer, suite):
    report = analyzer.analyze_app(suite.apps[0])
    assert FlowReport.from_dict(report.to_dict()).canonical() == report.canonical()
    assert "timing" not in report.to_dict(include_timing=False)


def test_analysis_is_deterministic(analyzer, suite):
    app = suite.apps[1]
    assert analyzer.analyze_app(app).canonical() == analyzer.analyze_app(app).canonical()


# ------------------------------------------------------------------- scheduler
def test_batch_serial_matches_parallel_bit_for_bit(analyzer, suite):
    serial = BatchAnalysisScheduler(analyzer, workers=0).analyze_apps(suite)
    parallel = BatchAnalysisScheduler(analyzer, workers=2).analyze_apps(suite)
    assert serial.executor == "serial"
    assert parallel.executor == "parallel"
    assert serial.canonical() == parallel.canonical()
    # merge order is corpus order, not completion order
    assert [report.program for report in parallel.reports] == [app.name for app in suite]


def test_batch_emits_structured_telemetry(analyzer, suite, tmp_path):
    # the per-program spans finish in the worker processes, which append
    # them to the journal the parent installed
    path = str(tmp_path / "journal.jsonl")
    install_journal(path)
    try:
        result = BatchAnalysisScheduler(analyzer, workers=2).analyze_apps(suite)
    finally:
        uninstall_journal(path)
    spans = [entry for entry in read_journal(path) if entry.is_span]

    def named(name):
        return [(entry, dict(entry.data["attrs"])) for entry in spans if entry.data["name"] == name]

    ((batch, batch_attrs),) = named("service.batch")
    assert batch_attrs["programs"] == str(len(suite))
    assert batch_attrs["executor"] == "parallel"
    assert batch_attrs["flows"] == str(result.total_flows)

    analyses = named("analysis.analyze")
    assert sorted(attrs["program"] for _, attrs in analyses) == sorted(app.name for app in suite)
    for entry, _ in analyses:
        assert entry.data["elapsed_seconds"] > 0
        assert entry.trace_id == batch.trace_id
        assert entry.parent_id == batch.span_id
    assert sum(int(attrs["flows"]) for _, attrs in analyses) == result.total_flows


def test_empty_batch(analyzer):
    result = BatchAnalysisScheduler(analyzer, workers=2).analyze([])
    assert result.reports == []
    assert result.total_flows == 0


def test_batch_result_dict_shape(analyzer, suite):
    result = BatchAnalysisScheduler(analyzer).analyze_apps(suite)
    payload = result.to_dict()
    assert payload["num_programs"] == len(suite)
    assert payload["total_flows"] == result.total_flows
    assert len(payload["reports"]) == len(suite)
    assert all("timing" in report for report in payload["reports"])


def test_ground_truth_specs_find_collection_flows(analyzer, suite):
    # the generated corpus plants library-mediated leaks; with ground-truth
    # specifications the client must recover at least one
    result = BatchAnalysisScheduler(analyzer).analyze_apps(suite)
    assert result.total_flows > 0
