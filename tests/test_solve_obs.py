"""The ``repro obs summary`` solver section (compiled-solver telemetry)."""

import pytest

from repro.diff.families import generate_scenario
from repro.engine.events import CollectingSink
from repro.obs import trace
from repro.obs.journal import JournalEntry
from repro.obs.report import render_summary, summarize
from repro.solve import CompiledAnalysisEngine


def solve_entry(outcome, span_id, elapsed):
    return JournalEntry(
        ts=100.0,
        trace_id="aaaa000011112222",
        span_id=span_id,
        parent_id=None,
        event="SpanFinished",
        data={
            "name": "analysis.solve",
            "started_at": 100.0 - elapsed,
            "elapsed_seconds": elapsed,
            "attrs": [["outcome", outcome]],
        },
    )


JOURNAL = [
    solve_entry("cold", "s0", 0.40),
    solve_entry("hit", "s1", 0.01),
    solve_entry("hit", "s2", 0.02),
    solve_entry("incremental", "s3", 0.10),
]


def test_summarize_collects_solver_outcomes_and_latency():
    solver = summarize(JOURNAL)["solver"]
    assert solver["total"] == 4
    assert solver["by_outcome"] == {"cold": 1, "hit": 2, "incremental": 1}
    assert solver["cache_hit_rate"] == pytest.approx(0.5)
    assert solver["incremental_share"] == pytest.approx(0.25)
    assert solver["p50_seconds"] == pytest.approx(0.02)
    assert solver["p99_seconds"] == pytest.approx(0.40)


def test_summarize_without_solve_spans_reports_empty_solver_block():
    solver = summarize([])["solver"]
    assert solver["total"] == 0
    assert solver["by_outcome"] == {}
    assert solver["cache_hit_rate"] is None
    assert solver["incremental_share"] is None
    assert solver["p50_seconds"] is None and solver["p99_seconds"] is None


def test_render_summary_prints_solver_section_only_when_present():
    text = render_summary(summarize(JOURNAL))
    assert "compiled solver:" in text
    assert "solves: 4 (cold=1 hit=2 incremental=1)" in text
    assert "cache hit rate: 50.0%" in text
    assert "incremental share: 25.0%" in text
    assert "p50 0.0200s" in text and "p99 0.4000s" in text
    assert "compiled solver:" not in render_summary(summarize([]))


def test_spans_without_outcome_attr_do_not_count_as_solves():
    entry = solve_entry("cold", "s9", 0.1)
    entry.data["attrs"] = []
    summary = summarize([entry])
    assert summary["solver"]["total"] == 0
    # the span still shows up in the latency table
    assert summary["spans"]["analysis.solve"]["count"] == 1


# ------------------------------------------------ dispatch rounds on the span
def solve_span_attributes(analyzer, program, name):
    sink = CollectingSink()
    with trace.ambient_sink(sink, thread_local=True):
        analyzer.analyze_program(program, name)
    (solve,) = [event for event in sink.events if event.name == "analysis.solve"]
    return solve.attributes()


def test_solve_span_reports_dispatch_rounds_and_cap(fresh_ground_truth_analyzer):
    # alias chains reach the library through instance calls, so their client
    # needs a dispatch round after the one that resolves those calls
    scenario = generate_scenario("alias-chains-obs", "alias-chains", 2018)
    analyzer = fresh_ground_truth_analyzer()
    attrs = solve_span_attributes(analyzer, scenario.program, scenario.name)
    assert attrs["outcome"] == "cold"
    assert int(attrs["dispatch_rounds"]) >= 2
    assert attrs["dispatch_capped"] == "False"

    capped = fresh_ground_truth_analyzer()
    capped._engine = CompiledAnalysisEngine(capped.base_program, max_dispatch_rounds=1)
    attrs = solve_span_attributes(capped, scenario.program, scenario.name)
    assert attrs["dispatch_rounds"] == "1"
    assert attrs["dispatch_capped"] == "True"


def test_cache_hits_carry_no_dispatch_attributes(
    fresh_ground_truth_analyzer, tmp_path, monkeypatch
):
    scenario = generate_scenario("alias-chains-hit", "alias-chains", 2019)
    monkeypatch.setenv("REPRO_ANALYSIS_CACHE", str(tmp_path))
    analyzer = fresh_ground_truth_analyzer()
    solve_span_attributes(analyzer, scenario.program, scenario.name)
    attrs = solve_span_attributes(analyzer, scenario.program, scenario.name)
    assert attrs["outcome"] == "hit"
    assert "dispatch_rounds" not in attrs and "dispatch_capped" not in attrs
