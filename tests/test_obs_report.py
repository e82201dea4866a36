"""Unit tests for journal summaries and trace-tree reconstruction."""

import pytest

from repro.obs.journal import JournalEntry
from repro.obs.report import (
    build_trace,
    critical_path,
    render_summary,
    render_trace,
    summarize,
    trace_ids,
)


def span_entry(
    name,
    trace_id="aaaa000011112222",
    span_id="s0",
    parent_id=None,
    ts=100.0,
    elapsed=1.0,
    attrs=(),
):
    return JournalEntry(
        ts=ts,
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        event="SpanFinished",
        data={
            "name": name,
            "started_at": ts - elapsed,
            "elapsed_seconds": elapsed,
            "attrs": [list(pair) for pair in attrs],
        },
    )


def plain_entry(event="SpecCompiled", ts=100.0, trace_id=None):
    return JournalEntry(
        ts=ts, trace_id=trace_id, span_id=None, parent_id=None, event=event, data={}
    )


SAMPLE = [
    plain_entry(ts=90.0),
    span_entry("fuzz.check", span_id="s1", parent_id="s0", ts=99.0, elapsed=2.0),
    span_entry("fuzz.check", span_id="s2", parent_id="s0", ts=100.0, elapsed=4.0),
    span_entry("analysis.analyze", span_id="s3", parent_id="s2", ts=99.5, elapsed=3.0),
    span_entry("fuzz.campaign", span_id="s0", ts=101.0, elapsed=7.0,
               attrs=(("budget", "2"),)),
    span_entry("other", trace_id="bbbb000011112222", span_id="t0", ts=102.0),
]


# ------------------------------------------------------------------- summaries
def test_summarize_counts_events_traces_and_span_latencies():
    summary = summarize(SAMPLE)
    assert summary["entries"] == 6
    assert summary["events"] == {"SpecCompiled": 1, "SpanFinished": 5}
    assert summary["traces"] == 2
    assert summary["window_seconds"] == pytest.approx(12.0)
    check = summary["spans"]["fuzz.check"]
    assert check["count"] == 2
    assert check["total_seconds"] == pytest.approx(6.0)
    assert check["max_seconds"] == pytest.approx(4.0)
    assert check["percentiles_seconds"]["p50"] == pytest.approx(2.0)
    assert check["percentiles_seconds"]["p99"] == pytest.approx(4.0)


def test_render_summary_is_a_stable_table():
    text = render_summary(summarize(SAMPLE))
    assert "journal: 6 entries, 2 traces" in text
    assert "SpanFinished" in text
    assert "fuzz.campaign" in text
    assert "p50" in text and "p99" in text
    assert render_summary(summarize([])).startswith("journal: 0 entries")


# ----------------------------------------------------------------- trace trees
def test_trace_ids_in_first_seen_order_with_span_counts():
    assert trace_ids(SAMPLE) == [("aaaa000011112222", 4), ("bbbb000011112222", 1)]


def test_build_trace_reconstructs_the_tree():
    trace = build_trace(SAMPLE, "aaaa000011112222")
    assert trace.span_count == 4
    (root,) = trace.roots
    assert root.name == "fuzz.campaign"
    assert root.attrs == {"budget": "2"}
    assert [child.name for child in root.children] == ["fuzz.check", "fuzz.check"]
    # children sort by start time: the slow check (s2) started first
    slow = root.children[0]
    assert [grandchild.name for grandchild in slow.children] == ["analysis.analyze"]
    assert root.self_seconds == pytest.approx(7.0 - 2.0 - 4.0)
    assert slow.self_seconds == pytest.approx(1.0)
    assert not trace.orphans


def test_build_trace_accepts_a_unique_prefix_and_rejects_ambiguity():
    assert build_trace(SAMPLE, "aaaa").trace_id == "aaaa000011112222"
    with pytest.raises(ValueError, match="no spans"):
        build_trace(SAMPLE, "cccc")
    ambiguous = SAMPLE + [span_entry("x", trace_id="aaab000011112222", span_id="u0")]
    with pytest.raises(ValueError, match="ambiguous"):
        build_trace(ambiguous, "aaa")


def test_orphaned_spans_are_kept_not_dropped():
    entries = [
        span_entry("lost", span_id="s9", parent_id="never-finished", ts=100.0),
    ]
    trace = build_trace(entries, "aaaa")
    assert not trace.roots
    assert [node.name for node in trace.orphans] == ["lost"]
    assert "orphaned" in render_trace(trace)


def test_critical_path_follows_the_slowest_chain():
    trace = build_trace(SAMPLE, "aaaa")
    assert critical_path(trace) == ["s0", "s2", "s3"]


def test_render_trace_marks_the_critical_path_and_self_time():
    text = render_trace(build_trace(SAMPLE, "aaaa"))
    lines = text.splitlines()
    assert lines[0] == "trace aaaa000011112222: 4 spans"
    assert any(line.startswith("*") and "fuzz.campaign" in line for line in lines)
    assert any(line.startswith("*") and "analysis.analyze" in line for line in lines)
    # the fast sibling is not on the hot path
    fast = [line for line in lines if "fuzz.check  2.0000s" in line]
    assert fast and not fast[0].startswith("*")
    assert "[budget=2]" in lines[1]
    assert "(self 1.0000s)" in text


def test_self_seconds_clamps_overlapping_children_at_zero():
    entries = [
        span_entry("parent", span_id="p", ts=100.0, elapsed=1.0),
        span_entry("child-a", span_id="a", parent_id="p", ts=100.0, elapsed=0.9),
        span_entry("child-b", span_id="b", parent_id="p", ts=100.0, elapsed=0.8),
    ]
    (root,) = build_trace(entries, "aaaa").roots
    assert root.self_seconds == 0.0
