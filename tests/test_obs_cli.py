"""CLI-level observability: ``--journal`` tees, ``repro obs``, and the
parallel-equals-serial guarantee extended to span trees."""

import json

import pytest

from repro.cli import main
from repro.diff import FuzzConfig, run_fuzz
from repro.engine.events import RunFinished
from repro.obs import (
    build_trace,
    install_journal,
    read_journal,
    trace_ids,
    uninstall_journal,
)
from repro.obs import trace as trace_mod
from repro.service.api import AnalyzeRequest, SuiteSpec, handle_request


def one_trace(path):
    entries = read_journal(path)
    ids = trace_ids(entries)
    assert len(ids) == 1, f"expected one trace, journal has {ids}"
    return build_trace(entries, ids[0][0])


def edge_multiset(path):
    """The trace tree as sorted ``(parent name, child name)`` pairs.

    Timing and sibling order differ between serial and parallel runs by
    nature; the *shape* of the tree -- which spans exist and under which
    parents -- must not.
    """
    trace = one_trace(path)
    assert not trace.orphans
    pairs = []

    def walk(node, parent):
        pairs.append((parent, node.name))
        for child in node.children:
            walk(child, node.name)

    for root in trace.roots:
        walk(root, "")
    return sorted(pairs)


# ------------------------------------------------------------- the journal tee
def test_fuzz_journal_is_one_rooted_trace(tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    rc = main(
        [
            "fuzz", "--budget", "2", "--seed", "7", "--families", "alias-chains",
            "--no-golden", "--out", str(tmp_path / "report.json"),
            "--journal", journal,
        ]
    )
    uninstall_journal(journal)
    assert rc == 0
    trace = one_trace(journal)
    (root,) = trace.roots
    assert root.name == "cli.fuzz"
    names = set()
    stack = list(trace.roots)
    while stack:
        node = stack.pop()
        names.add(node.name)
        stack.extend(node.children)
    assert {
        "cli.fuzz", "fuzz.campaign", "fuzz.check",
        "analysis.analyze", "analysis.solve", "analysis.taint",
    } <= names
    # the campaign's engine events ride the same route, stamped into the trace
    events = [entry for entry in read_journal(journal) if not entry.is_span]
    assert [entry.event for entry in events] == [
        "FuzzStarted", "ProgramChecked", "ProgramChecked", "FuzzFinished",
    ]
    assert {entry.trace_id for entry in events} == {trace.trace_id}


def engine_events(path):
    """The names of a journal's engine events (everything but spans), in order."""
    return [entry.event for entry in read_journal(path) if not entry.is_span]


def test_learn_journal_holds_the_runs_engine_events(tmp_path, capsys):
    journal = str(tmp_path / "learn.jsonl")
    rc = main(
        [
            "learn", "--store", str(tmp_path / "specs"), "--cache-dir", str(tmp_path / "cache"),
            "--cluster", "Box", "--budget", "300", "--journal", journal,
        ]
    )
    assert rc == 0
    assert engine_events(journal) == [
        "RunStarted", "ClusterStarted", "ClusterFinished", "RunFinished", "CacheFlushed",
    ]
    assert one_trace(journal).roots[0].name == "cli.learn"
    # the journal is the command's: nothing emitted after it returns lands there
    assert trace_mod.journal_path() is None
    trace_mod.emit(RunFinished(0, 0.0, 0, 0, 0.0, 0))
    assert engine_events(journal)[-1] == "CacheFlushed"


def test_plane_promote_journal_holds_the_promotion(
    tmp_path, capsys, tiny_store, tiny_atlas_result, library_program
):
    from repro.service.store import STATE_CANDIDATE

    candidate = tiny_store.put(
        tiny_atlas_result,
        library_program=library_program,
        provenance={"parent": tiny_store.latest().spec_id},
        state=STATE_CANDIDATE,
    )
    journal = str(tmp_path / "promote.jsonl")
    rc = main(
        [
            "plane", "promote", "--store", str(tiny_store.root),
            "--spec", candidate.spec_id, "--journal", journal,
        ]
    )
    uninstall_journal(journal)
    assert rc == 0
    (promoted,) = [entry for entry in read_journal(journal) if entry.event == "SpecPromoted"]
    assert promoted.data["spec_id"] == candidate.spec_id
    assert engine_events(journal) == ["SpecPromoted"]


def test_journal_defaults_to_the_environment_variable(tmp_path, capsys, monkeypatch):
    journal = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_JOURNAL", journal)
    rc = main(
        [
            "fuzz", "--budget", "1", "--seed", "7", "--families", "alias-chains",
            "--no-golden", "--out", str(tmp_path / "report.json"),
        ]
    )
    uninstall_journal(journal)
    assert rc == 0
    assert any(entry.is_span for entry in read_journal(journal))


# -------------------------------------------------------------------- repro obs
@pytest.fixture
def sample_journal(tmp_path):
    """A small, real journal: one two-level trace plus a second root."""
    path = str(tmp_path / "sample.jsonl")
    sink = install_journal(path)
    try:
        with trace_mod.span("cli.analyze"):
            with trace_mod.span("analysis.analyze", program="App00"):
                pass
        with trace_mod.span("cli.other"):
            pass
    finally:
        uninstall_journal(path)
    assert sink is not None
    return path


def test_obs_summary_renders_the_table(sample_journal, capsys):
    assert main(["obs", "summary", "--journal", sample_journal]) == 0
    out = capsys.readouterr().out
    assert "2 traces" in out
    assert "analysis.analyze" in out
    assert "p99" in out


def test_obs_summary_json_is_parseable(sample_journal, capsys):
    assert main(["obs", "summary", "--json", "--journal", sample_journal]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["entries"] == 3
    assert summary["spans"]["cli.analyze"]["count"] == 1


def test_obs_trace_draws_the_tree_by_prefix(sample_journal, capsys):
    entries = read_journal(sample_journal)
    trace_id = next(e.trace_id for e in entries if e.data.get("name") == "cli.analyze")
    assert main(["obs", "trace", trace_id[:6], "--journal", sample_journal]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}: 2 spans" in out
    assert "cli.analyze" in out
    assert "analysis.analyze" in out and "[program=App00]" in out


def test_obs_trace_without_id_lists_the_traces(sample_journal, capsys):
    assert main(["obs", "trace", "--journal", sample_journal]) == 1
    err = capsys.readouterr().err
    assert "traces in this journal" in err
    assert len([line for line in err.splitlines() if "spans)" in line]) == 2


def test_obs_tail_prints_one_line_per_entry(sample_journal, capsys):
    assert main(["obs", "tail", "--journal", sample_journal, "--lines", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("span" in line for line in lines)


def test_obs_tail_skips_timestamps_the_clock_cannot_render(tmp_path, capsys):
    path = tmp_path / "journal.jsonl"
    good = json.dumps({"ts": 1.0, "event": "RunStarted", "data": {"run": "kept"}})
    foreign = [
        f'{{"event": "RunStarted", "ts": {ts}}}'
        for ts in ("1e300", "-1e300", "Infinity", "NaN", "true")
    ]
    path.write_text("\n".join([*foreign, good]) + "\n", encoding="utf-8")
    assert main(["obs", "tail", "--journal", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert "RunStarted" in lines[0] and "run=kept" in lines[0]


def test_obs_commands_fail_cleanly_without_a_journal(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_JOURNAL", raising=False)
    assert main(["obs", "summary"]) == 1
    assert "no journal given" in capsys.readouterr().err
    missing = str(tmp_path / "missing.jsonl")
    assert main(["obs", "summary", "--journal", missing]) == 1
    assert "no journal at" in capsys.readouterr().err


# --------------------------------------------------- parallel = serial (trees)
def test_fuzz_span_tree_is_identical_serial_vs_parallel(tmp_path):
    trees = {}
    for workers in (0, 2):
        path = str(tmp_path / f"fuzz-{workers}.jsonl")
        install_journal(path)
        try:
            with trace_mod.span("cli.fuzz"):
                report = run_fuzz(
                    FuzzConfig(
                        families=("alias-chains",), budget=4, seed=7, workers=workers
                    ),
                    golden_out=None,
                )
        finally:
            uninstall_journal(path)
        assert report.executor == ("parallel" if workers else "serial")
        trees[workers] = edge_multiset(path)
    assert trees[0] == trees[2]
    assert ("fuzz.campaign", "fuzz.check") in trees[0]


def test_batch_span_tree_is_identical_serial_vs_parallel(tmp_path, tiny_store):
    trees = {}
    for workers in (0, 2):
        path = str(tmp_path / f"batch-{workers}.jsonl")
        request = AnalyzeRequest(
            suite=SuiteSpec(count=3, max_statements=40), workers=workers
        )
        install_journal(path)
        try:
            with trace_mod.span("cli.analyze"):
                response = handle_request(request, tiny_store)
        finally:
            uninstall_journal(path)
        assert response.result.executor == ("parallel" if workers else "serial")
        trees[workers] = edge_multiset(path)
    assert trees[0] == trees[2]
    assert ("service.batch", "analysis.analyze") in trees[0]
