"""Unit tests for the JSONL telemetry journal: envelopes, durability, reads."""

import json

from repro.engine.events import SpecCompiled, dropped_event_count
from repro.obs import trace
from repro.obs.journal import (
    JOURNAL_FORMAT,
    JournalSink,
    install_journal,
    parse_journal_line,
    read_journal,
    uninstall_journal,
)


def compiled(spec_id="s-v1", worker="proc-0"):
    return SpecCompiled(worker=worker, spec_id=spec_id, elapsed_seconds=0.0)


def test_span_envelope_carries_the_spans_own_ids(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    sink = JournalSink(path)
    with trace.ambient_sink(sink, thread_local=True), trace.span("outer"):
        with trace.span("inner"):
            pass
    sink.close()

    raw = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert [entry["format"] for entry in raw] == [JOURNAL_FORMAT, JOURNAL_FORMAT]
    inner, outer = raw
    assert inner["event"] == "SpanFinished"
    assert inner["trace_id"] == outer["trace_id"]
    assert inner["parent_id"] == outer["span_id"]
    assert outer["parent_id"] is None
    assert inner["ts"] > 0
    assert inner["data"]["name"] == "inner"
    assert inner["data"]["elapsed_seconds"] >= 0.0


def test_plain_events_are_stamped_with_the_ambient_context(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    sink = JournalSink(path)
    event = compiled("s-v1", worker="proc-3")
    with trace.ambient_sink(sink, thread_local=True):
        with trace.span("request") as active:
            trace.emit(event)
    sink.emit(event)  # outside any span: no trace id
    sink.close()

    entries = read_journal(path)
    assert [entry.event for entry in entries] == [
        "SpecCompiled",
        "SpanFinished",
        "SpecCompiled",
    ]
    inside, span_entry, outside = entries
    assert inside.trace_id == active.trace_id
    assert inside.span_id == span_entry.span_id
    assert inside.data["spec_id"] == "s-v1"
    assert outside.trace_id is None


def test_malformed_and_foreign_lines_are_skipped(tmp_path):
    path = tmp_path / "journal.jsonl"
    good = json.dumps(
        {"format": JOURNAL_FORMAT, "ts": 1.0, "trace_id": None, "span_id": None,
         "parent_id": None, "event": "RunStarted", "data": {}}
    )
    # foreign field types and non-UTF-8 bytes: skipped, never raised on
    foreign = [
        b'{"event": "RunStarted", "ts": "abc"}',
        b'{"event": "RunStarted", "ts": null}',
        b'{"event": "RunStarted", "data": [1]}',
        b'{"event": "RunStarted", "trace_id": 7}',
        b'{"event": "Run\xffStarted"}',  # not UTF-8
        # numbers the local clock cannot render, and a boolean
        b'{"event": "RunStarted", "ts": 1e300}',
        b'{"event": "RunStarted", "ts": -1e300}',
        b'{"event": "RunStarted", "ts": Infinity}',
        b'{"event": "RunStarted", "ts": NaN}',
        b'{"event": "RunStarted", "ts": true}',
    ]
    lines = [b"not json at all", b'{"no": "event key"}', b'["a list"]', *foreign]
    path.write_bytes(b"\n".join([*lines, good.encode("utf-8"), b'{"torn']) + b"\n")
    entries = read_journal(str(path))
    assert [entry.event for entry in entries] == ["RunStarted"]
    assert all(parse_journal_line(line) is None for line in lines)
    assert parse_journal_line("") is None
    assert parse_journal_line("{bad") is None
    assert parse_journal_line(good).event == "RunStarted"


def test_broken_sink_counts_drops_instead_of_raising(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    sink = JournalSink(path)
    sink.close()  # further emits hit a closed handle
    before = dropped_event_count()
    sink.emit(compiled("s-v1"))
    sink.emit(compiled("s-v2"))
    assert dropped_event_count() == before + 2
    assert read_journal(path) == []


def test_install_journal_is_idempotent_and_ambient(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    sink = install_journal(path)
    try:
        assert install_journal(path) is sink
        assert trace.journal_path() == path
        with trace.span("ambient"):
            pass
        # ambient delivery plus capture() now propagate the journal
        state = trace.capture()
        assert state == {"context": None, "journal": path}
    finally:
        uninstall_journal(path)
    assert trace.journal_path() is None
    entries = read_journal(path)
    assert [entry.data["name"] for entry in entries if entry.is_span] == ["ambient"]
    with trace.span("after-uninstall"):
        pass
    assert len(read_journal(path)) == len(entries)


def test_concurrent_appends_interleave_but_never_tear(tmp_path):
    import threading

    path = str(tmp_path / "journal.jsonl")
    sinks = [JournalSink(path) for _ in range(4)]

    def hammer(sink, worker):
        for index in range(25):
            sink.emit(compiled(f"w{worker}-{index}", worker=f"proc-{worker}"))

    threads = [
        threading.Thread(target=hammer, args=(sink, worker))
        for worker, sink in enumerate(sinks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for sink in sinks:
        sink.close()
    entries = read_journal(path)
    assert len(entries) == 100
    assert {entry.data["spec_id"] for entry in entries} == {
        f"w{worker}-{index}" for worker in range(4) for index in range(25)
    }
