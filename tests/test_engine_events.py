"""Tests for engine telemetry events and sinks."""

import io

from repro.engine.events import (
    CacheFlushed,
    ClusterFinished,
    ClusterStarted,
    CollectingSink,
    RunFinished,
    RunStarted,
    StreamSink,
)
from repro.obs.trace import SpanFinished, ambient_sink, emit

SAMPLE_TYPES = (RunStarted, ClusterStarted, ClusterFinished, CacheFlushed, RunFinished)


def _sample_events():
    return [
        RunStarted(num_clusters=2, executor="serial", cache_entries=10),
        ClusterStarted(index=0, classes=("Box",)),
        ClusterFinished(
            index=0,
            classes=("Box",),
            elapsed_seconds=0.5,
            positives=3,
            fsa_states=4,
            oracle_queries=20,
            cache_hits=5,
        ),
        CacheFlushed(path="/tmp/cache.jsonl", entries_written=15, total_entries=40),
        RunFinished(
            num_clusters=2,
            elapsed_seconds=1.5,
            oracle_queries=40,
            cache_hits=10,
            hit_rate=0.25,
            witnesses_executed=30,
        ),
    ]


def _sampled(sink):
    """What *sink* received of the sample's event types (ambient sinks may
    also see whatever else this process emits meanwhile)."""
    return [event for event in sink.events if isinstance(event, SAMPLE_TYPES)]


def test_null_sink_swallows_everything():
    """With no sink listening, emit() delivers nothing and never raises."""
    for event in _sample_events():
        emit(event)  # must not raise


def test_collecting_sink_records_and_filters():
    sink = CollectingSink()
    for event in _sample_events():
        sink.emit(event)
    assert len(sink.events) == 5
    assert len(sink.of_type(ClusterFinished)) == 1
    assert sink.of_type(RunStarted)[0].executor == "serial"


def test_stream_sink_renders_one_line_per_event():
    stream = io.StringIO()
    sink = StreamSink(stream, prefix="> ")
    for event in _sample_events():
        sink.emit(event)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("> ") for line in lines)
    assert "2 clusters" in lines[0]
    assert "Box" in lines[1]
    assert "25.0% cache hits" in lines[-1]


def test_stream_sink_prints_the_two_request_spans():
    def finished(name, **attrs):
        return SpanFinished(
            name=name, trace_id="t", span_id=name, parent_id=None, started_at=0.0,
            elapsed_seconds=0.25, attrs=tuple(sorted(attrs.items())),
        )

    stream = io.StringIO()
    sink = StreamSink(stream, prefix="> ")
    sink.emit(finished("analysis.solve", program="App00", outcome="cold"))
    sink.emit(finished("analysis.analyze", program="App00", flows="2"))
    sink.emit(finished("service.batch", programs="1", executor="serial", flows="2"))
    sink.emit(finished("service.request"))
    assert stream.getvalue().splitlines() == [
        "> analysis finished: App00 in 0.250s (2 flows)",
        "> batch finished: 1 programs in 0.25s, 2 flows",
    ]


def test_fan_out_sink_broadcasts():
    """emit() hands each event once to every ambient sink, process-global
    and thread-local, even to one registered both ways."""
    first, second, both = CollectingSink(), CollectingSink(), CollectingSink()
    with ambient_sink(first), ambient_sink(second, thread_local=True):
        with ambient_sink(both), ambient_sink(both, thread_local=True):
            for event in _sample_events():
                emit(event)
    assert _sampled(first) == _sampled(second) == _sampled(both) == _sample_events()


# ----------------------------------------------------------- sink isolation
class _ExplodingSink(CollectingSink):
    def emit(self, event):
        super().emit(event)
        raise RuntimeError("sink is broken")


def test_fan_out_isolates_a_misbehaving_sink():
    """One broken sink must not starve its siblings of telemetry."""
    from repro.engine.events import dropped_event_count

    before_first, healthy = CollectingSink(), CollectingSink()
    exploding = _ExplodingSink()
    with ambient_sink(before_first), ambient_sink(exploding), ambient_sink(healthy):
        dropped_before = dropped_event_count()
        for event in _sample_events():
            emit(event)  # must not raise
        dropped = dropped_event_count() - dropped_before
    assert len(_sampled(before_first)) == 5
    assert len(_sampled(healthy)) == 5  # sinks *after* the broken one still fed
    assert len(_sampled(exploding)) == 5
    assert dropped == 5


def test_stream_sink_survives_a_closed_stream():
    from repro.engine.events import dropped_event_count

    stream = io.StringIO()
    sink = StreamSink(stream)
    stream.close()
    dropped_before = dropped_event_count()
    for event in _sample_events():
        sink.emit(event)  # must not raise
    assert dropped_event_count() == dropped_before + 5
