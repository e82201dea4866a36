"""Unit tests for trace spans: nesting, propagation, ambient delivery."""

import pickle
import threading

from repro.engine.events import CollectingSink
from repro.obs import trace
from repro.obs.trace import SpanFinished, TraceContext


def spans_of(sink):
    return [event for event in sink.events if isinstance(event, SpanFinished)]


def collecting():
    """A sink for the spans this thread finishes, registered thread-local."""
    return trace.ambient_sink(CollectingSink(), thread_local=True)


# ------------------------------------------------------------------ mechanics
def test_root_span_mints_a_fresh_trace():
    with collecting() as sink, trace.span("outer") as active:
        assert trace.current_context() is not None
        assert trace.current_context().trace_id == active.trace_id
    assert trace.current_context() is None
    (finished,) = spans_of(sink)
    assert finished.name == "outer"
    assert finished.parent_id is None
    assert finished.trace_id == finished.trace_id
    assert len(finished.trace_id) == 16
    assert finished.elapsed_seconds >= 0.0


def test_nested_spans_share_the_trace_and_parent_correctly():
    with collecting() as sink, trace.span("outer") as outer:
        with trace.span("inner") as inner:
            assert inner.trace_id == outer.trace_id
    inner_event, outer_event = spans_of(sink)
    assert inner_event.name == "inner"  # inner finishes (and emits) first
    assert inner_event.parent_id == outer_event.span_id
    assert outer_event.parent_id is None
    assert inner_event.trace_id == outer_event.trace_id
    # exiting the inner span restored the outer context before outer emitted
    assert outer_event.started_at <= inner_event.started_at


def test_forced_trace_id_roots_the_trace_under_the_callers_id():
    with collecting() as sink, trace.span("request", trace_id="cafe0123cafe0123"):
        pass
    (finished,) = spans_of(sink)
    assert finished.trace_id == "cafe0123cafe0123"


def test_forced_trace_id_is_ignored_when_already_inside_a_trace():
    with collecting() as sink, trace.span("outer") as outer:
        with trace.span("inner", trace_id="cafe0123cafe0123"):
            pass
    inner_event, _outer_event = spans_of(sink)
    assert inner_event.trace_id == outer.trace_id


def test_attrs_from_kwargs_and_set_are_stringified_and_sorted():
    with collecting() as sink, trace.span("work", b=2, a="x") as active:
        active.set("c", 3.5)
    (finished,) = spans_of(sink)
    assert finished.attrs == (("a", "x"), ("b", "2"), ("c", "3.5"))
    assert finished.attributes() == {"a": "x", "b": "2", "c": "3.5"}


def test_span_emits_even_when_the_body_raises():
    with collecting() as sink:
        try:
            with trace.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
    (finished,) = spans_of(sink)
    assert finished.name == "failing"
    assert trace.current_context() is None


def test_span_finished_is_picklable_and_frozen():
    with collecting(), trace.span("work"):
        pass
    event = SpanFinished(
        name="n", trace_id="t", span_id="s", parent_id=None,
        started_at=0.0, elapsed_seconds=0.1, attrs=(("k", "v"),),
    )
    assert pickle.loads(pickle.dumps(event)) == event


# ------------------------------------------------------------- ambient sinks
def test_process_ambient_sink_sees_spans_from_every_thread():
    sink = CollectingSink()
    with trace.ambient_sink(sink):
        with trace.span("main-thread"):
            pass

        def other():
            with trace.span("other-thread"):
                pass

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
    assert {event.name for event in spans_of(sink)} == {"main-thread", "other-thread"}
    with trace.span("after"):
        pass
    assert len(spans_of(sink)) == 2  # removed sinks stop receiving


def test_thread_local_ambient_sink_never_sees_other_threads():
    mine, theirs = CollectingSink(), CollectingSink()

    def other():
        trace.add_ambient_sink(theirs, thread_local=True)
        with trace.span("theirs"):
            pass

    with trace.ambient_sink(mine, thread_local=True):
        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        with trace.span("mine"):
            pass
    assert [event.name for event in spans_of(mine)] == ["mine"]
    assert [event.name for event in spans_of(theirs)] == ["theirs"]


def test_explicit_sink_overlapping_ambient_delivers_exactly_once():
    """A sink registered both process-global and thread-local: once."""
    sink = CollectingSink()
    with trace.ambient_sink(sink), trace.ambient_sink(sink, thread_local=True):
        with trace.span("once"):
            pass
    assert [event.name for event in spans_of(sink)] == ["once"]


# ------------------------------------------------------ cross-thread, -process
def test_activate_adopts_a_context_and_restores_the_previous_one():
    parent = TraceContext(trace_id="feed0123feed0123", span_id="0123456789abcdef")
    with collecting() as sink, trace.activate(parent):
        assert trace.current_context() == parent
        with trace.span("child"):
            pass
    assert trace.current_context() is None
    (finished,) = spans_of(sink)
    assert finished.trace_id == parent.trace_id
    assert finished.parent_id == parent.span_id


def test_activate_none_is_a_no_op():
    with trace.activate(None):
        assert trace.current_context() is None


def test_capture_is_none_outside_any_trace_or_journal():
    assert trace.current_context() is None
    assert trace.journal_path() is None or isinstance(trace.journal_path(), str)
    if trace.journal_path() is None:
        assert trace.capture() is None


def test_capture_and_adopt_round_trip_the_context():
    sink = CollectingSink()
    with trace.span("parent") as parent:
        state = trace.capture()
    assert state is not None
    assert pickle.loads(pickle.dumps(state)) == state

    def worker():
        trace.adopt(pickle.loads(pickle.dumps(state)))
        with trace.ambient_sink(sink, thread_local=True), trace.span("adopted"):
            pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    (finished,) = spans_of(sink)
    assert finished.trace_id == parent.trace_id
    assert finished.parent_id == parent.span_id


def test_adopt_none_leaves_the_thread_traceless():
    trace.adopt(None)
    assert trace.current_context() is None
