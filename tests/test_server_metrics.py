"""Tests for the daemon's metrics registry and its engine-event feed."""

import pytest

from repro.engine.events import SpecCompiled, SpecReloaded
from repro.obs.trace import SpanFinished
from repro.server.metrics import MetricsSink, ServerMetrics, percentile


# ------------------------------------------------------------------ percentiles
def test_percentile_of_empty_list_raises():
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_percentile_single_element_is_that_element():
    assert percentile([0.25], 50.0) == 0.25
    assert percentile([0.25], 99.0) == 0.25


def test_percentile_nearest_rank():
    values = [float(i) for i in range(1, 101)]  # 1.0 .. 100.0, sorted
    assert percentile(values, 50.0) == 50.0  # ceil(0.50 * 100) = 50th value
    assert percentile(values, 90.0) == 90.0
    assert percentile(values, 99.0) == 99.0
    assert percentile(values, 99.9) == 100.0


# --------------------------------------------------------------------- requests
def test_record_request_counts_by_status_and_rejections():
    metrics = ServerMetrics()
    metrics.record_request(200, 0.010)
    metrics.record_request(200, 0.030)
    metrics.record_request(400, 0.001)
    metrics.record_request(503, 0.0005)
    snapshot = metrics.snapshot()
    assert snapshot["requests"]["total"] == 4
    assert snapshot["requests"]["by_status"] == {"200": 2, "400": 1, "503": 1}
    assert snapshot["requests"]["rejected"] == 1
    # only the 200s feed the latency window: near-instant rejections must
    # not drown out served-request percentiles under backpressure
    assert snapshot["latency"]["count"] == 2
    assert snapshot["latency"]["percentiles_seconds"]["p50"] == pytest.approx(0.010)
    assert snapshot["latency"]["percentiles_seconds"]["p99"] == pytest.approx(0.030)
    assert snapshot["latency"]["max_seconds"] == pytest.approx(0.030)


def test_latency_window_is_bounded():
    metrics = ServerMetrics(latency_window=8)
    for index in range(100):
        metrics.record_request(200, float(index))
    snapshot = metrics.snapshot()
    assert snapshot["latency"]["count"] == 8
    # only the most recent 8 latencies survive
    assert snapshot["latency"]["percentiles_seconds"]["p50"] >= 92.0


# ----------------------------------------------------------------- event feed
def test_metrics_sink_counts_engine_events():
    metrics = ServerMetrics()
    sink = MetricsSink(metrics)
    sink.emit(SpecCompiled(worker="worker-0", spec_id="s-v1", elapsed_seconds=0.5))
    sink.emit(SpecCompiled(worker="worker-1", spec_id="s-v1", elapsed_seconds=0.4))
    sink.emit(SpecCompiled(worker="worker-0", spec_id="s-v2", elapsed_seconds=0.3))
    sink.emit(SpecReloaded(previous_spec_id="s-v1", spec_id="s-v2"))
    for index in range(3):
        sink.emit(
            SpanFinished(
                name="analysis.analyze",
                trace_id="t",
                span_id=f"a{index}",
                parent_id="b",
                started_at=0.0,
                elapsed_seconds=0.01,
                attrs=(("flows", "2"), ("program", f"App{index:02d}")),
            )
        )
    sink.emit(
        SpanFinished(
            name="service.batch",
            trace_id="t",
            span_id="b",
            parent_id=None,
            started_at=0.0,
            elapsed_seconds=0.05,
            attrs=(("executor", "serial"), ("flows", "6"), ("programs", "3")),
        )
    )

    snapshot = metrics.snapshot()
    assert snapshot["specs"]["compilations"] == 3
    assert snapshot["specs"]["compilations_by_worker"] == {"worker-0": 2, "worker-1": 1}
    assert snapshot["specs"]["hot_reloads"] == 1
    assert snapshot["analyses"] == {"programs": 3, "flows": 6, "batches": 1}


def test_snapshot_carries_live_gauges():
    metrics = ServerMetrics()
    snapshot = metrics.snapshot(queue_depth=3, queue_capacity=16, workers=4)
    assert snapshot["queue"] == {"depth": 3, "capacity": 16}
    assert snapshot["workers"] == 4
    assert snapshot["uptime_seconds"] >= 0.0
    # gauges are omitted when the caller has none to report
    assert "queue" not in metrics.snapshot()
