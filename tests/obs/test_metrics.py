"""The telemetry substrate: registry, instruments, flight ring, rendering.

These pin the contracts the instrumented pipeline relies on: instrument
identity under ``(name, labels)`` keying, the disabled registry's
true-no-op behavior (shared singletons, nothing retained), snapshot
shape, the flight recorder's ring bound, and the sum-consistency helper
``total_seconds`` the overhead bench builds its coverage check on.
"""

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    next_request_id,
    render_flight,
    render_snapshot,
)
from repro.obs.metrics import _NULL_INSTRUMENT


class TestInstruments:
    def test_counter_monotonic(self):
        counter = MetricsRegistry().counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge_set_outright(self):
        gauge = MetricsRegistry().gauge("x")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_accounting(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004, 0.1):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(0.107)
        assert hist.min == pytest.approx(0.001)
        assert hist.max == pytest.approx(0.1)
        assert hist.mean == pytest.approx(0.107 / 4)

    def test_histogram_percentiles_ordered_and_bounded(self):
        hist = Histogram()
        for i in range(1, 101):
            hist.observe(i / 1000.0)  # 1ms .. 100ms
        p50, p95, p99 = (hist.percentile(q) for q in (50, 95, 99))
        assert p50 <= p95 <= p99
        assert hist.min <= p50
        assert p99 <= hist.max

    def test_histogram_overflow_past_last_bound(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.count == 1
        assert hist.percentile(99) == pytest.approx(50.0)

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p99"] is None

    def test_summary_keys(self):
        hist = Histogram()
        hist.observe(0.5)
        assert set(hist.summary()) == {
            "count", "total", "mean", "min", "max", "p50", "p95", "p99",
        }

    def test_default_bucket_sets_ascend(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)


class TestRegistry:
    def test_instruments_keyed_by_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")
        assert registry.counter("a", view="x") is not registry.counter("a")
        # Label order is irrelevant to identity.
        assert registry.histogram("h", a=1, b=2) is registry.histogram(
            "h", b=2, a=1
        )

    def test_snapshot_renders_prometheus_style_keys(self):
        registry = MetricsRegistry()
        registry.counter("ingest.errors", subscriber="engine").inc(2)
        registry.gauge("depth").set(9)
        registry.histogram("fold.seconds", view="taint").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["counters"] == {
            "ingest.errors{subscriber=engine}": 2
        }
        assert snapshot["gauges"] == {"depth": 9}
        summary = snapshot["histograms"]["fold.seconds{view=taint}"]
        assert summary["count"] == 1
        assert summary["total"] == pytest.approx(0.25)

    def test_gauge_fn_sampled_at_snapshot_time(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge_fn("box.value", lambda: box["value"])
        assert registry.snapshot()["gauges"]["box.value"] == 1
        box["value"] = 42
        assert registry.snapshot()["gauges"]["box.value"] == 42

    def test_total_seconds_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.histogram("fanout", subscriber="engine").observe(0.5)
        registry.histogram("fanout", subscriber="taint").observe(0.25)
        registry.histogram("other").observe(10.0)
        assert registry.total_seconds("fanout") == pytest.approx(0.75)
        assert registry.total_seconds("missing") == 0.0


class TestDisabledRegistry:
    def test_factories_hand_out_shared_noop_singleton(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is _NULL_INSTRUMENT
        assert registry.gauge("b") is _NULL_INSTRUMENT
        assert registry.histogram("c") is _NULL_INSTRUMENT
        # Mutations vanish; nothing is retained anywhere.
        registry.counter("a").inc(100)
        registry.histogram("c").observe(5.0)
        registry.gauge_fn("d", lambda: 1)
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is False
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_flight_recorder_disabled(self):
        registry = MetricsRegistry(enabled=False)
        registry.flight.record("block", height=0)
        assert len(registry.flight) == 0
        assert registry.flight.dump() == []

    def test_null_registry_is_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.counter("x") is _NULL_INSTRUMENT


class TestFlightRecorder:
    def test_ring_bound_keeps_newest(self):
        flight = FlightRecorder(capacity=4)
        for height in range(10):
            flight.record("block", height=height)
        assert len(flight) == 4
        dump = flight.dump()
        assert [span["height"] for span in dump] == [6, 7, 8, 9]
        assert all(span["kind"] == "block" for span in dump)

    def test_dump_returns_copies(self):
        flight = FlightRecorder()
        flight.record("block", height=0)
        flight.dump()[0]["height"] = 99
        assert flight.dump()[0]["height"] == 0


class TestRequestIds:
    def test_unique_and_prefixed(self):
        first, second = next_request_id(), next_request_id()
        assert first != second
        assert first.startswith("req-")
        assert second.startswith("req-")


class TestRendering:
    def test_snapshot_table_formats_by_unit(self):
        registry = MetricsRegistry()
        registry.counter("engine.merges").inc(3)
        registry.histogram("ingest.index_seconds").observe(0.002)
        registry.histogram("engine.h1_pairs", buckets=COUNT_BUCKETS).observe(
            269.0
        )
        rendered = render_snapshot(registry.snapshot())
        assert "engine.merges" in rendered
        assert "2.00ms" in rendered  # durations format as time...
        assert "269" in rendered
        assert "269.000s" not in rendered  # ...counts never do

    def test_empty_snapshot_and_flight(self):
        assert render_snapshot({}) == "no metrics recorded"
        assert render_flight([]) == "flight recorder: empty"

    def test_flight_tail(self):
        spans = [{"kind": "block", "height": h} for h in range(30)]
        rendered = render_flight(spans, tail=2)
        assert "height=29" in rendered
        assert "height=0" not in rendered
