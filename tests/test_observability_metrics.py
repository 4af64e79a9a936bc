"""Unit tests for the observability metrics, recorder and facade.

Covers the metric primitives (counter / gauge / histogram semantics),
the registry (get-or-create, type conflicts, canonical snapshot), the
Prometheus text exporter round-trip through the strict parser, the
JSON exporter, the trace recorder's ring-buffer bookkeeping and the
:class:`Observability` facade (driver phases as spans).
"""

import json

import pytest

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.observability import (
    ConformanceMonitor,
    Observability,
    StreamSlo,
    TraceRecorder,
    MetricsRegistry,
    parse_prometheus_text,
)


def _edf_scheduler(observer, n_slots: int = 2) -> ShareStreamsScheduler:
    arch = ArchConfig(n_slots=n_slots, routing=Routing.WR, wrap=False)
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
        for i in range(n_slots)
    ]
    return ShareStreamsScheduler(arch, streams, observer=observer)


class TestCounter:
    def test_inc_and_value(self):
        c = MetricsRegistry().counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self):
        c = MetricsRegistry().counter("x_total")
        c.inc(stream=0)
        c.inc(3, stream=1)
        assert c.value(stream=0) == 1
        assert c.value(stream=1) == 3
        assert c.value(stream=7) == 0
        assert c.total() == 4
        assert c.label_sets() == [{"stream": "0"}, {"stream": "1"}]

    def test_rejects_negative_increment(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_rejects_nan_increment(self):
        """NaN fails every comparison, so a plain ``amount < 0`` guard
        let it through and the series stayed NaN for good."""
        r = MetricsRegistry()
        c = r.counter("x_total")
        c.inc(2, stream=1)
        with pytest.raises(ValueError):
            c.inc(float("nan"), stream=1)
        with pytest.raises(ValueError):
            c.labels(stream=1).inc(float("nan"))
        with pytest.raises(ValueError):
            c.inc(float("nan"), stream=2)
        assert c.value(stream=1) == 2
        assert c.label_sets() == [{"stream": "1"}]  # no series for stream 2
        assert parse_prometheus_text(r.to_prometheus_text()) == r.snapshot()


class TestSeriesHandles:
    """``labels()`` handles and ``**labels`` updates name series alike."""

    def test_int_and_str_label_values_share_a_series(self):
        c = MetricsRegistry().counter("x_total")
        c.inc(stream=1)
        c.inc(stream="1")
        c.labels(stream=1).inc()
        c.labels(stream="1").inc()
        assert c.labels(stream=1) is c.labels(stream="1")
        assert c.value(stream=1) == 4
        assert c.label_sets() == [{"stream": "1"}]

    def test_bool_and_float_label_values_stay_separate(self):
        # True == 1 == 1.0 and they hash alike, but render differently.
        c = MetricsRegistry().counter("x_total")
        c.labels(stream=1).inc()
        c.labels(stream=True).inc(2)
        c.inc(3, stream=1.0)
        c.inc(4, stream=True)
        assert c.label_sets() == [
            {"stream": "1"},
            {"stream": "1.0"},
            {"stream": "True"},
        ]
        assert c.value(stream=1) == 1
        assert c.value(stream=1.0) == 3
        assert c.value(stream=True) == 6

    def test_handle_and_kwargs_updates_land_in_one_series(self):
        r = MetricsRegistry()
        c = r.counter("x_total")
        c.labels(stream=0, kind="a").inc(2)
        c.inc(3, kind="a", stream=0)
        g = r.gauge("depth")
        g.labels(stream=0).set(5)
        g.inc(-2, stream=0)
        g.labels(stream=0).inc(1)
        h = r.histogram("lat", buckets=(1, 10))
        h.labels(stream=0).observe(0.5)
        h.observe(5, stream=0)
        assert c.value(kind="a", stream=0) == 5
        assert g.value(stream=0) == 4
        assert h.count(stream=0) == 2 and h.sum(stream=0) == 5.5
        assert r.snapshot() == {
            "depth": {"type": "gauge", "samples": {'depth{stream="0"}': 4.0}},
            "lat": {
                "type": "histogram",
                "samples": {
                    'lat_bucket{stream="0",le="1"}': 1.0,
                    'lat_bucket{stream="0",le="10"}': 2.0,
                    'lat_bucket{stream="0",le="+Inf"}': 2.0,
                    'lat_sum{stream="0"}': 5.5,
                    'lat_count{stream="0"}': 2.0,
                },
            },
            "x_total": {
                "type": "counter",
                "samples": {'x_total{kind="a",stream="0"}': 5.0},
            },
        }

    def test_resolved_series_exports_at_zero(self):
        r = MetricsRegistry()
        r.counter("x_total").labels(stream=3)
        assert r.snapshot()["x_total"]["samples"] == {'x_total{stream="3"}': 0.0}
        assert parse_prometheus_text(r.to_prometheus_text()) == r.snapshot()


class TestGauge:
    def test_set_and_inc(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3

    def test_labeled(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4, stream=2)
        assert g.value(stream=2) == 4
        assert g.value() == 0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 555.5
        names = dict(
            ((name, labels), value) for name, labels, value in h.sample_lines()
        )
        assert names[("lat_bucket", '{le="1"}')] == 1
        assert names[("lat_bucket", '{le="10"}')] == 2
        assert names[("lat_bucket", '{le="100"}')] == 3
        assert names[("lat_bucket", '{le="+Inf"}')] == 4

    def test_rejects_bad_buckets(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.histogram("a", buckets=())
        with pytest.raises(ValueError):
            r.histogram("b", buckets=(1, 1))
        with pytest.raises(ValueError):
            r.histogram("c", buckets=(1, float("nan")))

    def test_nan_lands_only_in_the_inf_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1, 10))
        h.observe(0.5)
        h.observe(float("nan"))
        rows = {labels: value for _name, labels, value in h.sample_lines()}
        assert rows['{le="1"}'] == 1 and rows['{le="10"}'] == 1
        assert rows['{le="+Inf"}'] == 2 and h.count() == 2
        assert h.sum() != h.sum()  # _sum goes NaN

    def test_label_sets(self):
        h = MetricsRegistry().histogram("lat", buckets=(1,))
        h.observe(0.5, stream=1)
        h.observe(0.5, stream=0)
        assert h.label_sets() == [{"stream": "0"}, {"stream": "1"}]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("a_total") is r.counter("a_total")

    def test_type_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a_total")
        with pytest.raises(TypeError):
            r.gauge("a_total")

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("a_total").inc(2, stream=1)
        r.gauge("d").set(7)
        snap = r.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["samples"] == {'a_total{stream="1"}': 2.0}
        assert snap["d"]["samples"] == {"d": 7.0}

    def test_clear_resets_samples(self):
        r = MetricsRegistry()
        r.counter("a_total").inc()
        r.clear()
        assert r.counter("a_total").value() == 0


class TestPrometheusRoundTrip:
    def _populated(self) -> MetricsRegistry:
        r = MetricsRegistry()
        r.counter("req_total", "requests").inc(3, stream=0)
        r.counter("req_total").inc(1, stream=1)
        r.gauge("depth", "queue depth").set(2.5, stream=0)
        h = r.histogram("lat", "latency", buckets=(1, 8))
        h.observe(0.5, stream=0)
        h.observe(100, stream=0)
        return r

    def test_round_trip_equals_snapshot(self):
        r = self._populated()
        assert parse_prometheus_text(r.to_prometheus_text()) == r.snapshot()

    def test_text_contains_type_and_help(self):
        text = self._populated().to_prometheus_text()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{stream="0",le="+Inf"} 2' in text

    def test_integral_values_render_without_decimal(self):
        text = self._populated().to_prometheus_text()
        assert 'req_total{stream="0"} 3\n' in text
        assert 'depth{stream="0"} 2.5' in text

    def test_json_round_trip(self):
        r = self._populated()
        assert json.loads(r.to_json()) == r.snapshot()

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all!")

    def test_parser_rejects_sample_without_type(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("orphan_metric 3\n")


class TestTraceRecorder:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_eviction_is_never_silent(self):
        recorder = TraceRecorder(capacity=4)
        s = _edf_scheduler(recorder)
        for t in range(8):
            s.enqueue(0, deadline=t + 1, arrival=t)
            s.decision_cycle(t)
        assert recorder.recorded == 8
        assert recorder.evicted == 4
        with pytest.raises(ValueError):
            recorder.serialize()
        # Explicit opt-in still works and keeps only the tail.
        data = recorder.serialize(allow_truncated=True)
        assert len(data.splitlines()) == 4

    @pytest.mark.parametrize("capacity", [1, 3, 5, 8])
    def test_eviction_counts_multi_event_cycles(self, capacity):
        """Capacity counts whole cycles; ``recorded`` and ``evicted``
        count their events, and the retained tail starts at a cycle."""
        from tests.test_observability_rollup import FakeOutcome

        recorder = TraceRecorder(capacity=capacity)
        cycles = []
        for t, misses in enumerate([(0,), (), (0, 1, 2), (1,), ()]):
            outcome = FakeOutcome(t, winner=0, serviced=(0,), misses=misses)
            recorder.on_decision(outcome)
            cycles.append([t] * (1 + len(misses)))
        kept = [t for cycle in cycles[-capacity:] for t in cycle]
        assert recorder.recorded == 10
        assert recorder.evicted == 10 - len(kept)
        assert len(recorder) == len(kept)
        assert recorder.cycles == min(capacity, 5)
        assert [e.now for e in recorder] == kept
        assert [e.seq for e in recorder] == list(range(10 - len(kept), 10))

    def test_clear_resets_everything(self):
        recorder = TraceRecorder(capacity=2)
        s = _edf_scheduler(recorder)
        for t in range(4):
            s.decision_cycle(t)
        recorder.clear()
        assert recorder.recorded == 0
        assert recorder.evicted == 0
        assert not list(recorder.events())
        # Sequence numbering restarts.
        s.decision_cycle(4)
        assert list(recorder.events())[0].seq == 0

    def test_kind_filter(self):
        recorder = TraceRecorder()
        s = _edf_scheduler(recorder)
        s.enqueue(0, deadline=1, arrival=0)
        s.decision_cycle(0)
        s.decision_cycle(5)  # idle decide
        assert len(list(recorder.events("decide"))) == 2
        assert recorder.kinds() == {"decide": 2}


class TestObservabilityFacade:
    def test_sinks_toggle_independently(self):
        obs = Observability(trace=False, metrics=True, profile=False)
        assert obs.recorder is None
        assert obs.tracer is None
        s = _edf_scheduler(obs)
        s.enqueue(0, deadline=1, arrival=0)
        s.decision_cycle(0)
        assert obs.metrics.counter("sharestreams_decisions_total").value() == 1

    def test_phase_is_usable_without_profiler(self):
        obs = Observability(profile=False)
        with obs.phase("anything"):
            pass  # must be a no-op context, not an error

    def test_render_mentions_all_sections(self):
        obs = Observability()
        s = _edf_scheduler(obs)
        s.enqueue(0, deadline=1, arrival=0)
        with obs.phase("unit.test"):
            s.decision_cycle(0)
        out = obs.render()
        assert "decide" in out
        assert "sharestreams_decisions_total" in out
        assert "unit.test" in out

    def test_phases_become_one_span_each(self):
        obs = Observability()
        for _ in range(3):
            with obs.phase("refill"):
                pass
        with obs.phase("decide"):
            pass
        assert obs.phase("refill") is obs.phase("refill")
        obs.finalize()
        obs.finalize()  # nothing new to flush
        spans = [(r.name, r.kind, r.tags) for r in obs.tracer.records()]
        assert spans == [
            ("refill", "phase", {"calls": 3}),
            ("decide", "phase", {"calls": 1}),
        ]
        assert "refill" in obs.render()

    def test_clear_resets_all_sinks(self):
        obs = Observability()
        s = _edf_scheduler(obs)
        s.enqueue(0, deadline=1, arrival=0)
        with obs.phase("p"):
            s.decision_cycle(0)
        obs.clear()
        assert obs.recorder.recorded == 0
        assert not obs.tracer.records()
        snapshot = obs.metrics.snapshot()
        assert all(not family["samples"] for family in snapshot.values())

    def test_clear_keeps_slo_metrics_exported(self):
        """A monitor attached before a clear keeps exporting its SLO
        violation counter and burn-rate gauge after it."""
        obs = Observability(trace=False, profile=False)
        obs.monitor = ConformanceMonitor(
            [StreamSlo(sid=0, miss_budget=0)],
            window_cycles=8,
            registry=obs.metrics,
        )

        def overloaded_run():
            s = _edf_scheduler(obs)
            for t in range(64):
                for sid in (0, 1):
                    s.enqueue(sid, deadline=t, arrival=t)
                s.decision_cycle(t)
            obs.finalize()

        overloaded_run()
        obs.clear()
        overloaded_run()
        assert obs.monitor.violations
        text = obs.metrics.to_prometheus_text()
        assert (
            'sharestreams_slo_violations_total{objective="miss_budget",stream="0"}'
            in text
        )
        assert "sharestreams_slo_burn_rate{" in text
