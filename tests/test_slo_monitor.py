"""Tests for declarative SLOs, burn rates and conformance monitoring."""

import json
import math

import pytest

from repro.observability import (
    ConformanceMonitor,
    MetricsRegistry,
    SloMonitor,
    StreamSlo,
    slos_from_shares,
    slos_from_streams,
)
from repro.observability.rollup import RollupObserver, StreamWindowStats, WindowRollup


def make_window(index=0, streams=None, total_serviced=None, cycles=10):
    streams = streams or {}
    if total_serviced is None:
        total_serviced = sum(s.serviced for s in streams.values())
    return WindowRollup(
        index=index,
        start_cycle=index * cycles,
        end_cycle=index * cycles + cycles - 1,
        cycles=cycles,
        idle_cycles=0,
        total_serviced=total_serviced,
        total_misses=sum(s.misses for s in streams.values()),
        total_drops=sum(s.drops for s in streams.values()),
        streams=streams,
    )


def stats(sid, *, serviced=0, misses=0, drops=0, share=0.0, gap_max=0.0):
    return StreamWindowStats(
        sid=sid,
        serviced=serviced,
        wins=serviced,
        misses=misses,
        drops=drops,
        service_share=share,
        service_rate=serviced / 10,
        miss_rate=misses / 10,
        drop_rate=drops / 10,
        gap_p50=0.0,
        gap_p90=0.0,
        gap_max=gap_max,
    )


class TestStreamSlo:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamSlo(sid=0, miss_budget=-1)
        with pytest.raises(ValueError):
            StreamSlo(sid=0, min_share=1.5)
        with pytest.raises(ValueError):
            StreamSlo(sid=0, min_share=0.8, max_share=0.2)
        with pytest.raises(ValueError):
            StreamSlo(sid=0, max_gap=0)

    def test_objectives_listing(self):
        slo = StreamSlo(sid=0, miss_budget=2, min_share=0.1, max_gap=8)
        assert slo.objectives == ("miss_budget", "share_band", "max_gap")
        assert StreamSlo(sid=1).objectives == ()


class TestSloMonitorEvaluation:
    def test_miss_budget_violated_only_when_exceeded(self):
        m = SloMonitor([StreamSlo(sid=0, miss_budget=3)])
        m.on_rollup(make_window(streams={0: stats(0, misses=3)}))
        assert m.violations == []
        m.on_rollup(make_window(index=1, streams={0: stats(0, misses=4)}))
        [v] = m.violations
        assert v.objective == "miss_budget"
        assert v.observed == 4.0 and v.threshold == 3.0
        assert v.burn_rate == pytest.approx(4 / 3)

    def test_zero_budget_burn_is_inf(self):
        m = SloMonitor([StreamSlo(sid=0, miss_budget=0)])
        m.on_rollup(make_window(streams={0: stats(0, misses=1)}))
        [v] = m.violations
        assert math.isinf(v.burn_rate)

    def test_share_band_both_sides(self):
        m = SloMonitor([StreamSlo(sid=0, min_share=0.2, max_share=0.6)])
        m.on_rollup(
            make_window(streams={0: stats(0, serviced=1, share=0.1)})
        )
        m.on_rollup(
            make_window(index=1, streams={0: stats(0, serviced=7, share=0.7)})
        )
        low, high = m.violations
        assert low.threshold == 0.2 and low.observed == pytest.approx(0.1)
        assert high.threshold == 0.6 and high.observed == pytest.approx(0.7)
        # Both burns are normalized > 1.
        assert low.burn_rate == pytest.approx(2.0)
        assert high.burn_rate == pytest.approx(0.7 / 0.6)

    def test_share_band_skipped_on_all_idle_window(self):
        m = SloMonitor([StreamSlo(sid=0, min_share=0.5)])
        m.on_rollup(make_window(streams={}, total_serviced=0))
        assert m.violations == []

    def test_monitored_stream_absent_from_window(self):
        """A stream with a min-share SLO that got zero service in a
        busy window is a (starvation) violation; its miss budget is
        trivially met."""
        m = SloMonitor([StreamSlo(sid=7, miss_budget=5, min_share=0.25)])
        m.on_rollup(
            make_window(streams={0: stats(0, serviced=10, share=1.0)})
        )
        [v] = m.violations
        assert v.sid == 7 and v.objective == "share_band" and v.observed == 0.0

    def test_max_gap(self):
        m = SloMonitor([StreamSlo(sid=0, max_gap=8)])
        m.on_rollup(
            make_window(streams={0: stats(0, serviced=2, share=1.0, gap_max=8.0)})
        )
        assert m.violations == []
        m.on_rollup(
            make_window(
                index=1,
                streams={0: stats(0, serviced=2, share=1.0, gap_max=9.0)},
            )
        )
        [v] = m.violations
        assert v.objective == "max_gap" and v.observed == 9.0

    def test_max_gap_skipped_without_service_history(self):
        m = SloMonitor([StreamSlo(sid=0, max_gap=1)])
        m.on_rollup(make_window(streams={0: stats(0, gap_max=0.0)}))
        assert m.violations == []

    def test_duplicate_slo_rejected(self):
        with pytest.raises(ValueError):
            SloMonitor([StreamSlo(sid=0), StreamSlo(sid=0)])

    def test_subscribers_and_active(self):
        m = SloMonitor([StreamSlo(sid=0, miss_budget=0)])
        seen = []
        m.subscribe(seen.append)
        m.on_rollup(make_window(streams={0: stats(0, misses=1)}))
        m.on_rollup(make_window(index=1, streams={0: stats(0, misses=1)}))
        assert len(seen) == 2
        assert [v.window_index for v in m.active()] == [1]
        assert [v.window_index for v in m.active(0)] == [0]

    def test_violation_serialization(self):
        m = SloMonitor([StreamSlo(sid=2, miss_budget=1)])
        m.on_rollup(make_window(streams={2: stats(2, misses=5)}))
        [v] = m.violations
        line = json.loads(v.canonical_line())
        assert line == v.to_dict()
        assert "stream 2" in v.describe() and "miss_budget" in v.describe()

    def test_registry_counters_and_burn_gauges(self):
        registry = MetricsRegistry()
        m = SloMonitor(
            [StreamSlo(sid=0, miss_budget=2)], registry=registry, prefix="t"
        )
        m.on_rollup(make_window(streams={0: stats(0, misses=6)}))
        counter = registry.get("t_slo_violations_total")
        assert counter.value(stream=0, objective="miss_budget") == 1.0
        gauge = registry.get("t_slo_burn_rate")
        assert gauge.value(stream=0, objective="miss_budget") == pytest.approx(3.0)


class TestRunSummaryEvaluation:
    """The array engine's vectorized run_periodic path reports no
    per-cycle events; conformance is evaluated on the final counters
    with budgets rescaled to the run length."""

    def test_budget_scaling(self):
        import numpy as np

        class Result:
            decision_cycles = 1000
            serviced = np.array([600, 400])
            misses = np.array([15, 0])

        m = SloMonitor([StreamSlo(sid=0, miss_budget=1), StreamSlo(sid=1, miss_budget=1)])
        found = m.evaluate_run_summary(Result(), window_cycles=100)
        # Budget 1/window * 10 windows = 10 < 15 observed.
        [v] = found
        assert v.sid == 0 and v.threshold == 10.0 and v.observed == 15.0
        assert v.window_index == -1  # whole-run marker

    def test_whole_run_share_band(self):
        import numpy as np

        class Result:
            decision_cycles = 100
            serviced = np.array([90, 10])
            misses = np.array([0, 0])

        m = SloMonitor([StreamSlo(sid=1, min_share=0.25)])
        [v] = m.evaluate_run_summary(Result())
        assert v.objective == "share_band" and v.observed == pytest.approx(0.1)

    def test_tensor_table3_overload_is_flagged(self):
        """End to end: the paper's own overload case (Table 3
        max-finding) on the array engine's summary path."""
        from repro.experiments.table3 import run_max_finding
        from repro.observability import Observability

        monitor = ConformanceMonitor(
            [StreamSlo(sid=i, miss_budget=0) for i in range(4)],
            window_cycles=256,
            flight_recorder=False,
        )
        obs = Observability(trace=False, profile=False, monitor=monitor)
        run_max_finding(400, engine="tensor", observer=obs)
        assert len(monitor.violations) == 4  # every stream overloads
        assert all(v.objective == "miss_budget" for v in monitor.violations)


class TestSeededViolations:
    """Acceptance criteria: seeded violation scenarios are flagged
    within one rollup window."""

    def _scheduler(self, n, observer, mode=None):
        from repro.core.attributes import SchedulingMode, StreamConfig
        from repro.core.config import ArchConfig, Routing
        from repro.core.scheduler import ShareStreamsScheduler

        arch = ArchConfig(n_slots=n, routing=Routing.WR, wrap=False)
        streams = [
            StreamConfig(sid=i, period=1, mode=mode or SchedulingMode.EDF)
            for i in range(n)
        ]
        return ShareStreamsScheduler(arch, streams, observer=observer)

    def test_overloaded_dwcs_stream_flagged_within_one_window(self):
        """Two streams, tight deadlines every cycle, one service slot:
        2x overload -> misses pile up and bust a small budget inside
        the very first rollup window."""
        from repro.core.attributes import SchedulingMode

        window = 64
        monitor = ConformanceMonitor(
            [StreamSlo(sid=0, miss_budget=4), StreamSlo(sid=1, miss_budget=4)],
            window_cycles=window,
            flight_recorder=False,
        )
        s = self._scheduler(2, monitor, mode=SchedulingMode.DWCS)
        for t in range(window):
            for sid in range(2):
                s.enqueue(sid, deadline=t + 1, arrival=t)
            s.decision_cycle(t, consume="winner", count_misses=True)
        assert monitor.rollup.windows_closed == 1
        assert monitor.violations, "overload not flagged in window 0"
        assert all(v.window_index == 0 for v in monitor.violations)
        assert {v.objective for v in monitor.violations} == {"miss_budget"}

    def test_starved_stream_flagged_within_one_window(self):
        """Four streams where one has far-future deadlines: EDF starves
        it completely; its min-share SLO fires in window 0."""
        window = 64
        monitor = ConformanceMonitor(
            slos_from_shares({0: 1, 1: 1, 2: 1, 3: 1}, tolerance=0.5),
            window_cycles=window,
            flight_recorder=False,
        )
        s = self._scheduler(4, monitor)
        for t in range(window):
            for sid in range(3):
                s.enqueue(sid, deadline=t + 2, arrival=t)
            s.enqueue(3, deadline=t + 100_000, arrival=t)
            s.decision_cycle(t, consume="winner", count_misses=False)
        starved = [v for v in monitor.violations if v.sid == 3]
        assert starved and starved[0].window_index == 0
        assert starved[0].objective == "share_band"
        assert starved[0].observed == 0.0

    def test_max_gap_violation_from_staleness(self):
        """A stream serviced once then starved trips its max-gap SLO
        via end-of-window staleness, not just measured gaps."""
        window = 32
        monitor = ConformanceMonitor(
            [StreamSlo(sid=1, max_gap=8)],
            window_cycles=window,
            flight_recorder=False,
        )
        s = self._scheduler(2, monitor)
        s.enqueue(1, deadline=1, arrival=0)
        for t in range(window):
            s.enqueue(0, deadline=t + 2, arrival=t)
            s.decision_cycle(t, consume="winner", count_misses=False)
        [v] = monitor.violations
        assert v.objective == "max_gap" and v.observed >= window - 8


class TestZeroFalsePositives:
    """Acceptance criteria: zero false positives across the existing
    50-scenario differential campaign with monitoring enabled.

    Thresholds are derived per scenario from a probe run at the
    observed per-window extremes (violations fire only on *strict*
    excess), then the scenario is re-run with monitoring on the other
    engine — proving both that nothing in-band is flagged and that the
    rollup streams agree across engines.
    """

    WINDOW = 64

    def _probe_thresholds(self, scenario):
        probe = RollupObserver(window_cycles=self.WINDOW)
        from repro.core.differential import run_engine

        run_engine(scenario, "tensor", observer=probe)
        probe.finalize()
        sids = sorted({sid for w in probe.history for sid in w.streams})
        slos = []
        for sid in sids:
            max_misses, min_share, max_share, max_gap = 0, 1.0, 0.0, 0.0
            for w in probe.history:
                s = w.streams.get(sid)
                share = s.service_share if s is not None else 0.0
                if w.total_serviced > 0:
                    min_share = min(min_share, share)
                    max_share = max(max_share, share)
                if s is not None:
                    max_misses = max(max_misses, s.misses)
                    max_gap = max(max_gap, s.gap_max)
            slos.append(
                StreamSlo(
                    sid=sid,
                    miss_budget=max_misses,
                    min_share=min_share if min_share <= max_share else None,
                    max_share=max_share if max_share > 0 else None,
                    max_gap=int(math.ceil(max_gap)) if max_gap > 0 else None,
                )
            )
        return slos, [w.to_dict() for w in probe.history]

    def test_campaign_with_monitoring_has_no_false_positives(self):
        from repro.core.differential import generate_scenario, run_engine

        checked = 0
        for seed in range(50):
            scenario = generate_scenario(seed)
            slos, probe_windows = self._probe_thresholds(scenario)
            monitor = ConformanceMonitor(
                slos, window_cycles=self.WINDOW, flight_recorder=False
            )
            run_engine(scenario, "reference", observer=monitor)
            monitor.finalize()
            assert monitor.violations == [], (
                f"seed {seed}: false positives {monitor.violations}"
            )
            # Cross-engine agreement of the rollup stream itself.
            assert [w.to_dict() for w in monitor.rollup.history] == probe_windows
            checked += 1
        assert checked == 50


class TestConstructors:
    def test_slos_from_shares(self):
        slos = slos_from_shares({0: 1, 1: 1, 2: 2, 3: 4}, tolerance=0.25)
        by_sid = {s.sid: s for s in slos}
        assert by_sid[3].min_share == pytest.approx(0.5 * 0.75)
        assert by_sid[3].max_share == pytest.approx(0.5 * 1.25)
        assert by_sid[0].min_share == pytest.approx(0.125 * 0.75)

    def test_slos_from_shares_validation(self):
        with pytest.raises(ValueError):
            slos_from_shares({})
        with pytest.raises(ValueError):
            slos_from_shares({0: 1}, tolerance=1.5)
        with pytest.raises(ValueError):
            slos_from_shares({0: 0.0})

    def test_slos_from_streams(self):
        from repro.core.attributes import SchedulingMode, StreamConfig

        streams = [
            StreamConfig(
                sid=0, period=2, loss_numerator=1, loss_denominator=4,
                mode=SchedulingMode.DWCS,
            ),
            StreamConfig(
                sid=1, period=1, loss_numerator=0, loss_denominator=0,
                mode=SchedulingMode.EDF,
            ),
        ]
        slos = slos_from_streams(streams, window_cycles=64)
        # x=1 per y=4 requests at period 2: 32 requests/window -> 8.
        assert len(slos) == 1
        assert slos[0].sid == 0 and slos[0].miss_budget == 8

    def test_slos_from_streams_validation(self):
        with pytest.raises(ValueError):
            slos_from_streams([], window_cycles=0)


class TestConformanceMonitorFacade:
    def test_report_and_clear(self):
        monitor = ConformanceMonitor(
            [StreamSlo(sid=0, miss_budget=0)], window_cycles=4
        )
        from tests.test_observability_rollup import FakeOutcome

        for t in range(4):
            monitor.on_decision(FakeOutcome(t, winner=0, serviced=(0,), misses=(0,)))
        assert len(monitor.violations) == 1
        report = monitor.report()
        assert "violations: 1" in report and "miss_budget" in report
        monitor.clear()
        assert monitor.violations == [] and monitor.rollup.windows_closed == 0

    def test_observability_facade_integration(self):
        """Observability(monitor=...) feeds, finalizes and renders."""
        from repro.observability import Observability
        from tests.test_observability_rollup import FakeOutcome

        monitor = ConformanceMonitor(
            [StreamSlo(sid=0, miss_budget=0)], window_cycles=100
        )
        obs = Observability(trace=False, profile=False, monitor=monitor)
        monitor.slo._violation_counter = obs.metrics.counter(
            "sharestreams_slo_violations_total", "breaches"
        )
        for t in range(5):
            obs.on_decision(FakeOutcome(t, winner=0, serviced=(0,), misses=(0,)))
        obs.finalize()  # flushes the partial window -> evaluation runs
        assert len(monitor.violations) == 1
        assert "== conformance ==" in obs.render()
