"""Tests for the drop-late scheduling policy and jitter metrics."""

import pytest

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.metrics.delay import DelayTracker


def overload_scheduler(mode=SchedulingMode.EDF):
    arch = ArchConfig(n_slots=2, routing=Routing.WR, wrap=False)
    s = ShareStreamsScheduler(
        arch,
        [StreamConfig(sid=i, period=1, mode=mode) for i in range(2)],
    )
    return s


class TestDropLate:
    def test_drops_expired_heads(self):
        s = overload_scheduler()
        s.enqueue(0, deadline=1, arrival=0)
        s.enqueue(0, deadline=2, arrival=1)
        s.enqueue(0, deadline=50, arrival=2)
        out = s.decision_cycle(10, drop_late=True)
        assert [(sid, p.deadline) for sid, p in out.dropped] == [
            (0, 1),
            (0, 2),
        ]
        # The fresh head is what got serviced.
        assert out.serviced[0][1].deadline == 50

    def test_drops_counted_as_misses(self):
        s = overload_scheduler()
        s.enqueue(0, deadline=1, arrival=0)
        s.enqueue(0, deadline=2, arrival=1)
        s.decision_cycle(10, drop_late=True, count_misses=True)
        assert s.slot(0).counters.missed_deadlines == 2

    def test_no_drop_when_fresh(self):
        s = overload_scheduler()
        s.enqueue(0, deadline=50, arrival=0)
        out = s.decision_cycle(10, drop_late=True)
        assert out.dropped == ()

    def test_overload_with_drop_keeps_backlog_bounded(self):
        s = overload_scheduler()
        for t in range(200):
            for sid in range(2):
                s.enqueue(sid, deadline=t + 1, arrival=t)
            s.decision_cycle(t, consume="winner", drop_late=True)
        for sid in range(2):
            backlog = s.slot(sid).backlog
            assert backlog <= 2, backlog

    def test_without_drop_backlog_grows(self):
        s = overload_scheduler()
        for t in range(200):
            for sid in range(2):
                s.enqueue(sid, deadline=t + 1, arrival=t)
            s.decision_cycle(t, consume="winner", drop_late=False)
        total = sum(s.slot(i).backlog for i in range(2))
        assert total > 150

    def test_dwcs_drop_applies_loss_updates(self):
        s = overload_scheduler(mode=SchedulingMode.DWCS)
        slot = s.slot(0)
        slot.attributes.loss_numerator = 2
        slot.attributes.loss_denominator = 4
        s.enqueue(0, deadline=1, arrival=0)
        s.enqueue(0, deadline=40, arrival=1)
        s.decision_cycle(10, drop_late=True, consume="none")
        # One loss consumed by the dropped head.
        assert slot.attributes.loss_numerator == 1


class TestJitterMetrics:
    def test_constant_delay_zero_jitter(self):
        t = DelayTracker()
        for k in range(10):
            t.record(0, float(k), float(k) + 5.0)
        s = t.series(0)
        assert s.jitter_us == 0.0
        assert s.peak_to_peak_jitter_us == 0.0

    def test_alternating_delay(self):
        t = DelayTracker()
        for k in range(10):
            t.record(0, float(k), float(k) + (5.0 if k % 2 else 9.0))
        s = t.series(0)
        assert s.jitter_us == pytest.approx(4.0)
        assert s.peak_to_peak_jitter_us == pytest.approx(4.0)

    def test_single_frame(self):
        t = DelayTracker()
        t.record(0, 0.0, 1.0)
        assert t.series(0).jitter_us == 0.0

    def test_endsystem_jitter_ordering(self):
        """Higher-share streams see lower jitter under bursty load."""
        from repro.experiments.figure9 import run_figure9

        result = run_figure9(n_bursts=2, burst_size=600)
        j1 = result.series[0].jitter_us
        j4 = result.series[3].jitter_us
        assert j4 < j1
