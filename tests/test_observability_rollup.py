"""Tests for streaming windowed rollups (GapSketch, RollupObserver)."""

import pytest

from repro.observability.rollup import (
    DEFAULT_GAP_BUCKETS,
    GapSketch,
    RollupObserver,
)


class FakePacket:
    def __init__(self, deadline=0, arrival=0):
        self.deadline = deadline
        self.arrival = arrival


class FakeOutcome:
    """Minimal DecisionOutcome stand-in for hook unit tests."""

    def __init__(
        self, now, winner=None, serviced=(), misses=(), dropped=(), hw_cycles=1
    ):
        self.now = now
        self.circulated_sid = winner
        self.block = () if winner is None else (winner,)
        self.serviced = [(sid, FakePacket()) for sid in serviced]
        self.misses = list(misses)
        self.dropped = [(sid, FakePacket(deadline=now - 1)) for sid in dropped]
        self.hw_cycles = hw_cycles


class TestGapSketch:
    def test_quantile_on_grid_is_exact(self):
        s = GapSketch()
        for v in (1, 2, 2, 4, 4, 4, 8, 8):
            s.observe(v)
        assert s.quantile(0.0) == 1.0
        assert s.quantile(0.5) == 4.0
        assert s.quantile(1.0) == 8.0

    def test_quantile_is_conservative(self):
        s = GapSketch(bounds=(10.0, 100.0))
        s.observe(3)
        # True value 3, covering bucket upper bound 10 — never under.
        assert s.quantile(0.5) == 10.0

    def test_overflow_reports_exact_max(self):
        s = GapSketch(bounds=(2.0,))
        s.observe(1)
        s.observe(999)
        assert s.overflow == 1
        assert s.quantile(1.0) == 999.0
        assert s.max == 999.0

    def test_empty_sketch(self):
        s = GapSketch()
        assert s.quantile(0.5) == 0.0
        assert s.mean == 0.0

    def test_mean(self):
        s = GapSketch()
        s.observe(2)
        s.observe(4)
        assert s.mean == 3.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            GapSketch().quantile(1.5)

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            GapSketch(bounds=())

    def test_rejects_nan_bounds(self):
        with pytest.raises(ValueError):
            GapSketch(bounds=(1.0, float("nan")))

    def test_nan_lands_in_overflow(self):
        s = GapSketch(bounds=(1.0, 2.0))
        s.observe(float("nan"))
        assert s.counts == [0, 0] and s.overflow == 1 and s.total == 1

    def test_clear(self):
        s = GapSketch()
        s.observe(7)
        s.clear()
        assert s.total == 0 and s.max == 0.0 and s.quantile(0.9) == 0.0

    def test_default_buckets_are_powers_of_two(self):
        assert DEFAULT_GAP_BUCKETS == tuple(
            2.0**k for k in range(len(DEFAULT_GAP_BUCKETS))
        )


class TestRollupObserver:
    def test_window_closes_at_size(self):
        r = RollupObserver(window_cycles=4)
        for t in range(7):
            r.on_decision(FakeOutcome(t, winner=0, serviced=(0,)))
        assert r.windows_closed == 1
        assert r.latest.cycles == 4
        assert r.latest.start_cycle == 0 and r.latest.end_cycle == 3

    def test_finalize_flushes_partial_window(self):
        r = RollupObserver(window_cycles=100)
        for t in range(5):
            r.on_decision(FakeOutcome(t, winner=1, serviced=(1,)))
        flushed = r.finalize()
        assert flushed is not None and flushed.cycles == 5
        assert r.windows_closed == 1
        assert r.finalize() is None  # idempotent on an empty window

    def test_per_stream_counts_and_shares(self):
        r = RollupObserver(window_cycles=4)
        r.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        r.on_decision(FakeOutcome(1, winner=0, serviced=(0,), misses=(1,)))
        r.on_decision(FakeOutcome(2, winner=1, serviced=(1,), dropped=(1,)))
        r.on_decision(FakeOutcome(3, winner=0, serviced=(0,)))
        w = r.latest
        assert w.total_serviced == 4 and w.total_misses == 1 and w.total_drops == 1
        s0, s1 = w.streams[0], w.streams[1]
        assert s0.serviced == 3 and s0.service_share == 0.75
        assert s0.wins == 3 and s1.wins == 1
        assert s1.misses == 1 and s1.drops == 1
        assert s1.miss_rate == 0.25 and s1.drop_rate == 0.25

    def test_idle_cycles_counted(self):
        r = RollupObserver(window_cycles=2)
        r.on_decision(FakeOutcome(0))
        r.on_decision(FakeOutcome(1, winner=0, serviced=(0,)))
        assert r.latest.idle_cycles == 1

    def test_gap_quantiles_for_alternating_service(self):
        r = RollupObserver(window_cycles=8)
        for t in range(8):
            sid = t % 2
            r.on_decision(FakeOutcome(t, winner=sid, serviced=(sid,)))
        w = r.latest
        # Each stream is serviced every 2 cycles: all gaps are exactly 2.
        assert w.streams[0].gap_p50 == 2.0
        assert w.streams[0].gap_p90 == 2.0

    def test_starved_stream_reports_staleness_gap(self):
        r = RollupObserver(window_cycles=8)
        r.on_decision(FakeOutcome(0, winner=3, serviced=(3,)))
        for t in range(1, 8):
            r.on_decision(FakeOutcome(t, winner=0, serviced=(0,)))
        w = r.latest
        # Stream 3 was serviced once at t=0 then starved: gap_max must
        # reflect end-of-window staleness (7 cycles), not silence.
        assert w.streams[3].gap_max == 7.0

    def test_gap_accounting_continues_across_windows(self):
        r = RollupObserver(window_cycles=2)
        r.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        r.on_decision(FakeOutcome(1, winner=1, serviced=(1,)))
        r.on_decision(FakeOutcome(2, winner=0, serviced=(0,)))
        r.on_decision(FakeOutcome(3, winner=1, serviced=(1,)))
        # Window 2's gap for stream 0 spans the boundary (t=0 -> t=2).
        assert r.history[1].streams[0].gap_p50 == 2.0

    def test_subscribers_called_after_state_reset(self):
        r = RollupObserver(window_cycles=2)
        seen = []
        r.subscribe(lambda w: seen.append((w.index, r.finalize())))
        r.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        r.on_decision(FakeOutcome(1, winner=0, serviced=(0,)))
        # finalize() inside the callback sees an already-reset window.
        assert seen == [(0, None)]

    def test_history_is_bounded(self):
        r = RollupObserver(window_cycles=1, keep=3)
        for t in range(10):
            r.on_decision(FakeOutcome(t, winner=0, serviced=(0,)))
        assert r.windows_closed == 10
        assert [w.index for w in r.history] == [7, 8, 9]

    def test_clear_resets_everything(self):
        r = RollupObserver(window_cycles=2)
        for t in range(5):
            r.on_decision(FakeOutcome(t, winner=0, serviced=(0,)))
        r.clear()
        assert r.windows_closed == 0 and r.latest is None
        assert r.finalize() is None

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RollupObserver(window_cycles=0)

    def test_to_dict_round_trip_shapes(self):
        r = RollupObserver(window_cycles=2)
        r.on_decision(FakeOutcome(0, winner=0, serviced=(0,), misses=(1,)))
        r.on_decision(FakeOutcome(1, winner=1, serviced=(1,)))
        d = r.latest.to_dict()
        assert d["cycles"] == 2 and set(d["streams"]) == {"0", "1"}
        assert d["streams"]["0"]["service_share"] == 0.5


class TestEngineIntegration:
    def test_rollups_identical_across_engines(self):
        """Windows are measured in decision cycles, so both engines
        produce identical rollups on identical workloads."""
        from repro.core.differential import generate_scenario, run_engine

        for seed in (3, 11):
            scenario = generate_scenario(seed)
            rollups = {}
            for engine in ("reference", "tensor"):
                obs = RollupObserver(window_cycles=64)
                run_engine(scenario, engine, observer=obs)
                obs.finalize()
                rollups[engine] = [w.to_dict() for w in obs.history]
            assert rollups["reference"] == rollups["tensor"]
            assert rollups["reference"]  # non-degenerate

    def test_memory_is_o_streams(self):
        """No retained event log: internal state size tracks streams,
        not decisions observed."""
        r = RollupObserver(window_cycles=10**9, keep=1)
        for t in range(5000):
            r.on_decision(FakeOutcome(t, winner=t % 3, serviced=(t % 3,)))
        assert len(r._serviced) == 3
        assert len(r._sketches) <= 3
        assert all(len(s.counts) == len(s.bounds) for s in r._sketches.values())
