"""Tests for the violation flight recorder (ring, dumps, byte-identity)."""

import json

import pytest

from repro.observability import (
    ConformanceMonitor,
    FlightRecorder,
    StreamSlo,
    deserialize_events,
)
from tests.test_observability_rollup import FakeOutcome


class FakeViolation:
    def __init__(self, window_index=0, sid=0):
        self.window_index = window_index
        self.sid = sid
        self.objective = "test"

    def to_dict(self):
        return {"window_index": self.window_index, "sid": self.sid}


class TestRing:
    def test_keeps_last_k_cycles(self):
        fr = FlightRecorder(capacity=4)
        for t in range(10):
            fr.on_decision(FakeOutcome(t, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation())
        fr.finalize()
        [dump] = fr.dumps
        assert dump.cycles == 4
        assert [e.now for e in dump.events] == [6, 7, 8, 9]

    def test_seq_is_globally_monotone(self):
        fr = FlightRecorder(capacity=2)
        for t in range(5):
            fr.on_decision(FakeOutcome(t, winner=0, serviced=(0,), misses=(1,)))
        fr.on_violation(FakeViolation())
        fr.finalize()
        [dump] = fr.dumps
        # 2 events per cycle (decide + miss); ring holds cycles 3 and 4.
        assert [e.seq for e in dump.events] == [6, 7, 8, 9]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDebounce:
    def test_same_window_violations_share_one_dump(self):
        fr = FlightRecorder(capacity=8)
        fr.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation(window_index=0, sid=0))
        fr.on_violation(FakeViolation(window_index=0, sid=1))
        fr.finalize()
        assert fr.dumps_written == 1
        assert len(fr.dumps[0].violations) == 2

    def test_new_window_violation_freezes_previous(self):
        fr = FlightRecorder(capacity=8)
        fr.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation(window_index=0))
        fr.on_decision(FakeOutcome(1, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation(window_index=1))
        fr.finalize()
        assert fr.dumps_written == 2
        assert fr.dumps[0].trigger_window == 0
        assert fr.dumps[1].trigger_window == 1

    def test_post_breach_cycles_excluded(self):
        """The cycle after a violation flushes the dump first, so the
        frozen ring never contains post-breach cycles."""
        fr = FlightRecorder(capacity=8)
        fr.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation(window_index=0))
        fr.on_decision(FakeOutcome(1, winner=0, serviced=(0,)))
        assert fr.dumps_written == 1
        assert [e.now for e in fr.dumps[0].events] == [0]

    def test_finalize_without_pending_is_noop(self):
        fr = FlightRecorder(capacity=4)
        fr.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        fr.finalize()
        assert fr.dumps_written == 0


class TestDiskDumps:
    def test_writes_jsonl_and_sidecar(self, tmp_path):
        fr = FlightRecorder(capacity=4, dump_dir=tmp_path / "dumps")
        for t in range(3):
            fr.on_decision(FakeOutcome(t, winner=1, serviced=(1,)))
        fr.on_violation(FakeViolation(window_index=0, sid=1))
        fr.finalize()
        jsonl = tmp_path / "dumps" / "flight-0.jsonl"
        meta = tmp_path / "dumps" / "flight-0.meta.json"
        assert jsonl.exists() and meta.exists()
        events = deserialize_events(jsonl.read_bytes())
        assert len(events) == 3
        assert jsonl.read_bytes() == fr.dumps[0].serialize()
        payload = json.loads(meta.read_text())
        assert payload["trigger_window"] == 0
        assert payload["violations"] == [{"window_index": 0, "sid": 1}]

    def test_describe_mentions_span(self):
        fr = FlightRecorder(capacity=4)
        fr.on_decision(FakeOutcome(5, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation())
        fr.finalize()
        assert "t=[5..5]" in fr.dumps[0].describe()

    def test_clear(self):
        fr = FlightRecorder(capacity=4)
        fr.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation())
        fr.clear()
        assert fr.dumps_written == 0 and fr.cycles_recorded == 0
        fr.on_decision(FakeOutcome(0, winner=0, serviced=(0,)))
        fr.on_violation(FakeViolation())
        fr.finalize()
        assert fr.dumps[0].events[0].seq == 0  # seq restarted


class TestByteIdentityAcrossEngines:
    """Acceptance criteria: flight-recorder dumps replay byte-identically
    through every engine — identical outcomes + global monotone seq
    numbering make the canonical JSONL equal byte for byte."""

    def _run(self, scenario, engine):
        from repro.core.differential import run_engine

        monitor = ConformanceMonitor(
            # max_share below any realizable share on every scenario
            # stream: every busy window violates, so dumps are produced
            # throughout the run.
            [
                StreamSlo(sid=s.sid, min_share=0.0, max_share=0.001)
                for s in scenario.streams
            ],
            window_cycles=32,
            flight_capacity=16,
        )
        run_engine(scenario, engine, observer=monitor)
        monitor.finalize()
        return monitor

    @pytest.mark.parametrize("seed", [1, 13, 29])
    def test_dumps_byte_identical(self, seed):
        from repro.core.differential import generate_scenario

        scenario = generate_scenario(seed)
        ref = self._run(scenario, "reference")
        assert ref.dumps, f"seed {seed}: scenario produced no dumps"
        other = self._run(scenario, "tensor")
        assert len(ref.dumps) == len(other.dumps)
        for a, b in zip(ref.dumps, other.dumps):
            assert a.serialize() == b.serialize()
            assert a.trigger_window == b.trigger_window

    def test_dump_round_trips_through_serialization(self):
        from repro.core.differential import generate_scenario

        scenario = generate_scenario(5)
        monitor = self._run(scenario, "reference")
        dump = monitor.dumps[0]
        events = deserialize_events(dump.serialize())
        assert tuple(events) == dump.events


class TestMonitorComposition:
    def test_violating_cycle_is_inside_the_dump(self):
        """ConformanceMonitor records the cycle before the rollup closes
        the window, so the decision that trips the SLO is in the dump."""
        monitor = ConformanceMonitor(
            [StreamSlo(sid=0, miss_budget=0)],
            window_cycles=4,
            flight_capacity=4,
        )
        for t in range(4):
            monitor.on_decision(
                FakeOutcome(t, winner=0, serviced=(0,), misses=(0,) if t == 3 else ())
            )
        monitor.finalize()
        [dump] = monitor.dumps
        assert any(e.kind == "miss" and e.now == 3 for e in dump.events)

    def test_disabled_flight_recorder(self):
        monitor = ConformanceMonitor(
            [StreamSlo(sid=0, miss_budget=0)],
            window_cycles=2,
            flight_recorder=False,
        )
        for t in range(2):
            monitor.on_decision(FakeOutcome(t, winner=0, serviced=(0,), misses=(0,)))
        assert monitor.violations and monitor.dumps == []
