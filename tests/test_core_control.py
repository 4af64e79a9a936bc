"""Tests for the Control & Steering FSM."""

import pytest

from repro.core.control import ControlState, ControlUnit


class TestFSM:
    def test_starts_in_load(self):
        unit = ControlUnit()
        assert unit.state is ControlState.LOAD
        assert unit.hw_cycle == 0

    def test_state_transitions_accumulate_cycles(self):
        unit = ControlUnit()
        unit.load(1)
        unit.schedule(2)
        unit.priority_update(1)
        assert unit.state is ControlState.PRIORITY_UPDATE
        assert unit.hw_cycle == 4
        assert unit.decision_cycles == 1

    def test_alternating_schedule_update(self):
        unit = ControlUnit()
        unit.load(1)
        for _ in range(5):
            unit.schedule(2)
            unit.priority_update(1)
        assert unit.decision_cycles == 5
        assert unit.hw_cycle == 1 + 5 * 3

    def test_negative_cycles_rejected(self):
        unit = ControlUnit()
        with pytest.raises(ValueError):
            unit.schedule(-1)

    @pytest.mark.parametrize(
        "count,message",
        [
            (2.5, "cycle count must be an integer, got 2.5"),
            (True, "cycle count must be an integer, got True"),
            ("3", "cycle count must be an integer, got '3'"),
            (-1, "cycle count must be non-negative, got -1"),
        ],
        ids=["fraction", "bool", "str", "negative"],
    )
    @pytest.mark.parametrize("trace", [False, True])
    def test_bulk_count_must_be_a_non_negative_integer(
        self, count, message, trace
    ):
        """2.5 bulk cycles used to be accounted as 2.5 and ``True`` as one."""
        unit = ControlUnit(trace=trace)
        unit.load(1)
        with pytest.raises(ValueError, match=message):
            unit.advance_decision_cycles(count, 2)
        assert (unit.hw_cycle, unit.decision_cycles) == (1, 0)
        assert unit.state is ControlState.LOAD
        assert len(unit.timeline) == trace

    def test_elapsed_seconds(self):
        unit = ControlUnit()
        unit.schedule(100)
        assert unit.elapsed_seconds(100.0) == pytest.approx(1e-6)

    def test_elapsed_rejects_bad_clock(self):
        unit = ControlUnit()
        with pytest.raises(ValueError):
            unit.elapsed_seconds(0)

    def test_reset(self):
        unit = ControlUnit(trace=True)
        unit.load(1)
        unit.schedule(2)
        unit.reset()
        assert unit.hw_cycle == 0
        assert unit.state is ControlState.LOAD
        assert unit.timeline == []


class TestTimeline:
    def test_trace_records_entries(self):
        unit = ControlUnit(trace=True)
        unit.load(1, detail="boot")
        unit.schedule(2, detail="t=0")
        unit.priority_update(1)
        assert len(unit.timeline) == 3
        first = unit.timeline[0]
        assert first.state is ControlState.LOAD
        assert first.start_cycle == 0
        assert first.end_cycle == 1
        assert unit.timeline[1].start_cycle == 1
        assert unit.timeline[2].start_cycle == 3

    def test_trace_off_by_default(self):
        unit = ControlUnit()
        unit.load(1)
        assert unit.timeline == []

    def test_entries_are_contiguous(self):
        unit = ControlUnit(trace=True)
        unit.load(1)
        for _ in range(4):
            unit.schedule(3)
            unit.priority_update(1)
        for prev, cur in zip(unit.timeline, unit.timeline[1:]):
            assert cur.start_cycle == prev.end_cycle
