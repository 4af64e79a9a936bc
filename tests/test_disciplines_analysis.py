"""Tests for the window-constraint checker."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disciplines.analysis import (
    DROPPED,
    LATE,
    ON_TIME,
    ConstraintChecker,
    PacketOutcome,
)


class TestValidation:
    def test_rejects_negative_terms(self):
        with pytest.raises(ValueError):
            ConstraintChecker({0: (-1, 2)})

    def test_rejects_x_above_y(self):
        with pytest.raises(ValueError):
            ConstraintChecker({0: (3, 2)})

    def test_unknown_stream(self):
        checker = ConstraintChecker({0: (1, 2)})
        with pytest.raises(KeyError):
            checker.record(9, ON_TIME)

    def test_unknown_outcome_code(self):
        checker = ConstraintChecker({0: (1, 2)})
        with pytest.raises(ValueError):
            checker.record(0, 7)
        with pytest.raises(ValueError):
            PacketOutcome(stream_id=0, seq=0, outcome=9)


class TestAudit:
    def test_clean_trace_satisfied(self):
        checker = ConstraintChecker({0: (1, 3)})
        checker.extend(0, [ON_TIME] * 30)
        audit = checker.audit_stream(0)
        assert audit.satisfied
        assert audit.losses == 0
        assert audit.worst_window_losses == 0

    def test_tolerated_losses_within_window(self):
        # 1 loss per 3: pattern L O O L O O ... never violates.
        checker = ConstraintChecker({0: (1, 3)})
        checker.extend(0, [LATE, ON_TIME, ON_TIME] * 10)
        audit = checker.audit_stream(0)
        assert audit.satisfied
        assert audit.losses == 10
        assert audit.worst_window_losses == 1

    def test_violation_detected(self):
        # Two consecutive losses violate a 1-per-3 constraint.
        checker = ConstraintChecker({0: (1, 3)})
        checker.extend(0, [ON_TIME, LATE, DROPPED, ON_TIME, ON_TIME])
        audit = checker.audit_stream(0)
        assert not audit.satisfied
        assert audit.violating_windows >= 1
        assert audit.worst_window_losses == 2

    def test_sliding_not_tumbling(self):
        # Losses at positions 2 and 3 sit in one *sliding* window of 3
        # even though they fall in different tumbling windows.
        checker = ConstraintChecker({0: (1, 3)})
        checker.extend(0, [ON_TIME, ON_TIME, LATE, LATE, ON_TIME, ON_TIME])
        assert not checker.audit_stream(0).satisfied

    def test_unconstrained_stream(self):
        checker = ConstraintChecker({0: (0, 0)})
        checker.extend(0, [LATE] * 5)
        audit = checker.audit_stream(0)
        assert audit.satisfied
        assert audit.loss_rate == 1.0

    def test_short_trace_no_full_window(self):
        checker = ConstraintChecker({0: (1, 10)})
        checker.extend(0, [LATE, LATE])
        assert checker.audit_stream(0).satisfied

    def test_all_satisfied_aggregate(self):
        checker = ConstraintChecker({0: (1, 3), 1: (0, 2)})
        checker.extend(0, [LATE, ON_TIME, ON_TIME] * 4)
        checker.extend(1, [ON_TIME] * 8)
        assert checker.all_satisfied
        checker.record(1, LATE)
        checker.record(1, ON_TIME)
        assert not checker.all_satisfied

    def test_record_outcome_object(self):
        checker = ConstraintChecker({0: (1, 2)})
        checker.record_outcome(PacketOutcome(stream_id=0, seq=0, outcome=LATE))
        assert checker.audit_stream(0).losses == 1

    @given(
        trace=st.lists(st.sampled_from([ON_TIME, LATE, DROPPED]), max_size=200),
        x=st.integers(0, 3),
        window=st.integers(1, 8),
    )
    def test_matches_naive_checker(self, trace, x, window):
        """Vectorized audit equals a direct per-window scan."""
        y = max(window, x)
        checker = ConstraintChecker({0: (x, y)})
        checker.extend(0, trace)
        audit = checker.audit_stream(0)
        lost = [t != ON_TIME for t in trace]
        naive_violations = 0
        worst = 0
        for i in range(len(trace) - y + 1):
            losses = sum(lost[i : i + y])
            worst = max(worst, losses)
            if losses > x:
                naive_violations += 1
        if len(trace) >= y:
            assert audit.violating_windows == naive_violations
            assert audit.worst_window_losses == worst
        else:
            assert audit.satisfied


class TestEndToEndWithDWCS:
    def test_dwcs_respects_feasible_constraints(self):
        """A feasible DWCS workload's trace passes the checker."""
        from repro.disciplines import DWCS, Packet, SwStream

        dwcs = DWCS()
        for sid in range(2):
            dwcs.add_stream(
                SwStream(
                    stream_id=sid, period=2, loss_numerator=1, loss_denominator=2
                )
            )
        # Two streams each needing 1 slot per 2 ticks: exactly feasible.
        for sid in range(2):
            for k in range(100):
                dwcs.enqueue(
                    Packet(
                        stream_id=sid,
                        seq=k,
                        arrival=float(2 * k),
                        deadline=float(2 * (k + 1)),
                    )
                )
        checker = ConstraintChecker({0: (1, 2), 1: (1, 2)})
        for t in range(200):
            packet = dwcs.dequeue(float(t))
            if packet is None:
                break
            late = packet.deadline is not None and packet.deadline < t
            checker.record(packet.stream_id, LATE if late else ON_TIME)
        assert checker.all_satisfied
