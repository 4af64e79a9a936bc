"""Tests for the Register Base block (stream-slot) and DWCS updates."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.fields import LOSS_DEN_FIELD, LOSS_NUM_FIELD
from repro.core.register_block import PendingPacket, RegisterBaseBlock


def make_slot(
    mode=SchedulingMode.DWCS, x=1, y=3, period=2, wrap=True
) -> RegisterBaseBlock:
    return RegisterBaseBlock(
        StreamConfig(
            sid=0,
            period=period,
            loss_numerator=x,
            loss_denominator=y,
            mode=mode,
        ),
        wrap=wrap,
    )


class TestQueueing:
    def test_empty_slot_is_invalid(self):
        slot = make_slot()
        assert not slot.attributes.valid
        assert slot.head is None
        assert slot.backlog == 0

    def test_enqueue_latches_head(self):
        slot = make_slot()
        slot.enqueue_request(deadline=10, arrival=1)
        assert slot.attributes.valid
        assert slot.attributes.deadline == 10
        assert slot.attributes.arrival == 1
        assert slot.backlog == 0

    def test_backlog_counts_waiting(self):
        slot = make_slot()
        for k in range(4):
            slot.enqueue_request(deadline=10 + k, arrival=k)
        assert slot.backlog == 3

    def test_service_advances_to_next(self):
        slot = make_slot(mode=SchedulingMode.STATIC_PRIORITY)
        slot.enqueue_request(deadline=10, arrival=0)
        slot.enqueue_request(deadline=20, arrival=1)
        packet = slot.service(now=5)
        assert packet.deadline == 10
        assert slot.attributes.deadline == 20

    def test_service_empty_returns_none(self):
        slot = make_slot()
        assert slot.service(now=0) is None

    def test_wrap_masks_registers(self):
        slot = make_slot(wrap=True)
        slot.enqueue(PendingPacket(deadline=70000, arrival=65536))
        assert slot.attributes.deadline == 70000 & 0xFFFF
        assert slot.attributes.arrival == 0

    def test_ideal_mode_keeps_wide_values(self):
        slot = make_slot(wrap=False)
        slot.enqueue(PendingPacket(deadline=70000, arrival=65536))
        assert slot.attributes.deadline == 70000


class TestMissDetection:
    def test_head_is_late(self):
        slot = make_slot(wrap=False)
        slot.enqueue_request(deadline=5, arrival=0)
        assert not slot.head_is_late(now=5)
        assert slot.head_is_late(now=6)

    def test_record_miss_counts(self):
        slot = make_slot(mode=SchedulingMode.EDF, wrap=False)
        slot.enqueue_request(deadline=5, arrival=0)
        assert slot.record_miss(now=10)
        assert slot.record_miss(now=11)
        assert slot.counters.missed_deadlines == 2

    def test_record_miss_on_time_is_noop(self):
        slot = make_slot(wrap=False)
        slot.enqueue_request(deadline=5, arrival=0)
        assert not slot.record_miss(now=3)
        assert slot.counters.missed_deadlines == 0

    def test_drop_late_head(self):
        slot = make_slot(wrap=False)
        slot.enqueue_request(deadline=5, arrival=0)
        slot.enqueue_request(deadline=9, arrival=1)
        dropped = slot.drop_late_head(now=7)
        assert dropped.deadline == 5
        assert slot.attributes.deadline == 9

    def test_drop_on_time_head_is_noop(self):
        slot = make_slot(wrap=False)
        slot.enqueue_request(deadline=5, arrival=0)
        assert slot.drop_late_head(now=3) is None


class TestDwcsWinUpdate:
    def test_on_time_service_decrements_denominator(self):
        slot = make_slot(x=1, y=4, wrap=False)
        slot.enqueue_request(deadline=10, arrival=0)
        slot.service(now=0)
        assert slot.attributes.loss_denominator == 3
        assert slot.attributes.loss_numerator == 1

    def test_window_reset_on_completion(self):
        slot = make_slot(x=1, y=3, wrap=False)
        # Two on-time services: y' 3 -> 2 -> (2<=... reset at y'<=x').
        for k in range(2):
            slot.enqueue_request(deadline=100 + k, arrival=k)
        slot.service(now=0)
        assert slot.attributes.loss_denominator == 2
        slot.service(now=0)
        # y' would hit 1 == x' -> reset to (1, 3).
        assert (slot.attributes.loss_numerator, slot.attributes.loss_denominator) == (1, 3)
        assert slot.counters.window_resets >= 1

    def test_late_service_counts_as_loss(self):
        slot = make_slot(x=2, y=4, wrap=False)
        slot.enqueue_request(deadline=5, arrival=0)
        slot.service(now=10)  # serviced past its deadline
        assert slot.attributes.loss_numerator == 1
        assert slot.attributes.loss_denominator == 3


class TestDwcsLossUpdate:
    def test_miss_consumes_tolerance(self):
        slot = make_slot(x=2, y=5, wrap=False)
        slot.enqueue_request(deadline=1, arrival=0)
        slot.record_miss(now=10)
        assert slot.attributes.loss_numerator == 1
        assert slot.attributes.loss_denominator == 4

    def test_violation_raises_denominator(self):
        slot = make_slot(x=0, y=3, wrap=False)
        slot.enqueue_request(deadline=1, arrival=0)
        slot.record_miss(now=10)
        assert slot.counters.violations == 1
        assert slot.attributes.loss_denominator == 4  # priority boost

    def test_violation_saturates_at_field_max(self):
        slot = make_slot(x=0, y=3, wrap=False)
        slot.attributes.loss_denominator = 255
        slot.enqueue_request(deadline=1, arrival=0)
        slot.record_miss(now=10)
        assert slot.attributes.loss_denominator == 255

    def test_miss_reset_when_counters_meet(self):
        slot = make_slot(x=1, y=2, wrap=False)
        slot.enqueue_request(deadline=1, arrival=0)
        # x' 1 -> 0, y' 2 -> 1; x' != y', no reset.
        slot.record_miss(now=10)
        assert (slot.attributes.loss_numerator, slot.attributes.loss_denominator) == (0, 1)

    def test_edf_mode_counts_without_window_update(self):
        slot = make_slot(mode=SchedulingMode.EDF, x=1, y=3, wrap=False)
        slot.enqueue_request(deadline=1, arrival=0)
        slot.record_miss(now=10)
        assert slot.counters.missed_deadlines == 1
        assert slot.attributes.loss_numerator == 1
        assert slot.attributes.loss_denominator == 3


class TestEdfWinnerBias:
    def test_winner_bias_pushes_deadline(self):
        slot = make_slot(mode=SchedulingMode.EDF, period=3, wrap=False)
        slot.enqueue_request(deadline=10, arrival=0)
        slot.enqueue_request(deadline=11, arrival=1)
        slot.service(now=0, as_winner=True)
        # Next head carries the +period winner bias.
        assert slot.attributes.deadline == 11 + 3

    def test_non_winner_block_member_has_no_bias(self):
        slot = make_slot(mode=SchedulingMode.EDF, period=3, wrap=False)
        slot.enqueue_request(deadline=10, arrival=0)
        slot.enqueue_request(deadline=11, arrival=1)
        slot.service(now=0, as_winner=False)
        assert slot.attributes.deadline == 11

    def test_bias_accumulates(self):
        slot = make_slot(mode=SchedulingMode.EDF, period=2, wrap=False)
        for k in range(3):
            slot.enqueue_request(deadline=10 + k, arrival=k)
        slot.service(now=0, as_winner=True)
        slot.service(now=1, as_winner=True)
        assert slot.attributes.deadline == 12 + 4


class TestBlockWinnerFlag:
    def test_as_winner_true_applies_win_update(self):
        slot = make_slot(x=1, y=4, wrap=False)
        slot.enqueue_request(deadline=1, arrival=0)
        slot.service(now=10, as_winner=True)  # late, but forced winner
        assert slot.attributes.loss_denominator == 3

    def test_as_winner_false_skips_updates(self):
        slot = make_slot(x=1, y=4, wrap=False)
        slot.enqueue_request(deadline=1, arrival=0)
        slot.service(now=10, as_winner=False)
        assert slot.attributes.loss_denominator == 4


class TestCounters:
    def test_serviced_and_wins(self):
        slot = make_slot(mode=SchedulingMode.STATIC_PRIORITY)
        slot.enqueue_request(deadline=10, arrival=0)
        slot.service(now=0)
        slot.record_win()
        assert slot.counters.serviced == 1
        assert slot.counters.wins == 1
        assert slot.counters.loads == 1


@st.composite
def _windows(draw):
    y = draw(st.integers(0, LOSS_DEN_FIELD.mask))
    return draw(st.integers(0, y)), y


class TestWindowFieldRange:
    """The scheduler drives the live registers onto the network, so no
    per-cycle copy re-validates them: the update paths alone must keep
    ``x'`` and ``y'`` inside their 8-bit fields."""

    @settings(max_examples=150, deadline=None)
    @given(
        window=_windows(),
        mode=st.sampled_from([SchedulingMode.DWCS, SchedulingMode.FAIR_SHARE]),
        wrap=st.booleans(),
        script=st.lists(
            st.sampled_from(["win", "miss", "late", "block_win", "block_other"]),
            max_size=400,
        ),
    )
    # A violation run past the 8-bit ceiling (y' saturates at 255).
    @example(
        window=(0, 250), mode=SchedulingMode.DWCS, wrap=False, script=["miss"] * 10
    )
    def test_window_counters_stay_in_field(self, window, mode, wrap, script):
        x, y = window
        slot = RegisterBaseBlock(
            StreamConfig(
                sid=0, period=1, loss_numerator=x, loss_denominator=y, mode=mode
            ),
            wrap=wrap,
        )
        now = 1000
        for step in script:
            late = step in ("miss", "late")
            slot.enqueue_request(deadline=now - 1 if late else now + 1, arrival=now)
            if step == "miss":
                assert slot.record_miss(now)
                assert slot.drop_late_head(now) is not None
            elif step == "block_win":
                slot.service(now, as_winner=True)
            elif step == "block_other":
                slot.service(now, as_winner=False)
            else:
                slot.service(now)
            attrs = slot.attributes
            LOSS_NUM_FIELD.check(attrs.loss_numerator)
            LOSS_DEN_FIELD.check(attrs.loss_denominator)
            assert attrs.loss_numerator <= x
            now += 1
