"""Cross-cutting property and invariant tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler


def build(n_slots=4, routing=Routing.BA, mode=SchedulingMode.EDF, **kw):
    arch = ArchConfig(n_slots=n_slots, routing=routing, wrap=False, **kw)
    return ShareStreamsScheduler(
        arch,
        [StreamConfig(sid=i, period=1, mode=mode) for i in range(n_slots)],
    )


workload = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 100)),
    min_size=1,
    max_size=60,
)


class TestConservation:
    @given(items=workload, cycles=st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_packets_conserved_winner_mode(self, items, cycles):
        """enqueued == serviced + latched + pending, always."""
        s = build(routing=Routing.WR)
        cursor = {i: 0 for i in range(4)}
        for sid, inc in items:
            cursor[sid] += inc
            s.enqueue(sid, deadline=cursor[sid], arrival=0)
        enqueued = len(items)
        serviced = 0
        for t in range(cycles):
            out = s.decision_cycle(t, consume="winner", count_misses=False)
            serviced += len(out.serviced)
        remaining = sum(
            slot.backlog + (1 if slot.head is not None else 0)
            for slot in s.active_slots
        )
        assert serviced + remaining == enqueued

    @given(items=workload)
    @settings(max_examples=40, deadline=None)
    def test_block_consume_services_whole_block(self, items):
        s = build(routing=Routing.BA)
        cursor = {i: 0 for i in range(4)}
        for sid, inc in items:
            cursor[sid] += inc
            s.enqueue(sid, deadline=cursor[sid], arrival=0)
        out = s.decision_cycle(0, consume="block", count_misses=False)
        assert sorted(sid for sid, _ in out.serviced) == sorted(out.block)


class TestRoutingInvariance:
    @given(items=workload)
    @settings(max_examples=40, deadline=None)
    def test_wr_and_ba_pick_same_winner(self, items):
        """Winner-only routing changes the interconnect, not the max."""
        winners = {}
        for routing in (Routing.WR, Routing.BA):
            s = build(routing=routing)
            cursor = {i: 0 for i in range(4)}
            for sid, inc in items:
                cursor[sid] += inc
                s.enqueue(sid, deadline=cursor[sid], arrival=0)
            winners[routing] = s.decision_cycle(
                0, consume="none", count_misses=False
            ).winner_sid
        assert winners[Routing.WR] == winners[Routing.BA]

    @given(items=workload)
    @settings(max_examples=40, deadline=None)
    def test_schedule_choice_preserves_winner(self, items):
        """Paper vs bitonic recirculation: identical winner."""
        winners = {}
        for schedule in ("paper", "bitonic"):
            s = build(schedule=schedule)
            cursor = {i: 0 for i in range(4)}
            for sid, inc in items:
                cursor[sid] += inc
                s.enqueue(sid, deadline=cursor[sid], arrival=0)
            winners[schedule] = s.decision_cycle(
                0, consume="none", count_misses=False
            ).winner_sid
        assert winners["paper"] == winners["bitonic"]


class TestFeasibilityInvariant:
    def test_feasible_edf_workload_has_no_misses(self):
        """Total utilization <= 1 with EDF: every deadline met."""
        # Four streams, each one frame per 4 cycles: load exactly 1.
        s = build(routing=Routing.WR)
        for sid in range(4):
            for k in range(100):
                # Stream sid's k-th frame due at (k+1)*4 staggered by sid.
                s.enqueue(sid, deadline=sid + (k + 1) * 4, arrival=4 * k)
        total_misses = 0
        for t in range(400):
            out = s.decision_cycle(t, consume="winner", count_misses=True)
            total_misses += len(out.misses)
        assert total_misses == 0

    def test_overload_always_misses(self):
        """Load 4x capacity: misses are unavoidable and counted."""
        s = build(routing=Routing.WR)
        for t in range(100):
            for sid in range(4):
                s.enqueue(sid, deadline=sid + 1 + t, arrival=t)
        misses = 0
        for t in range(100):
            misses += len(s.decision_cycle(t, consume="winner").misses)
        assert misses > 100


class TestGoldenTrace:
    def test_pinned_winner_sequence(self):
        """Regression pin: a fixed workload's exact decision trace."""
        s = build(routing=Routing.WR)
        deadlines = {0: [5, 9, 12], 1: [3, 4], 2: [7], 3: [1, 2, 20]}
        for sid, ds in deadlines.items():
            for k, d in enumerate(ds):
                s.enqueue(sid, deadline=d, arrival=k)
        trace = []
        for t in range(9):
            out = s.decision_cycle(t, consume="winner", count_misses=False)
            trace.append(out.circulated_sid)
        # Note the EDF winner bias: after stream 3 wins at t=0 its next
        # head (deadline 2) is biased to 3, so stream 1 (deadline 3,
        # earlier arrival) takes t=1.
        assert trace == [3, 1, 3, 0, 1, 2, 0, 0, 3]
