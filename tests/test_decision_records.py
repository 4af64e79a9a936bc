"""Contract of the per-decision records and of the oracle's enqueue.

The four records every decision builds keep their field names, order
and defaults, refuse assignment, survive a pickle round trip (runner
shards pickle :class:`EngineTrace`) and keep their derived properties.
"""

import inspect
import pickle

import pytest

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.differential import CycleRecord, generate_scenario, run_engine
from repro.core.register_block import PendingPacket
from repro.core.scheduler import DecisionOutcome, ShareStreamsScheduler
from repro.core.shuffle import NetworkResult

_EMPTY = inspect.Parameter.empty

#: record -> its constructor's (field, default) pairs, in order.
RECORDS = {
    DecisionOutcome: [
        ("now", _EMPTY),
        ("block", _EMPTY),
        ("circulated_sid", _EMPTY),
        ("serviced", _EMPTY),
        ("misses", _EMPTY),
        ("hw_cycles", _EMPTY),
        ("dropped", ()),
    ],
    PendingPacket: [("deadline", _EMPTY), ("arrival", _EMPTY), ("length", 1500)],
    NetworkResult: [("order", _EMPTY), ("passes", _EMPTY), ("comparisons", _EMPTY)],
    CycleRecord: [
        ("now", _EMPTY),
        ("block", _EMPTY),
        ("circulated", _EMPTY),
        ("serviced", _EMPTY),
        ("misses", _EMPTY),
        ("hw_cycles", _EMPTY),
        ("dropped", _EMPTY),
    ],
}


def _scheduler(routing=Routing.BA):
    return ShareStreamsScheduler(
        ArchConfig(n_slots=4, routing=routing, block_mode=BlockMode.MAX_FIRST),
        [StreamConfig(sid=i, period=2, mode=SchedulingMode.EDF) for i in range(3)],
    )


def _outcome() -> DecisionOutcome:
    """A real busy outcome with a serviced block."""
    sched = _scheduler()
    for sid in range(3):
        sched.enqueue(sid, deadline=10 - sid, arrival=0)
    return sched.decision_cycle(0, consume="block")


def _instances():
    outcome = _outcome()
    sched = _scheduler()
    result = sched.network.run(sched._wiring()[1])
    record = run_engine(generate_scenario(3, n_cycles=40), "reference").records[-1]
    return {
        DecisionOutcome: outcome,
        PendingPacket: outcome.serviced[0][1],
        NetworkResult: result,
        CycleRecord: record,
    }


class TestRecordContract:
    @pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
    def test_fields_order_and_defaults(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == RECORDS[cls]

    @pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
    def test_fields_refuse_assignment(self, cls):
        record = _instances()[cls]
        for name, _ in RECORDS[cls]:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, 7)
            assert getattr(record, name) is before

    @pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
    def test_pickle_round_trip(self, cls):
        record = _instances()[cls]
        if cls is NetworkResult:
            # Its bundles are mutable registers: compare what they hold.
            back = pickle.loads(pickle.dumps(record))
            assert [b.sid for b in back.order] == [b.sid for b in record.order]
            assert back[1:] == record[1:]
            return
        assert pickle.loads(pickle.dumps(record)) == record

    def test_engine_trace_pickles(self):
        trace = run_engine(generate_scenario(5, n_cycles=60), "tensor")
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace
        assert type(back.records[0]) is CycleRecord

    def test_positional_and_keyword_builds_agree(self):
        packet = PendingPacket(5, 2)
        assert packet == PendingPacket(deadline=5, arrival=2, length=1500)
        assert packet.length == 1500
        assert DecisionOutcome(3, (), None, (), (), 3).dropped == ()

    def test_winner_sid(self):
        outcome = _outcome()
        assert outcome.block == (2, 1, 0)
        assert outcome.winner_sid == 2
        assert DecisionOutcome(0, (), None, (), (), 3).winner_sid is None

    def test_network_winner(self):
        result = _instances()[NetworkResult]
        assert result.winner is result.order[0]
        assert result.comparisons == result.passes * 2


class TestOracleEnqueue:
    @pytest.mark.parametrize("sid", [-1, 4, 99])
    def test_out_of_range_sid(self, sid):
        sched = _scheduler()
        sched.enqueue(0, deadline=4, arrival=0)
        with pytest.raises(ValueError, match="out of range for 4-slot"):
            sched.enqueue(sid, deadline=5, arrival=0)
        self._assert_only_slot0_queued(sched)

    def test_unloaded_slot(self):
        sched = _scheduler()
        sched.enqueue(0, deadline=4, arrival=0)
        with pytest.raises(KeyError, match="no stream loaded in slot 3"):
            sched.enqueue(3, deadline=5, arrival=0)
        assert sched.slots[3] is None
        self._assert_only_slot0_queued(sched)

    @staticmethod
    def _assert_only_slot0_queued(sched):
        heads = [slot.head for slot in sched.active_slots]
        backlogs = [slot.backlog for slot in sched.active_slots]
        assert heads == [PendingPacket(4, 0, 1500), None, None]
        assert backlogs == [0, 0, 0]
