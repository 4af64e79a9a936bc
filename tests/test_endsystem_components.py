"""Tests for the endsystem components: QM, streaming unit, TE, aggregation."""

import numpy as np
import pytest

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.endsystem.aggregation import AggregatedSlot, StreamletSet
from repro.endsystem.queue_manager import QueueManager
from repro.endsystem.streaming_unit import StreamingUnit
from repro.endsystem.transmission import TransmissionEngine
from repro.sim.nic import Link
from repro.traffic.specs import EndsystemStreamSpec


def make_specs(n=2, frames=10):
    return [
        EndsystemStreamSpec(
            sid=i,
            share=1.0,
            arrivals_us=np.zeros(frames),
        )
        for i in range(n)
    ]


class TestQueueManager:
    def test_produce_and_pop(self):
        qm = QueueManager(make_specs())
        frame = qm.produce(0, arrival_us=5.0)
        assert frame.seq == 0
        assert qm.backlog(0) == 1
        popped = qm.pop(0)
        assert popped is frame
        assert qm.descriptors[0].consumed == 1

    def test_preload_queues_workload(self):
        qm = QueueManager(make_specs(frames=25))
        assert qm.preload(1) == 25
        assert qm.backlog(1) == 25

    def test_full_ring_drops(self):
        specs = make_specs(frames=10)
        qm = QueueManager(specs, queue_capacity=4)
        for _ in range(4):
            assert qm.produce(0, 0.0) is not None
        assert qm.produce(0, 0.0) is None
        assert qm.descriptors[0].dropped_full == 1

    def test_duplicate_sid_rejected(self):
        specs = make_specs(2)
        specs[1] = EndsystemStreamSpec(sid=0, arrivals_us=np.zeros(1))
        with pytest.raises(ValueError):
            QueueManager(specs)

    def test_total_backlog(self):
        qm = QueueManager(make_specs())
        qm.produce(0, 0.0)
        qm.produce(1, 0.0)
        assert qm.total_backlog == 2


class TestStreamingUnit:
    """The streaming unit over the oracle; the subclass below reruns
    every case on the array engine's adapter."""

    engine = "reference"

    def _setup(self, batch=4, depth=8):
        specs = make_specs(n=2, frames=20)
        qm = QueueManager(specs)
        arch = ArchConfig(n_slots=2, routing=Routing.WR, wrap=False)
        sched = make_scheduler(
            arch,
            [
                StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
                for i in range(2)
            ],
            engine=self.engine,
        )
        unit = StreamingUnit(
            qm, sched, {0: 2, 1: 3}, batch_size=batch, card_queue_depth=depth
        )
        return qm, sched, unit

    def test_refill_moves_batch(self):
        qm, sched, unit = self._setup(batch=4)
        qm.preload(0)
        moved, pci_time = unit.refill_slot(0, now_us=0.0)
        assert moved == 4
        assert pci_time > 0
        assert unit.card_backlog(0) == 4

    def test_deadlines_advance_by_period(self):
        qm, sched, unit = self._setup(batch=3)
        qm.preload(1)  # period 3
        unit.refill_slot(1, 0.0)
        slot = sched.slot(1)
        deadlines = [slot.head.deadline]
        deadlines += [p.deadline for p in slot.pending]
        assert deadlines == [3, 6, 9]

    def test_respects_card_depth(self):
        qm, sched, unit = self._setup(batch=64, depth=8)
        qm.preload(0)
        unit.refill_slot(0, 0.0)
        assert unit.card_backlog(0) == 8

    def test_nothing_to_ship_is_noop(self):
        qm, sched, unit = self._setup()
        moved, pci_time = unit.refill_slot(0, 0.0)
        assert (moved, pci_time) == (0, 0.0)

    def test_nothing_left_to_ship_skips_the_card(self, monkeypatch):
        """Once every arrived frame is on the card, a refill returns
        before it inspects the slot or touches the bus."""
        qm, sched, unit = self._setup(batch=64, depth=64)
        qm.preload(0)
        assert unit.refill_slot(0, 0.0)[0] == 20
        transfers = len(unit.pci.transfers)

        def inspected(sid):
            raise AssertionError(f"slot {sid} inspected")

        monkeypatch.setattr(sched, "slot", inspected)
        assert unit.refill_slot(0, 0.0) == (0, 0.0)
        assert unit.refill_slot(1, 0.0) == (0, 0.0)
        assert len(unit.pci.transfers) == transfers

    def test_refill_all(self):
        qm, sched, unit = self._setup(batch=2)
        qm.preload(0)
        qm.preload(1)
        moved, _ = unit.refill_all(0.0)
        assert moved == 4

    def test_validation(self):
        qm, sched, _ = self._setup()
        with pytest.raises(ValueError):
            StreamingUnit(qm, sched, {0: 1, 1: 1}, batch_size=0)


class TestStreamingUnitTensor(TestStreamingUnit):
    engine = "tensor"


class TestTransmissionEngine:
    def _te(self, include_pci=False):
        specs = make_specs(n=1, frames=5)
        qm = QueueManager(specs)
        qm.preload(0)
        link = Link("fast", 1e10)
        te = TransmissionEngine(qm, link, include_pci=include_pci)
        return qm, te

    def test_transmit_pops_and_records(self):
        qm, te = self._te()
        frame, done = te.transmit(0, now_us=0.0)
        assert frame is not None
        assert done > 0
        assert te.frames_sent == 1
        assert te.bandwidth.total_bytes(0) == 1500
        assert len(te.delay.series(0).delays_us) == 1

    def test_empty_stream_is_noop(self):
        qm, te = self._te()
        for _ in range(5):
            te.transmit(0, 0.0)
        frame, done = te.transmit(0, now_us=7.0)
        assert frame is None and done == 7.0

    def test_service_time_host_bound_without_pci(self):
        qm, te = self._te(include_pci=False)
        assert te.service_time_us(1500) == pytest.approx(
            te.host.packet_cost_us
        )

    def test_service_time_adds_pio(self):
        qm, te = self._te(include_pci=True)
        assert te.service_time_us(1500) == pytest.approx(
            te.host.packet_cost_us + te.host.pio_cost_us
        )

    def test_departure_hook(self):
        specs = make_specs(n=1, frames=2)
        qm = QueueManager(specs)
        qm.preload(0)
        seen = []
        te = TransmissionEngine(
            qm,
            Link("l", 1e9),
            include_pci=False,
            on_departure=lambda sid, f, t: seen.append((sid, f.seq)),
        )
        te.transmit(0, 0.0)
        assert seen == [(0, 0)]


class TestAggregation:
    def test_round_robin_within_set(self):
        slot = AggregatedSlot(0, [StreamletSet(0, 3)])
        picks = [slot.pick()[2] for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_weighted_sets_share_2_to_1(self):
        slot = AggregatedSlot(
            3, [StreamletSet(0, 2, weight=2.0), StreamletSet(1, 2, weight=1.0)]
        )
        counts = {0: 0, 1: 0}
        for _ in range(300):
            counts[slot.pick()[1]] += 1
        assert counts[0] == 200
        assert counts[1] == 100

    def test_smooth_interleaving(self):
        # Smooth WRR: no long bursts from one set at weight 2:1.
        slot = AggregatedSlot(
            0, [StreamletSet(0, 1, weight=2.0), StreamletSet(1, 1, weight=1.0)]
        )
        seq = [slot.pick()[1] for _ in range(9)]
        # Set 1 appears once in every 3 picks.
        for i in range(0, 9, 3):
            assert seq[i : i + 3].count(1) == 1

    def test_service_counts(self):
        slot = AggregatedSlot(1, [StreamletSet(0, 2)])
        slot.pick()
        slot.pick()
        slot.pick()
        counts = slot.service_counts()
        assert counts[(1, 0, 0)] == 2
        assert counts[(1, 0, 1)] == 1

    def test_streamlet_total(self):
        slot = AggregatedSlot(
            0, [StreamletSet(0, 50), StreamletSet(1, 50)]
        )
        assert slot.n_streamlets == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregatedSlot(0, [])
        with pytest.raises(ValueError):
            AggregatedSlot(0, [StreamletSet(0, 1), StreamletSet(0, 1)])
        with pytest.raises(ValueError):
            StreamletSet(0, 0)
        with pytest.raises(ValueError):
            StreamletSet(0, 1, weight=0.0)


class TestStreamingUnitTransferModes:
    def _unit(self, mode):
        specs = make_specs(n=1, frames=200)
        qm = QueueManager(specs)
        qm.preload(0)
        arch = ArchConfig(n_slots=2, routing=Routing.WR, wrap=False)
        sched = ShareStreamsScheduler(
            arch, [StreamConfig(sid=0, period=1, mode=SchedulingMode.EDF)]
        )
        unit = StreamingUnit(
            qm, sched, {0: 1}, batch_size=128, card_queue_depth=256,
            transfer_mode=mode,
        )
        return unit

    def test_forced_pio_mode(self):
        unit = self._unit("pio")
        unit.refill_slot(0, 0.0)
        assert all(t.mode == "pio" for t in unit.pci.transfers)

    def test_forced_dma_mode(self):
        unit = self._unit("dma")
        unit.refill_slot(0, 0.0)
        assert all(t.mode == "dma" for t in unit.pci.transfers)

    def test_auto_picks_cheaper(self):
        unit = self._unit("auto")
        unit.refill_slot(0, 0.0)  # 128 offsets = 64 words -> DMA wins
        assert unit.pci.transfers[0].mode == unit.pci.best_mode(64)
