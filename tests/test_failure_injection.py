"""Failure-injection and stress tests across the system layers."""

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.endsystem import EndsystemConfig, EndsystemRouter
from repro.traffic.specs import EndsystemStreamSpec, ratio_workload


class TestTinyCardQueues:
    def test_depth_one_still_conserves_and_shares(self):
        """Card queues of depth 1 throttle but never lose frames."""
        specs = ratio_workload((1, 2), frames_per_stream=300)
        config = EndsystemConfig(batch_size=1, card_queue_depth=1)
        router = EndsystemRouter(specs, config)
        result = router.run(preload=True)
        assert result.frames_sent == 600

    def test_small_batches_match_large(self):
        """Transfer batch size is a performance knob, not a semantic one."""
        def run(batch):
            specs = ratio_workload((1, 2), frames_per_stream=200)
            router = EndsystemRouter(
                specs, EndsystemConfig(batch_size=batch)
            )
            result = router.run(preload=True)
            bw = result.te.bandwidth
            return [bw.total_bytes(sid) for sid in bw.stream_ids]

        assert run(1) == run(64)


class TestStarvationAndGaps:
    def test_idle_gap_then_resume(self):
        """Workload with a long silent gap: the service chain restarts."""
        arrivals = np.concatenate(
            [np.arange(50) * 100.0, 1e6 + np.arange(50) * 100.0]
        )
        specs = [
            EndsystemStreamSpec(sid=0, share=1.0, arrivals_us=arrivals)
        ]
        router = EndsystemRouter(specs)
        result = router.run(preload=False)
        assert result.frames_sent == 100
        assert result.elapsed_us >= 1e6

    def test_one_empty_stream_never_blocks_others(self):
        specs = [
            EndsystemStreamSpec(
                sid=0, share=1.0, arrivals_us=np.zeros(100)
            ),
            EndsystemStreamSpec(
                sid=1, share=1.0, arrivals_us=np.zeros(0)
            ),
        ]
        router = EndsystemRouter(specs)
        result = router.run(preload=True)
        assert result.frames_sent == 100


class TestSchedulerEdgeCases:
    def test_all_slots_drain_mid_run(self):
        arch = ArchConfig(n_slots=4, routing=Routing.WR, wrap=False)
        s = ShareStreamsScheduler(
            arch,
            [
                StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
                for i in range(4)
            ],
        )
        s.enqueue(0, deadline=1, arrival=0)
        out1 = s.decision_cycle(0)
        out2 = s.decision_cycle(1)
        assert out1.circulated_sid == 0
        assert out2.circulated_sid is None
        # Re-arming after a dry spell works.
        s.enqueue(2, deadline=5, arrival=2)
        assert s.decision_cycle(2).circulated_sid == 2

    def test_single_populated_slot_of_32(self):
        arch = ArchConfig(n_slots=32, routing=Routing.WR, wrap=False)
        s = ShareStreamsScheduler(
            arch, [StreamConfig(sid=17, period=1, mode=SchedulingMode.EDF)]
        )
        for k in range(10):
            s.enqueue(17, deadline=k + 1, arrival=k)
        for t in range(10):
            assert s.decision_cycle(t).circulated_sid == 17

    def test_deadline_wrap_horizon_behavior(self):
        """Wrapped mode inverts ordering past the 32768 horizon —
        a documented hardware artifact the ideal mode avoids."""
        arch = ArchConfig(n_slots=2, routing=Routing.WR, wrap=True)
        s = ShareStreamsScheduler(
            arch,
            [
                StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
                for i in range(2)
            ],
        )
        s.enqueue(0, deadline=0, arrival=0)
        s.enqueue(1, deadline=40_000, arrival=0)
        # 0 vs 40000: serial distance > 2**15, so 40000 "precedes" 0.
        assert s.decision_cycle(0, count_misses=False).circulated_sid == 1


class TestDropPolicyUnderOverload:
    def test_dwcs_drop_late_sheds_backlog(self):
        from repro.disciplines import DWCS, Packet, SwStream

        dwcs = DWCS(drop_late=True)
        for sid in range(2):
            dwcs.add_stream(
                SwStream(
                    stream_id=sid,
                    period=1,
                    loss_numerator=1,
                    loss_denominator=2,
                )
            )
        # 2x overload: one service per tick, two arrivals per tick.
        for k in range(200):
            for sid in range(2):
                dwcs.enqueue(
                    Packet(
                        stream_id=sid,
                        seq=k,
                        arrival=float(k),
                        deadline=float(k + 1),
                    )
                )
        served = 0
        for t in range(200):
            if dwcs.dequeue(float(t)) is not None:
                served += 1
        # Dropping keeps the backlog bounded near the lateness horizon.
        assert len(dwcs.dropped) > 0
        assert dwcs.backlog < 100
        assert served == 200

    def test_register_block_drop_late_chain(self):
        from repro.core.register_block import RegisterBaseBlock

        slot = RegisterBaseBlock(
            StreamConfig(sid=0, period=1, mode=SchedulingMode.DWCS), wrap=False
        )
        for k in range(5):
            slot.enqueue_request(deadline=k + 1, arrival=k)
        # At t=10 everything is late; drop until the queue empties.
        dropped = 0
        while slot.drop_late_head(10) is not None:
            dropped += 1
        assert dropped == 5
        assert slot.head is None


class TestRingOverflowPaths:
    def test_qm_overflow_counted_not_lost_silently(self):
        from repro.endsystem.queue_manager import QueueManager

        specs = [
            EndsystemStreamSpec(sid=0, share=1.0, arrivals_us=np.zeros(10))
        ]
        qm = QueueManager(specs, queue_capacity=4)
        queued = qm.preload(0)
        assert queued == 4
        assert qm.descriptors[0].dropped_full == 1  # stops at first drop

    def test_fabric_overflow_counted(self):
        from repro.linecard import DualPortedSRAM, SwitchFabric

        sram = DualPortedSRAM(1, queue_depth=4)
        fabric = SwitchFabric(sram)
        fabric.offer(0, range(100))
        assert sram.stats.packets_deposited == 4
        assert sram.stats.packets_dropped_full == 1
