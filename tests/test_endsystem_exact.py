"""The endsystem's event-driven refill and one-pass streamlet reduction.

Each is checked exactly against the straightforward version it
replaces: a streaming unit that refills every slot at every service,
and one bandwidth histogram per Figure 10 streamlet.
"""

import dataclasses

import numpy as np
import pytest

from repro.endsystem.streaming_unit import StreamingUnit
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import _pack, _unpack, run_figure10
from repro.metrics.bandwidth import BandwidthMeter


def _polling_refill_all(self, now_us):
    """Refill every slot, in ID order, at every service."""
    moved = 0
    pci_time = 0.0
    for sid in self.qm.stream_ids:
        n, t = self.refill_slot(sid, now_us)
        moved += n
        pci_time += t
    return moved, pci_time


def _observables(run) -> dict:
    """Everything one endsystem run reports, in comparable form."""
    te = run.te
    window = run.elapsed_us / 16
    return {
        "frames": run.frames_sent,
        "bytes": run.bytes_sent,
        "elapsed_us": run.elapsed_us,
        "bandwidth": {
            sid: te.bandwidth.series(sid, window, t_end=run.elapsed_us).mbps.tolist()
            for sid in te.bandwidth.stream_ids
        },
        "delay": {
            sid: (
                te.delay.series(sid).departures_us.tolist(),
                te.delay.series(sid).delays_us.tolist(),
            )
            for sid in te.delay.stream_ids
        },
        "pci": list(run.pci.transfers),
        "sram": [
            (dataclasses.astuple(bank.stats), bank.owner) for bank in run.sram.banks
        ],
    }


_FIGURES = {
    "figure8": lambda engine: run_figure8(300, engine=engine).run,
    # Timed arrivals: slots gain frames between services.
    "figure9": lambda engine: run_figure9(
        n_bursts=2, burst_size=300, engine=engine
    ).run,
    "figure10": lambda engine: run_figure10(300, engine=engine).run,
}


class TestEventDrivenRefill:
    @pytest.mark.parametrize("engine", ["reference", "tensor"])
    @pytest.mark.parametrize("figure", sorted(_FIGURES))
    def test_matches_refilling_every_slot(self, figure, engine, monkeypatch):
        calls = {"n": 0}
        refill_slot = StreamingUnit.refill_slot

        def counted(self, sid, now_us):
            calls["n"] += 1
            return refill_slot(self, sid, now_us)

        monkeypatch.setattr(StreamingUnit, "refill_slot", counted)
        event_driven = _observables(_FIGURES[figure](engine))
        event_calls = calls["n"]
        calls["n"] = 0
        monkeypatch.setattr(StreamingUnit, "refill_all", _polling_refill_all)
        polling = _observables(_FIGURES[figure](engine))
        assert event_driven["pci"]
        assert event_driven == polling
        # The polling unit inspects every slot at every service.
        assert event_calls < calls["n"] / 2

    def test_unwoken_slot_is_not_refilled(self):
        """After a short refill, a slot is left alone until it is woken."""
        from repro.core.attributes import SchedulingMode, StreamConfig
        from repro.core.batch_engine import make_scheduler
        from repro.core.config import ArchConfig, Routing
        from repro.endsystem.queue_manager import QueueManager
        from repro.traffic.specs import EndsystemStreamSpec

        specs = [EndsystemStreamSpec(sid=0, arrivals_us=np.zeros(6))]
        qm = QueueManager(specs)
        sched = make_scheduler(
            ArchConfig(n_slots=2, routing=Routing.WR, wrap=False),
            [StreamConfig(sid=0, mode=SchedulingMode.EDF)],
        )
        unit = StreamingUnit(qm, sched, {0: 1}, batch_size=4, card_queue_depth=8)
        qm.produce(0, 0.0)
        assert unit.refill_all(0.0)[0] == 1
        qm.produce(0, 0.0)
        assert unit.refill_all(0.0)[0] == 0  # not woken: left alone
        unit.wake(0)
        assert unit.refill_all(0.0)[0] == 1


def _per_streamlet(result) -> dict:
    """One histogram per streamlet, as the reduction used to run."""
    meter = result.streamlet_bw
    out = {}
    for packed in meter.stream_ids:
        series = meter.series(packed, result.elapsed_us, t_end=result.elapsed_us)
        out[_unpack(packed)] = float(series.mbps[0]) if len(series.mbps) else 0.0
    return out


class TestStreamletReduction:
    @pytest.mark.parametrize("frames", [200, 700])
    def test_one_pass_equals_per_streamlet_series(self, frames):
        result = run_figure10(frames)
        meter = result.streamlet_bw
        # A streamlet whose only departure falls after the window, and
        # one whose only departure sits on the window's closed end.
        meter.record(_pack((3, 1, 998)), result.elapsed_us * 2, 1500)
        meter.record(_pack((3, 1, 999)), result.elapsed_us, 1500)
        want = _per_streamlet(result)
        assert want[(3, 1, 998)] == 0.0
        assert want[(3, 1, 999)] > 0.0
        got = result.streamlet_mbps()
        assert got == want
        assert list(got) == list(want)
        assert all(type(v) is float for v in got.values())

    def test_empty_meter(self):
        assert BandwidthMeter().window_mbps(10.0) == {}
