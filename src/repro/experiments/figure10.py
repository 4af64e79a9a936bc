"""Figure 10: aggregation of 100 streamlets into a stream-slot.

"We assigned 100 streamlet queues to each stream-slot and measured the
bandwidth at the Stream processor ... stream-slots are divided in the
ratio 1:1:2:4 ie. 2.0, 2.0, 4.0 and 8.0 MBps with 100 streamlets in
each slot with equal bandwidth allocation ... Stream-slot 4 has two
streamlet sets, set 1 with double bandwidth than set 2."
(Section 5.1.)

The FPGA enforces the slot-level shares (exactly Figure 8); the Stream
processor's round-robin attributes each slot service to a streamlet —
"Round-robin service policy can be completed fast and efficiently on
the Stream processor, while more complex ordering and decisions are
accelerated on the FPGA."

Expected streamlet bandwidths: 0.02 / 0.02 / 0.04 MBps in slots 1-3
(slot MBps / 100); in slot 4, set-1 streamlets get double the set-2
streamlets' bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.endsystem.aggregation import AggregatedSlot, StreamletKey, StreamletSet
from repro.endsystem.host import EndsystemConfig, EndsystemResult, EndsystemRouter
from repro.metrics.bandwidth import BandwidthMeter
from repro.traffic.specs import ratio_workload

__all__ = ["Figure10Result", "run_figure10"]

RATIOS = (1, 1, 2, 4)
STREAMLETS_PER_SLOT = 100


@dataclass
class Figure10Result:
    """Streamlet-level bandwidth attribution."""

    run: EndsystemResult
    streamlet_bw: BandwidthMeter
    aggregators: dict[int, AggregatedSlot]
    elapsed_us: float

    def streamlet_mbps(self) -> dict[StreamletKey, float]:
        """Mean bandwidth of every streamlet over the saturated phase.

        Uses a single window covering the phase so departures after it
        (when some slots have drained) do not skew the attribution.
        """
        return {
            _unpack(packed): mbps
            for packed, mbps in self.streamlet_bw.window_mbps(
                self.elapsed_us
            ).items()
        }

    def representative_mbps(self) -> dict[str, float]:
        """One representative streamlet per (slot, set) — what the
        figure plots."""
        per_group: dict[str, list[float]] = {}
        for (slot, set_idx, _sl), mbps in self.streamlet_mbps().items():
            per_group.setdefault(f"slot{slot + 1}/set{set_idx + 1}", []).append(
                mbps
            )
        return {
            group: sum(vals) / len(vals) for group, vals in sorted(per_group.items())
        }


def _pack(key: StreamletKey) -> int:
    slot, set_idx, streamlet = key
    return slot * 10_000 + set_idx * 1_000 + streamlet


def _unpack(packed: int) -> StreamletKey:
    return packed // 10_000, (packed % 10_000) // 1_000, packed % 1_000


def run_figure10(
    frames_per_stream: int = 64_000,
    *,
    streamlets_per_slot: int = STREAMLETS_PER_SLOT,
    engine: str = "reference",
    observer=None,
) -> Figure10Result:
    """Run the aggregation experiment.

    Slots 1-3 carry one streamlet set each; slot 4 carries two sets
    (50 + 50 streamlets) with set 1 at double the bandwidth of set 2.
    """
    aggregators = {
        0: AggregatedSlot(0, [StreamletSet(0, streamlets_per_slot)]),
        1: AggregatedSlot(1, [StreamletSet(0, streamlets_per_slot)]),
        2: AggregatedSlot(2, [StreamletSet(0, streamlets_per_slot)]),
        3: AggregatedSlot(
            3,
            [
                StreamletSet(0, streamlets_per_slot // 2, weight=2.0),
                StreamletSet(1, streamlets_per_slot // 2, weight=1.0),
            ],
        ),
    }
    streamlet_bw = BandwidthMeter()

    def on_departure(sid: int, frame, departure_us: float) -> None:
        key = aggregators[sid].pick()
        streamlet_bw.record(_pack(key), departure_us, frame.length_bytes)

    specs = ratio_workload(RATIOS, frames_per_stream=frames_per_stream)
    router = EndsystemRouter(
        specs,
        EndsystemConfig(engine=engine),
        on_departure=on_departure,
        observer=observer,
    )
    run = router.run(preload=True)
    # Streamlet bandwidth is meaningful over the saturated phase; use
    # the first quarter of the run as in Figure 8.
    return Figure10Result(
        run=run,
        streamlet_bw=streamlet_bw,
        aggregators=aggregators,
        elapsed_us=run.elapsed_us / 4,
    )
