"""Endsystem/host-router realization: the full Figure 3 pipeline.

Composes the Queue Manager, Streaming Unit, FPGA scheduler and
Transmission Engine into one simulated host router:

* frames arrive into QM per-stream circular queues (producer side);
* the streaming unit batches 16-bit arrival-time offsets over PCI into
  the card-side slot queues, assigning virtual deadlines that realize
  each stream's share (``deadline += period`` per request);
* the scheduler hardware (max-finding configuration — "critical for
  bandwidth allocation", Section 5.1) picks a winner per service slot;
* the TE pops the winner's frame and serializes it onto the output
  link, the pipeline rate being the slowest concurrent stage.

The default playout link is 128 Mbit/s — calibrated so the 1:1:2:4 run
lands on the paper's 2/2/4/8 MBps per-stream bandwidths (Figures 8 and
10); Section 5.2's throughput configuration swaps in a 10 GbE link so
the host cost dominates, reproducing the 469k/299k pps anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from repro.core.attributes import StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import TensorScheduler
from repro.endsystem.queue_manager import Frame, QueueManager
from repro.endsystem.streaming_unit import StreamingUnit
from repro.endsystem.transmission import TransmissionEngine
from repro.hwmodel.host import PIII_550_LINUX24, HostCostModel
from repro.hwmodel.timing import decision_time_us
from repro.sim.engine import Simulator
from repro.sim.nic import Link
from repro.sim.pci import PCIBus, PCIConfig
from repro.sim.sram import BankedSRAM
from repro.traffic.specs import EndsystemStreamSpec

__all__ = ["EndsystemConfig", "EndsystemResult", "EndsystemRouter", "PLAYOUT_LINK_128M"]

#: Effective drain rate calibrated to the paper's Figure 8/10 scale
#: (aggregate ~16 MBps over four streams at 1:1:2:4 -> 2/2/4/8 MBps).
PLAYOUT_LINK_128M = Link("playout-128Mbps", 128e6)


#: Per-frame cost of peer-to-peer batched DMA transfers: the DMA setup
#: amortized over a 64-offset batch plus burst streaming, with no
#: host-mediated PIO and no SRAM bank ping-pong (Section 5.2's expected
#: improvement: "peer-peer transfers can be completed with high-rates
#: on modern backplane buses").
PEER_TRANSFER_COST_US = 0.15


@dataclass(frozen=True, slots=True)
class EndsystemConfig:
    """Configuration of one endsystem router instance.

    ``peer_to_peer`` replaces the per-frame PIO cost with the amortized
    peer DMA cost — the forward-looking configuration Section 5.2
    anticipates (e.g. a network processor on the PCI bus exchanging
    directly with the FPGA card).

    ``engine`` selects the scheduler implementation: ``"reference"``
    (the cycle-level object model, the oracle) or ``"tensor"`` (the
    array engine's single-scenario adapter) — behaviorally identical,
    cross-validated by :mod:`repro.core.differential`.
    """

    link: Link = PLAYOUT_LINK_128M
    host: HostCostModel = PIII_550_LINUX24
    pci: PCIConfig = field(default_factory=PCIConfig)
    include_pci: bool = True
    peer_to_peer: bool = False
    batch_size: int = 64
    card_queue_depth: int = 256
    n_slots: int = 4
    routing: Routing = Routing.WR
    sram_switch_cost_us: float = 1.0
    engine: str = "reference"

    @property
    def transfer_cost_us(self) -> float:
        """Per-frame transfer cost on the critical path."""
        if not self.include_pci:
            return 0.0
        if self.peer_to_peer:
            return PEER_TRANSFER_COST_US
        return self.host.pio_cost_us


@dataclass
class EndsystemResult:
    """Measurements of one endsystem run."""

    elapsed_us: float
    frames_sent: int
    bytes_sent: int
    te: TransmissionEngine
    pci: PCIBus
    sram: BankedSRAM
    scheduler: ShareStreamsScheduler | TensorScheduler

    @property
    def throughput_pps(self) -> float:
        """Frames per second over the whole run."""
        return self.frames_sent / self.elapsed_us * 1e6 if self.elapsed_us else 0.0

    @property
    def throughput_mbps(self) -> float:
        """Megabytes per second over the whole run."""
        return self.bytes_sent / self.elapsed_us if self.elapsed_us else 0.0


class EndsystemRouter:
    """The composed endsystem/host-router simulation.

    Parameters
    ----------
    specs:
        Workload streams (one per scheduler slot).
    config:
        Endsystem parameters.
    on_departure:
        Optional ``(sid, frame, departure_us)`` hook (aggregation).
    observer:
        Telemetry hook, forwarded to the scheduler engine (per-decision
        events/metrics).  When it is a full
        :class:`repro.observability.Observability`, the router
        additionally profiles its pipeline phases (refill / decide /
        transmit) and feeds endsystem metrics (frames/bytes
        transmitted, card-queue depths).  ``None`` disables all of it.
    """

    def __init__(
        self,
        specs: list[EndsystemStreamSpec],
        config: EndsystemConfig | None = None,
        *,
        on_departure: Callable[[int, Frame, float], None] | None = None,
        observer=None,
    ) -> None:
        self.config = config or EndsystemConfig()
        if len(specs) > self.config.n_slots:
            raise ValueError(
                f"{len(specs)} streams exceed {self.config.n_slots} slots"
            )
        self.specs = list(specs)
        self.sim = Simulator()
        self.qm = QueueManager(specs)
        self.pci = PCIBus(self.config.pci)
        self.sram = BankedSRAM(switch_cost_us=self.config.sram_switch_cost_us)

        periods = self._periods_from_shares()
        arch = ArchConfig(
            n_slots=self.config.n_slots,
            routing=self.config.routing,
            wrap=False,  # ideal arithmetic: runs exceed the 16-bit horizon
        )
        streams = [
            StreamConfig(
                sid=spec.sid,
                period=periods[spec.sid],
                loss_numerator=spec.loss_numerator,
                loss_denominator=spec.loss_denominator,
                initial_deadline=0,
                mode=spec.mode,
            )
            for spec in specs
        ]
        self.scheduler = make_scheduler(
            arch, streams, engine=self.config.engine, observer=observer
        )
        self.observer = observer
        # Telemetry is duck-typed so a bare TraceRecorder works too;
        # every helper below is None when disabled (zero overhead).
        self._phase = getattr(observer, "phase", None)
        metrics = getattr(observer, "metrics", None)
        if metrics is not None:
            self._tx_frames = metrics.counter(
                "endsystem_tx_frames_total", "frames onto the playout link"
            )
            self._tx_bytes = metrics.counter(
                "endsystem_tx_bytes_total", "bytes onto the playout link"
            )
            self._card_depth = metrics.gauge(
                "endsystem_card_queue_depth",
                "card-side slot queue depth at last service",
            )
            # sid -> (frames, bytes, depth) series, resolved on first service
            self._tx_series: dict[int, tuple] = {}
        else:
            self._tx_frames = self._tx_bytes = self._card_depth = None
        self.streaming = StreamingUnit(
            self.qm,
            self.scheduler,
            periods,
            pci=self.pci,
            sram=self.sram,
            batch_size=self.config.batch_size,
            card_queue_depth=self.config.card_queue_depth,
        )
        self.te = TransmissionEngine(
            self.qm,
            self.config.link,
            host=self.config.host,
            include_pci=self.config.include_pci,
            pci=self.pci,
            hw_decision_us=decision_time_us(
                self.config.n_slots, self.config.routing
            ),
            transfer_cost_us=self.config.transfer_cost_us
            if self.config.include_pci
            else None,
            on_departure=on_departure,
        )
        self._tick = 0  # scheduler virtual time (decision count)
        self._pending_arrivals = 0

    # ------------------------------------------------------------------

    def _periods_from_shares(self) -> dict[int, int]:
        """Integer request periods inversely proportional to shares.

        Each share is divided by the smallest before it is rounded to a
        fraction, so the periods depend only on the ratios: ``(100, 1)``
        and ``(1, 0.01)`` both give periods ``1`` and ``100``.
        """
        smallest = min(spec.share for spec in self.specs)
        shares = {
            spec.sid: Fraction(spec.share / smallest).limit_denominator(64)
            for spec in self.specs
        }
        top = max(shares.values())
        rel = {sid: top / s for sid, s in shares.items()}
        denom_lcm = math.lcm(*(frac.denominator for frac in rel.values()))
        return {sid: int(frac * denom_lcm) for sid, frac in rel.items()}

    # ------------------------------------------------------------------

    def _schedule_arrivals(self) -> None:
        """Emit producer events for every frame with a timed arrival."""
        for spec in self.specs:
            for arrival in spec.arrivals_us:
                self.sim.schedule_at(
                    float(arrival), self._on_arrival, spec.sid, float(arrival)
                )
                self._pending_arrivals += 1

    def _on_arrival(self, sid: int, arrival_us: float) -> None:
        self.qm.produce(sid, arrival_us)
        self.streaming.wake(sid)
        self._pending_arrivals -= 1

    def _service(self) -> None:
        """One TE service slot: refill, decide, transmit, reschedule."""
        now = self.sim.now
        # Keep the card queues topped up (streaming unit runs
        # concurrently; PCI time is accounted, not serialized here —
        # its critical-path share is in the TE's per-frame PIO cost).
        if self._phase is None:
            self.streaming.refill_all(now)
            outcome = self.scheduler.decision_cycle(
                self._tick, consume="winner", count_misses=False
            )
        else:
            with self._phase("endsystem.refill"):
                self.streaming.refill_all(now)
            with self._phase("endsystem.decide"):
                outcome = self.scheduler.decision_cycle(
                    self._tick, consume="winner", count_misses=False
                )
        self._tick += 1
        if outcome.circulated_sid is None:
            # Nothing eligible on the card.
            if self._pending_arrivals > 0:
                next_time = self.sim.peek_time()
                if next_time is not None:
                    self.sim.schedule_at(
                        max(next_time, now), self._service
                    )
                return
            return  # workload drained: stop the service chain
        sid = outcome.circulated_sid
        self.streaming.wake(sid)  # the serviced head left card room
        if self._phase is None:
            frame, done = self.te.transmit(sid, now)
        else:
            with self._phase("endsystem.transmit"):
                frame, done = self.te.transmit(sid, now)
        if frame is None:
            # Offsets reached the card before the frame hit the QM ring
            # (transient); retry at the next event.
            self.sim.schedule(1.0, self._service)
            return
        if self._tx_frames is not None:
            series = self._tx_series.get(sid)
            if series is None:
                series = self._tx_series[sid] = (
                    self._tx_frames.labels(stream=sid),
                    self._tx_bytes.labels(stream=sid),
                    self._card_depth.labels(stream=sid),
                )
            frames, nbytes, depth = series
            frames.inc()
            nbytes.inc(frame.length_bytes)
            depth.set(self.scheduler.slot(sid).backlog)
        self.sim.schedule_at(done, self._service)

    # ------------------------------------------------------------------

    def run(self, *, preload: bool = False, max_events: int | None = None) -> EndsystemResult:
        """Execute the workload to completion.

        ``preload=True`` queues every frame up-front (the Section 5.2
        methodology); otherwise frames arrive per their spec times.
        """
        if preload:
            for spec in self.specs:
                self.qm.preload(spec.sid)
        else:
            self._schedule_arrivals()
        self.sim.schedule(0.0, self._service)
        self.sim.run(max_events=max_events)
        finalize = getattr(self.observer, "finalize", None)
        if finalize is not None:
            finalize()  # flush the conformance monitor's partial window
        return EndsystemResult(
            elapsed_us=self.sim.now,
            frames_sent=self.te.frames_sent,
            bytes_sent=self.te.bytes_sent,
            te=self.te,
            pci=self.pci,
            sram=self.sram,
            scheduler=self.scheduler,
        )
