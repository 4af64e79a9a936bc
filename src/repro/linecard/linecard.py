"""Switch line-card realization (Figure 2).

"Dual-ported SRAM allows packets arriving from the switch-fabric to be
placed in per-stream SRAM queues.  Their arrival times can be read by
the SRAM interface concurrently.  Winner Stream IDs are written into
the SRAM partition by the SRAM interface." (Section 4.2.)

Unlike the endsystem path there is no PCI bus and no host software on
the critical path — the dual-ported memory gives the scheduler
single-cycle access to arrival times, so the line-card runs decisions
back-to-back at the FPGA clock.  That is where the paper's headline
7.6 million packets/second (4 slots, Virtex-I) comes from; this module
couples the cycle-level behavioral scheduler to the calibrated clock
model to regenerate it, and to produce Stream-ID sequences for QoS
checks at line rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import StreamConfig
from repro.core.config import ArchConfig
from repro.core.scheduler import ShareStreamsScheduler
from repro.hwmodel.timing import clock_rate_mhz, decision_cycles

__all__ = ["LinecardResult", "Linecard", "FabricLinecard"]


@dataclass(frozen=True, slots=True)
class LinecardResult:
    """Outcome of a line-card run."""

    decisions: int
    packets_scheduled: int
    hw_cycles: int
    clock_mhz: float
    winner_sequence: tuple[int, ...]

    @property
    def elapsed_us(self) -> float:
        """Wall time the run takes at the modeled clock."""
        return self.hw_cycles / self.clock_mhz

    @property
    def throughput_pps(self) -> float:
        """Scheduled packets per second."""
        if self.hw_cycles == 0:
            return 0.0
        return self.packets_scheduled / self.elapsed_us * 1e6


class Linecard:
    """Behavioral line-card: fabric-fed scheduler at FPGA clock rate.

    Parameters
    ----------
    arch:
        Scheduler architecture configuration.
    streams:
        Stream constraints bound to the slots.
    observer:
        Telemetry hook forwarded to the scheduler (per-decision
        events/metrics); its ``finalize`` (if any) runs after each
        run.  The run's modeled hardware cycles are
        :attr:`LinecardResult.hw_cycles` and, with an
        :class:`repro.observability.Observability`, the
        ``sharestreams_hw_cycles_total`` counter.
    """

    def __init__(
        self,
        arch: ArchConfig,
        streams: list[StreamConfig],
        *,
        observer=None,
    ) -> None:
        self.arch = arch
        self.observer = observer
        self.scheduler = ShareStreamsScheduler(arch, streams, observer=observer)
        self.clock_mhz = clock_rate_mhz(arch.n_slots, arch.routing)
        self.cycles_per_decision = decision_cycles(
            arch.n_slots, schedule=arch.schedule
        )

    def feed(self, sid: int, deadline: int, arrival: int, length: int = 64) -> None:
        """Switch fabric deposits one packet's arrival record."""
        self.scheduler.enqueue(sid, deadline=deadline, arrival=arrival, length=length)

    def run(
        self,
        n_decisions: int,
        *,
        consume: str = "winner",
        record_winners: bool = False,
    ) -> LinecardResult:
        """Run ``n_decisions`` back-to-back decision cycles.

        ``consume="block"`` (with BA routing) emits the whole sorted
        block per decision — the factor-of-block-size throughput gain.
        """
        winners: list[int] = []
        packets = 0
        for t in range(n_decisions):
            outcome = self.scheduler.decision_cycle(
                t, consume=consume, count_misses=False
            )
            packets += len(outcome.serviced)
            if record_winners and outcome.circulated_sid is not None:
                winners.append(outcome.circulated_sid)
        self._finalize_observer()
        return LinecardResult(
            decisions=n_decisions,
            packets_scheduled=packets,
            hw_cycles=n_decisions * self.cycles_per_decision,
            clock_mhz=self.clock_mhz,
            winner_sequence=tuple(winners),
        )

    def _finalize_observer(self) -> None:
        finalize = getattr(self.observer, "finalize", None)
        if finalize is not None:
            finalize()  # flush the conformance monitor's partial window

    def model_throughput_pps(self, *, block: bool = False) -> float:
        """Analytic throughput (no behavioral run), for cross-checks."""
        per_decision = self.arch.n_slots if block else 1
        return self.clock_mhz * 1e6 / self.cycles_per_decision * per_decision

    def wire_speed_utilization(
        self, rate_bps: float, length_bytes: int, *, block: bool = False
    ) -> float:
        """Link utilization the scheduler sustains at a line rate.

        1.0 means a decision completes within every packet-time (full
        utilization); below 1.0 the link idles waiting on decisions —
        the failure mode Section 1 warns about.
        """
        packet_time_us = length_bytes * 8 / rate_bps * 1e6
        decision_us = self.cycles_per_decision / self.clock_mhz
        per_packet_us = decision_us / (self.arch.n_slots if block else 1)
        return min(1.0, packet_time_us / per_packet_us)


class FabricLinecard(Linecard):
    """Line-card driven from dual-ported SRAM (the full Figure 2 path).

    Arrival times flow fabric → SRAM partitions → Register Base block
    queues; winner Stream IDs flow back into the SRAM output partition
    for the network transceiver.  Per-stream deadlines are generated as
    ``arrival + period`` (the card's deadline-assignment logic).
    """

    def __init__(
        self,
        arch: ArchConfig,
        streams: list[StreamConfig],
        *,
        observer=None,
    ) -> None:
        from repro.linecard.fabric import DualPortedSRAM

        super().__init__(arch, streams, observer=observer)
        self.sram = DualPortedSRAM(arch.n_slots)
        self._periods = {s.sid: s.period for s in streams}

    def pump(self, n_decisions: int, *, consume: str = "winner") -> LinecardResult:
        """Move arrivals in, decide, and emit winner IDs out.

        Each decision cycle the SRAM interface tops up every slot from
        its partition (dual-ported: no arbitration cost), then the
        scheduler decides and the winner ID is written to the output
        partition.
        """
        winners: list[int] = []
        packets = 0
        for t in range(n_decisions):
            for sid in range(self.arch.n_slots):
                slot = self.scheduler.slots[sid]
                if slot is None:
                    continue
                while slot.backlog < 8:
                    arrival = self.sram.consume(sid)
                    if arrival is None:
                        break
                    self.scheduler.enqueue(
                        sid,
                        deadline=(arrival + self._periods.get(sid, 1)) & 0xFFFF
                        if self.arch.wrap
                        else arrival + self._periods.get(sid, 1),
                        arrival=arrival,
                    )
            outcome = self.scheduler.decision_cycle(
                t, consume=consume, count_misses=False
            )
            packets += len(outcome.serviced)
            if outcome.circulated_sid is not None:
                self.sram.emit_winner(outcome.circulated_sid)
                winners.append(outcome.circulated_sid)
        self._finalize_observer()
        return LinecardResult(
            decisions=n_decisions,
            packets_scheduled=packets,
            hw_cycles=n_decisions * self.cycles_per_decision,
            clock_mhz=self.clock_mhz,
            winner_sequence=tuple(winners),
        )
