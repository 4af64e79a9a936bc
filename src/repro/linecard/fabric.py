"""Switch-fabric side of the line-card realization (Figure 2).

"Dual-ported SRAM allows packets arriving from the switch-fabric to be
placed in per-stream SRAM queues.  Their arrival times can be read by
the SRAM interface concurrently.  Winner Stream IDs are written into
the SRAM partition by the SRAM interface, which are provided by the
Scheduler control unit."

:class:`DualPortedSRAM` models the memory between fabric and scheduler:
both ports access concurrently (no ownership arbitration — the
endsystem's bank-switching bottleneck does not exist here, which is
exactly why the line-card reaches wire speed).  It holds per-stream
arrival-time queues and the winner Stream-ID output partition.
:class:`SwitchFabric` deposits arriving packets into it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.ring import ArrivalRing

__all__ = ["DualPortedSRAM", "SwitchFabric", "FabricStats"]


@dataclass(slots=True)
class FabricStats:
    """Arrival accounting on the fabric port."""

    packets_deposited: int = 0
    packets_dropped_full: int = 0
    ids_emitted: int = 0


class DualPortedSRAM:
    """Per-stream arrival-time queues + Stream-ID output partition.

    Parameters
    ----------
    n_streams:
        Per-stream queue (partition) count.
    queue_depth:
        16-bit arrival-time slots per stream partition.
    id_partition_depth:
        Winner Stream-ID slots in the output partition.
    """

    def __init__(
        self,
        n_streams: int,
        *,
        queue_depth: int = 1024,
        id_partition_depth: int = 4096,
    ) -> None:
        if n_streams <= 0:
            raise ValueError("need at least one stream partition")
        self.queues: dict[int, ArrivalRing] = {
            sid: ArrivalRing(queue_depth) for sid in range(n_streams)
        }
        self.id_partition = ArrivalRing(id_partition_depth)
        self.stats = FabricStats()

    # fabric port --------------------------------------------------------

    def deposit(self, sid: int, arrival_time: int) -> bool:
        """Fabric port: place one packet's arrival time (concurrent)."""
        ok = self.queues[sid].push(arrival_time & 0xFFFF)
        if ok:
            self.stats.packets_deposited += 1
        else:
            self.stats.packets_dropped_full += 1
        return ok

    # scheduler port -----------------------------------------------------

    def head_arrival(self, sid: int) -> int | None:
        """Scheduler port: peek a stream's oldest arrival time."""
        return self.queues[sid].peek()

    def consume(self, sid: int) -> int | None:
        """Scheduler port: pop a stream's oldest arrival time."""
        return self.queues[sid].pop()

    def backlog(self, sid: int) -> int:
        """Packets queued in one stream partition."""
        return len(self.queues[sid])

    def emit_winner(self, sid: int) -> bool:
        """Scheduler port: write one winner Stream ID for the
        transceiver to pick up."""
        ok = self.id_partition.push(sid & 0x1F)
        if ok:
            self.stats.ids_emitted += 1
        return ok

    def drain_ids(self, n: int):
        """Transceiver side: read up to ``n`` scheduled Stream IDs."""
        return self.id_partition.pop_batch(n)


class SwitchFabric:
    """Arrival source feeding the dual-ported SRAM from per-stream
    arrival-time arrays (vectorized deposit)."""

    def __init__(self, sram: DualPortedSRAM) -> None:
        self.sram = sram

    def offer(self, sid: int, arrival_times) -> int:
        """Deposit a batch of arrivals for one stream; returns count
        accepted before the partition filled."""
        accepted = 0
        for t in arrival_times:
            if not self.sram.deposit(sid, int(t)):
                break
            accepted += 1
        return accepted
