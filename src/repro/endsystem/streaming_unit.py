"""Streaming unit: keeps the card-side per-stream queues full.

"The Streaming unit keeps per-stream queues on the FPGA PCI card full
using a combination of push and pull transfers.  For small transfers,
the Stream processor can push arrival-times to the FPGA PCI card.  For
bulk-transfers, the Stream processor will set the DMA engine registers
and assert the pull-start line." (Section 4.2.)

This component moves *arrival-time offsets* (not frames) from the
Queue Manager into the scheduler's slot pending queues, assigns the
per-slot virtual deadlines that realize each stream's share
(``deadline += period`` per request, the hardware's EDF/fair-share
encoding), and accounts the PCI cost of each batch on the
:class:`~repro.sim.pci.PCIBus`.
"""

from __future__ import annotations

from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import TensorScheduler
from repro.endsystem.queue_manager import QueueManager
from repro.sim.pci import PCIBus
from repro.sim.sram import BankedSRAM, Owner

__all__ = ["StreamingUnit"]


class StreamingUnit:
    """Batched arrival-time mover between QM and scheduler slots.

    Parameters
    ----------
    qm, scheduler:
        The host-side queues and the card-side scheduler (either
        engine: the object model or the array engine's adapter).
    periods:
        Per-stream virtual request periods (deadline spacing); derived
        from shares by the host setup.
    pci:
        Transfer accountant.
    sram:
        Card SRAM banks (ownership arbitration accounting).
    batch_size:
        Arrival-time offsets moved per transfer; the push/pull split is
        decided per batch (PIO for small, DMA for bulk).
    card_queue_depth:
        Target depth of each slot's card-side pending queue.
    """

    def __init__(
        self,
        qm: QueueManager,
        scheduler: ShareStreamsScheduler | TensorScheduler,
        periods: dict[int, int],
        *,
        pci: PCIBus | None = None,
        sram: BankedSRAM | None = None,
        batch_size: int = 64,
        card_queue_depth: int = 256,
        transfer_mode: str = "auto",
    ) -> None:
        if batch_size <= 0 or card_queue_depth <= 0:
            raise ValueError("batch size and queue depth must be positive")
        self.qm = qm
        self.scheduler = scheduler
        self.periods = dict(periods)
        self.pci = pci or PCIBus()
        self.sram = sram or BankedSRAM()
        self.batch_size = batch_size
        self.card_queue_depth = card_queue_depth
        self.transfer_mode = transfer_mode
        # Next virtual deadline per slot (advances by the period per
        # request — the fair-share encoding).
        self._next_deadline: dict[int, int] = {
            sid: self.periods[sid] for sid in qm.stream_ids
        }
        # How many of each stream's frames have had their arrival times
        # shipped to the card already.
        self._shipped: dict[int, int] = {sid: 0 for sid in qm.stream_ids}
        # Slots :meth:`refill_all` visits, in ID order, and whether each
        # may have something to move: every slot to begin with, then
        # only slots that gained arrived frames or card room since
        # their last refill (:meth:`wake`) or whose last refill moved a
        # full batch.  Any other slot's refill would move nothing.
        self._sids = qm.stream_ids
        self._awake: dict[int, bool] = {sid: True for sid in self._sids}

    def card_backlog(self, sid: int) -> int:
        """Requests currently on the card for one slot (incl. latched)."""
        slot = self.scheduler.slot(sid)
        return slot.backlog + (1 if slot.head is not None else 0)

    def refill_slot(self, sid: int, now_us: float) -> tuple[int, float]:
        """Top up one slot's card queue; returns (moved, pci_time_us).

        Moves at most one batch.  Only frames already present in the QM
        ring (arrived) are eligible — their 16-bit arrival offsets are
        what crosses the bus.  A stream with nothing left to ship
        returns before the card is inspected.
        """
        desc = self.qm.descriptors[sid]
        available = desc.produced - self._shipped[sid]
        if available <= 0:
            return 0, 0.0
        room = self.card_queue_depth - self.card_backlog(sid)
        count = min(available, room, self.batch_size)
        if count <= 0:
            return 0, 0.0
        pci_time = self.pci.push_arrival_times(count, self.transfer_mode)
        # Host writes the offsets into the card SRAM bank, then the
        # scheduler's memory interface reads them back — each direction
        # change pays the bank-ownership switch the paper identifies as
        # the Celoxica card's transfer bottleneck (Section 5.2).
        words = (count + 1) // 2
        bank = self.sram.bank(0)
        pci_time += bank.write(Owner.HOST, 0, [0] * words)
        _, switch_cost = bank.read(Owner.FPGA, 0, words)
        pci_time += switch_cost
        period = self.periods[sid]
        arrivals = desc.spec.arrivals_us
        frame_bytes = desc.spec.frame_bytes
        for _ in range(count):
            seq = self._shipped[sid]
            deadline = self._next_deadline[sid]
            self._next_deadline[sid] = deadline + period
            self.scheduler.enqueue(
                sid,
                deadline=deadline,
                arrival=int(arrivals[seq]),
                length=frame_bytes,
            )
            self._shipped[sid] += 1
        return count, pci_time

    def wake(self, sid: int) -> None:
        """Note that slot ``sid`` gained arrived frames (a QM produce)
        or card room (a serviced head), so the next :meth:`refill_all`
        refills it."""
        self._awake[sid] = True

    def refill_all(self, now_us: float) -> tuple[int, float]:
        """Refill every slot that may have something to move, in ID order;
        returns (total moved, total pci time).

        A slot is refilled when it was woken (:meth:`wake`) since its
        last refill, or when that refill moved a full batch.  A slot's
        refill moves nothing otherwise: its last refill stopped short of
        a batch because it ran out of arrived frames or of card room,
        and neither came back.  So the moves, the PCI transfers and the
        SRAM traffic are those of refilling every slot.
        """
        moved = 0
        pci_time = 0.0
        awake = self._awake
        batch = self.batch_size
        for sid in self._sids:
            if awake[sid]:
                n, t = self.refill_slot(sid, now_us)
                awake[sid] = n == batch
                moved += n
                pci_time += t
        return moved, pci_time
