"""Top-level ShareStreams scheduler: slots + network + control FSM.

:class:`ShareStreamsScheduler` is the cycle-level behavioral model of
the FPGA scheduler core: ``N`` Register Base blocks, ``N/2`` Decision
blocks in the recirculating shuffle-exchange network, and the Control &
Steering unit.  One call to :meth:`decision_cycle` performs exactly what
the hardware does in one SCHEDULE + PRIORITY_UPDATE pair:

1. drive every slot's attribute bundle onto the network and recirculate
   ``log2(N)`` passes (SCHEDULE);
2. register missed deadlines in the per-slot performance counters;
3. circulate the chosen stream ID back to the Register Base blocks and
   apply per-stream attribute adjustments (PRIORITY_UPDATE), consuming
   the serviced head packet(s).

The BA/WR routing choice, the block consumption policy and the
max-first/min-first circulation mode reproduce the design space
Section 5 evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attributes import StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.control import ControlUnit
from repro.core.register_block import PendingPacket, RegisterBaseBlock
from repro.core.shuffle import ShuffleExchangeNetwork
from repro.observability.hooks import resolve_observer

__all__ = ["DecisionOutcome", "ShareStreamsScheduler"]


@dataclass(frozen=True, slots=True)
class DecisionOutcome:
    """Result of one decision cycle.

    Attributes
    ----------
    now:
        Scheduler time at which the decision was made.
    block:
        Stream IDs in emitted priority order (position 0 = winner).
        Under WR routing this holds just the winner.
    circulated_sid:
        The ID circulated during PRIORITY_UPDATE (block head in
        max-first mode, block tail in min-first mode), or ``None`` when
        no slot held an eligible packet.
    serviced:
        ``(sid, packet)`` pairs consumed this cycle, in transmission
        order.
    misses:
        Stream IDs whose latched head was past its deadline this cycle
        (each also bumped its slot's missed-deadline counter).
    hw_cycles:
        Hardware cycles the decision consumed (SCHEDULE passes + the
        PRIORITY_UPDATE cycle).
    dropped:
        ``(sid, packet)`` pairs shed by the drop-late policy this cycle
        (empty unless ``drop_late`` was requested).
    """

    now: int
    block: tuple[int, ...]
    circulated_sid: int | None
    serviced: tuple[tuple[int, PendingPacket], ...]
    misses: tuple[int, ...]
    hw_cycles: int
    dropped: tuple[tuple[int, PendingPacket], ...] = ()

    @property
    def winner_sid(self) -> int | None:
        """Highest-priority stream this cycle (``None`` if all idle)."""
        return self.block[0] if self.block else None


class ShareStreamsScheduler:
    """Cycle-level behavioral model of the ShareStreams scheduler core.

    Parameters
    ----------
    config:
        Architecture configuration (slot count, routing, block mode...).
    streams:
        Stream service constraints to load; at most ``config.n_slots``.
        Further streams can be loaded later with :meth:`load_stream`.
    trace_timeline:
        Record the control FSM timeline (Figure 6).
    trace:
        Legacy :class:`repro.observability.TraceLog` receiving
        "decide" / "miss" / "drop" events per decision cycle.
    observer:
        Telemetry hook (:class:`repro.observability.DecisionObserver`,
        e.g. an :class:`repro.observability.Observability`) receiving
        every cycle's :class:`DecisionOutcome`.  ``None`` disables
        telemetry at the cost of one ``is not None`` test per cycle.
    """

    def __init__(
        self,
        config: ArchConfig,
        streams: list[StreamConfig] | None = None,
        *,
        trace_timeline: bool = False,
        trace=None,
        observer=None,
    ) -> None:
        self.config = config
        self.network = ShuffleExchangeNetwork(
            config.n_slots,
            wrap=config.wrap,
            deadline_only=config.deadline_only,
            schedule=config.schedule,
        )
        self.control = ControlUnit(trace=trace_timeline)
        #: Optional legacy :class:`repro.observability.TraceLog`.
        self.trace = trace
        #: Resolved telemetry hook (``None`` = telemetry disabled).
        self.observer = resolve_observer(trace, observer)
        self.slots: list[RegisterBaseBlock | None] = [None] * config.n_slots
        self._idle_bundles = self._make_idle_bundles()
        if streams:
            for stream in streams:
                self.load_stream(stream)
        # Power-on LOAD state (Figure 6 begins in LOAD).
        self.control.load(1, detail="power-on constraint load")

    # ------------------------------------------------------------------
    # slot management (LOAD path)
    # ------------------------------------------------------------------

    def _make_idle_bundles(self):
        """Invalid attribute bundles driven for unpopulated slots."""
        from repro.core.attributes import HardwareAttributes

        bundles = []
        for sid in range(self.config.n_slots):
            bundle = HardwareAttributes(sid=sid)
            bundle.valid = False
            bundles.append(bundle)
        return bundles

    def load_stream(self, stream: StreamConfig) -> RegisterBaseBlock:
        """Bind a stream's service constraints to its stream-slot."""
        if not 0 <= stream.sid < self.config.n_slots:
            raise ValueError(
                f"sid {stream.sid} out of range for "
                f"{self.config.n_slots}-slot scheduler"
            )
        if self.slots[stream.sid] is not None:
            raise ValueError(f"slot {stream.sid} already loaded")
        slot = RegisterBaseBlock(stream, wrap=self.config.wrap)
        self.slots[stream.sid] = slot
        return slot

    def slot(self, sid: int) -> RegisterBaseBlock:
        """The Register Base block bound to stream ``sid``."""
        block = self.slots[sid]
        if block is None:
            raise KeyError(f"no stream loaded in slot {sid}")
        return block

    @property
    def active_slots(self) -> list[RegisterBaseBlock]:
        """All populated stream-slots, in slot order."""
        return [s for s in self.slots if s is not None]

    def enqueue(
        self, sid: int, deadline: int, arrival: int, length: int = 1500
    ) -> None:
        """Deposit one packet request into a slot's pending queue.

        Models the streaming unit writing a 16-bit arrival-time offset
        into the slot's card-SRAM queue.
        """
        if not 0 <= sid < self.config.n_slots:
            raise ValueError(
                f"sid {sid} out of range for "
                f"{self.config.n_slots}-slot scheduler"
            )
        self.slot(sid).enqueue_request(deadline, arrival, length)

    # ------------------------------------------------------------------
    # decision cycle (SCHEDULE + PRIORITY_UPDATE)
    # ------------------------------------------------------------------

    def _gather_bundles(self):
        bundles = []
        for sid in range(self.config.n_slots):
            slot = self.slots[sid]
            if slot is None:
                bundles.append(self._idle_bundles[sid])
            else:
                bundles.append(slot.snapshot())
        return bundles

    def decision_cycle(
        self,
        now: int,
        *,
        consume: str = "winner",
        count_misses: bool = True,
        drop_late: bool = False,
    ) -> DecisionOutcome:
        """Run one full decision cycle at scheduler time ``now``.

        Parameters
        ----------
        now:
            Current time in scheduler units (packet-times).
        consume:
            ``"winner"`` — only the winner's head packet is consumed
            (max-finding operation and the usual per-packet service);
            ``"block"`` — every valid stream in the emitted block is
            consumed in block order (the single-transaction block
            transmission of Section 5.1);
            ``"none"`` — pure ordering, nothing consumed (used when an
            external transmission engine decides what to take).
        count_misses:
            Register missed deadlines in slot counters this cycle.
        drop_late:
            Shed late head packets *before* scheduling (the packet
            discard flags of Section 2's state storage: loss-tolerant
            streams drop expired packets instead of sending them late).
            Each drop registers a miss when ``count_misses`` is on.
        """
        if consume not in ("winner", "block", "none"):
            raise ValueError(f"unknown consume policy {consume!r}")
        if consume == "block" and self.config.routing is Routing.WR:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )

        dropped: list[tuple[int, PendingPacket]] = []
        if drop_late:
            for slot in self.active_slots:
                while True:
                    if count_misses and slot.head_is_late(now):
                        slot.record_miss(now)
                    packet = slot.drop_late_head(now)
                    if packet is None:
                        break
                    dropped.append((slot.config.sid, packet))

        # SCHEDULE: recirculate the attribute bundles.
        result = self.network.run(
            self._gather_bundles(), winner_only=self.config.winner_only
        )
        self.control.schedule(result.passes, detail=f"t={now}")

        order = [b.sid for b in result.order if b.valid]

        # Miss registration (performance counters, Table 3).
        misses: list[int] = []
        if count_misses:
            for slot in self.active_slots:
                if slot.record_miss(now):
                    misses.append(slot.config.sid)

        # PRIORITY_UPDATE: circulate one ID, consume, adjust attributes.
        circulated: int | None = None
        serviced: list[tuple[int, PendingPacket]] = []
        if order:
            # The Decision blocks' winner routing is hardwired: the
            # *internal* winner attribute update always targets the
            # block head.  The block mode selects which end of the
            # block is circulated out during PRIORITY_UPDATE (and hence
            # consumed first / counted as the cycle's winner): max-first
            # circulates the head, min-first the tail (Section 5.1).
            update_sid = order[0]
            if self.config.block_mode is BlockMode.MAX_FIRST:
                circulated = order[0]
            else:
                circulated = order[-1]
            if consume == "winner":
                slot = self.slot(circulated)
                if count_misses and slot.head_is_late(now):
                    # The miss path above already applied this head's
                    # loss adjustment; just consume the packet.
                    packet = slot.service(now, as_winner=False)
                else:
                    packet = slot.service(now)
                if packet is not None:
                    serviced.append((circulated, packet))
            elif consume == "block":
                consume_order = (
                    order
                    if self.config.block_mode is BlockMode.MAX_FIRST
                    else tuple(reversed(order))
                )
                for sid in consume_order:
                    packet = self.slot(sid).service(
                        now, as_winner=(sid == update_sid)
                    )
                    if packet is not None:
                        serviced.append((sid, packet))
            self.slot(circulated).record_win()
        self.control.priority_update(
            self.config.update_cycles, detail=f"circulate={circulated}"
        )

        outcome = DecisionOutcome(
            now=now,
            block=tuple(order),
            circulated_sid=circulated,
            serviced=tuple(serviced),
            misses=tuple(misses),
            hw_cycles=result.passes + self.config.update_cycles,
            dropped=tuple(dropped),
        )
        if self.observer is not None:
            self.observer.on_decision(outcome)
        return outcome

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def cycles_per_decision(self) -> int:
        """Hardware cycles one decision cycle consumes."""
        return self.config.sort_passes + self.config.update_cycles

    def counters(self) -> dict[int, "object"]:
        """Per-stream performance counters, keyed by stream ID."""
        return {s.config.sid: s.counters for s in self.active_slots}
