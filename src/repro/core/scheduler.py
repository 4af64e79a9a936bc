"""Top-level ShareStreams scheduler: slots + network + control FSM.

:class:`ShareStreamsScheduler` is the cycle-level behavioral model of
the FPGA scheduler core: ``N`` Register Base blocks, ``N/2`` Decision
blocks in the recirculating shuffle-exchange network, and the Control &
Steering unit.  One call to :meth:`decision_cycle` performs exactly what
the hardware does in one SCHEDULE + PRIORITY_UPDATE pair:

1. drive every slot's attribute registers onto the network and
   recirculate ``log2(N)`` passes (SCHEDULE);
2. register missed deadlines in the per-slot performance counters;
3. circulate the chosen stream ID back to the Register Base blocks and
   apply per-stream attribute adjustments (PRIORITY_UPDATE), consuming
   the serviced head packet(s).

The BA/WR routing choice, the block consumption policy and the
max-first/min-first circulation mode reproduce the design space
Section 5 evaluates.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.attributes import StreamConfig
from repro.core.config import ArchConfig, BlockMode
from repro.core.control import ControlUnit
from repro.core.register_block import PendingPacket, RegisterBaseBlock
from repro.core.shuffle import ShuffleExchangeNetwork

__all__ = ["DecisionOutcome", "ShareStreamsScheduler", "flag_error"]


def flag_error(name: str, value) -> ValueError:
    """The error both engines raise, before any state changes, for an
    on/off argument (``count_misses``, ``drop_late``,
    ``collect_winners``) that is not a ``bool``: read by truthiness,
    ``"no"`` would switch it on."""
    return ValueError(f"{name} must be a bool, got {value!r}")


class DecisionOutcome(NamedTuple):
    """Result of one decision cycle.

    Both engines build one per decision, so it is a named tuple (the
    cheapest immutable record); like any named tuple it compares equal
    to a plain tuple of the same field values.

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
        observer=None,
    ) -> None:
        self.config = config
        # Per-decision constants, read once from the frozen config.
        self._n_slots = config.n_slots
        self._winner_only = config.winner_only
        self._update_cycles = config.update_cycles
        self._max_first = config.block_mode is BlockMode.MAX_FIRST
        self.network = ShuffleExchangeNetwork(
            config.n_slots,
            wrap=config.wrap,
            deadline_only=config.deadline_only,
            schedule=config.schedule,
        )
        self.control = ControlUnit(trace=trace_timeline)
        #: Telemetry hook (``None`` = telemetry disabled).
        self.observer = observer
        self.slots: list[RegisterBaseBlock | None] = [None] * config.n_slots
        self._idle_bundles = self._make_idle_bundles()
        # (loaded slots, bundles driven onto the network), rebuilt
        # lazily by :meth:`_wiring` after a load.
        self._wired: tuple[tuple[RegisterBaseBlock, ...], list] | None = None
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
        self._wired = None
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
        return list(self._wiring()[0])

    def enqueue(
        self, sid: int, deadline: int, arrival: int, length: int = 1500
    ) -> None:
        """Deposit one packet request into a slot's pending queue.

        Models the streaming unit writing a 16-bit arrival-time offset
        into the slot's card-SRAM queue.  Raises ``ValueError`` for an
        out-of-range ``sid`` and ``KeyError`` for an unloaded slot,
        before anything is queued.
        """
        if not 0 <= sid < self._n_slots:
            raise ValueError(
                f"sid {sid} out of range for "
                f"{self._n_slots}-slot scheduler"
            )
        slot = self.slots[sid]
        if slot is None:
            raise KeyError(f"no stream loaded in slot {sid}")
        slot.enqueue(PendingPacket(deadline, arrival, length))

    # ------------------------------------------------------------------
    # decision cycle (SCHEDULE + PRIORITY_UPDATE)
    # ------------------------------------------------------------------

    def _wiring(self) -> tuple[tuple[RegisterBaseBlock, ...], list]:
        """The loaded slots (slot order) and the bundles the network reads.

        Each loaded slot drives its live attribute registers onto the
        network, an unpopulated one its invalid idle bundle.  SCHEDULE
        only reads the registers and PRIORITY_UPDATE writes them after
        SCHEDULE has finished, so no per-cycle copy is needed.  Built on
        first use after :meth:`load_stream` rather than by every load,
        which would cost O(N^2) to populate N slots.
        """
        if self._wired is None:
            drive = [
                idle if slot is None else slot.attributes
                for slot, idle in zip(self.slots, self._idle_bundles)
            ]
            self._wired = (tuple(s for s in self.slots if s is not None), drive)
        return self._wired

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
        if consume == "block" and self._winner_only:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )
        if count_misses is not True and count_misses is not False:
            raise flag_error("count_misses", count_misses)
        if drop_late is not True and drop_late is not False:
            raise flag_error("drop_late", drop_late)

        loaded, drive = self._wired or self._wiring()
        slots = self.slots
        dropped: list[tuple[int, PendingPacket]] = []
        if drop_late:
            for slot in loaded:
                while True:
                    if count_misses:
                        slot.record_miss(now)
                    packet = slot.drop_late_head(now)
                    if packet is None:
                        break
                    dropped.append((slot.config.sid, packet))

        # SCHEDULE: recirculate the attribute bundles.
        emitted, passes, _ = self.network.run(drive, winner_only=self._winner_only)
        order = [b.sid for b in emitted if b.valid]

        # Miss registration (performance counters, Table 3).
        misses: list[int] = []
        if count_misses:
            for slot in loaded:
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
            circulated = order[0] if self._max_first else order[-1]
            slot = slots[circulated]
            if consume == "winner":
                if count_misses and slot.head_is_late(now):
                    # The miss path above already applied this head's
                    # loss adjustment; just consume the packet.
                    packet = slot.service(now, as_winner=False)
                else:
                    packet = slot.service(now)
                if packet is not None:
                    serviced.append((circulated, packet))
            elif consume == "block":
                update_sid = order[0]
                for sid in order if self._max_first else reversed(order):
                    packet = slots[sid].service(
                        now, as_winner=(sid == update_sid)
                    )
                    if packet is not None:
                        serviced.append((sid, packet))
            slot.record_win()
        update_cycles = self._update_cycles
        control = self.control
        if control.trace:
            control.schedule(passes, detail=f"t={now}")
            control.priority_update(
                update_cycles, detail=f"circulate={circulated}"
            )
        else:
            control.advance_decision_cycles(1, passes, update_cycles)

        outcome = DecisionOutcome(
            now,
            tuple(order),
            circulated,
            tuple(serviced),
            tuple(misses),
            passes + update_cycles,
            tuple(dropped),
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
        return {s.config.sid: s.counters for s in self._wiring()[0]}
