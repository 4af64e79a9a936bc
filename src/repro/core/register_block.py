"""Register Base block ("stream-slot"): per-stream state and updates.

A Register Base block stores one stream's (or streamlet set's) service
attributes in CLB flip-flops, drives them onto the shuffle network each
SCHEDULE cycle, and applies the attribute-adjustment logic during the
PRIORITY_UPDATE cycle when the circulated winner ID arrives
(Section 4.3, Figure 4).  It also keeps the per-slot performance
counters (missed deadlines, wins, window violations) Table 3 reports.

DWCS attribute adjustment
-------------------------
The paper defers the update pseudocode to [13]/[26]; DESIGN.md records
the reconstruction implemented here.  ``(x', y')`` are the *current*
window counters, ``(x, y)`` the original constraint:

* **Serviced before deadline** (the slot's head packet went out on
  time): the window consumed one on-time packet — ``y' -= 1``; when the
  remaining window is trivially satisfiable (``y' <= x'`` — every
  remaining packet may be late) or exhausted (``y' == 0``) the pair
  resets to ``(x, y)``.  The effective constraint ``x'/y'`` *rises*, so
  the winner's priority drops, exactly the "winner has priority
  effectively lowered" behavior the paper describes.
* **Missed deadline**: one loss consumed — ``x' -= 1`` and ``y' -= 1``,
  resetting when ``x' == y'`` or ``y' == 0``.  The constraint
  *tightens*, raising the loser's priority.
* **Violation** (miss with ``x' == 0``: the window constraint is
  already broken): the denominator *increments* (saturating at the
  8-bit field maximum).  Under Table 2's rule 3 (zero constraints order
  by highest denominator) this monotonically boosts the violated
  stream's priority until it gets service.

In ``EDF`` mode the adjustment degenerates to advancing the deadline to
the next request period; in ``STATIC_PRIORITY`` and ``SERVICE_TAG``
modes nothing changes (the update cycle is bypassed, Section 4.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.attributes import HardwareAttributes, SchedulingMode, StreamConfig
from repro.core.fields import (
    DEADLINE_FIELD,
    LOSS_DEN_FIELD,
    serial_lt,
)

__all__ = [
    "SlotCounters",
    "PendingPacket",
    "RegisterBaseBlock",
    "negative_time_error",
    "nonpositive_length_error",
]

_DL_MASK = DEADLINE_FIELD.mask


def negative_time_error(deadline: int, arrival: int) -> ValueError:
    """The error every engine raises at enqueue for a negative time.

    With ``wrap`` the 16-bit registers mask any integer.  In
    ideal-arithmetic mode (``wrap=False``) deadline and arrival pass
    through unmasked, so a request with a negative one is refused
    before anything is queued.
    """
    return ValueError(
        "deadline and arrival must be non-negative, got "
        f"deadline={deadline}, arrival={arrival}"
    )


def nonpositive_length_error(length: int) -> ValueError:
    """The error both engines (at enqueue) and the aggregation tier (at
    submit) raise for a packet of ``length <= 0`` bytes, before
    anything is queued: such a length stalls or reverses fair tags."""
    return ValueError(f"packet length must be positive, got length={length}")


@dataclass(slots=True)
class SlotCounters:
    """Per-slot performance counters (the hardware's counter registers)."""

    wins: int = 0
    serviced: int = 0
    missed_deadlines: int = 0
    violations: int = 0
    window_resets: int = 0
    loads: int = 0


class PendingPacket(NamedTuple):
    """One queued request: head-of-line candidate for the slot.

    ``deadline`` and ``arrival`` are absolute times in scheduler units;
    they are wrapped into the 16-bit hardware fields when latched.
    ``length`` (bytes) only matters to the endsystem/link simulation.
    Both engines build one per enqueued request, so it is a named tuple
    (the cheapest immutable record); like any named tuple it compares
    equal to a plain tuple of the same field values.
    """

    deadline: int
    arrival: int
    length: int = 1500


class RegisterBaseBlock:
    """One stream-slot: attribute registers + pending-request queue.

    The pending queue models the slot's per-stream buffering in card
    SRAM / on-chip block RAM; the streaming unit appends to it and the
    PRIORITY_UPDATE pops it as packets are serviced.

    Parameters
    ----------
    config:
        The stream service constraints loaded into the slot.
    wrap:
        Use 16-bit wrapped deadline arithmetic (hardware behavior).
    """

    def __init__(self, config: StreamConfig, *, wrap: bool = True) -> None:
        self.config = config
        self.wrap = wrap
        # The mode's update logic, read once from the frozen config.
        self._windowed = config.mode in (
            SchedulingMode.DWCS,
            SchedulingMode.FAIR_SHARE,
        )
        self._edf = config.mode is SchedulingMode.EDF
        self.attributes = HardwareAttributes.from_config(config)
        self.attributes.valid = False
        self.pending: deque[PendingPacket] = deque()
        self.counters = SlotCounters()
        self._current: PendingPacket | None = None
        # EDF-mode winner bias: each circulated win pushes the slot's
        # effective deadline one request period later ("the winner
        # stream ... has priority effectively lowered", Section 2) so
        # waiting streams are picked eventually even under deadline
        # ties or block service.
        self._edf_bias = 0

    # ------------------------------------------------------------------
    # queue / load path (LOAD state and streaming unit)
    # ------------------------------------------------------------------

    def enqueue(self, packet: PendingPacket) -> None:
        """Append one request to the slot's pending queue."""
        if not self.wrap and (packet.deadline < 0 or packet.arrival < 0):
            raise negative_time_error(packet.deadline, packet.arrival)
        if packet.length <= 0:
            raise nonpositive_length_error(packet.length)
        self.pending.append(packet)
        if not self.attributes.valid:
            self._latch_next()

    def enqueue_request(self, deadline: int, arrival: int, length: int = 1500) -> None:
        """Convenience wrapper building the :class:`PendingPacket`."""
        self.enqueue(PendingPacket(deadline, arrival, length))

    def _latch_next(self) -> None:
        """Latch the next pending request into the attribute registers."""
        if not self.pending:
            self.attributes.valid = False
            self._current = None
            return
        packet = self.pending.popleft()
        self._current = packet
        deadline = packet.deadline
        if self._edf:
            deadline += self._edf_bias
        if self.wrap:
            # Hardware registers hold 16-bit offsets.
            self.attributes.deadline = deadline & _DL_MASK
            self.attributes.arrival = packet.arrival & _DL_MASK
        else:
            # Ideal-arithmetic mode: unbounded integers pass through.
            self.attributes.deadline = deadline
            self.attributes.arrival = packet.arrival
        self.attributes.valid = True
        self.counters.loads += 1

    @property
    def head(self) -> PendingPacket | None:
        """The request currently latched in the registers, if any."""
        return self._current

    @property
    def backlog(self) -> int:
        """Requests waiting behind the latched head."""
        return len(self.pending)

    def head_is_late(self, now: int) -> bool:
        """Whether the latched head's deadline has passed at time ``now``.

        Uses the packet's *actual* deadline: the EDF winner bias is an
        ordering adjustment (priority effectively lowered), not an
        extension of the deadline the packet must meet.
        """
        if self._current is None:
            return False
        if self.wrap:
            return serial_lt(self._current.deadline & _DL_MASK, now & _DL_MASK)
        return self._current.deadline < now

    # ------------------------------------------------------------------
    # PRIORITY_UPDATE path
    # ------------------------------------------------------------------

    def record_miss(self, now: int) -> bool:
        """Count one missed-deadline event if the head is late at ``now``.

        Called once per decision cycle by the control unit; this is the
        counter Table 3's "Missed Deadlines" column reads.  In DWCS and
        fair-share modes the miss also triggers the loser window
        adjustment; in EDF / static / service-tag modes only the counter
        moves (those mappings bypass attribute updates).
        """
        # :meth:`head_is_late`, inlined: the scheduler calls this for
        # every loaded slot on every decision cycle.
        packet = self._current
        if packet is None:
            return False
        if self.wrap:
            if not serial_lt(packet.deadline & _DL_MASK, now & _DL_MASK):
                return False
        elif packet.deadline >= now:
            return False
        self.counters.missed_deadlines += 1
        if self._windowed:
            self._apply_loss_update()
        return True

    def service(
        self, now: int, *, as_winner: bool | None = None
    ) -> PendingPacket | None:
        """Consume the latched head: it was transmitted at time ``now``.

        Applies the attribute adjustment for the slot's mode and latches
        the next pending request.  Returns the serviced packet (``None``
        if the slot was empty).

        ``as_winner`` controls the DWCS adjustment for *block*
        consumption: in hardware only the circulated ID receives the
        winner update, while other transmitted block members merely pop
        their heads (their windows adjust only through the miss path).
        ``True`` forces the winner update, ``False`` suppresses it, and
        ``None`` (default, the max-finding/per-winner path) applies the
        winner update when the packet went out on time and the loss
        update when it was late.
        """
        packet = self._current
        if packet is None:
            return None
        self.counters.serviced += 1
        if self._windowed:
            if as_winner is None:
                if self.head_is_late(now):
                    # Serviced late: the window still saw a late packet.
                    self._apply_loss_update()
                else:
                    self._apply_win_update()
            elif as_winner:
                self._apply_win_update()
        elif self._edf and as_winner is not False:
            # EDF winner update: the circulated stream's effective
            # deadline moves one request period later, rotating service
            # among deadline-contending streams.
            self._edf_bias += self.config.period
        self._latch_next()
        return packet

    def record_win(self) -> None:
        """Count that this slot's ID was circulated as the winner."""
        self.counters.wins += 1

    # -- DWCS window-counter adjustments --------------------------------

    def _reset_window(self) -> None:
        self.attributes.loss_numerator = self.config.loss_numerator
        self.attributes.loss_denominator = self.config.loss_denominator
        self.counters.window_resets += 1

    def _apply_win_update(self) -> None:
        """On-time service: ``y' -= 1``; reset when window completes."""
        attrs = self.attributes
        if attrs.loss_denominator > 0:
            attrs.loss_denominator -= 1
        if attrs.loss_denominator == 0 or (
            attrs.loss_denominator <= attrs.loss_numerator
        ):
            self._reset_window()

    def _apply_loss_update(self) -> None:
        """Missed deadline: consume a loss, or register a violation."""
        attrs = self.attributes
        if attrs.loss_numerator > 0:
            attrs.loss_numerator -= 1
            if attrs.loss_denominator > 0:
                attrs.loss_denominator -= 1
            if (
                attrs.loss_denominator == 0
                or attrs.loss_numerator == attrs.loss_denominator
            ):
                self._reset_window()
        else:
            self.counters.violations += 1
            attrs.loss_denominator = min(
                attrs.loss_denominator + 1, LOSS_DEN_FIELD.mask
            )

    def drop_late_head(self, now: int) -> PendingPacket | None:
        """Discard a late head packet (droppable-stream policy).

        DWCS may drop packets whose deadlines already passed instead of
        transmitting them late.  Returns the dropped packet, if any.
        """
        if self._current is None or not self.head_is_late(now):
            return None
        packet = self._current
        self._latch_next()
        return packet

    # ------------------------------------------------------------------

    def snapshot(self) -> HardwareAttributes:
        """Copy of the attribute registers as driven onto the network."""
        return self.attributes.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegisterBaseBlock(sid={self.config.sid}, "
            f"deadline={self.attributes.deadline}, "
            f"W'={self.attributes.loss_numerator}/"
            f"{self.attributes.loss_denominator}, "
            f"valid={self.attributes.valid}, backlog={self.backlog})"
        )
