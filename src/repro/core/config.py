"""Architecture configuration for one ShareStreams scheduler instance."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.fields import MAX_STREAM_SLOTS
from repro.core.shuffle import is_pow2

__all__ = ["Routing", "BlockMode", "ArchConfig"]


class Routing(enum.Enum):
    """Decision-block output routing (Section 4.3, Section 5.1).

    * ``BA`` — Base architecture: winners *and* losers are routed, so a
      whole sorted block is emitted every decision cycle.
    * ``WR`` — Winner-only routing (max-finding): only winners
      propagate; one max-priority stream is emitted.
    """

    BA = "ba"
    WR = "wr"


class BlockMode(enum.Enum):
    """Which end of the block is circulated during PRIORITY_UPDATE.

    ``MAX_FIRST`` circulates the highest-priority stream (the winner) —
    the correct configuration.  ``MIN_FIRST`` circulates the stream at
    the *end* of the block; Table 3 uses it as the control case showing
    that circulating the wrong end forfeits the block benefit.
    """

    MAX_FIRST = "max_first"
    MIN_FIRST = "min_first"


@dataclass(frozen=True, slots=True)
class ArchConfig:
    """Static configuration of a scheduler instance.

    Parameters
    ----------
    n_slots:
        Stream-slot count; a power of two between 2 and 32 (the 5-bit
        stream-ID field bounds a single chip at 32 slots, and the paper
        evaluates 4..32).
    routing:
        :class:`Routing` — BA (block) or WR (winner-only / max-finding).
    block_mode:
        Which block end is circulated in BA mode.
    schedule:
        Network sorting schedule, ``"paper"`` or ``"bitonic"``
        (see :mod:`repro.core.shuffle`).
    wrap:
        16-bit serial deadline arithmetic (hardware) vs ideal integers.
    deadline_only:
        Simple-comparator configuration (fair-queuing service tags).
    compute_ahead:
        The Section 6 micro-architectural extension: "compute-ahead
        Register Base blocks that compute state a cycle ahead by using
        predication".  Both the winner and loser next-states are
        computed speculatively during the last SCHEDULE pass and the
        circulated ID merely selects one, hiding the PRIORITY_UPDATE
        cycle.  Costs extra register-block area (see the area model).
    clock_mhz:
        Nominal FPGA clock for converting cycles to time; the hwmodel
        provides calibrated values per (n_slots, routing).
    extended:
        Lift the single-chip 32-slot cap (the 5-bit stream-ID wire
        field) for ideal-arithmetic studies of multi-chip scale.  The
        behavioral network and the array engine both handle arbitrary
        power-of-two widths; the wire-format constraint is still
        enforced at the pack boundary
        (:func:`repro.core.attributes.pack_attributes`).
    """

    n_slots: int
    routing: Routing = Routing.BA
    block_mode: BlockMode = BlockMode.MAX_FIRST
    schedule: str = "paper"
    wrap: bool = True
    deadline_only: bool = False
    compute_ahead: bool = False
    clock_mhz: float = 66.0
    extended: bool = False

    def __post_init__(self) -> None:
        cap_ok = self.extended or self.n_slots <= MAX_STREAM_SLOTS
        if not is_pow2(self.n_slots) or self.n_slots < 2 or not cap_ok:
            raise ValueError(
                "n_slots must be a power of two in "
                f"[2, {MAX_STREAM_SLOTS}], got {self.n_slots} "
                "(pass extended=True for beyond-single-chip studies)"
            )
        if self.schedule not in ("paper", "bitonic"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")

    @property
    def winner_only(self) -> bool:
        """True for the WR (max-finding) configuration."""
        return self.routing is Routing.WR

    @property
    def sort_passes(self) -> int:
        """Network passes per SCHEDULE phase (log2 N in paper mode)."""
        k = self.n_slots.bit_length() - 1
        if self.schedule == "paper" or self.winner_only:
            return k
        return k * (k + 1) // 2

    @property
    def decision_blocks(self) -> int:
        """Physical Decision blocks in the single network stage (N/2)."""
        return self.n_slots // 2

    @property
    def update_cycles(self) -> int:
        """PRIORITY_UPDATE cycles per decision (0 when hidden by
        compute-ahead predication)."""
        return 0 if self.compute_ahead else 1
