"""Control & Steering logic unit: the scheduler's state machine.

The Control and Steering logic unit (Section 4.3, Figure 6) loads the
Register Base blocks, sets the shuffle-network steering muxes every
cycle, and sequences the scheduler through its three states:

* ``LOAD`` — stream service constraints / fresh arrival times are
  latched into the Register Base blocks (entered at start-up and
  whenever the streaming unit delivers a batch);
* ``SCHEDULE`` — ``log2(N)`` recirculation passes order the streams;
* ``PRIORITY_UPDATE`` — the circulated winner ID reaches every Register
  Base block and per-stream attribute adjustments are applied.

After the initial LOAD the unit alternates SCHEDULE and PRIORITY_UPDATE
(Figure 6's four-stream timeline).  The unit counts hardware cycles and
records a timeline trace that :mod:`repro.experiments.figure6`
regenerates.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

__all__ = ["ControlState", "TimelineEntry", "ControlUnit", "cycle_count"]


def cycle_count(count, name: str = "cycle count") -> int:
    """``count`` as a non-negative ``int``, else a ``ValueError`` naming it.

    Every bulk count of decision cycles passes this check before any
    state changes.  ``operator.index`` refuses a fractional count, which
    would otherwise be accounted as a fraction of a cycle; a ``bool`` is
    refused too, though Python treats ``True`` as the integer 1.
    """
    try:
        if isinstance(count, bool):
            raise TypeError
        count = operator.index(count)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {count!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    return count


class ControlState(enum.Enum):
    """FSM states of the Control & Steering unit (Figure 6)."""

    LOAD = "LOAD"
    SCHEDULE = "SCHEDULE"
    PRIORITY_UPDATE = "PRIORITY_UPDATE"


@dataclass(frozen=True, slots=True)
class TimelineEntry:
    """One FSM residency interval on the hardware-cycle timeline."""

    start_cycle: int
    cycles: int
    state: ControlState
    detail: str = ""

    @property
    def end_cycle(self) -> int:
        """First cycle after the interval."""
        return self.start_cycle + self.cycles


@dataclass
class ControlUnit:
    """Cycle accountant and timeline recorder for the scheduler FSM.

    Parameters
    ----------
    trace:
        When true, every state residency is appended to ``timeline``.
        Experiments that only need cycle totals leave it off.
    """

    trace: bool = False
    state: ControlState = field(default=ControlState.LOAD, init=False)
    hw_cycle: int = field(default=0, init=False)
    decision_cycles: int = field(default=0, init=False)
    timeline: list[TimelineEntry] = field(default_factory=list, init=False)

    def _enter(self, state: ControlState, cycles: int, detail: str = "") -> None:
        if cycles < 0:
            raise ValueError("cycle count must be non-negative")
        if self.trace:
            self.timeline.append(
                TimelineEntry(self.hw_cycle, cycles, state, detail)
            )
        self.state = state
        self.hw_cycle += cycles

    def load(self, cycles: int = 1, detail: str = "") -> None:
        """Spend ``cycles`` in LOAD (constraint / arrival-time latch)."""
        self._enter(ControlState.LOAD, cycles, detail)

    def schedule(self, passes: int, detail: str = "") -> None:
        """Spend ``passes`` cycles in SCHEDULE (network recirculation)."""
        self._enter(ControlState.SCHEDULE, passes, detail)

    def priority_update(self, cycles: int = 1, detail: str = "") -> None:
        """Spend ``cycles`` in PRIORITY_UPDATE (winner-ID circulation).

        Also closes out one *decision cycle* (SCHEDULE +
        PRIORITY_UPDATE pair) in the decision counter.
        """
        self._enter(ControlState.PRIORITY_UPDATE, cycles, detail)
        self.decision_cycles += 1

    def advance_decision_cycles(
        self,
        count: int,
        schedule_passes: int,
        update_cycles: int = 1,
        detail: str = "",
    ) -> None:
        """Account ``count`` SCHEDULE + PRIORITY_UPDATE pairs at once.

        The bulk path of the idle-cycle fast-forward, and with
        ``count=1`` the oracle's one call per untraced decision cycle:
        ``hw_cycle`` and ``decision_cycles`` advance exactly as
        ``count`` individual :meth:`schedule` / :meth:`priority_update`
        pairs would, in O(1) when the timeline trace is off.  With
        tracing on, the individual residencies are still recorded so
        the timeline stays entry-for-entry identical to the unskipped
        run.  ``count`` must be a non-negative integer
        (:func:`cycle_count`).
        """
        count = cycle_count(count)
        if count == 0:
            return
        if self.trace:
            for _ in range(count):
                self.schedule(schedule_passes, detail)
                self.priority_update(update_cycles, detail)
            return
        self.hw_cycle += count * (schedule_passes + update_cycles)
        self.decision_cycles += count
        self.state = ControlState.PRIORITY_UPDATE

    def elapsed_seconds(self, clock_mhz: float) -> float:
        """Wall time the consumed hardware cycles take at ``clock_mhz``."""
        if clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        return self.hw_cycle / (clock_mhz * 1e6)

    def reset(self) -> None:
        """Return to the power-on state, clearing counters and trace."""
        self.state = ControlState.LOAD
        self.hw_cycle = 0
        self.decision_cycles = 0
        self.timeline.clear()
