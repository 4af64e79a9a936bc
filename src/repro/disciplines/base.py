"""Common interface for pure-software packet scheduling disciplines.

Section 4.1 of the paper evaluates processor-resident schedulers (on
UltraSPARC, i960 and Pentium hosts) and concludes they cannot meet
multi-gigabit packet-times; Section 5.2 compares against software
routers (Click with SFQ, router plug-ins with DRR).  This package holds
clean-room Python implementations of those disciplines behind a single
interface so that:

* they serve as *oracles* for the cycle-level hardware model
  (`tests/test_cross_validation.py` checks the FPGA DWCS/EDF decisions
  against the software references), and
* pytest-benchmark can measure their per-decision latency, reproducing
  the *structure* of the paper's software-vs-hardware comparison.

The interface is enqueue/dequeue oriented: packets arrive with their
stream ID and the discipline picks which backlogged packet to transmit
next at a given time.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

__all__ = ["Packet", "SwStream", "Discipline", "DisciplineInfo"]


@dataclass(slots=True)
class Packet:
    """One packet as seen by a software discipline.

    ``deadline`` is absolute (same unit as ``arrival``); ``tag`` is
    scratch space disciplines may use for service tags (virtual start
    or finish times).
    """

    stream_id: int
    seq: int
    arrival: float
    length: int = 1500
    deadline: float | None = None
    tag: float = 0.0


@dataclass(slots=True)
class SwStream:
    """Per-stream parameters a discipline may consult.

    ``weight`` drives fair-queuing shares and DRR quanta; ``priority``
    drives static-priority ordering (lower = more urgent); ``period``
    and ``loss_numerator``/``loss_denominator`` are the DWCS service
    constraints (request period ``T`` and window-constraint ``x/y``).
    """

    stream_id: int
    weight: float = 1.0
    priority: int = 0
    period: float = 1.0
    loss_numerator: int = 0
    loss_denominator: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.loss_numerator < 0 or self.loss_denominator < 0:
            raise ValueError("window-constraint terms must be non-negative")
        if self.loss_numerator > self.loss_denominator:
            raise ValueError("window numerator exceeds denominator")


@dataclass(frozen=True, slots=True)
class DisciplineInfo:
    """Table 1 metadata: how a discipline classifies along the paper's axes."""

    name: str
    family: str  # "priority-class" | "fair-queuing" | "window-constrained"
    priority: str
    grain: str
    input_queue: str
    service_tag_computation: str
    concurrency: str


class Discipline(abc.ABC):
    """A work-conserving packet scheduling discipline.

    Subclasses implement :meth:`enqueue` and :meth:`dequeue`; streams
    must be registered through :meth:`add_stream` before packets for
    them arrive.
    """

    #: Short registry name (e.g. ``"dwcs"``); subclasses override.
    name: str = "abstract"

    def __init__(self) -> None:
        self.streams: dict[int, SwStream] = {}
        self._backlog = 0

    def add_stream(self, stream: SwStream) -> None:
        """Register a stream's parameters (idempotent re-registration is an error)."""
        if stream.stream_id in self.streams:
            raise ValueError(f"stream {stream.stream_id} already registered")
        self.streams[stream.stream_id] = stream
        self._on_stream_added(stream)

    def _on_stream_added(self, stream: SwStream) -> None:
        """Hook for subclasses to set up per-stream state."""

    @abc.abstractmethod
    def enqueue(self, packet: Packet) -> None:
        """Accept one arriving packet into its stream's queue."""

    @abc.abstractmethod
    def dequeue(self, now: float) -> Packet | None:
        """Pick and remove the next packet to transmit at time ``now``.

        Returns ``None`` when no packet is backlogged.  Implementations
        must be work-conserving: if any packet is queued, one is
        returned.
        """

    @property
    def backlog(self) -> int:
        """Total packets currently queued across all streams."""
        return self._backlog

    def _note_enqueued(self) -> None:
        self._backlog += 1

    def _note_dequeued(self) -> None:
        if self._backlog <= 0:
            raise RuntimeError("dequeue accounting underflow")
        self._backlog -= 1
