"""Structured decision-trace recorder (the engine-emitted event stream).

Every decision cycle of either engine —
:class:`~repro.core.scheduler.ShareStreamsScheduler` or
:class:`~repro.core.tensor_engine.TensorScheduler` — produces one
:class:`~repro.core.scheduler.DecisionOutcome`.  The recorder flattens
each outcome into a canonical sequence of :class:`DecisionEvent`
records:

* one ``decide`` event per cycle (emitted block, circulated winner,
  serviced slots in transmission order, hardware cycles consumed);
* one ``miss`` event per missed-deadline registration;
* one ``drop`` event per packet shed by the drop-late policy.

The flattening is *engine-agnostic and deterministic*, and reads only
outcome fields the differential campaign's cycle records compare, so
two engines that agree on every outcome
(:func:`repro.core.differential.cross_validate`) produce
**byte-identical** serialized traces; the golden trace vector under
``tests/golden/`` pins the format.

Recording keeps each cycle's outcome in a bounded :class:`DecisionRing`
(old cycles evicted FIFO) and flattens it only when read, so telemetry
never exhausts memory on long runs and costs one append per cycle;
eviction is counted, and serialization of a truncated trace refuses by
default to avoid silent partial-trace comparisons.  The violation
flight recorder keeps the same ring.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterable, Iterator, NamedTuple

__all__ = [
    "DecisionEvent",
    "DecisionRing",
    "TraceRecorder",
    "events_from_outcome",
    "serialize_events",
    "deserialize_events",
]

#: Recognized event kinds, in per-cycle emission order.
EVENT_KINDS = ("decide", "miss", "drop")


class DecisionEvent(NamedTuple):
    """One structured telemetry event.

    An immutable, hashable named tuple: the recorders build one per
    event whenever a recorded cycle is read, and tuple construction is
    the cheapest immutable record Python offers.  Like any named tuple it
    also compares equal to a plain tuple of the same field values.

    Attributes
    ----------
    seq:
        Monotone sequence number within the recording (0-based).
    now:
        Scheduler time of the decision cycle that produced the event.
    kind:
        ``"decide"``, ``"miss"`` or ``"drop"``.
    sid:
        Circulated winner for ``decide`` (``None`` when idle); the
        affected stream for ``miss``/``drop``.
    block:
        Emitted block in priority order (``decide`` only, else empty).
    serviced:
        Stream IDs consumed this cycle in transmission order
        (``decide`` only, else empty).
    deadline:
        Shed packet's deadline (``drop`` only, else ``None``).
    hw_cycles:
        Hardware cycles the decision consumed (``decide`` only, else 0).
    """

    seq: int
    now: int
    kind: str
    sid: int | None
    block: tuple[int, ...] = ()
    serviced: tuple[int, ...] = ()
    deadline: int | None = None
    hw_cycles: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (tuples become lists)."""
        return {
            "seq": self.seq,
            "now": self.now,
            "kind": self.kind,
            "sid": self.sid,
            "block": list(self.block),
            "serviced": list(self.serviced),
            "deadline": self.deadline,
            "hw_cycles": self.hw_cycles,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "DecisionEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seq=d["seq"],
            now=d["now"],
            kind=d["kind"],
            sid=d["sid"],
            block=tuple(d["block"]),
            serviced=tuple(d["serviced"]),
            deadline=d["deadline"],
            hw_cycles=d["hw_cycles"],
        )

    def canonical_line(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def events_from_outcome(outcome, start_seq: int = 0) -> list[DecisionEvent]:
    """Flatten one ``DecisionOutcome`` into its event sequence.

    The emission order is fixed (decide, then misses in slot order,
    then drops in shed order) — both engines report misses/drops in
    slot/shed order already, so the flattening is deterministic.
    Events are built positionally because this runs on every recorded
    decision cycle a trace is read from.
    """
    now = int(outcome.now)
    events = [
        DecisionEvent(
            start_seq,
            now,
            "decide",
            outcome.circulated_sid,
            tuple(outcome.block),
            tuple([sid for sid, _pkt in outcome.serviced]),
            None,
            int(outcome.hw_cycles),
        )
    ]
    seq = start_seq
    for sid in outcome.misses:
        seq += 1
        events.append(DecisionEvent(seq, now, "miss", sid))
    for sid, packet in outcome.dropped:
        seq += 1
        events.append(
            DecisionEvent(seq, now, "drop", sid, (), (), int(packet.deadline))
        )
    return events


def serialize_events(events: Iterable[DecisionEvent]) -> bytes:
    """Canonical byte serialization (one JSON object per line)."""
    lines = [e.canonical_line() for e in events]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def deserialize_events(data: bytes | str) -> list[DecisionEvent]:
    """Inverse of :func:`serialize_events`."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return [
        DecisionEvent.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


class DecisionRing:
    """Bounded ring of ``(seq, outcome)`` pairs: the one decision record.

    Each decision cycle is kept as the engine's own immutable
    :class:`~repro.core.scheduler.DecisionOutcome` beside the ``seq`` of
    its first event, so recording costs one append per cycle and the
    canonical :class:`DecisionEvent` stream is flattened only when read
    (iterating the ring yields it).  Outcomes are frozen records of
    tuples on every engine, so flattening them later reads exactly what
    flattening them on arrival would have.

    Capacity counts decision cycles: the oldest cycle is evicted whole,
    so the retained events always start at a cycle boundary.
    :attr:`recorded` and :attr:`evicted` count events, and ``seq``
    numbers stay globally monotone until :meth:`clear`.
    """

    __slots__ = ("capacity", "_cycles", "_next_seq")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._cycles: deque[tuple[int, Any]] = deque(maxlen=capacity)
        self._next_seq = 0

    def on_decision(self, outcome) -> None:
        """Record one decision cycle."""
        seq = self._next_seq
        self._next_seq = seq + 1 + len(outcome.misses) + len(outcome.dropped)
        self._cycles.append((seq, outcome))

    @property
    def recorded(self) -> int:
        """Events recorded since construction or :meth:`clear`."""
        return self._next_seq

    @property
    def evicted(self) -> int:
        """Events of the cycles evicted from the ring."""
        return self._cycles[0][0] if self._cycles else 0

    @property
    def cycles(self) -> int:
        """Decision cycles retained."""
        return len(self._cycles)

    def __len__(self) -> int:
        return self._next_seq - self.evicted

    def __iter__(self) -> Iterator[DecisionEvent]:
        for seq, outcome in self._cycles:
            yield from events_from_outcome(outcome, seq)

    def clear(self) -> None:
        """Discard every retained cycle and restart ``seq`` at 0."""
        self._cycles.clear()
        self._next_seq = 0


class TraceRecorder(DecisionRing):
    """Ring-buffered structured decision-trace recorder.

    Implements the engine hook protocol (:meth:`on_decision`), so it
    can be passed directly as ``observer=`` to either engine or
    composed through :class:`repro.observability.Observability`.

    Parameters
    ----------
    capacity:
        Maximum retained decision cycles; older cycles are evicted FIFO
        (the evicted event count is kept so truncation is never silent).
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        super().__init__(capacity)

    # -- queries -------------------------------------------------------

    def events(self, kind: str | None = None) -> list[DecisionEvent]:
        """Retained events, optionally filtered by kind."""
        if kind is None:
            return list(self)
        return [e for e in self if e.kind == kind]

    def kinds(self) -> dict[str, int]:
        """Retained event count per kind (kinds with no events omitted)."""
        outcomes = [outcome for _seq, outcome in self._cycles]
        counts = (
            len(outcomes),
            sum(len(o.misses) for o in outcomes),
            sum(len(o.dropped) for o in outcomes),
        )
        return {kind: n for kind, n in zip(EVENT_KINDS, counts) if n}

    def to_dicts(self) -> list[dict[str, Any]]:
        """Retained events as plain dicts (golden-vector payload)."""
        return [e.to_dict() for e in self]

    # -- serialization -------------------------------------------------

    def serialize(self, *, allow_truncated: bool = False) -> bytes:
        """Canonical byte serialization of the retained trace.

        Raises unless ``allow_truncated`` when events were evicted —
        comparing a truncated trace byte-for-byte would silently skip
        the evicted prefix.
        """
        if self.evicted and not allow_truncated:
            raise ValueError(
                f"trace truncated ({self.evicted} events evicted); "
                "raise capacity or pass allow_truncated=True"
            )
        return serialize_events(self)

    def render(self, *, limit: int = 30) -> str:
        """Text tail of the trace plus per-kind totals."""
        tail: list[DecisionEvent] = []
        for seq, outcome in reversed(self._cycles):
            if len(tail) >= limit:
                break
            tail[:0] = events_from_outcome(outcome, seq)
        lines = []
        for e in tail[-limit:]:
            detail = ""
            if e.kind == "decide":
                detail = (
                    f" winner={e.sid} block={list(e.block)}"
                    f" serviced={list(e.serviced)} hw_cycles={e.hw_cycles}"
                )
            elif e.kind == "miss":
                detail = f" sid={e.sid}"
            elif e.kind == "drop":
                detail = f" sid={e.sid} deadline={e.deadline}"
            lines.append(f"[t={e.now:>8}] {e.kind:<7}{detail}")
        counts = self.kinds()
        summary = " ".join(f"{k}={counts.get(k, 0)}" for k in EVENT_KINDS)
        lines.append(
            f"--- {self.recorded} events recorded ({summary})"
            + (f", {self.evicted} evicted" if self.evicted else "")
        )
        return "\n".join(lines)
