"""Structured decision-trace recorder (the engine-emitted event stream).

Every decision cycle of either engine —
:class:`~repro.core.scheduler.ShareStreamsScheduler` or
:class:`~repro.core.batch_engine.BatchScheduler` — produces one
:class:`~repro.core.scheduler.DecisionOutcome`.  The recorder flattens
each outcome into a canonical sequence of :class:`DecisionEvent`
records:

* one ``decide`` event per cycle (emitted block, circulated winner,
  serviced slots in transmission order, hardware cycles consumed);
* one ``miss`` event per missed-deadline registration;
* one ``drop`` event per packet shed by the drop-late policy.

The flattening is *engine-agnostic and deterministic*, so two engines
that agree on every outcome produce **byte-identical** serialized
traces — which is exactly what the trace-equivalence differential mode
(:func:`repro.core.differential.cross_validate_traces`) asserts, and
what the golden trace vector under ``tests/golden/`` pins.

Events are kept in a bounded ring (old events evicted FIFO) so
telemetry never exhausts memory on long runs; eviction is counted, and
serialization of a truncated trace refuses by default to avoid silent
partial-trace comparisons.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterable, Iterator, NamedTuple

__all__ = [
    "DecisionEvent",
    "TraceRecorder",
    "event_count",
    "events_from_outcome",
    "serialize_events",
    "deserialize_events",
]

#: Recognized event kinds, in per-cycle emission order.
EVENT_KINDS = ("decide", "miss", "drop")


class DecisionEvent(NamedTuple):
    """One structured telemetry event.

    An immutable, hashable named tuple: the recorders build one per
    event on every decision cycle, and tuple construction is the
    cheapest immutable record Python offers.  Like any named tuple it
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
    Events are built positionally because this runs on every decision
    cycle a :class:`TraceRecorder` records.
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


def event_count(outcome) -> int:
    """Events :func:`events_from_outcome` yields for ``outcome``."""
    return 1 + len(outcome.misses) + len(outcome.dropped)


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


class TraceRecorder:
    """Ring-buffered structured decision-trace recorder.

    Implements the engine hook protocol (:meth:`on_decision`), so it
    can be passed directly as ``observer=`` to either engine or
    composed through :class:`repro.observability.Observability`.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are evicted FIFO (the
        eviction count is kept so truncation is never silent).
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._events: deque[DecisionEvent] = deque(maxlen=capacity)
        self.recorded = 0
        self.evicted = 0
        self._next_seq = 0

    # -- hook protocol -------------------------------------------------

    def on_decision(self, outcome) -> None:
        """Record one decision cycle's events."""
        events = events_from_outcome(outcome, self._next_seq)
        count = len(events)
        ring = self._events
        # Once the ring is full every appended event evicts one.
        overflow = len(ring) + count - ring.maxlen
        if overflow > 0:
            self.evicted += overflow
        ring.extend(events)
        self.recorded += count
        self._next_seq += count

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[DecisionEvent]:
        return iter(self._events)

    def events(self, kind: str | None = None) -> list[DecisionEvent]:
        """Retained events, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def kinds(self) -> dict[str, int]:
        """Retained event count per kind."""
        counts: dict[str, int] = {}
        for e in self._events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def to_dicts(self) -> list[dict[str, Any]]:
        """Retained events as plain dicts (golden-vector payload)."""
        return [e.to_dict() for e in self._events]

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
        return serialize_events(self._events)

    def render(self, *, limit: int = 30) -> str:
        """Text tail of the trace plus per-kind totals."""
        lines = []
        for e in list(self._events)[-limit:]:
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

    def clear(self) -> None:
        """Discard retained events and reset every counter together."""
        fresh: deque[DecisionEvent] = deque(maxlen=self._events.maxlen)
        self._events, self.recorded, self.evicted, self._next_seq = (
            fresh,
            0,
            0,
            0,
        )
