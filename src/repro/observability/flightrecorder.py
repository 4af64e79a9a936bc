"""Violation flight recorder: always-on trace ring, frozen on breach.

Post-mortem debugging of a QoS violation needs the decision cycles
*leading up to* the breach — but retaining a full event log defeats the
O(streams) memory promise of the monitoring layer.  The flight recorder
keeps only a small :class:`~repro.observability.events.DecisionRing`
of the last ``capacity`` decision cycles — the same ``(seq, outcome)``
ring the trace recorder keeps, with one global monotone ``seq`` across
the whole run.  When the SLO monitor emits a violation, the ring is
flattened into canonical
:class:`~repro.observability.events.DecisionEvent` records and frozen
into an immutable :class:`FlightDump` — the serialized JSONL is the
same canonical format as :meth:`TraceRecorder.serialize`, so a dump
replays through either engine and compares byte-for-byte (see
``tests/test_flight_recorder.py``).  Flattening only on a freeze keeps
the always-on ring to one append per cycle.

Dump cadence is debounced per rollup window: a window that breaches
five objectives produces *one* dump (the ring contents are identical),
tagged with every violation of that window.  Dumps are optionally
mirrored to disk (``dump_dir``) as ``flight-<n>.jsonl`` plus a
``flight-<n>.meta.json`` sidecar describing the triggering violations.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.observability.events import (
    DecisionEvent,
    DecisionRing,
    serialize_events,
)

__all__ = ["FlightDump", "FlightRecorder"]


@dataclass(frozen=True, slots=True)
class FlightDump:
    """One frozen ring: the last K decision cycles before a violation."""

    index: int  # 0-based dump number within the run
    trigger_window: int  # rollup window index of the first trigger
    events: tuple[DecisionEvent, ...]
    cycles: int  # decision cycles covered by the events
    violations: tuple[Any, ...] = field(default=())  # SloViolation records

    def serialize(self) -> bytes:
        """Canonical JSONL bytes (same format as ``TraceRecorder``)."""
        return serialize_events(self.events)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON metadata (without the event payload)."""
        return {
            "index": self.index,
            "trigger_window": self.trigger_window,
            "cycles": self.cycles,
            "events": len(self.events),
            "violations": [v.to_dict() for v in self.violations],
        }

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        span = ""
        if self.events:
            span = f" t=[{self.events[0].now}..{self.events[-1].now}]"
        return (
            f"dump {self.index}: window {self.trigger_window}, "
            f"{self.cycles} cycles / {len(self.events)} events{span}, "
            f"{len(self.violations)} violation(s)"
        )


class FlightRecorder(DecisionRing):
    """Always-on ring of the last K decision cycles, frozen on breach.

    The ring holds whole decision cycles (each cycle flattens to 1..N
    events on freeze), so a frozen dump always starts at a cycle
    boundary and the canonical serialization replays cleanly.  ``seq``
    numbers are globally monotone across the run — two engines
    producing identical outcomes therefore produce byte-identical
    dumps.

    Parameters
    ----------
    capacity:
        Decision cycles retained in the ring.
    dump_dir:
        When given, each frozen dump is also written there as
        ``flight-<n>.jsonl`` + ``flight-<n>.meta.json``.
    max_dumps:
        Retained in-memory dumps (oldest evicted first); disk files
        are never evicted.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        dump_dir: str | Path | None = None,
        max_dumps: int = 16,
    ) -> None:
        super().__init__(capacity)
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.cycles_recorded = 0
        self.dumps: deque[FlightDump] = deque(maxlen=max_dumps)
        self.dumps_written = 0
        # violations accumulated for the current window's (single) dump
        self._pending_window: int | None = None
        self._pending: list[Any] = []

    # -- hook protocol -------------------------------------------------

    def on_decision(self, outcome) -> None:
        """Append one decision cycle to the ring.

        A new cycle arriving after a violation flushes the pending dump
        first, so the frozen ring never includes post-breach cycles.
        """
        if self._pending:
            self._freeze()
        DecisionRing.on_decision(self, outcome)
        self.cycles_recorded += 1

    def on_violation(self, violation) -> None:
        """Mark the current ring for freezing (debounced per window).

        Violations of the *same* rollup window share one dump; a
        violation from a new window freezes the previous window's dump
        immediately.
        """
        window = violation.window_index
        if self._pending and self._pending_window != window:
            self._freeze()
        self._pending_window = window
        self._pending.append(violation)

    def finalize(self) -> None:
        """Flush a pending dump at end of run."""
        if self._pending:
            self._freeze()

    # -- freezing ------------------------------------------------------

    def _freeze(self) -> FlightDump:
        dump = FlightDump(
            index=self.dumps_written,
            trigger_window=(
                self._pending_window if self._pending_window is not None else -1
            ),
            events=tuple(self),
            cycles=self.cycles,
            violations=tuple(self._pending),
        )
        self.dumps.append(dump)
        self.dumps_written += 1
        self._pending_window = None
        self._pending.clear()
        if self.dump_dir is not None:
            self._write(dump)
        return dump

    def _write(self, dump: FlightDump) -> None:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        stem = self.dump_dir / f"flight-{dump.index}"
        stem.with_suffix(".jsonl").write_bytes(dump.serialize())
        stem.with_suffix(".meta.json").write_text(
            json.dumps(dump.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- queries -------------------------------------------------------

    @property
    def latest(self) -> FlightDump | None:
        """Most recent frozen dump, if any."""
        return self.dumps[-1] if self.dumps else None

    def clear(self) -> None:
        """Discard ring contents, pending state and retained dumps."""
        super().clear()
        self.cycles_recorded = 0
        self.dumps.clear()
        self.dumps_written = 0
        self._pending_window = None
        self._pending.clear()
