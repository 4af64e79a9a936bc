"""Window-constraint satisfaction analysis over service traces.

DWCS's service guarantee is *window-constrained*: for stream ``i`` with
constraint ``W_i = x_i / y_i``, **no more than** ``x_i`` packets may be
lost or serviced late in any window of ``y_i`` consecutive packets of
the stream (Section 2).  The schedulers in this repository adjust
window counters to chase that guarantee; this module provides the
independent *checker* that audits whether a produced schedule actually
honored it — the verification half the paper's counters imply.

:class:`ConstraintChecker` consumes a per-stream trace of packet
outcomes (on-time / late / dropped) and reports, per stream:

* the number of violating windows (sliding, per the (m,k)-firm
  definition the paper cites [8]),
* the worst window (most losses in any ``y`` consecutive packets),
* loss statistics.

Vectorized with a sliding-window sum so auditing 64000-packet traces
is instant (profile-first guidance: the checker runs inside property
tests and benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ON_TIME",
    "LATE",
    "DROPPED",
    "PacketOutcome",
    "StreamAudit",
    "ConstraintChecker",
]

#: Outcome codes for a packet in a stream's trace.
ON_TIME = 0
LATE = 1
DROPPED = 2


@dataclass(frozen=True, slots=True)
class PacketOutcome:
    """One packet's fate in the audited schedule."""

    stream_id: int
    seq: int
    outcome: int  # ON_TIME / LATE / DROPPED

    def __post_init__(self) -> None:
        if self.outcome not in (ON_TIME, LATE, DROPPED):
            raise ValueError(f"unknown outcome code {self.outcome}")


@dataclass(frozen=True, slots=True)
class StreamAudit:
    """Constraint-satisfaction verdict for one stream."""

    stream_id: int
    x: int
    y: int
    packets: int
    losses: int
    violating_windows: int
    worst_window_losses: int

    @property
    def satisfied(self) -> bool:
        """Whether every window met the constraint."""
        return self.violating_windows == 0

    @property
    def loss_rate(self) -> float:
        """Overall fraction of late/dropped packets."""
        return self.losses / self.packets if self.packets else 0.0


class ConstraintChecker:
    """Audits service traces against per-stream window constraints.

    Parameters
    ----------
    constraints:
        ``stream_id -> (x, y)``: at most ``x`` losses per ``y``
        consecutive packets.  ``y == 0`` means unconstrained.
    """

    def __init__(self, constraints: dict[int, tuple[int, int]]) -> None:
        for sid, (x, y) in constraints.items():
            if x < 0 or y < 0:
                raise ValueError(f"stream {sid}: negative constraint terms")
            if y and x > y:
                raise ValueError(f"stream {sid}: x > y in constraint")
        self.constraints = dict(constraints)
        self._traces: dict[int, list[int]] = {sid: [] for sid in constraints}

    def record(self, stream_id: int, outcome: int) -> None:
        """Append one packet outcome to a stream's trace."""
        if stream_id not in self._traces:
            raise KeyError(f"no constraint registered for stream {stream_id}")
        if outcome not in (ON_TIME, LATE, DROPPED):
            raise ValueError(f"unknown outcome code {outcome}")
        self._traces[stream_id].append(outcome)

    def record_outcome(self, packet: PacketOutcome) -> None:
        """Append one :class:`PacketOutcome`."""
        self.record(packet.stream_id, packet.outcome)

    def extend(self, stream_id: int, outcomes) -> None:
        """Append a batch of outcome codes."""
        for outcome in outcomes:
            self.record(stream_id, int(outcome))

    # ------------------------------------------------------------------

    def audit_stream(self, stream_id: int) -> StreamAudit:
        """Audit one stream's full trace (sliding windows of size y)."""
        x, y = self.constraints[stream_id]
        trace = np.asarray(self._traces[stream_id], dtype=np.int8)
        lost = (trace != ON_TIME).astype(np.int32)
        losses = int(lost.sum())
        if y == 0 or len(trace) < y:
            # Unconstrained, or not enough packets for a full window.
            worst = losses if y == 0 or len(trace) else 0
            return StreamAudit(
                stream_id=stream_id,
                x=x,
                y=y,
                packets=len(trace),
                losses=losses,
                violating_windows=0,
                worst_window_losses=min(worst, losses),
            )
        # Sliding-window loss counts via cumulative sums (vectorized).
        cumulative = np.concatenate(([0], np.cumsum(lost)))
        window_losses = cumulative[y:] - cumulative[:-y]
        return StreamAudit(
            stream_id=stream_id,
            x=x,
            y=y,
            packets=len(trace),
            losses=losses,
            violating_windows=int((window_losses > x).sum()),
            worst_window_losses=int(window_losses.max()),
        )

    def audit(self) -> dict[int, StreamAudit]:
        """Audit every registered stream."""
        return {sid: self.audit_stream(sid) for sid in self.constraints}

    @property
    def all_satisfied(self) -> bool:
        """Whether every stream's constraint held over its whole trace."""
        return all(a.satisfied for a in self.audit().values())
