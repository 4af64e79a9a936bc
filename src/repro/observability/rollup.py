"""Streaming time-windowed rollups over the decision-outcome stream.

The passive telemetry of the observability layer (trace ring, metrics
registry) answers "what happened" after the fact; conformance
monitoring needs windowed *rates* while the run is still going.
:class:`RollupObserver` sits on the same engine hook as every other
observer (``on_decision`` receives each finished
:class:`~repro.core.scheduler.DecisionOutcome`) and aggregates it into
fixed-size windows of decision cycles, incrementally:

* per-stream service counts, circulated wins, missed-deadline
  registrations and drops — and the derived *service share* (fraction
  of the window's serviced packets), service/miss/drop *rates* (per
  decision cycle);
* inter-service gap quantiles per stream via :class:`GapSketch`, a
  small fixed-bucket sketch (powers of two, O(1) per observation,
  O(buckets) memory) — no event log is retained;
* window-end *staleness* (cycles since a stream's last service), so
  starvation is visible even for streams serviced zero times in the
  window.

Memory is O(streams) regardless of run length: one counter set and one
sketch per stream, reset at each window boundary (only the last-service
cycle persists across windows, to keep gap accounting continuous).
Finished windows are published to subscribers (the SLO monitor) as
immutable :class:`WindowRollup` records and kept in a bounded history
for the dashboard.

Windows are measured in *decision cycles* — the scheduler's own time
unit, identical across both engines by construction — so rollups from
the reference and array engines agree exactly on identical workloads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "GapSketch",
    "StreamWindowStats",
    "WindowRollup",
    "RollupObserver",
]

#: Default sketch bounds: powers of two in decision cycles, matching
#: the jitter histogram grid of :class:`~repro.observability.hooks.MetricsObserver`.
DEFAULT_GAP_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class GapSketch:
    """Fixed-bucket quantile sketch for inter-service gaps.

    ``observe`` files a value into the first bucket whose upper bound
    covers it (one bisection, one integer increment); ``quantile``
    walks the bucket counts and returns the covering bucket's upper
    bound — a conservative (never under-reporting) estimate, exact for
    values on the power-of-two grid.  Values beyond the last bound (and
    NaN) land in an implicit overflow bucket whose quantile estimate is
    the true maximum (tracked exactly).
    """

    __slots__ = ("bounds", "counts", "overflow", "total", "max", "sum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_GAP_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("sketch needs at least one bucket")
        if any(math.isnan(b) for b in self.bounds):
            raise ValueError("sketch bucket bounds must not be NaN")
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.max = 0.0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """File one observation (one bisection over the bounds)."""
        value = float(value)
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value
        bounds = self.bounds
        # NaN is covered by no bound: it goes to the overflow bucket.
        i = bisect_left(bounds, value) if value == value else len(bounds)
        if i < len(bounds):
            self.counts[i] += 1
        else:
            self.overflow += 1

    def quantile(self, q: float) -> float:
        """Conservative q-quantile estimate (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = max(1, math.ceil(q * self.total))
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            if seen >= target:
                return bound
        return self.max  # target falls in the overflow bucket

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def clear(self) -> None:
        """Reset every bucket and summary statistic."""
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.max = 0.0
        self.sum = 0.0


@dataclass(frozen=True, slots=True)
class StreamWindowStats:
    """One stream's aggregated behavior over one rollup window.

    ``gap_max`` includes end-of-window staleness (cycles since the
    stream's last service), so a stream starved for the whole window
    reports a gap of at least the window length rather than silence.
    Gap fields are 0 for streams with no recorded service history.
    """

    sid: int
    serviced: int
    wins: int
    misses: int
    drops: int
    service_share: float  # fraction of the window's serviced packets
    service_rate: float  # serviced per decision cycle
    miss_rate: float  # misses per decision cycle
    drop_rate: float  # drops per decision cycle
    gap_p50: float
    gap_p90: float
    gap_max: float

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (endpoint / dump payload)."""
        return {
            "sid": self.sid,
            "serviced": self.serviced,
            "wins": self.wins,
            "misses": self.misses,
            "drops": self.drops,
            "service_share": self.service_share,
            "service_rate": self.service_rate,
            "miss_rate": self.miss_rate,
            "drop_rate": self.drop_rate,
            "gap_p50": self.gap_p50,
            "gap_p90": self.gap_p90,
            "gap_max": self.gap_max,
        }


@dataclass(frozen=True, slots=True)
class WindowRollup:
    """One finished rollup window (immutable, published to subscribers)."""

    index: int  # 0-based window number within the recording
    start_cycle: int  # scheduler time of the window's first decision
    end_cycle: int  # scheduler time of the window's last decision
    cycles: int  # decision cycles aggregated (== window size, except
    # for a final partial window flushed by finalize())
    idle_cycles: int
    total_serviced: int
    total_misses: int
    total_drops: int
    streams: dict[int, StreamWindowStats]

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (endpoint / dump payload)."""
        return {
            "index": self.index,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "cycles": self.cycles,
            "idle_cycles": self.idle_cycles,
            "total_serviced": self.total_serviced,
            "total_misses": self.total_misses,
            "total_drops": self.total_drops,
            "streams": {
                str(sid): stats.to_dict()
                for sid, stats in sorted(self.streams.items())
            },
        }


class RollupObserver:
    """Incremental windowed aggregation over the decision hook.

    Implements the engine hook protocol (``on_decision``), so it can be
    handed directly as ``observer=`` to either engine or reached
    through a :class:`~repro.observability.ConformanceMonitor`.

    Parameters
    ----------
    window_cycles:
        Decision cycles per rollup window.
    keep:
        Finished windows retained in :attr:`history` (FIFO).
    gap_buckets:
        Bucket bounds of the per-stream inter-service gap sketches.
    """

    def __init__(
        self,
        window_cycles: int = 256,
        *,
        keep: int = 64,
        gap_buckets: Iterable[float] = DEFAULT_GAP_BUCKETS,
    ) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = window_cycles
        self.history: deque[WindowRollup] = deque(maxlen=keep)
        self.windows_closed = 0
        self._gap_buckets = tuple(gap_buckets)
        self._subscribers: list[Callable[[WindowRollup], None]] = []
        # -- current-window state (all O(streams)) --
        self._decisions = 0
        self._idle = 0
        self._start_cycle = 0
        self._last_cycle = 0
        self._serviced: dict[int, int] = {}
        self._wins: dict[int, int] = {}
        self._misses: dict[int, int] = {}
        self._drops: dict[int, int] = {}
        self._sketches: dict[int, GapSketch] = {}
        # -- cross-window state --
        self._last_service: dict[int, int] = {}

    # -- subscription --------------------------------------------------

    def subscribe(self, callback: Callable[[WindowRollup], None]) -> None:
        """Register a callback invoked with every finished window."""
        self._subscribers.append(callback)

    # -- hook protocol -------------------------------------------------

    def on_decision(self, outcome) -> None:
        """Fold one decision outcome into the current window."""
        now = int(outcome.now)
        if self._decisions == 0:
            self._start_cycle = now
        self._last_cycle = now
        self._decisions += 1
        sid = outcome.circulated_sid
        if sid is None:
            self._idle += 1
        else:
            self._wins[sid] = self._wins.get(sid, 0) + 1
        for sid, _packet in outcome.serviced:
            self._serviced[sid] = self._serviced.get(sid, 0) + 1
            last = self._last_service.get(sid)
            if last is not None:
                sketch = self._sketches.get(sid)
                if sketch is None:
                    sketch = self._sketches[sid] = GapSketch(self._gap_buckets)
                sketch.observe(now - last)
            self._last_service[sid] = now
        for sid in outcome.misses:
            self._misses[sid] = self._misses.get(sid, 0) + 1
        for sid, _packet in outcome.dropped:
            self._drops[sid] = self._drops.get(sid, 0) + 1
        if self._decisions >= self.window_cycles:
            self._close_window()

    # -- window lifecycle ----------------------------------------------

    def finalize(self) -> WindowRollup | None:
        """Flush the current partial window (end of run).

        Returns the flushed rollup, or ``None`` when the window was
        empty (nothing observed since the last boundary).
        """
        if self._decisions == 0:
            return None
        return self._close_window()

    def _close_window(self) -> WindowRollup:
        cycles = self._decisions
        end = self._last_cycle
        total_serviced = sum(self._serviced.values())
        sids = (
            set(self._serviced)
            | set(self._wins)
            | set(self._misses)
            | set(self._drops)
            | set(self._last_service)
        )
        streams: dict[int, StreamWindowStats] = {}
        for sid in sorted(sids):
            serviced = self._serviced.get(sid, 0)
            misses = self._misses.get(sid, 0)
            drops = self._drops.get(sid, 0)
            sketch = self._sketches.get(sid)
            gap_p50 = sketch.quantile(0.5) if sketch is not None else 0.0
            gap_p90 = sketch.quantile(0.9) if sketch is not None else 0.0
            gap_max = sketch.max if sketch is not None else 0.0
            last = self._last_service.get(sid)
            if last is not None:
                gap_max = max(gap_max, float(end - last))
            streams[sid] = StreamWindowStats(
                sid=sid,
                serviced=serviced,
                wins=self._wins.get(sid, 0),
                misses=misses,
                drops=drops,
                service_share=(
                    serviced / total_serviced if total_serviced else 0.0
                ),
                service_rate=serviced / cycles,
                miss_rate=misses / cycles,
                drop_rate=drops / cycles,
                gap_p50=gap_p50,
                gap_p90=gap_p90,
                gap_max=gap_max,
            )
        rollup = WindowRollup(
            index=self.windows_closed,
            start_cycle=self._start_cycle,
            end_cycle=end,
            cycles=cycles,
            idle_cycles=self._idle,
            total_serviced=total_serviced,
            total_misses=sum(self._misses.values()),
            total_drops=sum(self._drops.values()),
            streams=streams,
        )
        self.windows_closed += 1
        self.history.append(rollup)
        self._reset_window()
        for callback in self._subscribers:
            callback(rollup)
        return rollup

    def _reset_window(self) -> None:
        self._decisions = 0
        self._idle = 0
        self._serviced.clear()
        self._wins.clear()
        self._misses.clear()
        self._drops.clear()
        self._sketches.clear()

    @property
    def latest(self) -> WindowRollup | None:
        """Most recently finished window, if any."""
        return self.history[-1] if self.history else None

    def clear(self) -> None:
        """Discard all windowed state and history."""
        self._reset_window()
        self._last_service.clear()
        self.history.clear()
        self.windows_closed = 0
