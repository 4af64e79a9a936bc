"""Online QoS conformance monitoring: SLOs over streaming rollups.

The paper's guarantees are *per-stream contracts* — DWCS tolerates at
most ``x`` misses per window of ``y`` requests, the fair-share runs
promise bandwidth ratios (Figures 8-10), and isolation promises bounded
service gaps under overload.  This module turns those contracts into
declarative :class:`StreamSlo` objectives evaluated online against
every finished :class:`~repro.observability.rollup.WindowRollup`:

* **miss budget** — allowed missed-deadline registrations per rollup
  window (the DWCS ``x`` per ``y`` loss tolerance, rescaled to the
  window);
* **share band** — tolerated ``[min_share, max_share]`` interval of
  the stream's service share (fraction of the window's serviced
  packets), matching the Figure 8/10 targets;
* **max gap** — maximum tolerated inter-service gap in decision
  cycles (including end-of-window staleness, so full starvation is
  caught).

Each breach emits a structured :class:`SloViolation` with a
*burn rate* (how fast the violation budget is being consumed: observed
over threshold; ``inf`` for a zero budget), is recorded, forwarded to
subscribers (the flight recorder freezes on it) and — when a metrics
registry is attached — counted in ``*_slo_violations_total`` and
exposed as a ``*_slo_burn_rate`` gauge for the ``/metrics`` endpoint.

:class:`ConformanceMonitor` bundles rollup + SLO evaluation + flight
recorder behind the single engine hook (``on_decision`` /
``on_run_summary``), so one instance attaches to either engine, the
endsystem router, the line-card or any experiment driver; the array
engine's vectorized ``run_periodic`` path (no per-cycle events) is
covered by whole-run conformance evaluation in ``on_run_summary``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.observability.flightrecorder import FlightRecorder
from repro.observability.rollup import (
    RollupObserver,
    StreamWindowStats,
    WindowRollup,
)

__all__ = [
    "StreamSlo",
    "SloViolation",
    "SloMonitor",
    "ConformanceMonitor",
    "slos_from_shares",
    "slos_from_streams",
    "violation_from_dict",
]


@dataclass(frozen=True, slots=True)
class StreamSlo:
    """Declarative per-stream service-level objectives.

    Any objective left ``None`` is not evaluated.  ``min_share`` /
    ``max_share`` are evaluated only for windows that serviced at least
    one packet (an all-idle window has no meaningful shares);
    ``max_gap`` is evaluated only for streams with recorded service
    history (a stream that never transmitted cannot be distinguished
    from one with no traffic).
    """

    sid: int
    miss_budget: int | None = None  # allowed misses per rollup window
    min_share: float | None = None  # service-share tolerance band
    max_share: float | None = None
    max_gap: int | None = None  # max inter-service gap (cycles)

    def __post_init__(self) -> None:
        if self.miss_budget is not None and self.miss_budget < 0:
            raise ValueError("miss_budget must be >= 0")
        for name in ("min_share", "max_share"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if (
            self.min_share is not None
            and self.max_share is not None
            and self.min_share > self.max_share
        ):
            raise ValueError("min_share exceeds max_share")
        if self.max_gap is not None and self.max_gap <= 0:
            raise ValueError("max_gap must be positive")

    @property
    def objectives(self) -> tuple[str, ...]:
        """Names of the objectives this SLO actually evaluates."""
        names = []
        if self.miss_budget is not None:
            names.append("miss_budget")
        if self.min_share is not None or self.max_share is not None:
            names.append("share_band")
        if self.max_gap is not None:
            names.append("max_gap")
        return tuple(names)


@dataclass(frozen=True, slots=True)
class SloViolation:
    """One detected SLO breach (structured, serializable).

    ``burn_rate`` is the violation-budget burn: observed over
    threshold (``inf`` when the threshold is zero), or threshold over
    observed for under-delivery objectives (``min_share``) — always
    normalized so > 1 means the budget is being consumed faster than
    the objective allows.
    """

    sid: int
    objective: str  # "miss_budget" | "share_band" | "max_gap"
    observed: float
    threshold: float
    burn_rate: float
    window_index: int
    window_start: int
    window_end: int

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation."""
        return {
            "sid": self.sid,
            "objective": self.objective,
            "observed": self.observed,
            "threshold": self.threshold,
            "burn_rate": self.burn_rate,
            "window_index": self.window_index,
            "window_start": self.window_start,
            "window_end": self.window_end,
        }

    def canonical_line(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """Human-readable one-liner for reports and the dashboard."""
        burn = "inf" if math.isinf(self.burn_rate) else f"{self.burn_rate:.2f}"
        return (
            f"window {self.window_index} [{self.window_start}..{self.window_end}] "
            f"stream {self.sid}: {self.objective} observed={self.observed:g} "
            f"threshold={self.threshold:g} burn={burn}x"
        )


def violation_from_dict(data: dict[str, Any]) -> SloViolation:
    """Reconstruct a :class:`SloViolation` from its :meth:`~SloViolation.to_dict` form."""
    return SloViolation(
        sid=int(data["sid"]),
        objective=str(data["objective"]),
        observed=float(data["observed"]),
        threshold=float(data["threshold"]),
        burn_rate=float(data["burn_rate"]),
        window_index=int(data["window_index"]),
        window_start=int(data["window_start"]),
        window_end=int(data["window_end"]),
    )


def _burn(observed: float, threshold: float) -> float:
    if threshold <= 0:
        return math.inf if observed > 0 else 0.0
    return observed / threshold


_EMPTY_STATS_FIELDS = dict(
    serviced=0, wins=0, misses=0, drops=0, service_share=0.0,
    service_rate=0.0, miss_rate=0.0, drop_rate=0.0,
    gap_p50=0.0, gap_p90=0.0, gap_max=0.0,
)


class SloMonitor:
    """Evaluate declarative SLOs against finished rollup windows.

    Parameters
    ----------
    slos:
        One :class:`StreamSlo` per monitored stream (duplicates rejected).
    registry:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        when given, violations are counted in
        ``{prefix}_slo_violations_total{stream,objective}`` and the
        latest per-objective burn rates exposed as
        ``{prefix}_slo_burn_rate{stream,objective}`` gauges.
    """

    def __init__(
        self,
        slos: Iterable[StreamSlo] = (),
        *,
        registry=None,
        prefix: str = "sharestreams",
    ) -> None:
        self.slos: dict[int, StreamSlo] = {}
        for slo in slos:
            if slo.sid in self.slos:
                raise ValueError(f"duplicate SLO for stream {slo.sid}")
            self.slos[slo.sid] = slo
        self.violations: list[SloViolation] = []
        self.windows_evaluated = 0
        self._subscribers: list[Callable[[SloViolation], None]] = []
        self._violation_counter = None
        self._burn_gauge = None
        if registry is not None:
            self._violation_counter = registry.counter(
                f"{prefix}_slo_violations_total",
                "SLO breaches per stream and objective",
            )
            self._burn_gauge = registry.gauge(
                f"{prefix}_slo_burn_rate",
                "latest violation-budget burn rate per stream and objective",
            )

    def subscribe(self, callback: Callable[[SloViolation], None]) -> None:
        """Register a callback invoked with every emitted violation."""
        self._subscribers.append(callback)

    # -- evaluation ----------------------------------------------------

    def on_rollup(self, rollup: WindowRollup) -> list[SloViolation]:
        """Evaluate every SLO against one finished window."""
        found: list[SloViolation] = []
        for sid, slo in self.slos.items():
            stats = rollup.streams.get(sid)
            if stats is None:
                stats = StreamWindowStats(sid=sid, **_EMPTY_STATS_FIELDS)
            found.extend(self._evaluate(slo, stats, rollup))
        self.windows_evaluated += 1
        for violation in found:
            self._emit(violation)
        return found

    def _evaluate(
        self, slo: StreamSlo, stats: StreamWindowStats, rollup: WindowRollup
    ) -> list[SloViolation]:
        out: list[SloViolation] = []

        def violation(objective: str, observed: float, threshold: float, burn: float):
            out.append(
                SloViolation(
                    sid=slo.sid,
                    objective=objective,
                    observed=float(observed),
                    threshold=float(threshold),
                    burn_rate=burn,
                    window_index=rollup.index,
                    window_start=rollup.start_cycle,
                    window_end=rollup.end_cycle,
                )
            )

        if slo.miss_budget is not None:
            burn = _burn(stats.misses, slo.miss_budget)
            self._set_burn(slo.sid, "miss_budget", burn)
            if stats.misses > slo.miss_budget:
                violation("miss_budget", stats.misses, slo.miss_budget, burn)
        if (
            slo.min_share is not None or slo.max_share is not None
        ) and rollup.total_serviced > 0:
            share = stats.service_share
            if slo.min_share is not None and share < slo.min_share:
                burn = _burn(slo.min_share, share)
                self._set_burn(slo.sid, "share_band", burn)
                violation("share_band", share, slo.min_share, burn)
            elif slo.max_share is not None and share > slo.max_share:
                burn = _burn(share, slo.max_share)
                self._set_burn(slo.sid, "share_band", burn)
                violation("share_band", share, slo.max_share, burn)
            else:
                self._set_burn(slo.sid, "share_band", 0.0)
        if slo.max_gap is not None and stats.gap_max > 0:
            burn = _burn(stats.gap_max, slo.max_gap)
            self._set_burn(slo.sid, "max_gap", burn)
            if stats.gap_max > slo.max_gap:
                violation("max_gap", stats.gap_max, slo.max_gap, burn)
        return out

    def evaluate_run_summary(
        self, result, *, window_cycles: int | None = None
    ) -> list[SloViolation]:
        """Whole-run conformance over a ``PeriodicRunResult``.

        The array engine's vectorized path reports final per-stream
        counters instead of per-cycle events; miss budgets are rescaled
        to the run length (``budget * ceil(cycles / window)``) and the
        share band is evaluated over whole-run serviced fractions.
        Gap objectives need per-cycle data and are skipped.
        """
        cycles = int(result.decision_cycles)
        if cycles <= 0:
            return []
        windows = (
            max(1, math.ceil(cycles / window_cycles)) if window_cycles else 1
        )
        total_serviced = int(result.serviced.sum())
        found: list[SloViolation] = []
        for sid, slo in self.slos.items():
            in_range = 0 <= sid < len(result.serviced)
            misses = int(result.misses[sid]) if in_range else 0
            serviced = int(result.serviced[sid]) if in_range else 0
            if slo.miss_budget is not None:
                budget = slo.miss_budget * windows
                burn = _burn(misses, budget)
                self._set_burn(sid, "miss_budget", burn)
                if misses > budget:
                    found.append(
                        SloViolation(
                            sid=sid,
                            objective="miss_budget",
                            observed=float(misses),
                            threshold=float(budget),
                            burn_rate=burn,
                            window_index=-1,  # whole-run evaluation
                            window_start=0,
                            window_end=cycles - 1,
                        )
                    )
            if (
                slo.min_share is not None or slo.max_share is not None
            ) and total_serviced > 0:
                share = serviced / total_serviced
                breach = None
                if slo.min_share is not None and share < slo.min_share:
                    breach = (slo.min_share, _burn(slo.min_share, share))
                elif slo.max_share is not None and share > slo.max_share:
                    breach = (slo.max_share, _burn(share, slo.max_share))
                if breach is not None:
                    threshold, burn = breach
                    self._set_burn(sid, "share_band", burn)
                    found.append(
                        SloViolation(
                            sid=sid,
                            objective="share_band",
                            observed=share,
                            threshold=threshold,
                            burn_rate=burn,
                            window_index=-1,
                            window_start=0,
                            window_end=cycles - 1,
                        )
                    )
                else:
                    self._set_burn(sid, "share_band", 0.0)
        for violation in found:
            self._emit(violation)
        return found

    # -- bookkeeping ---------------------------------------------------

    def _emit(self, violation: SloViolation) -> None:
        self.violations.append(violation)
        if self._violation_counter is not None:
            self._violation_counter.inc(
                stream=violation.sid, objective=violation.objective
            )
        for callback in self._subscribers:
            callback(violation)

    def _set_burn(self, sid: int, objective: str, burn: float) -> None:
        if self._burn_gauge is not None:
            self._burn_gauge.set(burn, stream=sid, objective=objective)

    def active(self, window_index: int | None = None) -> list[SloViolation]:
        """Violations of the most recent window (or a specific one)."""
        if not self.violations:
            return []
        if window_index is None:
            window_index = self.violations[-1].window_index
        return [v for v in self.violations if v.window_index == window_index]

    def clear(self) -> None:
        """Forget every recorded violation."""
        self.violations.clear()
        self.windows_evaluated = 0


class ConformanceMonitor:
    """Rollups + SLO evaluation + flight recorder behind one hook.

    The composition order per decision cycle is deliberate: the flight
    recorder records the outcome *first*, then the rollup aggregates it
    (possibly closing a window, evaluating SLOs and — on a violation —
    freezing the flight recorder), so the violating cycle is always
    inside the frozen dump.

    Parameters
    ----------
    slos:
        Per-stream objectives (may be empty: rollups and the flight
        ring still run, nothing is ever flagged).
    window_cycles:
        Rollup window size in decision cycles.
    registry:
        Optional metrics registry for violation counters / burn gauges.
    flight_recorder:
        Keep the always-on decision-cycle ring and dump it on
        violations.
    flight_capacity:
        Decision cycles retained in the flight ring.
    dump_dir:
        When given, violation dumps are also written there as JSONL.
    rollup_history / gap_buckets / prefix:
        Forwarded to the rollup observer / SLO monitor.
    """

    def __init__(
        self,
        slos: Iterable[StreamSlo] = (),
        *,
        window_cycles: int = 256,
        registry=None,
        flight_recorder: bool = True,
        flight_capacity: int = 64,
        dump_dir=None,
        rollup_history: int = 64,
        gap_buckets=None,
        prefix: str = "sharestreams",
    ) -> None:
        kwargs = {"keep": rollup_history}
        if gap_buckets is not None:
            kwargs["gap_buckets"] = gap_buckets
        self.rollup = RollupObserver(window_cycles, **kwargs)
        self.slo = SloMonitor(slos, registry=registry, prefix=prefix)
        self.flight: FlightRecorder | None = (
            FlightRecorder(flight_capacity, dump_dir=dump_dir)
            if flight_recorder
            else None
        )
        self.rollup.subscribe(self.slo.on_rollup)
        if self.flight is not None:
            self.slo.subscribe(self.flight.on_violation)

    # -- engine hook protocol ------------------------------------------

    def on_decision(self, outcome) -> None:
        """Record, then aggregate (window close may freeze the ring)."""
        if self.flight is not None:
            self.flight.on_decision(outcome)
        self.rollup.on_decision(outcome)

    def on_run_summary(self, result) -> None:
        """Post-run conformance for the vectorized whole-run path."""
        self.slo.evaluate_run_summary(
            result, window_cycles=self.rollup.window_cycles
        )

    def finalize(self) -> None:
        """Flush the partial final window (drivers call this at run end)."""
        self.rollup.finalize()
        if self.flight is not None:
            self.flight.finalize()

    # -- queries -------------------------------------------------------

    @property
    def violations(self) -> list[SloViolation]:
        """Every violation recorded so far, in emission order."""
        return self.slo.violations

    @property
    def dumps(self):
        """Flight-recorder dumps captured so far (empty if disabled)."""
        return self.flight.dumps if self.flight is not None else []

    def report(self) -> str:
        """Plain-text conformance summary (CLI / render integration)."""
        lines = [
            f"windows evaluated: {self.slo.windows_evaluated} "
            f"(size {self.rollup.window_cycles} cycles), "
            f"objectives on {len(self.slo.slos)} streams, "
            f"violations: {len(self.violations)}"
        ]
        for violation in self.violations[-20:]:
            lines.append("  " + violation.describe())
        if self.flight is not None and self.flight.dumps:
            lines.append(
                f"flight dumps: {len(self.flight.dumps)} "
                f"x last {self.flight.capacity} cycles"
            )
            for dump in self.flight.dumps:
                lines.append("  " + dump.describe())
        return "\n".join(lines)

    def clear(self) -> None:
        """Reset rollups, violations and flight state."""
        self.rollup.clear()
        self.slo.clear()
        if self.flight is not None:
            self.flight.clear()

    # -- mergeable state (multi-process runs) --------------------------

    def state_dict(self) -> dict[str, Any]:
        """Picklable/JSON-able conformance state for cross-process merge.

        Captures the finished-window history, the evaluation count and
        the violation list.  Flight-recorder dumps are file-backed and
        intentionally excluded (each worker writes its own).
        """
        return {
            "windows_closed": self.rollup.windows_closed,
            "windows": [w.to_dict() for w in self.rollup.history],
            "windows_evaluated": self.slo.windows_evaluated,
            "violations": [v.to_dict() for v in self.slo.violations],
        }

    def absorb_state(self, state: dict[str, Any]) -> None:
        """Fold one worker's :meth:`state_dict` into this monitor.

        Window indices are re-based onto this monitor's counter so a
        sequence of absorbed shards yields the same monotonic window
        numbering a single monitor observing the shards back-to-back
        would assign; violations keep their window linkage (whole-run
        evaluations, index ``-1``, are not re-based).  Metric counters
        and burn gauges are *not* touched — those travel in the metrics
        registry snapshot and are merged by
        :meth:`~repro.observability.metrics.MetricsRegistry.absorb`,
        so absorbing both never double-counts.
        """
        from repro.observability.rollup import rollup_from_dict

        offset = self.rollup.windows_closed
        for data in state["windows"]:
            rollup = rollup_from_dict(data)
            self.rollup.history.append(
                WindowRollup(
                    index=rollup.index + offset,
                    start_cycle=rollup.start_cycle,
                    end_cycle=rollup.end_cycle,
                    cycles=rollup.cycles,
                    idle_cycles=rollup.idle_cycles,
                    total_serviced=rollup.total_serviced,
                    total_misses=rollup.total_misses,
                    total_drops=rollup.total_drops,
                    streams=rollup.streams,
                )
            )
        self.rollup.windows_closed += int(state["windows_closed"])
        self.slo.windows_evaluated += int(state["windows_evaluated"])
        for data in state["violations"]:
            violation = violation_from_dict(data)
            if violation.window_index >= 0:
                violation = SloViolation(
                    sid=violation.sid,
                    objective=violation.objective,
                    observed=violation.observed,
                    threshold=violation.threshold,
                    burn_rate=violation.burn_rate,
                    window_index=violation.window_index + offset,
                    window_start=violation.window_start,
                    window_end=violation.window_end,
                )
            self.slo.violations.append(violation)


# ----------------------------------------------------------------------
# declarative-SLO constructors
# ----------------------------------------------------------------------


def slos_from_shares(
    shares: Mapping[int, float],
    *,
    tolerance: float = 0.25,
    max_gap: int | None = None,
) -> list[StreamSlo]:
    """Share-band SLOs from relative bandwidth shares (Figs. 8-10).

    Each stream's expected service share is its share of the total;
    the tolerated band is ``expected * (1 ± tolerance)`` (clamped to
    [0, 1]).  E.g. the 1:1:2:4 workload with 25% tolerance gives
    stream 3 a [0.375, 0.625] band around its 0.5 target.
    """
    if not shares:
        raise ValueError("no shares given")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    total = float(sum(shares.values()))
    if total <= 0:
        raise ValueError("shares must sum to a positive total")
    slos = []
    for sid, share in sorted(shares.items()):
        expected = share / total
        slos.append(
            StreamSlo(
                sid=sid,
                min_share=max(0.0, expected * (1.0 - tolerance)),
                max_share=min(1.0, expected * (1.0 + tolerance)),
                max_gap=max_gap,
            )
        )
    return slos


def slos_from_streams(
    streams: Iterable, *, window_cycles: int
) -> list[StreamSlo]:
    """Miss-budget SLOs from DWCS stream configs (``x`` per ``y``).

    A DWCS/fair-share constraint tolerates ``x`` losses per window of
    ``y`` requests; with one request per ``period`` cycles, a rollup
    window of ``window_cycles`` sees about ``window_cycles / period``
    requests, so the scaled budget is
    ``ceil(x * window_cycles / (y * period))``.  Streams without a
    window constraint (``y == 0``) get no miss objective.
    """
    if window_cycles <= 0:
        raise ValueError("window_cycles must be positive")
    slos = []
    for stream in streams:
        x = stream.loss_numerator
        y = stream.loss_denominator
        if y <= 0:
            continue
        budget = math.ceil(x * window_cycles / (y * max(1, stream.period)))
        slos.append(StreamSlo(sid=stream.sid, miss_budget=budget))
    return slos
