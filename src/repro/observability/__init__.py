"""Unified observability layer: decision record, metrics, phase spans.

One subsystem, three concerns, one hook (see
``docs/OBSERVABILITY.md``):

* **Decision record** — :class:`TraceRecorder` keeps every decision
  cycle of either engine as a ``(seq, DecisionOutcome)`` pair in a
  bounded :class:`DecisionRing` and flattens it into a canonical,
  serializable event stream when read (byte-identical across engines
  by construction); the violation :class:`FlightRecorder` keeps the
  same ring.
* **Metrics** — :class:`MetricsRegistry` (counters, gauges,
  histograms) with Prometheus-text and JSON exporters, fed by
  :class:`MetricsObserver` from decision outcomes and directly by the
  endsystem host / line-card / experiment drivers.
* **Timing** — :class:`SpanTracer` spans are the one way to see where
  time went; :class:`PhaseTimer` accumulates a phase's calls and wall
  time and flushes them as one aggregated span.

:class:`Observability` bundles all three behind the single engine hook
(``observer=``) plus a ``phase()`` timer for drivers.  When telemetry
is off, nothing is constructed and the engines' only cost is one
``is not None`` test per decision cycle.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.observability.dashboard import Dashboard
from repro.observability.events import (
    DecisionEvent,
    DecisionRing,
    TraceRecorder,
    deserialize_events,
    events_from_outcome,
    serialize_events,
)
from repro.observability.flightrecorder import FlightDump, FlightRecorder
from repro.observability.hooks import DecisionObserver, MetricsObserver
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    parse_prometheus_text,
)
from repro.observability.monitor import (
    ConformanceMonitor,
    SloMonitor,
    SloViolation,
    StreamSlo,
    slos_from_shares,
    slos_from_streams,
)
from repro.observability.rollup import (
    GapSketch,
    RollupObserver,
    StreamWindowStats,
    WindowRollup,
)
from repro.observability.server import TelemetryServer
from repro.observability.spans import (
    SPAN_SCHEMA,
    PhaseTimer,
    SpanRecord,
    SpanTracer,
    activate_tracer,
    canonical_span_bytes,
    chrome_trace,
    critical_path,
    current_tracer,
    deterministic_span_id,
    load_spans_jsonl,
    spans_jsonl_bytes,
    summarize_spans,
)

__all__ = [
    "SPAN_SCHEMA",
    "PhaseTimer",
    "SpanRecord",
    "SpanTracer",
    "activate_tracer",
    "canonical_span_bytes",
    "chrome_trace",
    "critical_path",
    "current_tracer",
    "deterministic_span_id",
    "load_spans_jsonl",
    "spans_jsonl_bytes",
    "summarize_spans",
    "ConformanceMonitor",
    "Counter",
    "Dashboard",
    "DecisionEvent",
    "DecisionObserver",
    "DecisionRing",
    "FlightDump",
    "FlightRecorder",
    "GapSketch",
    "Gauge",
    "Histogram",
    "MetricsObserver",
    "MetricsRegistry",
    "Observability",
    "RollupObserver",
    "SloMonitor",
    "SloViolation",
    "StreamSlo",
    "StreamWindowStats",
    "TelemetryServer",
    "TraceRecorder",
    "WindowRollup",
    "deserialize_events",
    "events_from_outcome",
    "merge_snapshots",
    "parse_prometheus_text",
    "serialize_events",
    "slos_from_shares",
    "slos_from_streams",
]


class Observability:
    """Facade bundling trace recorder, metrics registry and phase spans.

    Implements the engine hook protocol (``on_decision`` /
    ``on_run_summary``), so one instance can be handed to any engine,
    the endsystem router, the line-card or an experiment driver.

    Parameters
    ----------
    trace:
        Record the structured decision trace.
    metrics:
        Maintain the standard scheduling metrics.
    profile:
        Time driver phases (:meth:`phase`) as aggregated spans on
        :attr:`tracer`.
    monitor:
        Optional :class:`~repro.observability.monitor.ConformanceMonitor`
        (streaming rollups + SLO evaluation + flight recorder) fed from
        the same hook; see ``repro.observability.monitor``.
    trace_capacity:
        Ring capacity of the decision-trace recorder, in decision cycles.
    metrics_prefix:
        Metric-name prefix of the standard scheduling metrics.
    """

    def __init__(
        self,
        *,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = True,
        monitor=None,
        trace_capacity: int = 1_000_000,
        metrics_prefix: str = "sharestreams",
    ) -> None:
        self.recorder = TraceRecorder(capacity=trace_capacity) if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self._metrics_observer = (
            MetricsObserver(self.metrics, prefix=metrics_prefix)
            if self.metrics is not None
            else None
        )
        self._prefix = metrics_prefix
        self.tracer = SpanTracer("observability") if profile else None
        self._phases: dict[str, PhaseTimer] = {}
        self.monitor = monitor

    # -- engine hook protocol ------------------------------------------

    def on_decision(self, outcome) -> None:
        """Dispatch one decision outcome to the enabled sinks."""
        if self.recorder is not None:
            self.recorder.on_decision(outcome)
        if self._metrics_observer is not None:
            self._metrics_observer.on_decision(outcome)
        if self.monitor is not None:
            self.monitor.on_decision(outcome)

    def on_run_summary(self, result) -> None:
        """Fold a whole-run summary (``PeriodicRunResult``) into metrics.

        The array engine's ``run_periodic`` does not emit per-cycle
        events; instead it hands each row's observer that row's final
        per-stream counters, recorded here as gauges.
        """
        if self.monitor is not None:
            self.monitor.on_run_summary(result)
        if self.metrics is None:
            return
        serviced = self.metrics.gauge(
            f"{self._prefix}_run_serviced", "per-stream serviced (run summary)"
        )
        wins = self.metrics.gauge(
            f"{self._prefix}_run_wins", "per-stream wins (run summary)"
        )
        misses = self.metrics.gauge(
            f"{self._prefix}_run_misses", "per-stream misses (run summary)"
        )
        cycles = self.metrics.gauge(
            f"{self._prefix}_run_decision_cycles", "decision cycles (run summary)"
        )
        cycles.set(result.decision_cycles)
        for sid in range(len(result.serviced)):
            if result.serviced[sid] or result.wins[sid] or result.misses[sid]:
                serviced.set(int(result.serviced[sid]), stream=sid)
                wins.set(int(result.wins[sid]), stream=sid)
                misses.set(int(result.misses[sid]), stream=sid)

    def finalize(self) -> None:
        """End-of-run hook: flush phase timers and the monitor's window.

        Drivers call this once after the last decision cycle; safe to
        call with every sink disabled (it is then a no-op).
        """
        self._flush_phases()
        if self.monitor is not None:
            self.monitor.finalize()

    # -- driver-side helpers -------------------------------------------

    def phase(self, name: str):
        """The timer of one named driver phase, for ``with obs.phase(name):``.

        Returns the same :class:`PhaseTimer` for every call with the
        same name (a no-op context when ``profile`` is off); its calls
        and wall time become one ``phase`` span on :attr:`tracer` at
        :meth:`finalize` or :meth:`render`.
        """
        if self.tracer is None:
            return nullcontext()
        timer = self._phases.get(name)
        if timer is None:
            timer = self._phases[name] = PhaseTimer(name)
        return timer

    def _flush_phases(self) -> None:
        if self.tracer is not None:
            for timer in self._phases.values():
                if timer.calls:
                    timer.flush(self.tracer)

    def render(self, *, trace_limit: int = 20) -> str:
        """Human-readable summary of everything enabled."""
        parts = []
        if self.recorder is not None:
            parts.append("== decision trace ==")
            parts.append(self.recorder.render(limit=trace_limit))
        if self.tracer is not None:
            self._flush_phases()
            phases = sorted(
                (row["name"], row["tag_totals"].get("calls", 0), row["wall_us"])
                for row in summarize_spans(self.tracer.records())
                if row["kind"] == "phase"
            )
            if phases:
                parts.append("== phase profile ==")
                parts.append(
                    f"{'phase':<24} {'calls':>8} {'wall ms':>10} {'us/call':>9}"
                )
                for name, calls, wall_us in phases:
                    per_call = wall_us / calls if calls else 0.0
                    parts.append(
                        f"{name:<24} {calls:>8} {wall_us / 1e3:>10.3f} {per_call:>9.2f}"
                    )
        if self.monitor is not None:
            parts.append("== conformance ==")
            parts.append(self.monitor.report())
        if self.metrics is not None and self.metrics.names():
            parts.append("== metrics ==")
            parts.append(self.metrics.to_prometheus_text().rstrip("\n"))
        return "\n".join(parts) if parts else "(telemetry empty)"

    def clear(self) -> None:
        """Reset every enabled sink."""
        if self.recorder is not None:
            self.recorder.clear()
        if self.metrics is not None:
            self.metrics.clear()
            self._metrics_observer = MetricsObserver(
                self.metrics, prefix=self._prefix
            )
        if self.tracer is not None:
            self.tracer = SpanTracer(self.tracer.trace_id)
            self._phases.clear()
        if self.monitor is not None:
            self.monitor.clear()
