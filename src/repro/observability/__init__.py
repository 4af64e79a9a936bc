"""Unified observability layer: tracing + metrics + profiling.

One subsystem, three concerns, one hook (see
``docs/OBSERVABILITY.md``):

* **Decision tracing** — :class:`TraceRecorder` turns every decision
  cycle of either engine into a canonical, serializable event stream
  (ring-buffered; byte-identical across engines by construction).
* **Metrics** — :class:`MetricsRegistry` (counters, gauges,
  histograms) with Prometheus-text and JSON exporters, fed by
  :class:`MetricsObserver` from decision outcomes and directly by the
  endsystem host / line-card / experiment drivers.
* **Profiling** — :class:`PhaseProfiler` accumulates per-phase wall
  time and modeled hardware cycles.

:class:`Observability` bundles all three behind the single engine hook
(``observer=``) plus a ``phase()`` context manager for drivers.  When
telemetry is off, nothing is constructed and the engines' only cost is
one ``is not None`` test per decision cycle.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.observability.dashboard import Dashboard
from repro.observability.events import (
    DecisionEvent,
    TraceRecorder,
    deserialize_events,
    events_from_outcome,
    serialize_events,
)
from repro.observability.flightrecorder import FlightDump, FlightRecorder
from repro.observability.hooks import (
    CompositeObserver,
    DecisionObserver,
    LegacyTraceObserver,
    MetricsObserver,
    resolve_observer,
)
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
    violation_from_dict,
)
from repro.observability.profiling import PhaseProfiler, PhaseStat
from repro.observability.rollup import (
    GapSketch,
    RollupObserver,
    StreamWindowStats,
    WindowRollup,
    rollup_from_dict,
)
from repro.observability.server import TelemetryServer
from repro.observability.spans import (
    SPAN_SCHEMA,
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
from repro.observability.tracelog import TraceEvent, TraceLog

__all__ = [
    "SPAN_SCHEMA",
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
    "CompositeObserver",
    "ConformanceMonitor",
    "Counter",
    "Dashboard",
    "DecisionEvent",
    "DecisionObserver",
    "FlightDump",
    "FlightRecorder",
    "GapSketch",
    "Gauge",
    "Histogram",
    "LegacyTraceObserver",
    "MetricsObserver",
    "MetricsRegistry",
    "Observability",
    "PhaseProfiler",
    "PhaseStat",
    "RollupObserver",
    "SloMonitor",
    "SloViolation",
    "StreamSlo",
    "StreamWindowStats",
    "TelemetryServer",
    "TraceEvent",
    "TraceLog",
    "TraceRecorder",
    "WindowRollup",
    "deserialize_events",
    "events_from_outcome",
    "merge_snapshots",
    "parse_prometheus_text",
    "resolve_observer",
    "rollup_from_dict",
    "serialize_events",
    "slos_from_shares",
    "slos_from_streams",
    "violation_from_dict",
]


class Observability:
    """Facade bundling trace recorder, metrics registry and profiler.

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
        Accumulate per-phase wall time (drivers call :meth:`phase`).
    monitor:
        Optional :class:`~repro.observability.monitor.ConformanceMonitor`
        (streaming rollups + SLO evaluation + flight recorder) fed from
        the same hook; see ``repro.observability.monitor``.
    trace_capacity:
        Ring capacity of the decision-trace recorder.
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
        self.profiler = PhaseProfiler() if profile else None
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

        The array engine's vectorized ``run_periodic`` path does not
        emit per-cycle events (that would reintroduce the Python loop
        it exists to avoid); instead it reports its final per-stream
        counters here as gauges.
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
        """End-of-run hook: flush the monitor's partial rollup window.

        Drivers call this once after the last decision cycle; safe to
        call with monitoring disabled (it is then a no-op).
        """
        if self.monitor is not None:
            self.monitor.finalize()

    # -- driver-side helpers -------------------------------------------

    def phase(self, name: str):
        """Context manager timing one phase (no-op without a profiler)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.phase(name)

    def render(self, *, trace_limit: int = 20) -> str:
        """Human-readable summary of everything enabled."""
        parts = []
        if self.recorder is not None:
            parts.append("== decision trace ==")
            parts.append(self.recorder.render(limit=trace_limit))
        if self.profiler is not None:
            report = self.profiler.report()
            if report:
                parts.append("== phase profile ==")
                parts.append(self.profiler.render())
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
        if self.profiler is not None:
            self.profiler.clear()
        if self.monitor is not None:
            self.monitor.clear()
