"""The engine hook protocol and the standard metrics observer.

Both engines (:class:`~repro.core.scheduler.ShareStreamsScheduler` and
:class:`~repro.core.tensor_engine.TensorScheduler`) expose one hook: an
optional ``observer`` whose :meth:`~DecisionObserver.on_decision` is
called with the finished
:class:`~repro.core.scheduler.DecisionOutcome` of every decision
cycle.  Because the payload *is* the outcome — the same object the
differential harness already certifies identical across engines — any
observer sees an identical event stream from either engine by
construction, and the guard is a single ``is not None`` test when
telemetry is disabled.  Several sinks share the hook through
:class:`repro.observability.Observability` (recorder, metrics,
monitor) or :class:`~repro.observability.ConformanceMonitor` (rollups,
SLOs, flight recorder), each of which dispatches to its parts
directly.

:class:`MetricsObserver` derives the per-stream scheduling metrics
(service counts, wins, misses, drops, deadline slack, inter-service
jitter, hw cycles) into a
:class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.observability.metrics import MetricsRegistry

__all__ = [
    "DecisionObserver",
    "MetricsObserver",
]


@runtime_checkable
class DecisionObserver(Protocol):
    """Anything that can receive per-cycle decision outcomes."""

    def on_decision(self, outcome) -> None:  # pragma: no cover - protocol
        ...


#: Bucket grids in scheduler time units (powers of two: slack and
#: jitter both span a few orders of magnitude across workloads).
SLACK_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0)
JITTER_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class MetricsObserver:
    """Feed the standard scheduling metrics from decision outcomes.

    Registered metrics (all prefixed, default ``sharestreams``):

    * ``_decisions_total`` — decision cycles observed;
    * ``_idle_cycles_total`` — cycles with no eligible stream;
    * ``_hw_cycles_total`` — modeled hardware cycles consumed;
    * ``_serviced_total{stream}`` / ``_wins_total{stream}`` /
      ``_misses_total{stream}`` / ``_drops_total{stream}``;
    * ``_deadline_slack{stream}`` histogram — ``deadline - now`` of
      each serviced packet (negative = serviced late);
    * ``_inter_service{stream}`` histogram — scheduler-time gap
      between a stream's consecutive services (jitter).

    Invariants the property suite asserts: each histogram's per-stream
    observation count tracks the corresponding counter (slack count ==
    serviced count; inter-service count == serviced count - 1 per
    stream with >= 1 service).

    Per-stream series handles are resolved once per stream, on the
    stream's first update of each metric, so a decision cycle costs one
    dict lookup per update instead of a label-set resolution.
    """

    def __init__(
        self, registry: MetricsRegistry, *, prefix: str = "sharestreams"
    ) -> None:
        self.registry = registry
        self.decisions = registry.counter(
            f"{prefix}_decisions_total", "decision cycles observed"
        )
        self.idle = registry.counter(
            f"{prefix}_idle_cycles_total", "cycles with no eligible stream"
        )
        self.hw_cycles = registry.counter(
            f"{prefix}_hw_cycles_total", "modeled hardware cycles consumed"
        )
        self.serviced = registry.counter(
            f"{prefix}_serviced_total", "packets consumed per stream"
        )
        self.wins = registry.counter(
            f"{prefix}_wins_total", "circulated-winner cycles per stream"
        )
        self.misses = registry.counter(
            f"{prefix}_misses_total", "missed-deadline registrations per stream"
        )
        self.drops = registry.counter(
            f"{prefix}_drops_total", "late packets shed per stream"
        )
        self.slack = registry.histogram(
            f"{prefix}_deadline_slack",
            "deadline minus service time per serviced packet",
            buckets=SLACK_BUCKETS,
        )
        self.inter_service = registry.histogram(
            f"{prefix}_inter_service",
            "scheduler-time gap between consecutive services per stream",
            buckets=JITTER_BUCKETS,
        )
        self._last_service: dict[int, int] = {}
        # (decisions, hw_cycles) series, resolved on the first decision
        # so an observer that never sees one exports no samples.
        self._cycle_series: tuple | None = None
        self._serviced_by_sid = _SeriesBySid(self.serviced)
        self._wins_by_sid = _SeriesBySid(self.wins)
        self._misses_by_sid = _SeriesBySid(self.misses)
        self._drops_by_sid = _SeriesBySid(self.drops)
        self._slack_by_sid = _SeriesBySid(self.slack)
        self._inter_service_by_sid = _SeriesBySid(self.inter_service)

    def on_decision(self, outcome) -> None:
        if self._cycle_series is None:
            self._cycle_series = (self.decisions.labels(), self.hw_cycles.labels())
        decisions, hw_cycles = self._cycle_series
        decisions.inc()
        hw_cycles.inc(outcome.hw_cycles)
        sid = outcome.circulated_sid
        if sid is None:
            self.idle.inc()
        else:
            self._wins_by_sid[sid].inc()
        now = int(outcome.now)
        for sid, packet in outcome.serviced:
            self._serviced_by_sid[sid].inc()
            self._slack_by_sid[sid].observe(packet.deadline - now)
            last = self._last_service.get(sid)
            if last is not None:
                self._inter_service_by_sid[sid].observe(now - last)
            self._last_service[sid] = now
        for sid in outcome.misses:
            self._misses_by_sid[sid].inc()
        for sid, _packet in outcome.dropped:
            self._drops_by_sid[sid].inc()


class _SeriesBySid(dict):
    """One metric's ``stream=<sid>`` series handles, resolved on first sight.

    Keyed by the engines' integer stream IDs; the label itself is
    resolved by the metric (``str(sid)``), never from this key.
    """

    __slots__ = ("metric",)

    def __init__(self, metric) -> None:
        super().__init__()
        self.metric = metric

    def __missing__(self, sid):
        series = self[sid] = self.metric.labels(stream=sid)
        return series
