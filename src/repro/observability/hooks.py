"""The engine hook protocol and the standard observers.

Both engines (:class:`~repro.core.scheduler.ShareStreamsScheduler` and
:class:`~repro.core.tensor_engine.TensorScheduler`) expose one hook: an
optional ``observer`` whose :meth:`~DecisionObserver.on_decision` is
called with the finished
:class:`~repro.core.scheduler.DecisionOutcome` of every decision
cycle.  Because the payload *is* the outcome — the same object the
differential harness already certifies identical across engines — any
observer sees an identical event stream from either engine by
construction, and the guard is a single ``is not None`` test when
telemetry is disabled (the same cost structure as the pre-existing
``trace`` guard).

Observers provided here:

* :class:`LegacyTraceObserver` — adapts the historical
  :class:`~repro.observability.tracelog.TraceLog` ``decide``/``miss``/
  ``drop`` emission (the ``trace=`` keyword both engines keep
  accepting);
* :class:`MetricsObserver` — derives the per-stream scheduling metrics
  (service counts, wins, misses, drops, deadline slack, inter-service
  jitter, hw cycles) into a
  :class:`~repro.observability.metrics.MetricsRegistry`;
* :class:`CompositeObserver` — fan-out to several observers.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Protocol, runtime_checkable

from repro.observability.metrics import MetricsRegistry

__all__ = [
    "DecisionObserver",
    "CompositeObserver",
    "LegacyTraceObserver",
    "MetricsObserver",
    "resolve_observer",
]


@runtime_checkable
class DecisionObserver(Protocol):
    """Anything that can receive per-cycle decision outcomes."""

    def on_decision(self, outcome) -> None:  # pragma: no cover - protocol
        ...


class CompositeObserver:
    """Fan one decision stream out to several observers.

    Delivery policy (tested in ``tests/test_observability_hooks.py``):

    * observers receive every event in **registration order**;
    * a raising observer is **isolated** — its exception is caught and
      recorded (bounded :attr:`errors` list, one ``RuntimeWarning`` per
      offending observer) and the remaining observers still receive the
      event.  Telemetry must never take down the scheduling run, and
      one broken sink must never silence the others;
    * with a ``profiler``, each observer's dispatch is timed as its own
      ``observer[i].<hook>`` phase, and **only the observer's own call**
      sits inside the timed window — error bookkeeping (the bounded
      error list, the warn-once ``RuntimeWarning``) runs outside it, so
      a raising observer cannot skew its own or a sibling's timings.
    """

    __slots__ = ("observers", "errors", "_warned", "profiler")

    #: Retained ``(observer_index, hook_name, exception)`` records.
    MAX_ERRORS = 100

    def __init__(self, observers: Iterable, *, profiler=None) -> None:
        self.observers = tuple(observers)
        self.errors: list[tuple[int, str, BaseException]] = []
        self._warned: set[int] = set()
        self.profiler = profiler

    def _dispatch(self, index, obs, hook_name, call) -> None:
        exc: Exception | None = None
        if self.profiler is None:
            try:
                call()
            except Exception as e:  # noqa: BLE001 - isolation is the point
                exc = e
        else:
            with self.profiler.phase(f"observer[{index}].{hook_name}"):
                try:
                    call()
                except Exception as e:  # noqa: BLE001 - isolation is the point
                    exc = e
        if exc is None:
            return
        # Outside any timed phase: the cost of recording/warning about a
        # failure is attributed to no observer.
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append((index, hook_name, exc))
        if index not in self._warned:
            self._warned.add(index)
            warnings.warn(
                f"observer {index} ({type(obs).__name__}) raised in "
                f"{hook_name} and is being isolated: {exc!r}",
                RuntimeWarning,
                stacklevel=3,
            )

    def on_decision(self, outcome) -> None:
        for index, obs in enumerate(self.observers):
            self._dispatch(
                index, obs, "on_decision", lambda: obs.on_decision(outcome)
            )

    def on_run_summary(self, result) -> None:
        """Forward whole-run summaries to observers that accept them."""
        for index, obs in enumerate(self.observers):
            hook = getattr(obs, "on_run_summary", None)
            if hook is not None:
                self._dispatch(
                    index, obs, "on_run_summary", lambda: hook(result)
                )

    def finalize(self) -> None:
        """Forward end-of-run finalization to observers that accept it."""
        for index, obs in enumerate(self.observers):
            hook = getattr(obs, "finalize", None)
            if hook is not None:
                self._dispatch(index, obs, "finalize", hook)


class LegacyTraceObserver:
    """Emit the historical TraceLog event stream from outcomes.

    Reproduces exactly the ``decide`` / ``miss`` / ``drop`` events (and
    their ordering) the engines used to emit inline, so existing
    consumers of ``trace=TraceLog(...)`` observe no change.
    """

    __slots__ = ("log",)

    def __init__(self, log) -> None:
        self.log = log

    def on_decision(self, outcome) -> None:
        now = float(outcome.now)
        self.log.emit(
            now,
            "decide",
            "decision cycle",
            winner=outcome.circulated_sid,
            block=tuple(outcome.block),
            serviced=len(outcome.serviced),
        )
        for sid in outcome.misses:
            self.log.emit(now, "miss", "late head", sid=sid)
        for sid, packet in outcome.dropped:
            self.log.emit(
                now, "drop", "late head shed", sid=sid,
                deadline=packet.deadline,
            )


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


def resolve_observer(trace, observer):
    """Combine the legacy ``trace=`` keyword with an explicit observer.

    Returns a single observer (or ``None``) for the engines to guard
    on; the explicit observer sees each outcome first.
    """
    observers = []
    if observer is not None:
        observers.append(observer)
    if trace is not None:
        observers.append(LegacyTraceObserver(trace))
    if not observers:
        return None
    if len(observers) == 1:
        return observers[0]
    return CompositeObserver(observers)
