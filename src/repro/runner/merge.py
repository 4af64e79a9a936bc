"""Merging worker-shard telemetry back into one observability facade.

A worker process cannot share the caller's
:class:`~repro.observability.Observability` (hooks are plain Python
objects, not shared memory), so parallel experiment drivers give each
worker its *own* metrics registry + conformance monitor, ship the
results back as plain dicts, and the parent folds them together here:

* metrics registries merge via
  :meth:`~repro.observability.metrics.MetricsRegistry.absorb`
  (counters/histograms add, gauges last-write-wins in shard order);
* rollup windows and violation lists merge via
  :meth:`~repro.observability.monitor.ConformanceMonitor.absorb_state`
  (window indices re-based to stay monotonic).

Shards are always absorbed **in item order**, never completion order,
so the merged telemetry is a pure function of the workload — identical
for any worker count.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "telemetry_shard",
    "absorb_telemetry",
    "monitor_spec",
    "build_worker_observability",
]


def telemetry_shard(observability: Any) -> dict[str, Any] | None:
    """Export one worker's telemetry as a picklable/JSON-able dict."""
    if observability is None:
        return None
    shard: dict[str, Any] = {}
    metrics = getattr(observability, "metrics", None)
    if metrics is not None:
        shard["metrics"] = metrics.snapshot()
    monitor = getattr(observability, "monitor", None)
    if monitor is not None:
        shard["monitor"] = monitor.state_dict()
    return shard


def absorb_telemetry(
    observability: Any, shards: Iterable[Mapping[str, Any] | None]
) -> None:
    """Fold worker telemetry shards into the caller's facade, in order."""
    if observability is None:
        return
    for shard in shards:
        if not shard:
            continue
        metrics = getattr(observability, "metrics", None)
        if metrics is not None and "metrics" in shard:
            metrics.absorb(shard["metrics"])
        monitor = getattr(observability, "monitor", None)
        if monitor is not None and "monitor" in shard:
            monitor.absorb_state(shard["monitor"])


def monitor_spec(observability: Any) -> dict[str, Any] | None:
    """Picklable recipe for rebuilding a worker-side conformance monitor.

    Captures the declarative part of the caller's monitor (SLOs and
    window size).  Flight recording stays parent-side: worker dumps
    would interleave nondeterministically on disk.
    """
    monitor = getattr(observability, "monitor", None)
    if monitor is None:
        return None
    from dataclasses import asdict

    return {
        "slos": [asdict(slo) for slo in monitor.slo.slos.values()],
        "window_cycles": monitor.rollup.window_cycles,
    }


def build_worker_observability(spec: Mapping[str, Any] | None):
    """Worker-side counterpart of :func:`monitor_spec`.

    ``spec`` is ``{"monitor": <monitor_spec or None>}``-style metadata;
    returns a fresh :class:`~repro.observability.Observability` with
    metrics enabled, the decision trace and phase spans off (traces are
    rings of per-cycle outcomes — shipping them across process
    boundaries would cost more than the run; drivers that need traces
    run sequentially).
    """
    if spec is None:
        return None
    from repro.observability import (
        ConformanceMonitor,
        Observability,
        StreamSlo,
    )

    observability = Observability(trace=False, profile=False)
    mon = spec.get("monitor")
    if mon is not None:
        observability.monitor = ConformanceMonitor(
            [StreamSlo(**slo) for slo in mon["slos"]],
            window_cycles=mon["window_cycles"],
            registry=observability.metrics,
            flight_recorder=False,
        )
    return observability
