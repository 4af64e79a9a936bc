"""The layer map: which public entry points the traced run wraps.

Every span name is ``<layer>.<operation>``, where the layer is a module
of the package (``core``, ``endsystem``, ``sim``, ``observability``,
``differential``, ``runner``, ``aggregation``, ``experiments``).  The
per-layer metrics the traced run prints are derived from these spans
and from the counts the ``note`` hooks keep (:func:`per_layer_metrics`).
"""

from __future__ import annotations

import numpy as np

from tracing import BENCH, LAYER, ROOT, Layer, Tracer, span_summary, unattributed_share

__all__ = ["LAYERS", "PER_LAYER", "per_layer_metrics", "span_kind"]


def _open_span_names(tracer: Tracer) -> set[str]:
    rec = tracer.recorder
    return {rec.names[rec.name_id[i]] for i in rec._open}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _note_periodic(tracer, args, kwargs, result) -> None:
    engine, n_cycles = args[0], _arg(args, kwargs, 1, "n_cycles")
    tracer.note("core.cycles.periodic", n_cycles * engine.n_scenarios)


def _note_idle(tracer, args, kwargs, result) -> None:
    count = _arg(args, kwargs, 1, "count")
    if count > 0:
        tracer.note("core.cycles.fast_forward", count)
        if "core.periodic" in _open_span_names(tracer):
            tracer.note("core.cycles.fast_forward_in_periodic", count)


def _note_lockstep(tracer, args, kwargs, result) -> None:
    tracer.note("core.cycles.lockstep", 1)


def _note_transmit(tracer, args, kwargs, result) -> None:
    if result[0] is not None:
        tracer.note("endsystem.frames", 1)


def _note_bucket(tracer, args, kwargs, result) -> None:
    rows = len(args[0])
    tracer.note("differential.buckets", 1)
    tracer.note("differential.bucket_rows", rows)
    tracer.notes["differential.bucket_rows.max"] = max(
        tracer.notes.get("differential.bucket_rows.max", 0), rows
    )


def _note_cache_get(tracer, args, kwargs, result) -> None:
    if not result[0]:
        tracer.note("runner.cache.misses", 1)


def _note_cache_put(tracer, args, kwargs, result) -> None:
    tracer.note("runner.cache.writes", 1)


def _run_engine_span(args, kwargs) -> str:
    engine = _arg(args, kwargs, 1, "engine")
    return "differential.oracle" if engine == "reference" else "differential.array"


_REGISTER_METHODS = (
    "enqueue",
    "enqueue_request",
    "head_is_late",
    "record_miss",
    "service",
    "record_win",
    "drop_late_head",
    "snapshot",
)

_CORE = "repro.core"

LAYERS: list[Layer] = [
    # -- core: decisions, whole runs, queues, network, registers, control
    Layer(f"{_CORE}.scheduler:ShareStreamsScheduler.decision_cycle", "core.decide"),
    Layer(
        f"{_CORE}.tensor_engine:CampaignEngine.decision_cycle_all",
        "core.decide",
        note=_note_lockstep,
    ),
    Layer(
        f"{_CORE}.tensor_engine:CampaignEngine.run_periodic",
        "core.periodic",
        note=_note_periodic,
    ),
    Layer(
        f"{_CORE}.tensor_engine:CampaignEngine.advance_idle",
        "core.fast_forward",
        note=_note_idle,
    ),
    Layer(f"{_CORE}.scheduler:ShareStreamsScheduler.enqueue", "core.enqueue"),
    Layer(f"{_CORE}.tensor_engine:CampaignEngine.enqueue", "core.enqueue"),
    Layer(f"{_CORE}.shuffle:ShuffleExchangeNetwork.run", "core.shuffle"),
    *(
        Layer(f"{_CORE}.register_block:RegisterBaseBlock.{m}", "core.register")
        for m in _REGISTER_METHODS
    ),
    Layer(f"{_CORE}.tensor_engine:table2_rank_order", "core.rank"),
    *(
        Layer(f"{_CORE}.control:ControlUnit.{m}", "core.control")
        for m in ("load", "schedule", "priority_update", "advance_decision_cycles")
    ),
    Layer(f"{_CORE}.scheduler:ShareStreamsScheduler.__init__", "core.build"),
    Layer(f"{_CORE}.tensor_engine:TensorScheduler.__init__", "core.build"),
    Layer(f"{_CORE}.tensor_engine:CampaignEngine.__init__", "core.build"),
    # -- endsystem pipeline and the event simulator under it
    Layer("repro.endsystem.host:EndsystemRouter.__init__", "endsystem.build"),
    Layer("repro.endsystem.host:EndsystemRouter.run", "endsystem.run"),
    Layer(
        "repro.endsystem.streaming_unit:StreamingUnit.refill_all",
        "endsystem.refill",
    ),
    Layer(
        "repro.endsystem.transmission:TransmissionEngine.transmit",
        "endsystem.transmit",
        note=_note_transmit,
    ),
    Layer("repro.endsystem.aggregation:AggregatedSlot.pick", "endsystem.streamlet"),
    Layer("repro.sim.engine:Simulator.run", "sim.loop"),
    Layer("repro.sim.engine:Simulator.step", "sim.step"),
    # -- observability: the --slo stack
    Layer("repro.observability:Observability.on_decision", "observability.dispatch"),
    Layer(
        "repro.observability:Observability.on_run_summary",
        "observability.dispatch",
    ),
    Layer("repro.observability:Observability.phase", "observability.phase", context=True),
    Layer(
        "repro.observability.events:TraceRecorder.on_decision",
        "observability.recorder",
    ),
    Layer(
        "repro.observability.hooks:MetricsObserver.on_decision",
        "observability.metrics",
    ),
    *(
        Layer(f"repro.observability.monitor:ConformanceMonitor.{m}", "observability.monitor")
        for m in ("on_decision", "on_run_summary", "finalize")
    ),
    # -- differential campaign and the sharded runner
    Layer(f"{_CORE}.differential:campaign", "differential.campaign"),
    Layer(f"{_CORE}.differential:generate_scenario", "differential.generate"),
    Layer(f"{_CORE}.differential:validate_bucket", "differential.validate"),
    Layer(f"{_CORE}.differential:cross_validate_bucket", "differential.compare"),
    Layer(f"{_CORE}.differential:run_engine", _run_engine_span),
    Layer(f"{_CORE}.differential:run_bucket", "differential.array", note=_note_bucket),
    Layer("repro.runner.cache:ResultCache.key", "runner.cache"),
    Layer("repro.runner.cache:ResultCache.get", "runner.cache", note=_note_cache_get),
    Layer("repro.runner.cache:ResultCache.put", "runner.cache", note=_note_cache_put),
    Layer("repro.runner:run_sharded", "runner.shard"),
    # -- aggregation tier
    Layer("repro.aggregation.tier:AggregationTier.__init__", "aggregation.build"),
    Layer("repro.aggregation.tier:AggregationTier.join", "aggregation.join"),
    Layer("repro.aggregation.tier:AggregationTier.leave", "aggregation.leave"),
    Layer("repro.aggregation.tier:AggregationTier.submit", "aggregation.submit"),
    Layer("repro.aggregation.tier:AggregationTier.decision_cycle", "aggregation.dispatch"),
    Layer("repro.aggregation.tier:AggregationTier.drain", "aggregation.drain"),
    # -- experiment drivers (their own loops and input generation)
    Layer("repro.experiments.table3:run_table3", "experiments.table3"),
    Layer("repro.experiments.figure10:run_figure10", "experiments.figure10"),
]


def span_kind(name: str) -> int:
    """``ROOT`` for a whole pass, ``BENCH`` for benchmark code, else ``LAYER``."""
    if name.startswith("bench.pass."):
        return ROOT
    if name.startswith("bench."):
        return BENCH
    return LAYER


#: Per-layer metric name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "core.decide.calls": "count",
    "core.decide.self_s": "s",
    "core.decide.p50_us": "us",
    "core.decide.p99_us": "us",
    "core.periodic.self_s": "s",
    "core.enqueue.calls": "count",
    "core.enqueue.self_s": "s",
    "core.shuffle.self_s": "s",
    "core.register.self_s": "s",
    "core.rank.calls": "count",
    "core.rank.self_s": "s",
    "core.control.calls": "count",
    "core.control.self_s": "s",
    "core.fast_forward.share": "ratio",
    "core.build.self_s": "s",
    "endsystem.build.self_s": "s",
    "endsystem.run.self_s": "s",
    "endsystem.refill.calls": "count",
    "endsystem.refill.self_s": "s",
    "endsystem.transmit.calls": "count",
    "endsystem.transmit.self_s": "s",
    "endsystem.streamlet.calls": "count",
    "endsystem.streamlet.self_s": "s",
    "endsystem.service.useful_share": "ratio",
    "sim.events": "count",
    "sim.loop.self_s": "s",
    "observability.dispatch.calls": "count",
    "observability.dispatch.self_s": "s",
    "observability.recorder.calls": "count",
    "observability.recorder.self_s": "s",
    "observability.metrics.calls": "count",
    "observability.metrics.self_s": "s",
    "observability.monitor.calls": "count",
    "observability.monitor.self_s": "s",
    "observability.phase.self_s": "s",
    "observability.violations": "count",
    "differential.campaign.self_s": "s",
    "differential.generate.self_s": "s",
    "differential.validate.self_s": "s",
    "differential.oracle.self_s": "s",
    "differential.array.self_s": "s",
    "differential.compare.self_s": "s",
    "differential.buckets": "count",
    "differential.bucket_rows.mean": "count",
    "differential.bucket_rows.max": "count",
    "runner.cache.misses": "count",
    "runner.cache.writes": "count",
    "runner.cache.self_s": "s",
    "runner.shard.self_s": "s",
    "aggregation.build.self_s": "s",
    "aggregation.join.calls": "count",
    "aggregation.join.self_s": "s",
    "aggregation.leave.calls": "count",
    "aggregation.leave.self_s": "s",
    "aggregation.submit.calls": "count",
    "aggregation.submit.self_s": "s",
    "aggregation.dispatch.calls": "count",
    "aggregation.dispatch.self_s": "s",
    "aggregation.drain.self_s": "s",
    "aggregation.churn.p50_us": "us",
    "aggregation.churn.p99_us": "us",
    "aggregation.rss_delta_mb": "MB",
    "experiments.self_s": "s",
    "baseline.batch.rate": "1/s",
    "trace.rounds": "count",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.bench_share": "ratio",
}


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def per_layer_metrics(tracer: Tracer, rounds: int, extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the recorded spans and notes.

    Counts and seconds are per traced round, so they do not depend on
    how many rounds fit into the run; latency percentiles pool all
    spans.  ``extra`` supplies the figures the workload measured itself
    (violations, RSS delta, baseline rate, overhead share).
    """
    summary = span_summary(tracer.recorder)
    none = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0)}

    def calls(*names: str) -> float:
        return sum(summary.get(n, none)["calls"] for n in names) / rounds

    def self_s(*names: str) -> float:
        return sum(summary.get(n, none)["self_s"] for n in names) / rounds

    def durations(*names: str) -> np.ndarray:
        return np.concatenate([summary.get(n, none)["durations"] for n in names])

    notes = tracer.notes
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(layer)
        elif stat == "self_s":
            out[name] = self_s(layer)
    decide = durations("core.decide")
    out["core.decide.p50_us"] = _pct(decide, 50)
    out["core.decide.p99_us"] = _pct(decide, 99)
    ff = notes.get("core.cycles.fast_forward", 0)
    lockstep = (
        notes.get("core.cycles.lockstep", 0)
        + notes.get("core.cycles.periodic", 0)
        - notes.get("core.cycles.fast_forward_in_periodic", 0)
    )
    out["core.fast_forward.share"] = ff / (ff + lockstep) if ff + lockstep else 0.0
    decisions = calls("core.decide") * rounds
    frames = notes.get("endsystem.frames", 0)
    out["endsystem.service.useful_share"] = (
        frames / decisions if frames and decisions else 0.0
    )
    out["sim.events"] = calls("sim.step")
    out["sim.loop.self_s"] = self_s("sim.loop", "sim.step")
    buckets = notes.get("differential.buckets", 0)
    out["differential.buckets"] = buckets / rounds
    out["differential.bucket_rows.mean"] = (
        notes.get("differential.bucket_rows", 0) / buckets if buckets else 0.0
    )
    out["differential.bucket_rows.max"] = float(
        notes.get("differential.bucket_rows.max", 0)
    )
    out["runner.cache.misses"] = notes.get("runner.cache.misses", 0) / rounds
    out["runner.cache.writes"] = notes.get("runner.cache.writes", 0) / rounds
    churn = durations("aggregation.join", "aggregation.leave")
    out["aggregation.churn.p50_us"] = _pct(churn, 50)
    out["aggregation.churn.p99_us"] = _pct(churn, 99)
    out["experiments.self_s"] = self_s("experiments.table3", "experiments.figure10")
    rec = tracer.recorder
    cols = rec.arrays()
    duration = cols["end"] - cols["start"]
    kinds = np.array([span_kind(n) for n in rec.names], dtype=np.int64)
    kind = kinds[cols["name_id"]] if len(duration) else np.zeros(0, dtype=np.int64)
    out["trace.unattributed_share"] = unattributed_share(cols["parent"], duration, kind)
    roots = sum(v["durations"].sum() for n, v in summary.items() if span_kind(n) == ROOT)
    bench = sum(v["self_s"] for n, v in summary.items() if span_kind(n) == BENCH)
    out["trace.bench_share"] = float(bench / roots) if roots > 0 else 0.0
    out["trace.rounds"] = float(rounds)
    out["trace.spans"] = float(len(rec))
    for name in (
        "observability.violations",
        "aggregation.rss_delta_mb",
        "baseline.batch.rate",
        "trace.overhead_share",
    ):
        out[name] = float(extra.get(name, 0.0))
    return {name: out[name] for name in PER_LAYER}
