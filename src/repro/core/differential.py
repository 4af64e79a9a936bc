"""Differential cross-validation of the array engine against the oracle.

The object model (:class:`~repro.core.scheduler.ShareStreamsScheduler`)
is the trusted, cycle-level reconstruction of the hardware; the
scenario-tensorized array engine
(:class:`~repro.core.tensor_engine.CampaignEngine`, and its one-row
adapter :class:`~repro.core.tensor_engine.TensorScheduler`) is the fast
path.  This module runs the two on the same seeded scenario and asserts
cycle-by-cycle identical behavior:

* the emitted block and circulated winner of every decision cycle,
* the serviced-packet stream (``(sid, deadline, arrival, length)``),
* per-cycle miss registrations and dropped packets,
* final per-slot performance counters (wins, serviced, misses,
  violations, window resets, loads).

Scenarios are generated from a single integer seed, so any divergence
is reproducible from the seed alone — the test harness prints it on
failure.  See ``docs/ENGINES.md`` for the oracle/array-engine contract.

A second mode turns the observability layer itself into a correctness
oracle: :func:`cross_validate_traces` attaches a structured
:class:`~repro.observability.TraceRecorder` to each engine and compares
the *telemetry event streams* event-by-event (and their canonical byte
serializations), so the hook wiring, the event flattening and the
scheduling behavior are all certified together.

Run a standalone campaign with::

    PYTHONPATH=src python -m repro.core.differential --count 200
    PYTHONPATH=src python -m repro.core.differential --count 60 --trace-equivalence

A campaign buckets its scenarios by architecture shape
(:func:`bucket_key`) and runs every bucket as *one* tensorized
``(S, N)`` evaluation (:func:`run_bucket`), cross-validated per
scenario against the oracle.  Buckets are embarrassingly parallel;
``--workers N`` shards them across cores via :mod:`repro.runner`
(merged summary byte-identical to the sequential run, per-bucket
telemetry merged via
:func:`repro.observability.metrics.merge_snapshots`) and ``--cache-dir``
memoizes already-validated scenarios on disk so warm re-runs skip
them::

    PYTHONPATH=src python -m repro.core.differential \\
        --count 200 --cycles 1000 --workers 4 --cache-dir .diffcache
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.observability.events import TraceRecorder
from repro.observability.spans import SpanTracer, activate_tracer, current_tracer

__all__ = [
    "Scenario",
    "CycleRecord",
    "EngineTrace",
    "Divergence",
    "SeedOutcome",
    "BucketOutcome",
    "generate_scenario",
    "build_engine",
    "run_engine",
    "bucket_key",
    "run_bucket",
    "cross_validate",
    "cross_validate_traces",
    "cross_validate_bucket",
    "validate_seed",
    "validate_bucket",
    "campaign",
    "RankValidation",
    "validate_rank_function",
]

#: Disciplines the scenario generator samples (≥ 2 required by the
#: acceptance criteria; we span four).
_MODES = (
    SchedulingMode.DWCS,
    SchedulingMode.EDF,
    SchedulingMode.STATIC_PRIORITY,
    SchedulingMode.FAIR_SHARE,
)

# Wrapped (16-bit) scenarios must respect the serial-arithmetic
# contract: live deadlines/arrivals stay within half the horizon
# (32768) of the current time.  Bounding the per-cycle deadline offset
# keeps every live value well inside it.
_MAX_DEADLINE_OFFSET = 2048


@dataclass(frozen=True, slots=True)
class Scenario:
    """One fully-specified differential scenario (derived from a seed)."""

    seed: int
    n_slots: int
    routing: Routing
    block_mode: BlockMode
    schedule: str
    wrap: bool
    extended: bool
    streams: tuple[StreamConfig, ...]
    n_cycles: int
    consume: str
    count_misses: bool
    drop_late_prob: float
    arrival_prob: float
    max_deadline_offset: int

    def describe(self) -> str:
        modes = sorted({s.mode.value for s in self.streams})
        return (
            f"seed={self.seed} n_slots={self.n_slots} "
            f"streams={len(self.streams)} routing={self.routing.value} "
            f"block_mode={self.block_mode.value} "
            f"schedule={self.schedule} wrap={self.wrap} "
            f"consume={self.consume} count_misses={self.count_misses} "
            f"cycles={self.n_cycles} modes={modes}"
        )


@dataclass(frozen=True, slots=True)
class CycleRecord:
    """Observable outcome of one decision cycle, engine-agnostic."""

    now: int
    block: tuple[int, ...]
    circulated: int | None
    serviced: tuple[tuple[int, int, int, int], ...]
    misses: tuple[int, ...]
    hw_cycles: int
    dropped: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class EngineTrace:
    """Full observable trace of one engine over one scenario."""

    engine: str
    records: tuple[CycleRecord, ...]
    counters: dict[int, tuple[int, int, int, int, int, int]]


@dataclass(frozen=True, slots=True)
class Divergence:
    """First observed disagreement between the two engines."""

    scenario: Scenario
    cycle: int | None  # None: counter (end-of-run) divergence
    field: str
    reference: object
    tensor: object

    def __str__(self) -> str:
        where = "final counters" if self.cycle is None else f"cycle {self.cycle}"
        return (
            f"engines diverged at {where} on {self.field}\n"
            f"  scenario: {self.scenario.describe()}\n"
            f"  reference: {self.reference!r}\n"
            f"  tensor:    {self.tensor!r}\n"
            f"reproduce with: cross_validate(generate_scenario("
            f"{self.scenario.seed}))"
        )


def generate_scenario(
    seed: int,
    *,
    n_cycles: int = 1000,
    max_slots: int = 64,
) -> Scenario:
    """Derive a randomized scenario deterministically from ``seed``.

    Samples both routings, both block modes, both sorting schedules,
    wrapped and ideal arithmetic, 1..``max_slots`` streams and all four
    update disciplines — the design space the acceptance criteria
    require the campaign to span.
    """
    rng = random.Random(seed ^ 0x5EED)
    slot_choices = [n for n in (2, 4, 8, 16, 32, 64) if n <= max_slots]
    n_slots = rng.choice(slot_choices)
    extended = n_slots > 32
    routing = rng.choice((Routing.BA, Routing.WR))
    block_mode = rng.choice((BlockMode.MAX_FIRST, BlockMode.MIN_FIRST))
    schedule = rng.choice(("paper", "bitonic"))
    wrap = rng.random() < 0.5
    n_streams = rng.randint(1, n_slots)
    sids = rng.sample(range(n_slots), n_streams)
    streams = []
    for sid in sids:
        mode = rng.choice(_MODES)
        y = rng.randint(0, 12)
        x = rng.randint(0, y) if y else 0
        streams.append(
            StreamConfig(
                sid=sid,
                period=rng.randint(1, 8),
                loss_numerator=x,
                loss_denominator=y,
                initial_deadline=rng.randint(0, 64),
                mode=mode,
                extended=extended,
            )
        )
    if routing is Routing.WR:
        consume = "winner"
    else:
        consume = rng.choice(("winner", "winner", "block", "none"))
    return Scenario(
        seed=seed,
        n_slots=n_slots,
        routing=routing,
        block_mode=block_mode,
        schedule=schedule,
        wrap=wrap,
        extended=extended,
        streams=tuple(streams),
        n_cycles=n_cycles,
        consume=consume,
        count_misses=rng.random() < 0.85,
        drop_late_prob=rng.choice((0.0, 0.0, 0.05, 0.2)),
        arrival_prob=rng.uniform(0.1, 0.9),
        max_deadline_offset=rng.randint(8, _MAX_DEADLINE_OFFSET),
    )


def _arch_config(scenario: Scenario) -> ArchConfig:
    return ArchConfig(
        n_slots=scenario.n_slots,
        routing=scenario.routing,
        block_mode=scenario.block_mode,
        schedule=scenario.schedule,
        wrap=scenario.wrap,
        extended=scenario.extended,
    )


def build_engine(scenario: Scenario, engine: str, *, observer=None):
    """Instantiate one engine (``reference`` or ``tensor``)."""
    return make_scheduler(
        _arch_config(scenario),
        list(scenario.streams),
        engine=engine,
        observer=observer,
    )


def _arrival_schedule(scenario: Scenario):
    """Per-cycle arrival/drop decisions, derived from the seed alone.

    Generated once and replayed identically into both engines so the
    workloads are bit-identical.
    """
    rng = random.Random(scenario.seed ^ 0xA4414A1)
    schedule = []
    for t in range(scenario.n_cycles):
        arrivals = []
        for stream in scenario.streams:
            if rng.random() < scenario.arrival_prob:
                offset = rng.randint(0, scenario.max_deadline_offset)
                arrivals.append((stream.sid, t + offset, t))
        drop = rng.random() < scenario.drop_late_prob
        schedule.append((arrivals, drop))
    return schedule


def _cycle_record(outcome) -> CycleRecord:
    """Flatten a :class:`DecisionOutcome` into an engine-agnostic record."""
    return CycleRecord(
        now=outcome.now,
        block=outcome.block,
        circulated=outcome.circulated_sid,
        serviced=tuple(
            (sid, p.deadline, p.arrival, p.length)
            for sid, p in outcome.serviced
        ),
        misses=outcome.misses,
        hw_cycles=outcome.hw_cycles,
        dropped=tuple(
            (sid, p.deadline, p.arrival) for sid, p in outcome.dropped
        ),
    )


def run_engine(scenario: Scenario, engine: str, *, observer=None) -> EngineTrace:
    """Execute ``scenario`` on one engine, recording every observable."""
    sched = build_engine(scenario, engine, observer=observer)
    records = []
    for t, (arrivals, drop) in enumerate(_arrival_schedule(scenario)):
        for sid, deadline, arrival in arrivals:
            sched.enqueue(sid, deadline, arrival)
        outcome = sched.decision_cycle(
            t,
            consume=scenario.consume,
            count_misses=scenario.count_misses,
            drop_late=drop,
        )
        records.append(_cycle_record(outcome))
    counters = {
        sid: (
            c.wins,
            c.serviced,
            c.missed_deadlines,
            c.violations,
            c.window_resets,
            c.loads,
        )
        for sid, c in sched.counters().items()
    }
    return EngineTrace(engine=engine, records=tuple(records), counters=counters)


_CYCLE_FIELDS = (
    "block",
    "circulated",
    "serviced",
    "misses",
    "hw_cycles",
    "dropped",
)


def _compare_traces(
    scenario: Scenario, ref: EngineTrace, fast: EngineTrace
) -> Divergence | None:
    """First record/counter disagreement between two engine traces."""
    for t, (r, b) in enumerate(zip(ref.records, fast.records)):
        if r != b:
            for name in _CYCLE_FIELDS:
                if getattr(r, name) != getattr(b, name):
                    return Divergence(
                        scenario, t, name, getattr(r, name), getattr(b, name)
                    )
    if ref.counters != fast.counters:
        return Divergence(
            scenario, None, "counters", ref.counters, fast.counters
        )
    return None


def _compare_event_streams(
    scenario: Scenario, ref_rec: TraceRecorder, fast_rec: TraceRecorder
) -> Divergence | None:
    """First telemetry-event disagreement between two recorders."""
    ref_events = ref_rec.events()
    fast_events = fast_rec.events()
    for i, (r, b) in enumerate(zip(ref_events, fast_events)):
        if r != b:
            return Divergence(scenario, i, "trace_event", r, b)
    if len(ref_events) != len(fast_events):
        return Divergence(
            scenario, None, "trace_length", len(ref_events), len(fast_events)
        )
    # Event equality implies serialization equality; assert it anyway so
    # the canonical byte format itself stays deterministic.
    if ref_rec.serialize() != fast_rec.serialize():
        return Divergence(
            scenario, None, "trace_serialization", "<bytes>", "<bytes>"
        )
    return None


def cross_validate(scenario: Scenario) -> Divergence | None:
    """Run the oracle and the array engine; return the first divergence.

    ``None`` means the engines agreed on every decision cycle and on
    the final performance counters.
    """
    ref = run_engine(scenario, "reference")
    fast = run_engine(scenario, "tensor")
    return _compare_traces(scenario, ref, fast)


def cross_validate_traces(scenario: Scenario) -> Divergence | None:
    """Run both engines under telemetry; compare the trace streams.

    Attaches a fresh :class:`~repro.observability.TraceRecorder` to
    each engine and asserts the structured decision-trace event streams
    are identical event-by-event *and* byte-identical under canonical
    serialization — observability as a correctness oracle.  ``None``
    means no divergence.
    """
    ref_rec = TraceRecorder()
    fast_rec = TraceRecorder()
    run_engine(scenario, "reference", observer=ref_rec)
    run_engine(scenario, "tensor", observer=fast_rec)
    return _compare_event_streams(scenario, ref_rec, fast_rec)


# ---------------------------------------------------------------------------
# same-shape bucketing: whole-bucket tensorized execution
# ---------------------------------------------------------------------------


def bucket_key(scenario: Scenario) -> tuple:
    """The same-shape bucketing key for the campaign engine.

    Scenarios sharing this key run the same architecture — slot count,
    routing, block mode, sorting schedule, wrap/extended arithmetic —
    and the same cycle count, so they can ride one
    :class:`~repro.core.tensor_engine.CampaignEngine` as rows of its
    ``(S, N)`` state (the bucketing contract in ``docs/ENGINES.md``).
    Per-stream constraints, disciplines, consume policies and workloads
    vary freely within a bucket.
    """
    return (
        scenario.n_slots,
        scenario.routing.value,
        scenario.block_mode.value,
        scenario.schedule,
        scenario.wrap,
        scenario.extended,
        scenario.n_cycles,
    )


def run_bucket(
    scenarios, *, observers=None, stats: dict | None = None,
    tracer: SpanTracer | None = None,
) -> list[EngineTrace]:
    """Execute a same-shape bucket as one tensorized campaign.

    All scenarios advance in lockstep through one
    :class:`~repro.core.tensor_engine.CampaignEngine`; each returned
    :class:`EngineTrace` is cycle-for-cycle what the scenario would
    produce on its own engine.  Cycles where *no* scenario has a
    pending head and none receives an arrival are fast-forwarded: the
    control accounting advances in bulk and the per-cycle idle records
    (identical by construction) are synthesized without touching the
    array pipeline.  ``stats`` (optional dict) receives
    ``fast_forwarded`` and ``cycles`` totals for telemetry; ``tracer``
    receives the engine's ``schedule``, ``priority_update`` and
    ``fast_forward`` phase spans.
    """
    from repro.core.tensor_engine import CampaignEngine

    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    key = bucket_key(first)
    for scenario in scenarios[1:]:
        if bucket_key(scenario) != key:
            raise ValueError(
                "bucket mixes scenario shapes: "
                f"{bucket_key(scenario)} != {key}"
            )
    n_scenarios = len(scenarios)
    n_cycles = first.n_cycles
    engine = CampaignEngine(
        _arch_config(first),
        [list(scenario.streams) for scenario in scenarios],
        observers=list(observers) if observers is not None else None,
        tracer=tracer,
    )
    schedules = [_arrival_schedule(scenario) for scenario in scenarios]
    consume = [scenario.consume for scenario in scenarios]
    count_misses = [scenario.count_misses for scenario in scenarios]
    # next_arrival[t]: first cycle >= t where any scenario enqueues.
    next_arrival = [n_cycles] * (n_cycles + 1)
    for t in range(n_cycles - 1, -1, -1):
        has_arrival = any(schedules[s][t][0] for s in range(n_scenarios))
        next_arrival[t] = t if has_arrival else next_arrival[t + 1]
    records: list[list[CycleRecord]] = [[] for _ in range(n_scenarios)]
    t = 0
    while t < n_cycles:
        if not engine.has_pending and next_arrival[t] > t:
            # Campaign-wide idle gap: bulk-account the skipped decision
            # cycles and synthesize the records the oracle would emit.
            nxt = min(next_arrival[t], n_cycles)
            engine.advance_idle(nxt - t)
            for tt in range(t, nxt):
                idle = engine.idle_outcome(tt)
                record = _cycle_record(idle)
                for s in range(n_scenarios):
                    records[s].append(record)
                    if observers is not None and observers[s] is not None:
                        observers[s].on_decision(idle)
            t = nxt
            continue
        for s, schedule in enumerate(schedules):
            for sid, deadline, arrival in schedule[t][0]:
                engine.enqueue(s, sid, deadline, arrival)
        outcomes = engine.decision_cycle_all(
            t,
            consume=consume,
            count_misses=count_misses,
            drop_late=[schedules[s][t][1] for s in range(n_scenarios)],
        )
        for s, outcome in enumerate(outcomes):
            records[s].append(_cycle_record(outcome))
        t += 1
    if stats is not None:
        stats["fast_forwarded"] = (
            stats.get("fast_forwarded", 0) + engine.fast_forwarded
        )
        stats["cycles"] = stats.get("cycles", 0) + n_cycles * n_scenarios
    engine.record_phases()
    return [
        EngineTrace(
            engine="tensor",
            records=tuple(records[s]),
            counters={
                sid: (
                    c.wins,
                    c.serviced,
                    c.missed_deadlines,
                    c.violations,
                    c.window_resets,
                    c.loads,
                )
                for sid, c in engine.counters(s).items()
            },
        )
        for s in range(n_scenarios)
    ]


def cross_validate_bucket(
    scenarios, mode: str = "outcome", *, stats: dict | None = None,
    tracer: SpanTracer | None = None,
) -> list[Divergence | None]:
    """Cross-validate a same-shape bucket: oracle vs campaign engine.

    The bucket runs *once* through the tensorized engine; every
    scenario is then compared against its own reference run
    (``mode="outcome"``: cycle records + counters; ``mode="trace"``:
    structured telemetry event streams).
    """
    scenarios = list(scenarios)
    if mode == "trace":
        recorders = [TraceRecorder() for _ in scenarios]
        run_bucket(scenarios, observers=recorders, stats=stats, tracer=tracer)
        results: list[Divergence | None] = []
        for scenario, recorder in zip(scenarios, recorders):
            ref_rec = TraceRecorder()
            run_engine(scenario, "reference", observer=ref_rec)
            results.append(
                _compare_event_streams(scenario, ref_rec, recorder)
            )
        return results
    tensor_traces = run_bucket(scenarios, stats=stats, tracer=tracer)
    return [
        _compare_traces(scenario, run_engine(scenario, "reference"), trace)
        for scenario, trace in zip(scenarios, tensor_traces)
    ]


@dataclass(frozen=True, slots=True)
class SeedOutcome:
    """One seed's contribution to a campaign (picklable, cache-able).

    Coverage fields are enum *values* (plain strings) so the outcome
    survives a JSON round-trip through the on-disk scenario cache
    unchanged; only passing seeds are ever cached, so ``divergence``
    is always ``None`` for cache hits.
    """

    seed: int
    routing: str
    block_mode: str
    modes: tuple[str, ...]
    divergence: Divergence | None = None


def _seed_outcome(scenario: Scenario, divergence: Divergence | None) -> SeedOutcome:
    return SeedOutcome(
        seed=scenario.seed,
        routing=scenario.routing.value,
        block_mode=scenario.block_mode.value,
        modes=tuple(sorted({s.mode.value for s in scenario.streams})),
        divergence=divergence,
    )


def validate_seed(
    seed: int, n_cycles: int = 1000, mode: str = "outcome"
) -> SeedOutcome:
    """Cross-validate one seed on the single-scenario adapter.

    Fully determined by its arguments.  The ``stop_on_divergence``
    campaign runs seeds through it one at a time; every other campaign
    validates whole buckets with :func:`validate_bucket`.
    """
    validate = cross_validate if mode == "outcome" else cross_validate_traces
    scenario = generate_scenario(seed, n_cycles=n_cycles)
    tracer = current_tracer()
    if tracer is None:
        return _seed_outcome(scenario, validate(scenario))
    with tracer.span(
        "engine_run", kind="engine-run",
        seed=seed, engine="tensor", n_cycles=n_cycles,
    ) as sp:
        outcome = _seed_outcome(scenario, validate(scenario))
        sp.tag(diverged=outcome.divergence is not None)
    return outcome


@dataclass(frozen=True, slots=True)
class BucketOutcome:
    """One same-shape bucket's contribution to a campaign.

    Picklable unit of work for the sharded campaign: the per-seed
    outcomes (in bucket order) plus the bucket's telemetry snapshot,
    merged into the campaign result via
    :func:`repro.observability.metrics.merge_snapshots`.
    """

    outcomes: tuple[SeedOutcome, ...]
    telemetry: dict


def validate_bucket(
    seeds, n_cycles: int = 1000, mode: str = "outcome"
) -> BucketOutcome:
    """Cross-validate one same-shape bucket of seeds tensorized.

    The sharded campaign's unit of work: regenerates the bucket's
    scenarios from the seeds, runs them as one
    :class:`~repro.core.tensor_engine.CampaignEngine` evaluation and
    compares each row against its reference run.  Also labels the
    bucket's execution telemetry (scenario/cycle/fast-forward counts)
    so shards can be merged with the PR 4 ``absorb`` machinery.
    """
    from repro.observability import MetricsRegistry

    scenarios = [generate_scenario(seed, n_cycles=n_cycles) for seed in seeds]
    stats: dict = {}
    tracer = current_tracer()
    if tracer is None:
        divergences = cross_validate_bucket(scenarios, mode, stats=stats)
    else:
        with tracer.span(
            "engine_run", kind="engine-run",
            scenarios=len(scenarios), n_cycles=n_cycles, engine="tensor",
        ) as sp:
            divergences = cross_validate_bucket(
                scenarios, mode, stats=stats, tracer=tracer
            )
            # Fast-forward attribution: bulk-skipped idle cycles are a
            # pure function of the workload, so they are canonical tags.
            sp.tag(
                cycles=stats.get("cycles", 0),
                fast_forwarded=stats.get("fast_forwarded", 0),
            )
    registry = MetricsRegistry()
    registry.counter(
        "differential_bucket_scenarios_total",
        "scenarios validated through the tensorized bucket path",
    ).inc(len(scenarios))
    registry.counter(
        "differential_bucket_cycles_total",
        "scenario-cycles advanced by bucketed campaign evaluations",
    ).inc(stats.get("cycles", 0))
    registry.counter(
        "differential_fast_forwarded_cycles_total",
        "idle decision cycles skipped in bulk by the campaign engine",
    ).inc(stats.get("fast_forwarded", 0))
    return BucketOutcome(
        outcomes=tuple(
            _seed_outcome(scenario, divergence)
            for scenario, divergence in zip(scenarios, divergences)
        ),
        telemetry=registry.snapshot(),
    )


def _scenario_cache_payload(seed: int, n_cycles: int, mode: str) -> dict:
    """Canonical cache-key payload: the *resolved* scenario config.

    Keyed on the full derived scenario (not just the seed) plus the
    engine pair and comparison mode, so a generator change that alters
    what a seed means invalidates its cache entry.  The
    package-version/schema token is folded in by
    :class:`~repro.runner.cache.ResultCache`.
    """
    scenario = generate_scenario(seed, n_cycles=n_cycles)
    return {
        "mode": mode,
        "engines": ["reference", "tensor"],
        "scenario": {
            "seed": scenario.seed,
            "n_slots": scenario.n_slots,
            "routing": scenario.routing.value,
            "block_mode": scenario.block_mode.value,
            "schedule": scenario.schedule,
            "wrap": scenario.wrap,
            "extended": scenario.extended,
            "n_cycles": scenario.n_cycles,
            "consume": scenario.consume,
            "count_misses": scenario.count_misses,
            "drop_late_prob": scenario.drop_late_prob,
            "arrival_prob": scenario.arrival_prob,
            "max_deadline_offset": scenario.max_deadline_offset,
            "streams": [
                {
                    "sid": s.sid,
                    "period": s.period,
                    "loss_numerator": s.loss_numerator,
                    "loss_denominator": s.loss_denominator,
                    "initial_deadline": s.initial_deadline,
                    "mode": s.mode.value,
                    "extended": s.extended,
                }
                for s in scenario.streams
            ],
        },
    }


def _encode_outcome(outcome: SeedOutcome) -> dict:
    """JSON cache value for a *passing* seed."""
    return {
        "seed": outcome.seed,
        "routing": outcome.routing,
        "block_mode": outcome.block_mode,
        "modes": list(outcome.modes),
    }


def _decode_outcome(value: dict) -> SeedOutcome:
    return SeedOutcome(
        seed=int(value["seed"]),
        routing=str(value["routing"]),
        block_mode=str(value["block_mode"]),
        modes=tuple(str(m) for m in value["modes"]),
    )


@dataclass(slots=True)
class CampaignResult:
    """Summary of a differential campaign."""

    scenarios: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    routings: set = field(default_factory=set)
    block_modes: set = field(default_factory=set)
    modes: set = field(default_factory=set)
    mode: str = "outcome"
    n_cycles: int = 1000
    #: Shard/item failures (:class:`repro.runner.ShardFailure`): seeds
    #: that *died* (as opposed to diverging) without sinking the run.
    failures: list = field(default_factory=list)
    #: Seeds served from the on-disk scenario cache / actually executed.
    cached: int = 0
    executed: int = 0
    workers: int = 1
    #: Merged per-bucket telemetry.  Execution detail — like
    #: ``workers``/``cached`` it never enters :meth:`summary`, keeping
    #: summaries byte-identical across worker counts and cache state.
    telemetry: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.divergences and not self.failures

    def summary(self) -> dict:
        """Canonical merged summary (worker-count independent).

        Contains only workload-derived facts — never execution details
        like worker count or cache hits — so the ``--workers 4`` and
        ``--workers 1`` runs of the same campaign serialize to
        byte-identical JSON.
        """
        return {
            "mode": self.mode,
            "n_cycles": self.n_cycles,
            "scenarios": self.scenarios,
            "passed": self.passed,
            "coverage": {
                "routings": sorted(r.value for r in self.routings),
                "block_modes": sorted(m.value for m in self.block_modes),
                "modes": sorted(m.value for m in self.modes),
            },
            "divergences": [
                {
                    "seed": d.scenario.seed,
                    "cycle": d.cycle,
                    "field": d.field,
                    "detail": str(d),
                }
                for d in self.divergences
            ],
            "failures": [
                {
                    "shard": f.shard,
                    "seeds": list(f.items),
                    "error": (
                        f.error.strip().splitlines()[-1]
                        if f.error.strip()
                        else ""
                    ),
                }
                for f in self.failures
            ],
        }

    def summary_json(self) -> str:
        """The :meth:`summary` as canonical JSON text."""
        return json.dumps(self.summary(), sort_keys=True, indent=1) + "\n"


def _fold_outcome(result: CampaignResult, outcome: SeedOutcome) -> None:
    result.scenarios += 1
    result.routings.add(Routing(outcome.routing))
    result.block_modes.add(BlockMode(outcome.block_mode))
    result.modes.update(SchedulingMode(m) for m in outcome.modes)
    if outcome.divergence is not None:
        result.divergences.append(outcome.divergence)


def campaign(
    seeds,
    *,
    n_cycles: int = 1000,
    stop_on_divergence: bool = False,
    mode: str = "outcome",
    engine: str = "tensor",
    workers: int | None = 1,
    cache_dir=None,
    use_cache: bool = True,
    tracer: SpanTracer | None = None,
    _task=None,
) -> CampaignResult:
    """Cross-validate one scenario per seed; aggregate coverage + failures.

    ``mode="outcome"`` compares per-cycle :class:`CycleRecord` streams
    and final counters (the original harness);
    ``mode="trace"`` compares the engines' structured telemetry event
    streams (:func:`cross_validate_traces`).  ``engine`` names the
    array engine under test; ``"tensor"`` is the only one.

    Seeds are first resolved against the on-disk scenario cache
    (``cache_dir``; divergent seeds are never cached and always
    revalidate; ``use_cache=False`` keeps the directory untouched).
    The misses are bucketed by :func:`bucket_key` in first-seen order
    and every bucket runs as one tensorized ``(S, N)`` evaluation
    (:func:`validate_bucket`; ``_task`` replaces it in tests).
    ``workers`` shards whole buckets across processes
    (:func:`repro.runner.run_sharded`; ``0``/``None`` = all cores).
    Outcomes fold back in original seed order, so the merged summary
    is byte-identical for any worker count and cache state; per-bucket
    telemetry merges into ``result.telemetry``.  ``stop_on_divergence``
    instead validates seed by seed on the single-scenario adapter
    (:func:`validate_seed`) and stops at the first divergence (early
    exit is inherently order-dependent).

    A bucket whose worker *dies* (hard crash, lost shard) is reported
    in ``result.failures`` with its shard's seed list rather than
    sinking the whole campaign; ``result.passed`` is then ``False``.

    ``tracer`` (a :class:`~repro.observability.spans.SpanTracer`) records
    the campaign as a hierarchical span tree — campaign → bucket
    pre-pass → per-bucket item spans → engine runs → engine phases —
    propagated through the worker pool and merged index-ordered, so the
    canonical tree is byte-identical for any worker count.
    """
    if mode not in ("outcome", "trace"):
        raise ValueError(f"unknown campaign mode {mode!r}")
    if engine != "tensor":
        raise ValueError(f"unknown campaign engine {engine!r}")
    seeds = list(seeds)
    if tracer is not None:
        with tracer.span(
            "campaign", kind="campaign",
            mode=mode, engine=engine, n_cycles=n_cycles, seeds=len(seeds),
        ), activate_tracer(tracer):
            return _campaign_body(
                seeds, n_cycles, stop_on_divergence, mode,
                workers, cache_dir, use_cache, tracer, _task,
            )
    return _campaign_body(
        seeds, n_cycles, stop_on_divergence, mode,
        workers, cache_dir, use_cache, None, _task,
    )


def _campaign_body(
    seeds: list,
    n_cycles: int,
    stop_on_divergence: bool,
    mode: str,
    workers,
    cache_dir,
    use_cache: bool,
    tracer: SpanTracer | None,
    _task,
) -> CampaignResult:
    """The campaign after argument checks (see :func:`campaign`)."""
    from dataclasses import replace

    from repro.observability.metrics import merge_snapshots
    from repro.runner import ResultCache, run_sharded

    result = CampaignResult(mode=mode, n_cycles=n_cycles)
    if stop_on_divergence:
        for seed in seeds:
            outcome = validate_seed(seed, n_cycles, mode)
            _fold_outcome(result, outcome)
            result.executed += 1
            if outcome.divergence is not None:
                break
        return result

    cache = None
    if cache_dir is not None and use_cache:
        cache = ResultCache(cache_dir, namespace=f"differential-{mode}-tensor")

    def payload_key(seed: int) -> str:
        return cache.key(_scenario_cache_payload(seed, n_cycles, mode))

    def prepass() -> list[tuple[int, ...]]:
        """Resolve cache hits, bucket the misses by shape (first-seen
        order), mutating ``outcomes``/``pending``/``result.cached``."""
        for seed in seeds:
            if cache is not None:
                hit, value = cache.get(payload_key(seed))
                if hit:
                    outcomes[seed] = _decode_outcome(value)
                    result.cached += 1
                    continue
            pending.append(seed)
        buckets: dict[tuple, list[int]] = {}
        for seed in pending:
            key = bucket_key(generate_scenario(seed, n_cycles=n_cycles))
            buckets.setdefault(key, []).append(seed)
        return [tuple(bucket) for bucket in buckets.values()]

    outcomes: dict[int, SeedOutcome] = {}
    pending: list[int] = []
    if tracer is None:
        items = prepass()
    else:
        with tracer.span("bucket_prepass", kind="prepass") as prep:
            items = prepass()
            prep.tag(
                seeds=len(seeds),
                cached=result.cached,
                pending=len(pending),
                buckets=len(items),
            )

    pool = run_sharded(
        _task if _task is not None else validate_bucket,
        items,
        workers=workers,
        task_args=(n_cycles, mode),
        tracer=tracer,
        span_name="bucket",
        span_kind="bucket",
    )
    snapshots = []
    for bucket_outcome in pool.results:
        if bucket_outcome is None:
            continue
        snapshots.append(bucket_outcome.telemetry)
        for outcome in bucket_outcome.outcomes:
            outcomes[outcome.seed] = outcome
            result.executed += 1
            if cache is not None and outcome.divergence is None:
                cache.put(payload_key(outcome.seed), _encode_outcome(outcome))
    # A dead shard loses whole buckets; report the seeds, not the
    # bucket tuples.
    result.failures = [
        replace(
            failure,
            items=tuple(
                seed for bucket in failure.items for seed in bucket
            ),
        )
        for failure in pool.failures
    ]
    for seed in seeds:
        if seed in outcomes:
            _fold_outcome(result, outcomes[seed])
    result.workers = pool.workers
    result.telemetry = merge_snapshots(snapshots) if snapshots else None
    return result


@dataclass
class RankValidation:
    """Outcome of a two-way rank-function validation campaign."""

    name: str
    scenarios: int = 0
    n_cycles: int = 0
    n_slots: int = 0
    equivalent_to: str | None = None
    services: int = 0
    divergences: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def summary(self) -> dict:
        return {
            "format": 1,
            "kind": "rank-function-validation",
            "discipline": f"pifo:{self.name}",
            "scenarios": self.scenarios,
            "n_cycles": self.n_cycles,
            "n_slots": self.n_slots,
            "equivalent_to": self.equivalent_to,
            "services": self.services,
            "passed": self.passed,
            "divergences": list(self.divergences),
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=1) + "\n"


def _summary_blob(summary: dict) -> str:
    """Canonical JSON bytes two engine summaries are compared on."""
    return json.dumps(summary, sort_keys=True, indent=1) + "\n"


def _software_service_order(fn, scenario) -> list[tuple[int, int]]:
    """Replay a PIFO workload through the handwritten counterpart.

    Returns the ``(sid, seq)`` service order of
    ``registry.create(fn.equivalent_to)`` under the same arrivals: one
    batch of enqueues then at most one dequeue per cycle, followed by a
    work-conserving drain — the exact regime the engine frontends run.
    """
    from repro.disciplines import registry
    from repro.disciplines.base import Packet, SwStream

    discipline = registry.create(fn.equivalent_to)
    for stream in scenario.streams:
        discipline.add_stream(
            SwStream(
                stream_id=stream.sid,
                weight=stream.weight,
                priority=stream.priority,
            )
        )
    order: list[tuple[int, int]] = []
    enqueued = 0
    now = 0
    for now, cycle in enumerate(scenario.arrivals):
        for sid, seq, deadline, length in cycle:
            discipline.enqueue(
                Packet(
                    stream_id=sid,
                    seq=seq,
                    arrival=seq,
                    length=length,
                    deadline=deadline,
                )
            )
            enqueued += 1
        packet = discipline.dequeue(now)
        if packet is not None:
            order.append((packet.stream_id, packet.seq))
    now = scenario.n_cycles
    while len(order) < enqueued:
        packet = discipline.dequeue(now)
        if packet is None:
            raise AssertionError(
                f"{discipline.name} stalled with backlog during drain"
            )
        order.append((packet.stream_id, packet.seq))
        now += 1
    return order


def validate_rank_function(
    fn,
    seeds=range(20),
    *,
    n_cycles: int = 200,
    n_slots: int = 8,
    check_equivalent: bool = True,
) -> RankValidation:
    """Two-way cross-validation of one PIFO rank function.

    For every seed the same workload
    (:func:`repro.disciplines.pifo.generate_pifo_scenario`) runs
    through the interpreted reference frontend and one tensorized
    campaign covering *all* the seeds at once; the canonical run
    summaries must be byte-identical.  When the rank function declares ``equivalent_to``, the
    handwritten discipline replays the same arrivals and its service
    order must match packet-for-packet.

    ``fn`` is a :class:`~repro.disciplines.pifo.RankFunction` or a
    registered name.  This is the public entry point any user-defined
    rank function gets for free::

        from repro.core.differential import validate_rank_function
        result = validate_rank_function(my_rank_fn)
        assert result.passed, "\\n".join(result.divergences)
    """
    from repro.disciplines.pifo import (
        generate_pifo_scenario,
        rank_function,
        run_pifo,
        run_pifo_bucket,
    )

    if isinstance(fn, str):
        fn = rank_function(fn.removeprefix("pifo:"))
    seeds = list(seeds)
    scenarios = [
        generate_pifo_scenario(seed, n_slots=n_slots, n_cycles=n_cycles)
        for seed in seeds
    ]
    result = RankValidation(
        name=fn.name,
        scenarios=len(scenarios),
        n_cycles=n_cycles,
        n_slots=n_slots,
        equivalent_to=fn.equivalent_to,
    )
    tensor_summaries = run_pifo_bucket(fn, scenarios)
    for scenario, tensor_summary in zip(scenarios, tensor_summaries):
        reference = run_pifo(fn, scenario, engine="reference")
        if _summary_blob(reference) != _summary_blob(tensor_summary):
            result.divergences.append(
                f"pifo:{fn.name} seed={scenario.seed}: "
                "engine summaries differ (reference != tensor)"
            )
            continue
        result.services += len(reference["services"])
        if check_equivalent and fn.equivalent_to is not None:
            engine_order = [
                (sid, seq) for _t, sid, seq, _rank in reference["services"]
            ]
            software_order = _software_service_order(fn, scenario)
            if engine_order != software_order:
                first = next(
                    (
                        i
                        for i, (a, b) in enumerate(
                            zip(engine_order, software_order)
                        )
                        if a != b
                    ),
                    min(len(engine_order), len(software_order)),
                )
                result.divergences.append(
                    f"pifo:{fn.name} seed={scenario.seed}: diverges from "
                    f"handwritten {fn.equivalent_to!r} at service {first} "
                    f"(engine={engine_order[first:first + 3]} "
                    f"software={software_order[first:first + 3]})"
                )
    return result


# ----------------------------------------------------------------------
# aggregation-tier validation
# ----------------------------------------------------------------------


@dataclass
class AggregationValidation:
    """Outcome of a two-way aggregation-tier validation campaign."""

    discipline: str
    n_aggregates: int = 0
    scenarios: int = 0
    n_cycles: int = 0
    streams: int = 0
    services: int = 0
    divergences: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def summary(self) -> dict:
        return {
            "format": 1,
            "kind": "aggregation-validation",
            "discipline": self.discipline,
            "n_aggregates": self.n_aggregates,
            "scenarios": self.scenarios,
            "n_cycles": self.n_cycles,
            "streams": self.streams,
            "services": self.services,
            "passed": self.passed,
            "divergences": list(self.divergences),
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=1) + "\n"


def validate_aggregation(
    seeds=range(10),
    *,
    n_streams: int = 48,
    n_aggregates: int = 8,
    n_cycles: int = 160,
    discipline: str = "pifo:sfq",
    salt: int = 0,
    cache=None,
) -> AggregationValidation:
    """Two-way cross-validation of the hierarchical aggregation tier.

    Every seed derives one churn workload
    (:func:`repro.aggregation.generate_aggregation_scenario` — stream
    joins/leaves interleaved with arrivals) and replays it through the
    standalone tier on the reference engine and through one tensorized
    campaign covering *all* the seeds at once
    (:func:`repro.aggregation.run_aggregation_bucket`); the canonical
    summaries — membership rollups, per-aggregate service counts, the
    sha256 digest of the full service event stream — must be
    byte-identical.

    ``cache`` is an optional :class:`repro.runner.ResultCache`;
    already-validated scenarios are keyed on the *aggregate topology*
    (scenario payload includes ``n_aggregates``/``salt``/``discipline``,
    namespace ``"aggregation"``) so cached non-aggregated campaign
    entries can never satisfy aggregated lookups.
    """
    from repro.aggregation import (
        generate_aggregation_scenario,
        run_aggregation,
        run_aggregation_bucket,
    )

    seeds = list(seeds)
    scenarios = [
        generate_aggregation_scenario(
            seed,
            n_streams=n_streams,
            n_aggregates=n_aggregates,
            n_cycles=n_cycles,
            discipline=discipline,
            salt=salt,
        )
        for seed in seeds
    ]
    result = AggregationValidation(
        discipline=discipline,
        n_aggregates=n_aggregates,
        scenarios=len(scenarios),
        n_cycles=n_cycles,
    )
    cached: dict[int, dict] = {}
    if cache is not None:
        for scenario in scenarios:
            hit, value = cache.get(cache.key(scenario.cache_payload()))
            if hit:
                cached[scenario.seed] = value
    live = [sc for sc in scenarios if sc.seed not in cached]
    tensor_by_seed = dict(cached)
    if live:
        for sc, summary in zip(live, run_aggregation_bucket(live)):
            tensor_by_seed[sc.seed] = summary
    for scenario in scenarios:
        tensor_summary = tensor_by_seed[scenario.seed]
        reference = run_aggregation(scenario, engine="reference")
        if _summary_blob(reference) != _summary_blob(tensor_summary):
            result.divergences.append(
                f"aggregation seed={scenario.seed} "
                f"({discipline}, {n_aggregates} aggregates): "
                "engine summaries differ (reference != tensor)"
            )
            continue
        result.streams += reference["streams_joined"]
        result.services += reference["serviced"]
        if cache is not None and scenario.seed not in cached:
            cache.put(
                cache.key(scenario.cache_payload()), tensor_summary
            )
    return result


def main(argv=None) -> int:  # pragma: no cover - CLI convenience
    import argparse
    import time

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=1000)
    parser.add_argument(
        "--trace-equivalence",
        action="store_true",
        help="compare structured telemetry event streams instead of "
        "cycle outcomes (observability as a correctness oracle)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard the campaign across "
        "(0 = all cores; merged summary is identical for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk scenario cache: seeds whose canonical "
        "(scenario, engines, version) hash already validated are "
        "skipped on re-runs",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir (neither read nor write entries)",
    )
    parser.add_argument(
        "--summary-json",
        metavar="PATH",
        default=None,
        help="write the canonical merged campaign summary to PATH "
        "(byte-identical across --workers values)",
    )
    args = parser.parse_args(argv)
    mode = "trace" if args.trace_equivalence else "outcome"
    start = time.perf_counter()
    result = campaign(
        range(args.base_seed, args.base_seed + args.count),
        n_cycles=args.cycles,
        mode=mode,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    elapsed = time.perf_counter() - start
    print(
        f"{mode} mode: "
        f"{result.scenarios} scenarios, "
        f"{len(result.divergences)} divergences, "
        f"routings={sorted(r.value for r in result.routings)}, "
        f"block_modes={sorted(m.value for m in result.block_modes)}, "
        f"modes={sorted(m.value for m in result.modes)}"
    )
    print(
        f"executed {result.executed} seeds "
        f"({result.cached} cached) on {result.workers} worker(s) "
        f"in {elapsed:.2f}s"
    )
    for divergence in result.divergences:
        print(divergence)
    for failure in result.failures:
        print(f"FAILED {failure.describe()}")
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as fh:
            fh.write(result.summary_json())
        print(f"summary written to {args.summary_json}")
    return 0 if result.passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
