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

Agreeing engines can still be wrong, so the oracle's run is also
checked on its own (:func:`work_conservation`).  Scenarios are
generated from a single integer seed, so any divergence is reproducible
from the seed alone.  See ``docs/ENGINES.md`` for the contract.

Both engines hand an attached observer the very
:class:`~repro.core.scheduler.DecisionOutcome` they return, so equal
cycle records imply equal telemetry: decision events, metrics and SLO
rollups are all functions of the outcome stream compared here.

:func:`campaign` is the one validation driver, over a scenario
:class:`Kind`: :class:`SchedulerKind` (default),
:class:`repro.disciplines.pifo.RankKind` (PIFO rank functions) or
:class:`repro.aggregation.AggregationKind` (the aggregation tier).  It
buckets scenarios by shape and runs every bucket as *one* tensorized
evaluation, cross-validated per scenario against the oracle.
``--workers N`` shards the buckets across cores via :mod:`repro.runner`
(merged summary byte-identical to the sequential run) and
``--cache-dir`` memoizes already-validated scenarios on disk::

    PYTHONPATH=src python -m repro.core.differential --count 200
    PYTHONPATH=src python -m repro.core.differential \\
        --count 200 --cycles 1000 --workers 4 --cache-dir .diffcache
"""

from __future__ import annotations

import json
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, NamedTuple

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.observability.spans import SpanTracer, activate_tracer, current_tracer

__all__ = [
    "Scenario",
    "CycleRecord",
    "EngineTrace",
    "Divergence",
    "SeedOutcome",
    "BucketOutcome",
    "CampaignResult",
    "Kind",
    "SchedulerKind",
    "generate_scenario",
    "build_engine",
    "run_engine",
    "bucket_key",
    "run_bucket",
    "compare_summaries",
    "work_conservation",
    "cross_validate",
    "cross_validate_bucket",
    "validate_bucket",
    "campaign",
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


class CycleRecord(NamedTuple):
    """Observable outcome of one decision cycle, engine-agnostic.

    A named tuple: a campaign builds one per scenario per cycle.
    """

    now: int
    block: tuple[int, ...]
    circulated: int | None
    serviced: tuple[tuple[int, int, int, int], ...]
    misses: tuple[int, ...]
    hw_cycles: int
    dropped: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class EngineTrace:
    """Full observable trace of one engine over one scenario.

    ``schedule`` is the replayed arrival/drop schedule (an input, never
    compared), kept so :func:`work_conservation` need not redraw it.
    """

    engine: str
    records: tuple[CycleRecord, ...]
    counters: dict[int, tuple[int, int, int, int, int, int]]
    schedule: list = field(default_factory=list, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Divergence:
    """First failed check on one scenario of any kind.

    Either the engines disagree on ``field`` (``reference``/``tensor``
    hold the two sides), or the oracle's run breaks the ``invariant``
    ``field`` (``reference``: what it did, ``tensor``: what was due).
    ``scenario`` is the kind's scenario: it has ``seed`` and
    ``describe()``.
    """

    scenario: Any
    cycle: int | None  # None: end-of-run divergence
    field: str
    reference: object
    tensor: object
    invariant: bool = False

    def __str__(self) -> str:
        where = "end of run" if self.cycle is None else f"cycle {self.cycle}"
        head, labels = (
            (f"oracle broke {self.field} at {where}", ("oracle:", "expected:"))
            if self.invariant
            else (f"engines diverged at {where} on {self.field}",
                  ("reference:", "tensor:"))
        )
        text = (
            f"{head}\n  scenario: {self.scenario.describe()}\n"
            f"  {labels[0]:<10} {self.reference!r}\n"
            f"  {labels[1]:<10} {self.tensor!r}"
        )
        if isinstance(self.scenario, Scenario):
            text += (
                "\nreproduce with: cross_validate(generate_scenario("
                f"{self.scenario.seed}))"
            )
        return text


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
        outcome.now,
        outcome.block,
        outcome.circulated_sid,
        tuple(
            (sid, p.deadline, p.arrival, p.length)
            for sid, p in outcome.serviced
        ),
        outcome.misses,
        outcome.hw_cycles,
        tuple((sid, p.deadline, p.arrival) for sid, p in outcome.dropped),
    )


def run_engine(scenario: Scenario, engine: str, *, observer=None) -> EngineTrace:
    """Execute ``scenario`` on one engine, recording every observable."""
    sched = build_engine(scenario, engine, observer=observer)
    schedule = _arrival_schedule(scenario)
    records = []
    for t, (arrivals, drop) in enumerate(schedule):
        for sid, deadline, arrival in arrivals:
            sched.enqueue(sid, deadline, arrival)
        outcome = sched.decision_cycle(
            t,
            consume=scenario.consume,
            count_misses=scenario.count_misses,
            drop_late=drop,
        )
        records.append(_cycle_record(outcome))
    return EngineTrace(
        engine, tuple(records), _counter_tuples(sched.counters()), schedule
    )


def _counter_tuples(counters) -> dict[int, tuple[int, int, int, int, int, int]]:
    return {
        sid: (
            c.wins,
            c.serviced,
            c.missed_deadlines,
            c.violations,
            c.window_resets,
            c.loads,
        )
        for sid, c in counters.items()
    }


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


def compare_summaries(
    scenario, reference: dict, tensor: dict, *, label: str = ""
) -> Divergence | None:
    """Byte comparison of two canonical run summaries; the divergence
    names the first differing key (sorted), prefixed by ``label``."""
    for key in sorted(reference.keys() | tensor.keys()):
        ref, fast = reference.get(key), tensor.get(key)
        if json.dumps(ref, sort_keys=True) != json.dumps(fast, sort_keys=True):
            return Divergence(scenario, None, label + key, ref, fast)
    return None


def work_conservation(scenario: Scenario, trace: EngineTrace) -> Divergence | None:
    """First cycle where the oracle's run is not work-conserving.

    Replays ``trace.schedule`` against the cycle records, with no engine
    state.  With any stream backlogged after the cycle's arrivals and
    drops, a winner is circulated, ``consume="winner"`` serves exactly
    one backlogged packet, ``"block"`` one per backlogged stream and
    ``"none"`` none, and under BA the block lists every backlogged
    stream.  An empty backlog serves nothing.
    """
    backlog = [0] * scenario.n_slots
    held: set[int] = set()  # streams with a queued packet
    for t, ((arrivals, _drop), record) in enumerate(
        zip(trace.schedule, trace.records)
    ):
        for sid, _deadline, _arrival in arrivals:
            backlog[sid] += 1
            held.add(sid)
        for sid, _deadline, _arrival in record.dropped:
            backlog[sid] -= 1
            if not backlog[sid]:
                held.discard(sid)
        served = sorted(packet[0] for packet in record.serviced)
        if not held:
            ok = not served and record.circulated is None
        else:
            if scenario.consume == "winner":
                ok = len(served) == 1 and served[0] in held
            else:
                ok = served == (sorted(held) if scenario.consume == "block" else [])
            ok = ok and record.circulated is not None and (
                scenario.routing is not Routing.BA or held.issubset(record.block)
            )
        if not ok:
            return Divergence(
                scenario, t, "work_conservation", record,
                {"backlogged": sorted(held), "consume": scenario.consume},
                invariant=True,
            )
        for sid in served:
            backlog[sid] -= 1
            if not backlog[sid]:
                held.discard(sid)
    return None


def cross_validate(scenario: Scenario) -> Divergence | None:
    """Run the oracle and the array engine; return the first divergence.

    ``None`` means the engines agreed on every decision cycle and on
    the final performance counters, and the oracle's run is
    work-conserving (:func:`work_conservation`).
    """
    ref = run_engine(scenario, "reference")
    fast = run_engine(scenario, "tensor")
    return _compare_traces(scenario, ref, fast) or work_conservation(
        scenario, ref
    )


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
    array pipeline.  ``observers`` (one per scenario, ``None`` entries
    allowed) get every outcome of their row, synthesized idle ones
    included.  ``stats`` (optional dict) receives
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
        EngineTrace("tensor", tuple(records[s]), _counter_tuples(engine.counters(s)))
        for s in range(n_scenarios)
    ]


# ---------------------------------------------------------------------------
# scenario kinds: what one campaign validates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SeedOutcome:
    """One seed's contribution to a campaign (picklable, cache-able).

    ``coverage`` maps each of the kind's coverage axes to the plain
    strings this seed exercised.  Only passing seeds are ever cached,
    so ``divergence`` is always ``None`` for cache hits.
    """

    seed: int
    coverage: dict[str, tuple[str, ...]]
    divergence: Divergence | None = None


class Kind(ABC):
    """One family of validation scenarios and the checks run on each.

    A kind is a small frozen dataclass (it must pickle for pool
    workers).  :func:`campaign` generates one scenario per seed, buckets
    them by :meth:`bucket_key`, caches passing seeds under
    :meth:`cache_payload`, runs each bucket once on the array engine and
    each scenario on the oracle.  A seed's divergence is the first
    engine disagreement (:meth:`compare`) or, failing none, the first
    broken invariant of the oracle's run alone (:meth:`invariants`).
    :meth:`coverage` fills the summary's ``coverage``, one key per axis.
    """

    name: ClassVar[str]
    axes: ClassVar[tuple[str, ...]]

    @abstractmethod
    def generate(self, seed: int, n_cycles: int) -> Any: ...

    @abstractmethod
    def bucket_key(self, scenario) -> tuple: ...

    @abstractmethod
    def cache_payload(self, scenario) -> dict: ...

    @abstractmethod
    def coverage(self, scenario) -> dict[str, tuple[str, ...]]: ...

    @abstractmethod
    def run_oracle(self, scenario) -> Any: ...

    @abstractmethod
    def run_array(self, scenarios: list, *, stats, tracer) -> list: ...

    @abstractmethod
    def compare(self, scenario, oracle, array) -> Divergence | None: ...

    @abstractmethod
    def invariants(self, scenario, oracle) -> Divergence | None: ...

    # "outcome" in cache namespaces, key payloads and the summary names
    # the one comparison a campaign makes; it stays so that existing
    # cache entries and summary digests keep matching.
    def namespace(self) -> str:
        return f"differential-outcome-{self.name}"

    def encode(self, outcome: SeedOutcome) -> dict:
        """JSON cache value for a *passing* seed."""
        return {"seed": outcome.seed, "coverage": outcome.coverage}

    def decode(self, value: dict) -> SeedOutcome:
        coverage = {a: tuple(v) for a, v in value["coverage"].items()}
        return SeedOutcome(int(value["seed"]), coverage)


#: Scenario and StreamConfig fields in the scheduler kind's cache
#: payload, next to the enum values of routing, block mode and mode.
_SCENARIO_PAYLOAD = (
    "seed", "n_slots", "schedule", "wrap", "extended", "n_cycles", "consume",
    "count_misses", "drop_late_prob", "arrival_prob", "max_deadline_offset",
)
_STREAM_PAYLOAD = (
    "sid", "period", "loss_numerator", "loss_denominator",
    "initial_deadline", "extended",
)


@dataclass(frozen=True)
class SchedulerKind(Kind):
    """Scheduler scenarios (:func:`generate_scenario`), the default kind.

    Bucketed by architecture shape (:func:`bucket_key`) and run through
    this module's :func:`run_engine` and :func:`run_bucket`; compared
    record for record and on the final counters; the invariant is
    :func:`work_conservation`.
    """

    name: ClassVar[str] = "scheduler"
    axes: ClassVar[tuple[str, ...]] = ("routings", "block_modes", "modes")

    def generate(self, seed: int, n_cycles: int) -> Scenario:
        return generate_scenario(seed, n_cycles=n_cycles)

    def bucket_key(self, scenario: Scenario) -> tuple:
        return bucket_key(scenario)

    def namespace(self) -> str:
        return "differential-outcome-tensor"

    def cache_payload(self, scenario: Scenario) -> dict:
        """The *resolved* scenario config and engine pair: a generator
        change that alters what a seed means changes the key."""
        config = {name: getattr(scenario, name) for name in _SCENARIO_PAYLOAD}
        config.update(
            routing=scenario.routing.value,
            block_mode=scenario.block_mode.value,
            streams=[
                {**{n: getattr(s, n) for n in _STREAM_PAYLOAD}, "mode": s.mode.value}
                for s in scenario.streams
            ],
        )
        return {"mode": "outcome", "engines": ["reference", "tensor"], "scenario": config}

    def coverage(self, scenario: Scenario) -> dict[str, tuple[str, ...]]:
        return {
            "routings": (scenario.routing.value,),
            "block_modes": (scenario.block_mode.value,),
            "modes": tuple(sorted({s.mode.value for s in scenario.streams})),
        }

    def run_oracle(self, scenario: Scenario) -> EngineTrace:
        return run_engine(scenario, "reference")

    def run_array(self, scenarios: list, *, stats, tracer) -> list:
        return run_bucket(scenarios, stats=stats, tracer=tracer)

    def compare(self, scenario: Scenario, oracle, array) -> Divergence | None:
        return _compare_traces(scenario, oracle, array)

    def invariants(self, scenario: Scenario, oracle) -> Divergence | None:
        return work_conservation(scenario, oracle)

    # The cached value keeps the flat layout it had before kinds, so an
    # entry written then still decodes to the same outcome.
    def encode(self, outcome: SeedOutcome) -> dict:
        (routing,), (block_mode,) = (
            outcome.coverage["routings"], outcome.coverage["block_modes"]
        )
        return {
            "seed": outcome.seed,
            "routing": routing,
            "block_mode": block_mode,
            "modes": list(outcome.coverage["modes"]),
        }

    def decode(self, value: dict) -> SeedOutcome:
        return SeedOutcome(
            int(value["seed"]),
            {
                "routings": (value["routing"],),
                "block_modes": (value["block_mode"],),
                "modes": tuple(value["modes"]),
            },
        )


def _scenario_cache_payload(seed: int, n_cycles: int) -> dict:
    scenario = generate_scenario(seed, n_cycles=n_cycles)
    return SchedulerKind().cache_payload(scenario)


def cross_validate_bucket(
    scenarios, *, kind: Kind = SchedulerKind(),
    stats: dict | None = None, tracer: SpanTracer | None = None,
) -> list[Divergence | None]:
    """Cross-validate a same-shape bucket: oracle vs array engine.

    The bucket runs *once* on the array engine; every scenario then
    runs on the oracle and is compared against its bucket row, and, if
    the engines agree, checked against the kind's invariants.
    """
    scenarios = list(scenarios)
    arrays = kind.run_array(scenarios, stats=stats, tracer=tracer)
    results: list[Divergence | None] = []
    for scenario, array in zip(scenarios, arrays):
        oracle = kind.run_oracle(scenario)
        results.append(
            kind.compare(scenario, oracle, array)
            or kind.invariants(scenario, oracle)
        )
    return results


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
    seeds, n_cycles: int = 1000, kind: Kind = SchedulerKind(),
) -> BucketOutcome:
    """Cross-validate one same-shape bucket of seeds tensorized.

    The sharded campaign's unit of work: regenerates the bucket's
    scenarios from the seeds and checks them with
    :func:`cross_validate_bucket`.  Also labels the bucket's execution
    telemetry (scenario/cycle/fast-forward counts) so shards merge.
    """
    from repro.observability import MetricsRegistry

    scenarios = [kind.generate(seed, n_cycles) for seed in seeds]
    stats: dict = {}
    tracer = current_tracer()
    if tracer is None:
        divergences = cross_validate_bucket(scenarios, kind=kind, stats=stats)
    else:
        with tracer.span(
            "engine_run", kind="engine-run",
            scenarios=len(scenarios), n_cycles=n_cycles, engine="tensor",
        ) as sp:
            divergences = cross_validate_bucket(
                scenarios, kind=kind, stats=stats, tracer=tracer
            )
            # Fast-forward attribution: bulk-skipped idle cycles are a
            # pure function of the workload, so they are canonical tags.
            sp.tag(
                cycles=stats.get("cycles", n_cycles * len(scenarios)),
                fast_forwarded=stats.get("fast_forwarded", 0),
            )
    registry = MetricsRegistry()
    for name, help_text, value in (
        ("differential_bucket_scenarios_total",
         "scenarios validated through the tensorized bucket path",
         len(scenarios)),
        ("differential_bucket_cycles_total",
         "scenario-cycles advanced by bucketed campaign evaluations",
         stats.get("cycles", n_cycles * len(scenarios))),
        ("differential_fast_forwarded_cycles_total",
         "idle decision cycles skipped in bulk by the campaign engine",
         stats.get("fast_forwarded", 0)),
    ):
        registry.counter(name, help_text).inc(value)
    return BucketOutcome(
        outcomes=tuple(
            SeedOutcome(scenario.seed, kind.coverage(scenario), divergence)
            for scenario, divergence in zip(scenarios, divergences)
        ),
        telemetry=registry.snapshot(),
    )


@dataclass(slots=True)
class CampaignResult:
    """Summary of a validation campaign of any kind."""

    scenarios: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    #: Coverage axis -> the values the folded seeds exercised.
    coverage: dict[str, set[str]] = field(default_factory=dict)
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

    def fold(self, outcome: SeedOutcome) -> None:
        """Add one seed's outcome (seeds fold in campaign seed order)."""
        self.scenarios += 1
        for axis, values in outcome.coverage.items():
            self.coverage.setdefault(axis, set()).update(values)
        if outcome.divergence is not None:
            self.divergences.append(outcome.divergence)

    def summary(self) -> dict:
        """Canonical merged summary (worker-count independent).

        Contains only workload-derived facts — never execution details
        like worker count or cache hits — so the ``--workers 4`` and
        ``--workers 1`` runs of the same campaign serialize to
        byte-identical JSON.
        """
        return {
            "mode": "outcome",
            "n_cycles": self.n_cycles,
            "scenarios": self.scenarios,
            "passed": self.passed,
            "coverage": {
                axis: sorted(values) for axis, values in self.coverage.items()
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

    def report(self, summary_json: str | None = None) -> bool:
        """Print the outcome and write :meth:`summary_json` to the path
        ``summary_json``, if given; returns :attr:`passed`."""
        coverage = ", ".join(
            f"{axis}={values}" for axis, values in self.summary()["coverage"].items()
        )
        print(
            f"outcome mode: {self.scenarios} scenarios x {self.n_cycles} "
            f"cycles, {len(self.divergences)} divergences, {coverage}"
        )
        for divergence in self.divergences:
            print(divergence)
        for failure in self.failures:
            print(f"FAILED {failure.describe()}")
        print(
            f"executed {self.executed} seeds ({self.cached} cached) on "
            f"{self.workers} worker(s): {'pass' if self.passed else 'FAIL'}"
        )
        if summary_json:
            with open(summary_json, "w", encoding="utf-8") as fh:
                fh.write(self.summary_json())
            print(f"summary written to {summary_json}")
        return self.passed


def campaign(
    seeds,
    *,
    kind: Kind = SchedulerKind(),
    n_cycles: int = 1000,
    engine: str = "tensor",
    workers: int | None = 1,
    cache_dir=None,
    use_cache: bool = True,
    tracer: SpanTracer | None = None,
    _task=None,
) -> CampaignResult:
    """Validate one ``kind`` scenario per seed; aggregate coverage + failures.

    Every seed's scenario runs on the oracle and, bucketed by the
    kind's shape key, on the array engine; the first engine
    disagreement or, failing none, the first broken invariant of the
    oracle's run is the seed's divergence (see :class:`Kind`).  The
    scheduler kind compares per-cycle :class:`CycleRecord` streams and
    final counters; the other kinds compare canonical run summaries.
    ``engine`` names the array engine under test; ``"tensor"`` is the
    only one.

    Seeds are first resolved against the on-disk scenario cache
    (``cache_dir``, one namespace per kind; divergent seeds
    are never cached; ``use_cache=False`` keeps the directory
    untouched).  The misses are bucketed in first-seen order and each
    bucket runs as one :func:`validate_bucket` task (``_task`` replaces
    it in tests), sharded across ``workers`` processes
    (:func:`repro.runner.run_sharded`; ``0``/``None`` = all cores).
    Outcomes fold back in seed order, so the summary is byte-identical
    for any worker count and cache state; per-bucket telemetry merges
    into ``result.telemetry``.  A bucket whose worker *dies* is reported
    in ``result.failures`` with its seeds; ``result.passed`` is then
    ``False``.

    ``tracer`` (a :class:`~repro.observability.spans.SpanTracer`) records
    the campaign as a span tree — campaign → bucket pre-pass → bucket
    spans → engine runs → engine phases — merged index-ordered, so the
    canonical tree is byte-identical for any worker count.
    """
    if engine != "tensor":
        raise ValueError(f"unknown campaign engine {engine!r}")
    seeds = list(seeds)
    if tracer is not None:
        with tracer.span(
            "campaign", kind="campaign",
            mode="outcome", engine=engine, n_cycles=n_cycles, seeds=len(seeds),
        ), activate_tracer(tracer):
            return _campaign_body(
                seeds, kind, n_cycles,
                workers, cache_dir, use_cache, tracer, _task,
            )
    return _campaign_body(
        seeds, kind, n_cycles,
        workers, cache_dir, use_cache, None, _task,
    )


def _campaign_body(
    seeds: list,
    kind: Kind,
    n_cycles: int,
    workers,
    cache_dir,
    use_cache: bool,
    tracer: SpanTracer | None,
    _task,
) -> CampaignResult:
    """The campaign after argument checks (see :func:`campaign`)."""
    from repro.observability.metrics import merge_snapshots
    from repro.runner import ResultCache, run_sharded

    result = CampaignResult(
        n_cycles=n_cycles, coverage={a: set() for a in kind.axes}
    )
    cache = None
    if cache_dir is not None and use_cache:
        cache = ResultCache(cache_dir, namespace=kind.namespace())
    outcomes: dict[int, SeedOutcome] = {}
    keys: dict[int, str] = {}

    def prepass() -> list[tuple[int, ...]]:
        """Resolve cache hits, bucket the misses by shape (first-seen
        order), filling ``outcomes``/``keys``/``result.cached``."""
        buckets: dict[tuple, list[int]] = {}
        for seed in seeds:
            scenario = kind.generate(seed, n_cycles)
            if cache is not None:
                keys[seed] = cache.key(kind.cache_payload(scenario))
                hit, value = cache.get(keys[seed])
                if hit:
                    outcomes[seed] = kind.decode(value)
                    result.cached += 1
                    continue
            buckets.setdefault(kind.bucket_key(scenario), []).append(seed)
        return [tuple(bucket) for bucket in buckets.values()]

    if tracer is None:
        items = prepass()
    else:
        with tracer.span("bucket_prepass", kind="prepass") as prep:
            items = prepass()
            prep.tag(
                seeds=len(seeds),
                cached=result.cached,
                pending=sum(len(bucket) for bucket in items),
                buckets=len(items),
            )

    pool = run_sharded(
        _task if _task is not None else validate_bucket,
        items,
        workers=workers,
        task_args=(n_cycles, kind),
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
                cache.put(keys[outcome.seed], kind.encode(outcome))
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
            result.fold(outcomes[seed])
    result.workers = pool.workers
    result.telemetry = merge_snapshots(snapshots) if snapshots else None
    return result


def main(argv=None) -> int:  # pragma: no cover - CLI convenience
    import argparse
    import time

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=1000)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard the campaign across "
        "(0 = all cores; merged summary is identical for any value)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk scenario cache: seeds whose canonical "
        "(scenario, engines, version) hash already validated are "
        "skipped on re-runs",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir (neither read nor write entries)",
    )
    parser.add_argument(
        "--summary-json", metavar="PATH", default=None,
        help="write the canonical merged campaign summary to PATH "
        "(byte-identical across --workers values)",
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = campaign(
        range(args.base_seed, args.base_seed + args.count),
        n_cycles=args.cycles,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    print(f"campaign took {time.perf_counter() - start:.2f}s")
    return 0 if result.report(args.summary_json) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
