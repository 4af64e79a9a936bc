"""Seeded churn workloads + byte-comparable replay for the tier.

A scenario is a fully materialized, deterministic event script — per
cycle: stream joins, stream leaves, packet arrivals — derived from one
integer seed.  :func:`run_aggregation` replays it on a standalone
:class:`~repro.aggregation.tier.AggregationTier` (reference or tensor
engine); :func:`run_aggregation_bucket` replays a same-shape batch of
scenarios in lockstep on one tensorized
:class:`~repro.aggregation.tier.AggregationCampaign`.  Both produce
the same canonical summary shape, engine-independent by construction,
which a ``campaign(seeds, kind=AggregationKind(...))`` run
(:func:`repro.core.differential.campaign`, :class:`AggregationKind`)
byte-compares and what the golden vectors freeze.

Summaries carry a sha256 ``service_digest`` over the *entire* service
event stream plus the first :data:`SERVICE_HEAD` events verbatim, so
golden files stay small while any divergence anywhere in the emission
order is still caught.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import ClassVar

from repro.aggregation.tier import (
    AggregationCampaign,
    AggregationTier,
    ServiceLog,
    _TierCore,
    hash_bucket,
)
from repro.core.differential import Divergence, Kind, compare_summaries

__all__ = [
    "SERVICE_HEAD",
    "AggregationScenario",
    "AggregationKind",
    "generate_aggregation_scenario",
    "run_aggregation",
    "run_aggregation_bucket",
    "summarize_tier",
]

#: Service events stored verbatim in a summary (the rest is digested).
SERVICE_HEAD = 32

#: Stream weights offered by the generator.  All divide 1500 so SFQ
#: finish-tag arithmetic stays exact on the default packet length.
_WEIGHT_CHOICES = (1, 2, 3, 4, 5, 6, 10, 12)

_LENGTH_CHOICES = (300, 600, 900, 1500)


@dataclass(frozen=True)
class AggregationScenario:
    """One deterministic churn workload for the aggregation tier.

    ``initial`` joins happen before cycle 0.  ``events[t]`` is the
    ``(joins, leaves, arrivals)`` triple applied at the start of cycle
    ``t`` — joins as ``(sid, weight)``, leaves as bare sids, arrivals
    as ``(sid, deadline, length)``.  Leaving a stream with queued
    packets is legal (its weight leaves the aggregate immediately; the
    queued packets still drain), and the generator deliberately
    produces such events.
    """

    seed: int
    n_aggregates: int
    discipline: str = "pifo:sfq"
    salt: int = 0
    initial: tuple[tuple[int, int], ...] = ()
    events: tuple[
        tuple[
            tuple[tuple[int, int], ...],
            tuple[int, ...],
            tuple[tuple[int, int, int], ...],
        ],
        ...,
    ] = field(default=())

    @property
    def n_cycles(self) -> int:
        return len(self.events)

    @property
    def total_streams(self) -> int:
        """Distinct streams that ever join."""
        return len(self.initial) + sum(len(j) for j, _, _ in self.events)

    @property
    def total_arrivals(self) -> int:
        return sum(len(a) for _, _, a in self.events)

    def describe(self) -> str:
        return (
            f"seed={self.seed} n_aggregates={self.n_aggregates} "
            f"discipline={self.discipline} salt={self.salt} "
            f"cycles={self.n_cycles} streams={self.total_streams} "
            f"arrivals={self.total_arrivals}"
        )

    def cache_payload(self) -> dict:
        """Resolved-config payload for the on-disk result cache: the
        workload and the *aggregate topology* (aggregate count,
        bucketing salt, discipline), so two topologies never collide."""
        return {
            "kind": "aggregation-scenario",
            "seed": self.seed,
            "n_aggregates": self.n_aggregates,
            "discipline": self.discipline,
            "salt": self.salt,
            "initial": [list(pair) for pair in self.initial],
            "events": [
                [
                    [list(pair) for pair in joins],
                    list(leaves),
                    [list(pkt) for pkt in arrivals],
                ]
                for joins, leaves, arrivals in self.events
            ],
        }


def generate_aggregation_scenario(
    seed: int,
    *,
    n_streams: int = 48,
    n_aggregates: int = 8,
    n_cycles: int = 160,
    discipline: str = "pifo:sfq",
    salt: int = 0,
    max_arrivals: int = 3,
    join_rate: float = 0.15,
    leave_rate: float = 0.1,
) -> AggregationScenario:
    """Derive one churn workload deterministically from ``seed``.

    ``n_streams`` streams join up front; each cycle then joins a fresh
    stream with probability ``join_rate``, removes a uniformly chosen
    *active* stream (possibly with queued packets) with probability
    ``leave_rate`` while more than one remains, and lands
    ``0..max_arrivals`` packets on uniformly chosen active streams.
    Deadlines are loosely monotone (``t + U[1, 50]``) so ``pifo:edf``
    workloads stay meaningful; the active-stream list uses swap-remove
    so generation is O(1) per event.
    """
    if n_streams < 1:
        raise ValueError("need at least one initial stream")
    rng = random.Random(seed)
    next_sid = 0
    active: list[int] = []
    initial = []
    for _ in range(n_streams):
        initial.append((next_sid, rng.choice(_WEIGHT_CHOICES)))
        active.append(next_sid)
        next_sid += 1
    events = []
    for t in range(n_cycles):
        joins = []
        leaves = []
        if rng.random() < join_rate:
            joins.append((next_sid, rng.choice(_WEIGHT_CHOICES)))
            active.append(next_sid)
            next_sid += 1
        if len(active) > 1 and rng.random() < leave_rate:
            idx = rng.randrange(len(active))
            active[idx], active[-1] = active[-1], active[idx]
            leaves.append(active.pop())
        arrivals = []
        for _ in range(rng.randint(0, max_arrivals)):
            arrivals.append(
                (
                    rng.choice(active),
                    t + rng.randint(1, 50),
                    rng.choice(_LENGTH_CHOICES),
                )
            )
        events.append((tuple(joins), tuple(leaves), tuple(arrivals)))
    return AggregationScenario(
        seed=seed,
        n_aggregates=n_aggregates,
        discipline=discipline,
        salt=salt,
        initial=tuple(initial),
        events=tuple(events),
    )


def summarize_tier(
    scenario: AggregationScenario,
    core: _TierCore,
    services: ServiceLog | list[tuple[int, int, int, int]],
) -> dict:
    """Canonical engine-independent summary of one replayed scenario.

    Everything here is derived from tier-core state and the service
    event stream ``(cycle, stream, aggregate, intra_rank)`` — nothing
    from the engine object — so reference and tensor replays of the
    same scenario produce literally the same dict.  ``cycles`` is the
    last *serving* cycle + 1 (not the replay loop length): a campaign
    row idling in lockstep while sibling rows drain must summarize
    identically to a standalone run that stopped earlier.
    """
    blob = json.dumps(services[:], separators=(",", ":")).encode()
    stats = core.stats()
    return {
        "format": 1,
        "kind": "aggregation",
        "seed": scenario.seed,
        "discipline": scenario.discipline,
        "n_aggregates": scenario.n_aggregates,
        "salt": scenario.salt,
        "streams_joined": core.joined,
        "streams_left": core.left,
        "enqueued": core.enqueued,
        "serviced": core.serviced,
        "cycles": core.last_service_cycle + 1,
        "final_vtime": core._vtime,
        "per_aggregate": {
            "members": [s.members for s in stats],
            "weight": [s.weight for s in stats],
            "enqueued": [s.enqueued for s in stats],
            "serviced": [s.serviced for s in stats],
        },
        "service_digest": hashlib.sha256(blob).hexdigest(),
        "service_head": [list(evt) for evt in services[:SERVICE_HEAD]],
    }


def _apply_cycle(members, submit, cycle: tuple) -> None:
    """Joins and leaves on ``members``, then arrivals through ``submit``."""
    joins, leaves, arrivals = cycle
    for sid, weight in joins:
        members.join(sid, weight=weight)
    for sid in leaves:
        members.leave(sid)
    for sid, deadline, length in arrivals:
        submit(sid, deadline, length)


def run_aggregation(
    scenario: AggregationScenario,
    *,
    engine: str = "reference",
    observer=None,
) -> dict:
    """Replay one scenario on a standalone tier; canonical summary."""
    tier = AggregationTier(
        scenario.n_aggregates,
        engine=engine,
        discipline=scenario.discipline,
        salt=scenario.salt,
        observer=observer,
    )
    for sid, weight in scenario.initial:
        tier.join(sid, weight=weight)
    for cycle in scenario.events:
        _apply_cycle(tier, tier.submit, cycle)
        tier.decision_cycle()
    tier.drain()
    return summarize_tier(scenario, tier.core, tier.services)


def run_aggregation_bucket(
    scenarios: list[AggregationScenario],
    *,
    observers=None,
) -> list[dict]:
    """Replay a same-shape scenario batch on one tensorized campaign.

    All scenarios must share ``(n_aggregates, discipline, salt)`` —
    the same-shape bucketing contract of the campaign engine.  Rows
    whose events end early idle in lockstep while the longest row
    finishes; the summaries are byte-identical to per-scenario
    :func:`run_aggregation` runs regardless.
    """
    if not scenarios:
        return []
    shape = (scenarios[0].n_aggregates, scenarios[0].discipline, scenarios[0].salt)
    for sc in scenarios[1:]:
        if (sc.n_aggregates, sc.discipline, sc.salt) != shape:
            raise ValueError(
                "bucket scenarios must share (n_aggregates, discipline, salt)"
            )
    campaign = AggregationCampaign(
        shape[0],
        len(scenarios),
        discipline=shape[1],
        salt=shape[2],
        observers=observers,
    )

    submits = [partial(campaign.submit, i) for i in range(len(scenarios))]
    for core, sc in zip(campaign.cores, scenarios):
        for sid, weight in sc.initial:
            core.join(sid, weight=weight)
    horizon = max(sc.n_cycles for sc in scenarios)
    for t in range(horizon):
        for core, submit, sc in zip(campaign.cores, submits, scenarios):
            if t < sc.n_cycles:
                _apply_cycle(core, submit, sc.events[t])
        campaign.decision_cycle()
    campaign.drain()
    return [
        summarize_tier(sc, campaign.cores[i], campaign.services[i])
        for i, sc in enumerate(scenarios)
    ]


@dataclass(frozen=True)
class AggregationKind(Kind):
    """Validation campaign kind for the hierarchical aggregation tier.

    Each seed's churn workload (:func:`generate_aggregation_scenario`)
    replays on a standalone reference tier and, one bucket per
    topology, on a tensorized :class:`AggregationCampaign`; the
    summaries must be byte-identical.  Invariant ``drain``: after the
    drain, serviced == enqueued == the scenario's arrivals, in total
    and per aggregate.  Cache keys carry the aggregate topology.
    """

    n_streams: int = 48
    n_aggregates: int = 8
    discipline: str = "pifo:sfq"
    salt: int = 0

    name: ClassVar[str] = "aggregation"
    axes: ClassVar[tuple[str, ...]] = ("disciplines", "aggregates")

    def generate(self, seed: int, n_cycles: int) -> AggregationScenario:
        # The kind's fields are the generator's workload parameters.
        return generate_aggregation_scenario(seed, n_cycles=n_cycles, **asdict(self))

    def bucket_key(self, scenario: AggregationScenario) -> tuple:
        return (scenario.n_aggregates, scenario.discipline, scenario.salt)

    def cache_payload(self, scenario: AggregationScenario) -> dict:
        return {
            "mode": "outcome",
            "engines": ["reference", "tensor"],
            "scenario": scenario.cache_payload(),
        }

    def coverage(self, scenario: AggregationScenario) -> dict[str, tuple[str, ...]]:
        return {
            "disciplines": (scenario.discipline,),
            "aggregates": (str(scenario.n_aggregates),),
        }

    def run_oracle(self, scenario: AggregationScenario) -> dict:
        return run_aggregation(scenario, engine="reference")

    def run_array(self, scenarios: list, *, stats, tracer) -> list:
        return run_aggregation_bucket(scenarios)

    def compare(self, scenario, oracle: dict, array: dict) -> Divergence | None:
        return compare_summaries(scenario, oracle, array)

    def invariants(self, scenario, oracle: dict) -> Divergence | None:
        arrivals = [0] * scenario.n_aggregates
        for _joins, _leaves, cycle in scenario.events:
            for sid, _deadline, _length in cycle:
                arrivals[hash_bucket(sid, len(arrivals), salt=scenario.salt)] += 1
        per = oracle["per_aggregate"]
        observed = {
            key: [oracle[key], per[key]] for key in ("enqueued", "serviced")
        }
        expected = dict.fromkeys(observed, [sum(arrivals), arrivals])
        if observed == expected:
            return None
        return Divergence(
            scenario, None, "drain", observed, expected, invariant=True
        )
