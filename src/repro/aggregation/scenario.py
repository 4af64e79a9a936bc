"""Seeded churn workloads + byte-comparable replay for the tier.

A scenario is a fully materialized, deterministic event script — per
cycle: stream joins, stream leaves, packet arrivals — derived from one
integer seed.  :func:`run_aggregation` replays it on a standalone
:class:`~repro.aggregation.tier.AggregationTier` (reference or batch
engine); :func:`run_aggregation_bucket` replays a same-shape batch of
scenarios in lockstep on one tensorized
:class:`~repro.aggregation.tier.AggregationCampaign`.  Both produce
the same canonical summary shape, engine-independent by construction,
which is what :func:`repro.core.differential.validate_aggregation`
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
from dataclasses import dataclass, field

from repro.aggregation.tier import (
    AggregationCampaign,
    AggregationTier,
    ServiceLog,
    _TierCore,
)

__all__ = [
    "SERVICE_HEAD",
    "AggregationScenario",
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

    def cache_payload(self) -> dict:
        """Resolved-config payload for the on-disk result cache.

        Keys the cache on the *aggregate topology* (aggregate count,
        bucketing salt, discipline) as well as the workload, so cached
        non-aggregated campaign entries can never satisfy aggregated
        lookups and two topologies never collide.
        """
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
    from the engine object — so reference/batch/tensor replays of the
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


def _apply_cycle(
    tier,
    cycle: tuple,
) -> None:
    joins, leaves, arrivals = cycle
    for sid, weight in joins:
        tier.join(sid, weight=weight)
    for sid in leaves:
        tier.leave(sid)
    for sid, deadline, length in arrivals:
        tier.submit(sid, deadline, length)


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
        _apply_cycle(tier, cycle)
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

    class _Row:
        __slots__ = ("campaign", "row")

        def __init__(self, campaign: AggregationCampaign, row: int) -> None:
            self.campaign = campaign
            self.row = row

        def join(self, sid, *, weight=None):
            return self.campaign.cores[self.row].join(sid, weight=weight)

        def leave(self, sid):
            return self.campaign.cores[self.row].leave(sid)

        def submit(self, sid, deadline, length=1500):
            self.campaign.submit(self.row, sid, deadline, length)

    rows = [_Row(campaign, i) for i in range(len(scenarios))]
    for row, sc in zip(rows, scenarios):
        for sid, weight in sc.initial:
            row.join(sid, weight=weight)
    horizon = max(sc.n_cycles for sc in scenarios)
    for t in range(horizon):
        for row, sc in zip(rows, scenarios):
            if t < sc.n_cycles:
                _apply_cycle(row, sc.events[t])
        campaign.decision_cycle()
    campaign.drain()
    return [
        summarize_tier(sc, campaign.cores[i], campaign.services[i])
        for i, sc in enumerate(scenarios)
    ]
