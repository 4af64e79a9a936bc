"""Shared Hypothesis strategies and scenario helpers for engine tests.

One place for the generators that the differential, tensor-engine and
PIFO property suites previously duplicated ad hoc:

* seed-indexed :func:`repro.core.differential.generate_scenario`
  workloads (and same-shape buckets of them),
* randomized ideal-arithmetic ``(ArchConfig, [StreamConfig])`` pairs
  for periodic runs, and the oracle replay of a periodic run
  (:func:`oracle_periodic`),
* PIFO rank-function workloads
  (:func:`repro.disciplines.pifo.generate_pifo_scenario`),
* the observable-extraction helpers the suites compare with.

Everything is deterministic in the drawn integers, so a failing
example is reproducible from the values Hypothesis prints.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
from hypothesis import strategies as st

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.differential import bucket_key, generate_scenario
from repro.core.scheduler import ShareStreamsScheduler
from repro.disciplines.pifo import generate_pifo_scenario

#: Scheduling modes the randomized configurations draw from.
MODES = (
    SchedulingMode.EDF,
    SchedulingMode.DWCS,
    SchedulingMode.FAIR_SHARE,
    SchedulingMode.STATIC_PRIORITY,
)

#: The full 32-bit scenario seed space.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def bucketed(scenarios):
    """Group scenarios by their same-shape bucket key, first-seen order."""
    buckets: dict[tuple, list] = {}
    for scenario in scenarios:
        buckets.setdefault(bucket_key(scenario), []).append(scenario)
    return buckets


def random_arch_streams(seed: int, n_slots: int):
    """A randomized ideal-arithmetic configuration for periodic runs."""
    rng = random.Random(seed)
    arch = ArchConfig(
        n_slots=n_slots,
        routing=rng.choice((Routing.WR, Routing.BA)),
        block_mode=rng.choice((BlockMode.MAX_FIRST, BlockMode.MIN_FIRST)),
        schedule=rng.choice(("bitonic", "paper")),
        wrap=False,
    )
    streams = []
    for sid in range(n_slots):
        mode = rng.choice(MODES)
        if mode in (SchedulingMode.DWCS, SchedulingMode.FAIR_SHARE):
            y = rng.randint(1, 4)
            x = rng.randint(0, y)
        else:
            x = y = 0
        streams.append(
            StreamConfig(
                sid=sid,
                period=rng.randint(1, 5),
                loss_numerator=x,
                loss_denominator=y,
                initial_deadline=rng.randint(0, 6),
                mode=mode,
            )
        )
    return arch, streams


def oracle_periodic(
    arch,
    streams,
    n_cycles,
    *,
    offsets=None,
    step=None,
    consume="winner",
    count_misses=True,
    trace_timeline=False,
):
    """The oracle's per-cycle replay of a ``run_periodic`` feed.

    Enqueues request ``k`` of every slot ``i`` at cycle ``k`` with
    deadline ``offsets[i] + k * step[i]`` and arrival ``k``, then runs
    one ``decision_cycle`` per cycle on a
    :class:`~repro.core.scheduler.ShareStreamsScheduler` whose streams
    have ``period = step``.  Defaults follow ``run_periodic``: offsets
    are the initial deadlines, steps the periods.  Returns per-slot
    ``wins``/``misses``/``serviced``/``violations``/``window_resets``
    lists plus the per-cycle ``winners`` (-1 when idle); with
    ``trace_timeline`` also the control FSM ``timeline`` as
    ``(start_cycle, cycles, state)`` entries.
    """
    n = arch.n_slots
    by_sid = {s.sid: s for s in streams}

    def per_slot(value, default):
        if value is None:
            return [default(i) for i in range(n)]
        return np.broadcast_to(np.asarray(value, dtype=np.int64), (n,)).tolist()

    offs = per_slot(
        offsets, lambda i: by_sid[i].initial_deadline if i in by_sid else 0
    )
    steps = per_slot(step, lambda i: by_sid[i].period if i in by_sid else 1)
    oracle = ShareStreamsScheduler(
        arch,
        [dataclasses.replace(s, period=steps[s.sid]) for s in streams],
        trace_timeline=trace_timeline,
    )
    winners = []
    for t in range(n_cycles):
        for sid in by_sid:
            oracle.enqueue(sid, deadline=offs[sid] + t * steps[sid], arrival=t)
        outcome = oracle.decision_cycle(
            t, consume=consume, count_misses=count_misses
        )
        winners.append(
            -1 if outcome.circulated_sid is None else outcome.circulated_sid
        )
    counters = oracle.counters()

    def column(field):
        return [
            getattr(counters[i], field) if i in counters else 0
            for i in range(n)
        ]

    replay = {
        "winners": winners,
        "wins": column("wins"),
        "misses": column("missed_deadlines"),
        "serviced": column("serviced"),
        "violations": column("violations"),
        "window_resets": column("window_resets"),
    }
    if trace_timeline:
        replay["timeline"] = timeline_entries(oracle.control)
    return replay


def timeline_entries(control):
    """A control unit's traced timeline as ``(start_cycle, cycles,
    state)`` tuples; the free-text ``detail`` is left out."""
    return [(e.start_cycle, e.cycles, e.state) for e in control.timeline]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


def stream_configs(n_slots: int = 8):
    """Strategy: one randomized :class:`StreamConfig` list of ``n_slots``."""
    return st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: random_arch_streams(seed, n_slots)[1]
    )


def arch_streams(n_slots=st.sampled_from([2, 4, 8])):
    """Strategy: a randomized ``(ArchConfig, [StreamConfig])`` pair."""
    return st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1), n_slots
    ).map(lambda t: random_arch_streams(*t))


def differential_scenarios(n_cycles: int = 1000, max_slots: int = 16):
    """Strategy: one seeded differential scenario."""
    return seeds.map(
        lambda seed: generate_scenario(
            seed, n_cycles=n_cycles, max_slots=max_slots
        )
    )


def scenario_buckets(
    n_cycles: int = 120,
    max_slots: int = 16,
    min_size: int = 2,
    max_size: int = 6,
):
    """Strategy: one *same-shape* scenario bucket (>= ``min_size``).

    Draws sibling seeds until enough scenarios share the first one's
    bucket key — the contract under which the tensor engine batches.
    """

    def build(args):
        base_seed, extra = args
        base = generate_scenario(base_seed, n_cycles=n_cycles,
                                 max_slots=max_slots)
        key = bucket_key(base)
        members = [base]
        seed = base_seed
        while len(members) < min_size + extra:
            seed += 1
            candidate = generate_scenario(seed, n_cycles=n_cycles,
                                          max_slots=max_slots)
            if bucket_key(candidate) == key:
                members.append(candidate)
        return members

    return st.tuples(
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=max_size - min_size),
    ).map(build)


def arrival_patterns(n_cycles: int = 120, n_slots: int = 8):
    """Strategy: a PIFO arrival pattern (the scenario's arrival table)."""
    return pifo_scenarios(n_cycles=n_cycles, n_slots=n_slots).map(
        lambda s: s.arrivals
    )


def pifo_scenarios(n_cycles: int = 120, n_slots: int = 8):
    """Strategy: one seeded PIFO rank-function workload."""
    return seeds.map(
        lambda seed: generate_pifo_scenario(
            seed, n_slots=n_slots, n_cycles=n_cycles
        )
    )


def aggregation_scenarios(
    n_cycles: int = 100,
    n_streams=st.integers(min_value=4, max_value=64),
    n_aggregates=st.sampled_from([2, 4, 8, 16]),
    discipline=st.sampled_from(["pifo:sfq", "pifo:fcfs", "pifo:edf", "pifo:prio"]),
    join_rate: float = 0.3,
    leave_rate: float = 0.25,
):
    """Strategy: one seeded aggregation-tier churn workload.

    Varies the stream population, aggregate count and intra-aggregate
    discipline alongside the seed, with churn rates high enough that
    join/leave interleavings (including leaves of streams with queued
    packets) appear in nearly every drawn example.
    """
    from repro.aggregation import generate_aggregation_scenario

    return st.tuples(seeds, n_streams, n_aggregates, discipline).map(
        lambda t: generate_aggregation_scenario(
            t[0],
            n_streams=t[1],
            n_aggregates=t[2],
            n_cycles=n_cycles,
            discipline=t[3],
            join_rate=join_rate,
            leave_rate=leave_rate,
        )
    )


def aggregation_buckets(
    n_cycles: int = 80,
    min_size: int = 2,
    max_size: int = 5,
):
    """Strategy: a same-shape bucket of aggregation churn scenarios.

    All members share ``(n_aggregates, discipline, salt)`` — the
    contract under which :func:`repro.aggregation.run_aggregation_bucket`
    batches rows onto one tensorized campaign — while seeds (and hence
    populations, churn interleavings and arrivals) differ.
    """
    from repro.aggregation import generate_aggregation_scenario

    def build(args):
        base_seed, size, n_aggregates, discipline = args
        return [
            generate_aggregation_scenario(
                base_seed + i,
                n_streams=8 + ((base_seed + i) % 24),
                n_aggregates=n_aggregates,
                n_cycles=n_cycles,
                discipline=discipline,
                join_rate=0.3,
                leave_rate=0.25,
            )
            for i in range(size)
        ]

    return st.tuples(
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=min_size, max_value=max_size),
        st.sampled_from([2, 4, 8]),
        st.sampled_from(["pifo:sfq", "pifo:edf"]),
    ).map(build)


def membership_interleavings(
    n_streams: int = 24,
    n_ops: int = 60,
):
    """Strategy: a raw join/leave interleaving over a small sid space.

    Emits an operation list ``[("join", sid, weight) | ("leave", sid)]``
    that is always *legal* (never joins a member twice, never removes a
    non-member) but otherwise arbitrary — the direct input for churn
    invariant tests that drive :class:`repro.aggregation.AggregationTier`
    membership without a full scenario around it.
    """

    def build(args):
        seed, n = args
        rng = random.Random(seed)
        ops = []
        members: list[int] = []
        next_sid = 0
        for _ in range(n):
            # Joins mint fresh sids (a departed stream never rejoins
            # under the same id — strict-membership semantics), capped
            # at n_streams concurrent members.
            do_join = not members or (
                len(members) < n_streams and rng.random() < 0.55
            )
            if do_join:
                ops.append(
                    ("join", next_sid, rng.choice((1, 2, 3, 4, 5, 6)))
                )
                members.append(next_sid)
                next_sid += 1
            else:
                idx = rng.randrange(len(members))
                members[idx], members[-1] = members[-1], members[idx]
                ops.append(("leave", members.pop()))
        return ops

    return st.tuples(
        seeds, st.integers(min_value=1, max_value=n_ops)
    ).map(build)
