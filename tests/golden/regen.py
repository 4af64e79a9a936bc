"""Golden conformance-vector generator.

Regenerates the JSON vectors in this directory from the *reference*
engine (the cycle-level object model) and the pairwise Table 2 rule
evaluator::

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden_vectors.py`` replays the vectors against **both**
engines, so the committed JSON pins the scheduler's observable
behaviour: a change that shifts any winner sequence, miss counter or
pairwise rule outcome fails the suite until the vectors are explicitly
regenerated and the diff reviewed.

Vector files
------------
``table2_rules.json``
    Pairwise attribute bundles with the expected decision and fired
    Table 2 rule (handcrafted cases for every rule + seeded random
    sweep, both serial and ideal arithmetic).
``table3_vectors.json``
    The three Table 3 configurations at reduced scale: per-cycle
    circulated-winner sequence plus final per-slot counters.
``dwcs_trace.json``
    A DWCS (window-constrained) 4-slot trace with staggered arrivals:
    per-cycle emitted block, circulated winner, serviced slots and
    misses, plus final counters — exercises the window-constraint rules
    inside a full SCHEDULE/PRIORITY_UPDATE sequence.
``decision_trace.json``
    The structured observability decision trace (``TraceRecorder``
    events) of a shortened DWCS run with drop-late enabled, plus its
    canonical JSONL serialization — pins the telemetry event schema,
    flattening order and byte-level encoding.
``pifo_vectors.json``
    Canonical run summaries of every registered programmable PIFO rank
    function (``repro.disciplines.pifo``) on seeded workloads — the
    replay test reruns them on both engines, so rank compilation
    is pinned exactly like the handwritten disciplines.
``aggregation_vectors.json``
    The hierarchical aggregation tier (``repro.aggregation``) on a
    fixed 10k-stream / 16-aggregate scenario with scripted churn
    (seeded joins/leaves interleaved with arrivals): the canonical run
    summary, including the sha256 digest of the full service stream —
    replayed on both engines, so a refactor of the hash-bucketing
    or the fair-tag arithmetic cannot silently shift emissions.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core.attributes import HardwareAttributes, SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.rules import compare_with_rule
from repro.core.scheduler import ShareStreamsScheduler

GOLDEN_DIR = Path(__file__).resolve().parent

#: Bump when the vector *format* changes (forces regen awareness).
FORMAT_VERSION = 1

_SEED = 2003_04_22  # IPPS 2003 — fixed so regeneration is reproducible

# ---------------------------------------------------------------------------
# Table 2 pairwise rule vectors
# ---------------------------------------------------------------------------

_ATTR_FIELDS = ("sid", "deadline", "loss_numerator", "loss_denominator", "arrival", "valid")


def _attrs_to_dict(a: HardwareAttributes) -> dict:
    return {f: getattr(a, f) for f in _ATTR_FIELDS}


def _attrs_from_dict(d: dict) -> HardwareAttributes:
    return HardwareAttributes(**d)


def _handcrafted_pairs() -> list[tuple[HardwareAttributes, HardwareAttributes, bool, bool]]:
    """One canonical pair per Table 2 rule (and the serial-wrap case)."""
    A = HardwareAttributes
    return [
        # VALIDITY: only b holds an eligible packet.
        (A(sid=0, deadline=5, valid=False), A(sid=1, deadline=9), True, False),
        # EARLIEST_DEADLINE, plain.
        (A(sid=0, deadline=10, arrival=3), A(sid=1, deadline=11, arrival=2), True, False),
        # EARLIEST_DEADLINE across the 16-bit wrap: 65530 precedes 2 serially.
        (A(sid=0, deadline=65530), A(sid=1, deadline=2), True, False),
        # ... but follows it in ideal arithmetic.
        (A(sid=0, deadline=65530), A(sid=1, deadline=2), False, False),
        # LOWEST_WINDOW_CONSTRAINT: 1/4 < 1/2.
        (
            A(sid=0, deadline=7, loss_numerator=1, loss_denominator=4),
            A(sid=1, deadline=7, loss_numerator=1, loss_denominator=2),
            True,
            False,
        ),
        # LOWEST_WINDOW_CONSTRAINT: one zero constraint orders first.
        (
            A(sid=0, deadline=7, loss_numerator=0, loss_denominator=3),
            A(sid=1, deadline=7, loss_numerator=1, loss_denominator=2),
            True,
            False,
        ),
        # HIGHEST_DENOMINATOR_ZERO_WC: both zero, larger y' first.
        (
            A(sid=0, deadline=7, loss_numerator=0, loss_denominator=3),
            A(sid=1, deadline=7, loss_numerator=0, loss_denominator=9),
            True,
            False,
        ),
        # LOWEST_NUMERATOR_EQUAL_WC: 2/4 == 3/6, lower x' first.
        (
            A(sid=0, deadline=7, loss_numerator=3, loss_denominator=6),
            A(sid=1, deadline=7, loss_numerator=2, loss_denominator=4),
            True,
            False,
        ),
        # FCFS: total attribute tie except arrival.
        (
            A(sid=0, deadline=7, arrival=5),
            A(sid=1, deadline=7, arrival=4),
            True,
            False,
        ),
        # STREAM_ID: total tie, wired index decides.
        (A(sid=1, deadline=7, arrival=4), A(sid=0, deadline=7, arrival=4), True, False),
        # deadline_only: window fields ignored, FCFS resolves.
        (
            A(sid=0, deadline=7, loss_numerator=1, loss_denominator=2, arrival=9),
            A(sid=1, deadline=7, loss_numerator=0, loss_denominator=5, arrival=1),
            True,
            True,
        ),
    ]


def build_table2_cases(n_random: int = 200) -> dict:
    """Handcrafted + seeded-random pairwise cases with expected outcomes."""
    rng = random.Random(_SEED)
    pairs = list(_handcrafted_pairs())
    for _ in range(n_random):
        # Cluster deadlines/arrivals so the deeper rules actually fire.
        def bundle(sid: int) -> HardwareAttributes:
            return HardwareAttributes(
                sid=sid,
                deadline=rng.choice([rng.randrange(65536), rng.randrange(4)]),
                loss_numerator=rng.choice([0, 0, rng.randrange(256)]),
                loss_denominator=rng.choice([0, rng.randrange(256)]),
                arrival=rng.choice([rng.randrange(65536), rng.randrange(4)]),
                valid=rng.random() > 0.1,
            )

        pairs.append(
            (bundle(0), bundle(1), rng.random() > 0.25, rng.random() > 0.8)
        )
    cases = []
    for a, b, wrap, deadline_only in pairs:
        result, rule = compare_with_rule(a, b, wrap=wrap, deadline_only=deadline_only)
        cases.append(
            {
                "a": _attrs_to_dict(a),
                "b": _attrs_to_dict(b),
                "wrap": wrap,
                "deadline_only": deadline_only,
                "result": result,
                "rule": rule.value,
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "seed": _SEED,
        "description": "Table 2 pairwise decision-rule conformance vectors",
        "cases": cases,
    }


# ---------------------------------------------------------------------------
# Table 3 configuration traces
# ---------------------------------------------------------------------------

TABLE3_FRAMES = 300  # frames per stream at golden scale
_TABLE3_CONFIGS = {
    "max_finding": {
        "routing": "wr",
        "block_mode": "max_first",
        "consume": "winner",
        "count_misses": True,
        "cycles_factor": 4,  # 4 requests/cycle, one serviced
    },
    "block_max_first": {
        "routing": "ba",
        "block_mode": "max_first",
        "consume": "block",
        "count_misses": False,
        "cycles_factor": 1,
    },
    "block_min_first": {
        "routing": "ba",
        "block_mode": "min_first",
        "consume": "block",
        "count_misses": False,
        "cycles_factor": 1,
    },
}


def table3_arch_streams(spec: dict) -> tuple[ArchConfig, list[StreamConfig]]:
    arch = ArchConfig(
        n_slots=4,
        routing=Routing(spec["routing"]),
        block_mode=BlockMode(spec["block_mode"]),
        wrap=False,
    )
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF) for i in range(4)
    ]
    return arch, streams


def _table3_scheduler(spec: dict) -> ShareStreamsScheduler:
    return ShareStreamsScheduler(*table3_arch_streams(spec))


def build_table3_vectors(frames_per_stream: int = TABLE3_FRAMES) -> dict:
    """Reference-engine winner sequences + counters for all three configs."""
    configs = {}
    for name, spec in _TABLE3_CONFIGS.items():
        scheduler = _table3_scheduler(spec)
        n_cycles = spec["cycles_factor"] * frames_per_stream
        winners: list[int] = []
        for t in range(n_cycles):
            for sid in range(4):
                scheduler.enqueue(sid, deadline=(sid + 1) + t, arrival=t)
            outcome = scheduler.decision_cycle(
                t, consume=spec["consume"], count_misses=spec["count_misses"]
            )
            winners.append(
                -1 if outcome.circulated_sid is None else outcome.circulated_sid
            )
        counters = scheduler.counters()
        configs[name] = {
            **spec,
            "n_cycles": n_cycles,
            "winners": winners,
            "wins": [counters[s].wins for s in range(4)],
            "missed": [counters[s].missed_deadlines for s in range(4)],
            "serviced": [counters[s].serviced for s in range(4)],
        }
    return {
        "format_version": FORMAT_VERSION,
        "description": "Table 3 configuration traces (reference engine)",
        "frames_per_stream": frames_per_stream,
        "configs": configs,
    }


# ---------------------------------------------------------------------------
# DWCS window-constrained sequence trace
# ---------------------------------------------------------------------------

DWCS_CYCLES = 96
#: (loss_numerator, loss_denominator) per slot — mixed zero/non-zero so
#: every window rule (and window resets/violations) participates.
DWCS_WINDOWS = ((1, 2), (1, 4), (3, 4), (0, 3))


def dwcs_arch_streams() -> tuple[ArchConfig, list[StreamConfig]]:
    arch = ArchConfig(
        n_slots=4,
        routing=Routing("ba"),
        block_mode=BlockMode("max_first"),
        wrap=False,
    )
    streams = [
        StreamConfig(
            sid=i,
            period=1,
            loss_numerator=x,
            loss_denominator=y,
            mode=SchedulingMode.DWCS,
        )
        for i, (x, y) in enumerate(DWCS_WINDOWS)
    ]
    return arch, streams


def _dwcs_scheduler() -> ShareStreamsScheduler:
    return ShareStreamsScheduler(*dwcs_arch_streams())


def dwcs_arrivals(t: int) -> list[tuple[int, int, int]]:
    """Deterministic staggered arrivals: ``(sid, deadline, arrival)``.

    Slot ``s`` requests every ``s + 1`` cycles with a jittered deadline
    a few cycles out — enough contention that deadlines tie (firing the
    window rules) and some heads go late (firing loss updates).
    """
    out = []
    for sid in range(4):
        if t % (sid + 1) == 0:
            deadline = t + 2 + (t * 7 + sid * 3) % 9
            out.append((sid, deadline, t))
    return out


def build_dwcs_trace(n_cycles: int = DWCS_CYCLES) -> dict:
    """Reference-engine DWCS trace: per-cycle block/winner/misses."""
    scheduler = _dwcs_scheduler()
    cycles = []
    for t in range(n_cycles):
        for sid, deadline, arrival in dwcs_arrivals(t):
            scheduler.enqueue(sid, deadline=deadline, arrival=arrival)
        outcome = scheduler.decision_cycle(t, consume="winner", count_misses=True)
        cycles.append(
            {
                "now": t,
                "block": list(outcome.block),
                "circulated": (
                    -1 if outcome.circulated_sid is None else outcome.circulated_sid
                ),
                "serviced": [sid for sid, _pkt in outcome.serviced],
                "misses": list(outcome.misses),
            }
        )
    counters = scheduler.counters()
    return {
        "format_version": FORMAT_VERSION,
        "description": "DWCS window-constrained conformance trace",
        "windows": [list(w) for w in DWCS_WINDOWS],
        "n_cycles": n_cycles,
        "cycles": cycles,
        "wins": [counters[s].wins for s in range(4)],
        "missed": [counters[s].missed_deadlines for s in range(4)],
        "violations": [counters[s].violations for s in range(4)],
        "window_resets": [counters[s].window_resets for s in range(4)],
    }


# ---------------------------------------------------------------------------
# observability decision trace
# ---------------------------------------------------------------------------

DECISION_TRACE_CYCLES = 48


def build_decision_trace(n_cycles: int = DECISION_TRACE_CYCLES) -> dict:
    """Reference-engine telemetry trace of the DWCS workload.

    Alternates the drop-late policy (on every third cycle) so all
    three event kinds (decide / miss / drop) appear — drop-late sheds
    late heads *before* miss registration, so a pure drop-late run
    would never record a miss.  Stores both the event dicts and the
    canonical JSONL serialization; the replay test asserts byte
    identity against both engines.
    """
    from repro.observability import TraceRecorder

    recorder = TraceRecorder()
    scheduler = ShareStreamsScheduler(*dwcs_arch_streams(), observer=recorder)
    for t in range(n_cycles):
        for sid, deadline, arrival in dwcs_arrivals(t):
            scheduler.enqueue(sid, deadline=deadline, arrival=arrival)
        scheduler.decision_cycle(
            t, consume="winner", count_misses=True, drop_late=(t % 3 == 0)
        )
    return {
        "format_version": FORMAT_VERSION,
        "description": "structured observability decision-trace vector",
        "n_cycles": n_cycles,
        "events": recorder.to_dicts(),
        "jsonl": recorder.serialize().decode("utf-8"),
    }


# ---------------------------------------------------------------------------
# programmable PIFO rank-function traces
# ---------------------------------------------------------------------------

PIFO_CYCLES = 64
PIFO_SEEDS = (3, 11)


def build_pifo_vectors(
    n_cycles: int = PIFO_CYCLES, seeds: tuple[int, ...] = PIFO_SEEDS
) -> dict:
    """Reference-frontend run summaries for every registered rank function.

    Pins each rank-expressed discipline's full service order exactly
    like the handwritten disciplines' traces above; the replay test
    reruns the tensor frontend against the committed
    summaries, so PIFO compilation cannot drift on any engine.
    """
    from repro.disciplines.pifo import (
        PIFO_RANK_FUNCTIONS,
        generate_pifo_scenario,
        run_pifo,
    )

    disciplines = {}
    for name, fn in sorted(PIFO_RANK_FUNCTIONS.items()):
        runs = []
        for seed in seeds:
            scenario = generate_pifo_scenario(seed, n_cycles=n_cycles)
            runs.append(run_pifo(fn, scenario, engine="reference"))
        disciplines[name] = {
            "rank": fn.rank.describe(),
            "vclock": fn.vclock,
            "equivalent_to": fn.equivalent_to,
            "runs": runs,
        }
    return {
        "format_version": FORMAT_VERSION,
        "description": "programmable PIFO rank-function conformance vectors",
        "n_cycles": n_cycles,
        "seeds": list(seeds),
        "disciplines": disciplines,
    }


# ---------------------------------------------------------------------------
# hierarchical aggregation-tier trace
# ---------------------------------------------------------------------------

AGGREGATION_SEED = 17
AGGREGATION_STREAMS = 10_000
AGGREGATION_AGGREGATES = 16
AGGREGATION_CYCLES = 240
#: Scripted-churn shape: high join/leave rates so the fixed scenario
#: exercises leaves of backlogged streams and weight rebalancing.
AGGREGATION_CHURN = {"max_arrivals": 6, "join_rate": 0.4, "leave_rate": 0.35}


def aggregation_scenario():
    """The fixed 10k-stream / 16-aggregate scripted-churn workload."""
    from repro.aggregation import generate_aggregation_scenario

    return generate_aggregation_scenario(
        AGGREGATION_SEED,
        n_streams=AGGREGATION_STREAMS,
        n_aggregates=AGGREGATION_AGGREGATES,
        n_cycles=AGGREGATION_CYCLES,
        **AGGREGATION_CHURN,
    )


def build_aggregation_vectors() -> dict:
    """Reference-engine canonical summary of the churn workload.

    The summary's ``service_digest`` covers every service event, so
    the committed vector pins the full emission order at 10k-stream
    scale without storing it; the replay test reruns the scenario on
    both engines against the same digest.
    """
    from repro.aggregation import run_aggregation

    return {
        "format_version": FORMAT_VERSION,
        "description": "hierarchical aggregation-tier conformance vector",
        "seed": AGGREGATION_SEED,
        "n_streams": AGGREGATION_STREAMS,
        "n_aggregates": AGGREGATION_AGGREGATES,
        "n_cycles": AGGREGATION_CYCLES,
        "churn": dict(AGGREGATION_CHURN),
        "summary": run_aggregation(aggregation_scenario(), engine="reference"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

VECTORS = {
    "table2_rules.json": build_table2_cases,
    "table3_vectors.json": build_table3_vectors,
    "dwcs_trace.json": build_dwcs_trace,
    "decision_trace.json": build_decision_trace,
    "pifo_vectors.json": build_pifo_vectors,
    "aggregation_vectors.json": build_aggregation_vectors,
}


def main() -> None:
    for filename, builder in VECTORS.items():
        path = GOLDEN_DIR / filename
        payload = builder()
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path} ({path.stat().st_size:,} bytes)")


if __name__ == "__main__":
    main()
