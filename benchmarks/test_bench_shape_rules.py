"""Crossover sweeps that place the tensor engine's shape constants.

``DRIVER_MAX_CELLS``:
:meth:`~repro.core.tensor_engine.CampaignEngine.decision_cycle_all`
ranks each row in plain Python at or below ``DRIVER_MAX_CELLS``
scenario-slots and with
:func:`~repro.core.tensor_engine.table2_rank_order` over ``(S, N)``
arrays above it; the side is fixed when the engine is built.  The
per-cycle sweep over S×N from 2 to 128 times decision cycles on both
sides, forcing a side by pinning the bound, and checks the side the
engine picks
(:attr:`~repro.core.tensor_engine.CampaignEngine.cycle_side`).

``HEAD_SCAN_MIN_SLOTS``:
:func:`~repro.core.tensor_engine.table2_rank_order` with
``head_only=True`` takes each row's head from column 0 of one lexsort on
rows shorter than ``HEAD_SCAN_MIN_SLOTS`` slots and from an O(N)
masked-minimum scan on longer rows.  The lexsort's cost depends on the
keys, not just the shape, so the head sweep replays head-only rank
calls captured from the two workloads that rank heads on the NumPy
side: the ``campaign`` workload's own WR traffic
(:func:`~repro.core.differential.run_bucket` over the WR buckets of the
canonical 50-seed, 1000-cycle differential campaign; full Table 2 keys
on rows of 2 to 64 slots) and the aggregation tier replaying a churn
segment (deadline-only keys in no particular order) on 64 to 2048
aggregates.  Both captures pin the NumPy side of ``DRIVER_MAX_CELLS``,
so that every shape ranks there.  The sweep times both sides on the
same captured calls, forcing each side by pinning the constant.

Gates:

* at every swept shape, the head dispatch picks the faster side.
  Shapes where the two sides are within ``TIE_BAND`` of each other
  count as ties, so either pick passes there: which one wins flips with
  host noise near a crossover;
* no per-cycle shape the engine ranks in Python goes to a side more
  than ``TIE_BAND`` slower, and at S=1 N=4 on the endsystem feed the
  Python rank is faster than the NumPy rank.  Shapes above
  ``DRIVER_MAX_CELLS`` where the Python rank would win are reported,
  not gated.

The per-cycle sweep runs four feeds.  Two generalize the Table 3
configurations to N slots, enqueued one request per slot per cycle:
``winner`` is max-finding (WR routing, one winner consumed per cycle)
and ``block`` is block min-first (BA routing, the whole block
consumed).  ``endsystem`` is the Figure 8/10 card: WR over fair-share
slots at the 1:1:2:4 shares (request periods 4/4/2/1, tiled over N),
where each decision refills the winner's queue.  ``campaign`` is the
``campaign`` workload itself: the buckets of the canonical 50-seed,
1000-cycle differential campaign, grouped by (S, N) and each run
through :func:`~repro.core.differential.run_bucket` (idle fast-forward
included).  Each side runs ``ROUNDS`` interleaved times; the per-cycle
sweep gates on the median of the per-round ratios, because its runs
take tens of milliseconds and a shared host changes speed between
rounds; in the head sweep the best rate counts, because a head-only
call takes microseconds and a host stall can only lower its rate.

Results land in ``BENCH_SHAPE_RULES.json`` via the shared ``write_bench``
envelope.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from _schema import bench_record, write_bench
from repro.aggregation import AggregationTier
from repro.core import tensor_engine
from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.differential import bucket_key, generate_scenario, run_bucket

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_SHAPE_RULES.json"

#: (S, N) shapes of the synthetic per-cycle feeds, S×N from 4 to 128,
#: on both sides of the constant.  The ``campaign`` feed runs its own
#: buckets' shapes.
SHAPES = (
    (1, 4), (1, 8), (2, 4), (1, 16), (4, 4), (1, 32), (8, 4), (1, 64),
    (16, 4), (2, 64), (1, 128), (32, 4),
)

#: Scenario-cycles per timed run; rates are per scenario-cycle.
SCENARIO_CYCLES = 1200
ROUNDS = 5

#: The ``campaign`` workload's scenarios: seeds and cycles.
CAMPAIGN_SEEDS = 50
CAMPAIGN_CYCLES = 1000

#: The aggregation tier's row lengths (1024 is perfbench's).
AGGREGATION_SLOTS = (64, 128, 256, 512, 1024, 2048)

#: Decision cycles the aggregation feed runs, the captured calls kept
#: per shape, and the scenario-slots ranked per timed pass over them.
HEAD_CYCLES = 1000
HEAD_CALLS = 100
HEAD_CELLS = 400_000

#: Relative rate gap below which the two sides count as tied.
TIE_BAND = 0.15

#: Per-cycle feeds, and the endsystem card's request periods (shares
#: 1:1:2:4) and shape, where the Python rank must win.
CYCLE_FEEDS = ("winner", "block", "endsystem", "campaign")
ENDSYSTEM_PERIODS = (4, 4, 2, 1)
ENDSYSTEM_SHAPE = (1, 4)

_CYCLE_SIDES = {"python": 1 << 30, "numpy": 0}
_HEAD_SIDES = {"scan": 0, "lexsort": 1 << 30}


@pytest.fixture(scope="module")
def bench_records():
    """Records from every sweep in this module, written once at the end."""
    records: list[dict] = []
    yield records
    write_bench(
        OUTPUT,
        "shape_rules",
        records,
        workload="Table 3 winner/block feeds and the endsystem 1:1:2:4 feed "
        "enqueued and decided per cycle, and the campaign workload's "
        "buckets through run_bucket, Python side vs NumPy side, per (S, N) "
        "shape; head-only Table 2 ranking on keys captured from the "
        "campaign workload's WR buckets and the aggregation tier, "
        "masked-minimum scan vs lexsort, per (S, N) shape",
    )


def _feed(kind: str, n: int):
    """The ``winner`` or ``block`` Table 3 feed at N slots: the arch,
    the EDF streams (initial deadlines one apart), the consume policy
    and whether misses count."""
    routing, block_mode, consume = {
        "winner": (Routing.WR, BlockMode.MAX_FIRST, "winner"),
        "block": (Routing.BA, BlockMode.MIN_FIRST, "block"),
    }[kind]
    arch = ArchConfig(
        n_slots=n,
        routing=routing,
        block_mode=block_mode,
        wrap=False,
        extended=n > 32,
    )
    streams = [
        StreamConfig(
            sid=i,
            period=1,
            initial_deadline=i + 1,
            mode=SchedulingMode.EDF,
            extended=n > 32,
        )
        for i in range(n)
    ]
    return arch, streams, consume, kind == "winner"


def _campaign_buckets() -> dict[tuple[int, int], list[list]]:
    """The ``campaign`` workload's buckets, grouped by (S, N)."""
    buckets: dict[tuple, list] = {}
    for seed in range(CAMPAIGN_SEEDS):
        scenario = generate_scenario(seed, n_cycles=CAMPAIGN_CYCLES)
        buckets.setdefault(bucket_key(scenario), []).append(scenario)
    by_shape: dict[tuple[int, int], list[list]] = {}
    for members in buckets.values():
        shape = (len(members), members[0].n_slots)
        by_shape.setdefault(shape, []).append(members)
    return dict(sorted(by_shape.items(), key=lambda kv: (kv[0][0] * kv[0][1], kv[0])))


def _unpinned(s_count: int, n: int) -> tensor_engine.CampaignEngine:
    """An S-row, N-slot campaign under the engine's own bound, to ask
    which side ``decision_cycle_all`` picks."""
    arch = ArchConfig(n_slots=n, wrap=False, extended=n > 32)
    return tensor_engine.CampaignEngine(arch, n_scenarios=s_count)


def _cycle_rate(
    monkeypatch, side: str, kind: str, s_count: int, n: int, buckets=None
):
    """Scenario-cycles/s of one run of a feed on one side, and what it
    computed: the final counters, or the ``campaign`` buckets' traces."""
    monkeypatch.setattr(
        tensor_engine, "DRIVER_MAX_CELLS", _CYCLE_SIDES[side]
    )
    if kind == "campaign":
        start = time.perf_counter()
        traces = [run_bucket(members) for members in buckets]
        elapsed = time.perf_counter() - start
        cycles = sum(len(members) * CAMPAIGN_CYCLES for members in buckets)
        return cycles / elapsed, traces
    cycles = max(SCENARIO_CYCLES // s_count, 1)
    rows = range(s_count)
    if kind == "endsystem":
        arch = ArchConfig(
            n_slots=n, routing=Routing.WR, wrap=False, extended=n > 32
        )
        periods = [ENDSYSTEM_PERIODS[i % 4] for i in range(n)]
        streams = [
            StreamConfig(
                sid=i,
                period=periods[i],
                loss_numerator=1,
                loss_denominator=2,
                initial_deadline=0,
                mode=SchedulingMode.FAIR_SHARE,
                extended=n > 32,
            )
            for i in range(n)
        ]
        engine = tensor_engine.CampaignEngine(arch, [streams] * s_count)
        deadline = [list(periods) for _ in rows]
        for s in rows:
            for i in range(n):
                for _ in range(8):
                    engine.enqueue(s, i, deadline[s][i], 0)
                    deadline[s][i] += periods[i]
        start = time.perf_counter()
        for t in range(cycles):
            outcomes = engine.decision_cycle_all(
                t, consume="winner", count_misses=False
            )
            for s, outcome in enumerate(outcomes):
                sid = outcome.circulated_sid
                engine.enqueue(s, sid, deadline[s][sid], t)
                deadline[s][sid] += periods[sid]
    else:
        arch, streams, consume, count_misses = _feed(kind, n)
        engine = tensor_engine.CampaignEngine(arch, [streams] * s_count)
        start = time.perf_counter()
        for t in range(cycles):
            for s in rows:
                for i in range(n):
                    engine.enqueue(s, i, i + 1 + t, t)
            engine.decision_cycle_all(
                t, consume=consume, count_misses=count_misses
            )
    rate = s_count * cycles / (time.perf_counter() - start)
    return rate, [engine.counters(s) for s in rows]


def test_decision_cycle_crossover_sweep(monkeypatch, report, bench_records):
    limit = tensor_engine.DRIVER_MAX_CELLS
    rows = []
    misplaced = []
    python_wins_above = []
    speedups: dict[tuple[str, int, int], float] = {}
    campaign = _campaign_buckets()
    for kind in CYCLE_FEEDS:
        shapes = campaign if kind == "campaign" else dict.fromkeys(SHAPES)
        for (s, n), buckets in shapes.items():
            picked = _unpinned(s, n).cycle_side
            rates: dict[str, list[float]] = {side: [] for side in _CYCLE_SIDES}
            computed = {}
            for _ in range(ROUNDS):
                for side in _CYCLE_SIDES:
                    with monkeypatch.context() as mp:
                        rate, computed[side] = _cycle_rate(
                            mp, side, kind, s, n, buckets
                        )
                    rates[side].append(rate)
            assert computed["python"] == computed["numpy"], (
                f"sides diverged: {kind} S={s} N={n}"
            )
            python = statistics.median(rates["python"])
            numpy_ = statistics.median(rates["numpy"])
            # Each round times both sides back to back, so its ratio
            # cancels the host's speed; the median ratio counts.
            speedup = statistics.median(
                p / q for p, q in zip(rates["python"], rates["numpy"])
            )
            speedups[(kind, s, n)] = speedup
            tied = abs(speedup - 1.0) < TIE_BAND
            if picked == "python" and speedup < 1.0 and not tied:
                misplaced.append(f"{kind} S={s} N={n} ({speedup:.2f}x)")
            if picked == "numpy" and speedup > 1.0:
                python_wins_above.append(f"{kind} S={s} N={n} ({speedup:.2f}x)")
            meta = dict(
                feed=kind, scenarios=s, slots=n, driver_max_cells=limit,
                direction="higher",
            )
            bench_records.extend([
                bench_record(
                    f"cycle_python.{kind}.s{s}n{n}",
                    python, "scenario-cycles/s", **meta,
                ),
                bench_record(
                    f"cycle_numpy.{kind}.s{s}n{n}",
                    numpy_, "scenario-cycles/s", **meta,
                ),
                bench_record(
                    f"cycle_python_vs_numpy.{kind}.s{s}n{n}",
                    speedup, "ratio", **meta,
                ),
            ])
            rows.append(
                f"{kind:<9} S={s:>2} N={n:>3} S*N={s * n:>3}  "
                f"python {python:>9,.0f}  numpy {numpy_:>9,.0f}  "
                f"{speedup:>5.2f}x  dispatch={picked}"
                + ("  (tie)" if tied else "")
            )
    rows.append(
        f"DRIVER_MAX_CELLS={limit}; enqueue + decide loop (campaign: "
        f"run_bucket per bucket); median rate of {ROUNDS} interleaved runs "
        "per side, median per-round ratio"
    )
    rows.append(
        "Python rank faster above DRIVER_MAX_CELLS (not gated): "
        + (", ".join(python_wins_above) or "none")
    )
    report("decision_cycle_all crossover: scenario-cycles/s", "\n".join(rows))

    assert not misplaced, (
        f"DRIVER_MAX_CELLS={limit} sends these per-cycle shapes to the "
        "slower side: " + ", ".join(misplaced)
    )
    s, n = ENDSYSTEM_SHAPE
    endsystem = speedups[("endsystem", s, n)]
    assert endsystem > 1.0, (
        f"the Python rank no longer beats the NumPy rank at S={s} N={n} "
        f"on the endsystem feed ({endsystem:.2f}x)"
    )


def _capture_heads(monkeypatch, run) -> list[dict]:
    """Operands of the head-only rank calls ``run()`` makes with the
    NumPy side pinned, so that it ranks every row shape with
    :func:`~repro.core.tensor_engine.table2_rank_order` whatever
    ``DRIVER_MAX_CELLS`` is."""
    calls: list[dict] = []
    rank = tensor_engine.table2_rank_order

    def recording(**operands):
        if operands.get("head_only"):
            calls.append({
                k: v.copy() if isinstance(v, np.ndarray) else v
                for k, v in operands.items()
            })
        return rank(**operands)

    with monkeypatch.context() as mp:
        mp.setattr(tensor_engine, "table2_rank_order", recording)
        mp.setattr(tensor_engine, "DRIVER_MAX_CELLS", 0)
        run()
    return calls


def _sampled(calls: list[dict]) -> list[dict]:
    """``calls`` evenly sampled down to ``HEAD_CALLS``."""
    return calls[:: max(1, len(calls) // HEAD_CALLS)][:HEAD_CALLS]


def _campaign_heads(monkeypatch) -> dict[tuple[int, int], list[dict]]:
    """Head calls of the ``campaign`` workload's WR buckets, by (S, N);
    buckets of one shape pool theirs."""
    by_shape: dict[tuple[int, int], list[dict]] = {}
    for shape, buckets in _campaign_buckets().items():
        for members in buckets:
            if members[0].routing is Routing.WR:
                calls = _capture_heads(monkeypatch, lambda: run_bucket(members))
                by_shape.setdefault(shape, []).extend(calls)
    return {shape: _sampled(calls) for shape, calls in sorted(by_shape.items())}


def _aggregation_heads(monkeypatch, n: int) -> list[dict]:
    """Head calls of the aggregation tier replaying a seeded churn
    segment and draining it (perfbench's ``aggregation`` workload at
    N aggregates: 0-3 submits per cycle, deadlines 1-50 cycles out,
    joins and leaves at 15% and 10% of cycles)."""
    rng = random.Random(n)
    population = 16 * n
    left: set[int] = set()

    def live() -> int:
        while True:
            sid = rng.randrange(population)
            if sid not in left:
                return sid

    def replay():
        # Built here, where the capture pins the engine's side.
        nonlocal population
        tier = AggregationTier(n, engine="tensor", strict=False)
        for sid in range(population):
            tier.join(sid)
        for t in range(HEAD_CYCLES):
            if rng.random() < 0.15:
                tier.join(population)
                population += 1
            if rng.random() < 0.1:
                sid = live()
                left.add(sid)
                tier.leave(sid)
            for _ in range(rng.randint(0, 3)):
                tier.submit(
                    live(), t + rng.randint(1, 50),
                    rng.choice((300, 600, 900, 1500)),
                )
            tier.decision_cycle()
        tier.drain()

    return _sampled(_capture_heads(monkeypatch, replay))


def _head_rate(monkeypatch, side: str, calls: list[dict], reps: int):
    """Calls/s of head-only ranking on one side, and its heads."""
    monkeypatch.setattr(tensor_engine, "HEAD_SCAN_MIN_SLOTS", _HEAD_SIDES[side])
    rank = tensor_engine.table2_rank_order
    start = time.perf_counter()
    for _ in range(reps):
        heads = [rank(**operands) for operands in calls]
    return reps * len(calls) / (time.perf_counter() - start), heads


def test_head_scan_crossover_sweep(monkeypatch, report, bench_records):
    limit = tensor_engine.HEAD_SCAN_MIN_SLOTS
    rows = []
    misplaced = []
    feeds = {
        "campaign": _campaign_heads(monkeypatch),
        "aggregation": {
            (1, n): _aggregation_heads(monkeypatch, n)
            for n in AGGREGATION_SLOTS
        },
    }
    for feed, by_shape in feeds.items():
        for (s, n), calls in by_shape.items():
            reps = max(HEAD_CELLS // (s * n * len(calls)), 1)
            rates: dict[str, list[float]] = {side: [] for side in _HEAD_SIDES}
            heads = {}
            for _ in range(ROUNDS):
                for side in _HEAD_SIDES:
                    rate, heads[side] = _head_rate(monkeypatch, side, calls, reps)
                    rates[side].append(rate)
            for operands, scan, lexsort in zip(
                calls, heads["scan"], heads["lexsort"]
            ):
                has_valid = ~operands["invalid"].all(axis=-1)
                np.testing.assert_array_equal(
                    scan[has_valid], lexsort[has_valid],
                    err_msg=f"sides diverged: {feed} S={s} N={n}",
                )
            scan = max(rates["scan"])
            lexsort = max(rates["lexsort"])
            speedup = scan / lexsort
            picked = "scan" if n >= limit else "lexsort"
            faster = "scan" if speedup > 1.0 else "lexsort"
            tied = abs(speedup - 1.0) < TIE_BAND
            if picked != faster and not tied:
                misplaced.append(f"{feed} S={s} N={n} ({speedup:.2f}x)")
            meta = dict(
                feed=feed, scenarios=s, slots=n,
                head_scan_min_slots=limit, direction="higher",
            )
            bench_records.extend([
                bench_record(
                    f"head_scan.{feed}.s{s}n{n}", scan, "calls/s", **meta
                ),
                bench_record(
                    f"head_lexsort.{feed}.s{s}n{n}", lexsort, "calls/s",
                    **meta,
                ),
                bench_record(
                    f"head_scan_vs_lexsort.{feed}.s{s}n{n}", speedup,
                    "ratio", **meta,
                ),
            ])
            rows.append(
                f"{feed:<11} S={s:>2} N={n:>4} S*N={s * n:>4}  "
                f"scan {scan:>9,.0f}  lexsort {lexsort:>9,.0f}  "
                f"{speedup:>5.2f}x  dispatch={picked}"
                + ("  (tie)" if tied else "")
            )
    rows.append(
        f"HEAD_SCAN_MIN_SLOTS={limit}; "
        f"best of {ROUNDS} interleaved runs per side"
    )
    report("head-only Table 2 ranking crossover: calls/s", "\n".join(rows))
    assert not misplaced, (
        f"HEAD_SCAN_MIN_SLOTS={limit} sends these shapes to the slower "
        "side: " + ", ".join(misplaced)
    )
