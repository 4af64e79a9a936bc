"""Crossover sweeps that place the tensor engine's shape constants.

Both array-engine entry points pick a plain-Python side or a NumPy side
by shape.  Two sweeps over S×N from 4 to 64 time both sides of each,
forcing a side by pinning its bounds, and check the side the engine
picks (:attr:`~repro.core.tensor_engine.CampaignEngine.periodic_side`,
:attr:`~repro.core.tensor_engine.CampaignEngine.cycle_side`):

* :meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic` runs
  the plain-Python whole-run driver when the campaign holds at most
  ``PERIODIC_MAX_ROWS`` rows and ``PERIODIC_MAX_CELLS`` scenario-slots,
  and the NumPy loop otherwise.  The periodic sweep times both sides on
  the same periodic feed.
* :meth:`~repro.core.tensor_engine.CampaignEngine.decision_cycle_all`
  ranks each row in plain Python at or below ``DRIVER_MAX_CELLS``
  scenario-slots and with
  :func:`~repro.core.tensor_engine.table2_rank_order` over ``(S, N)``
  arrays above it.  The per-cycle sweep times an enqueue + decide loop
  on both sides.

``HEAD_SCAN_MIN_SLOTS``:
:func:`~repro.core.tensor_engine.table2_rank_order` with
``head_only=True`` takes each row's head from column 0 of one lexsort on
rows shorter than ``HEAD_SCAN_MIN_SLOTS`` slots and from an O(N)
masked-minimum scan on longer rows.  The lexsort's cost depends on the
keys, not just the shape, so the head sweep replays head-only rank
calls captured from the two feeds that rank heads on long rows or many
rows: ``test_bench_campaign_engine``'s periodic EDF feed (full Table 2
keys in a few long runs of equal values) at that bench's six shapes,
and the aggregation tier replaying a churn segment (deadline-only keys
in no particular order) on 64 to 2048 aggregates.  It times both sides
on the same captured calls, forcing each side by pinning the constant.

Gates:

* at every swept shape, the periodic and head dispatches pick the
  faster side.  Shapes where the two sides are within ``TIE_BAND`` of
  each other count as ties, so either pick passes there: which one wins
  flips with host noise near a crossover;
* at S=1 N=4, Table 3's shape, the driver beats the NumPy loop by more
  than ``TIE_BAND`` on both feeds: the condition under which the driver
  still pays at Table 3's shape;
* no per-cycle shape the engine ranks in Python goes to a side more
  than ``TIE_BAND`` slower, and at S=1 N=4 on the endsystem feed the
  Python rank is faster than the NumPy rank.  Shapes above
  ``DRIVER_MAX_CELLS`` where the Python rank would win are reported,
  not gated.

Two feeds generalize the Table 3 configurations to N slots: ``winner``
is max-finding (WR routing, one winner consumed per cycle) and ``block``
is block min-first (BA routing, the whole block consumed, which makes
the driver sort and replay the network every cycle, so its speedup is
lower).  The per-cycle sweep enqueues them one request per slot per
cycle and adds ``endsystem``, the Figure 8/10 card: WR over fair-share
slots at the 1:1:2:4 shares (request periods 4/4/2/1, tiled over N),
where each decision refills the winner's queue.  Each side runs
``ROUNDS`` interleaved times and the median rate counts; the per-cycle
sweep gates on the median of the per-round ratios instead, because its
runs take tens of milliseconds and a shared host changes speed between
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
from test_bench_campaign_engine import _arch_streams as campaign_arch_streams

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_SHAPE_RULES.json"

#: (S, N) shapes swept, S×N from 4 to 64, on both sides of the constant.
SHAPES = ((1, 4), (1, 8), (2, 4), (1, 16), (4, 4), (1, 32), (8, 4), (1, 64), (16, 4))

#: Head-selection feeds and their (S, N) shapes: the periodic EDF feed
#: at ``test_bench_campaign_engine``'s six shapes, and the aggregation
#: tier on one row of 64 to 2048 aggregates (1024 is perfbench's).
HEAD_SHAPES = {
    "periodic": ((1, 8), (16, 8), (64, 8), (1, 32), (16, 32), (64, 32)),
    "aggregation": tuple((1, n) for n in (64, 128, 256, 512, 1024, 2048)),
}

#: Scenario-cycles per timed run; rates are per scenario-cycle.
SCENARIO_CYCLES = 1200
ROUNDS = 5

#: Decision cycles each head feed runs, the captured calls kept per
#: shape, and the scenario-slots ranked per timed pass over them.
HEAD_CYCLES = 1000
HEAD_CALLS = 100
HEAD_CELLS = 400_000

#: Relative rate gap below which the two sides count as tied.
TIE_BAND = 0.15

#: Table 3's shape: the driver must still pay there on both feeds.
TABLE3_SHAPE = (1, 4)

#: Per-cycle feeds, and the endsystem card's request periods (shares
#: 1:1:2:4) and shape, where the Python rank must win.
CYCLE_FEEDS = ("winner", "block", "endsystem")
ENDSYSTEM_PERIODS = (4, 4, 2, 1)
ENDSYSTEM_SHAPE = (1, 4)

#: ``PERIODIC_MAX_ROWS`` and ``PERIODIC_MAX_CELLS`` values that force
#: each ``run_periodic`` side at any swept shape.
_SIDES = {"python": 1 << 30, "numpy": 0}
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
        workload="periodic Table 3 feeds generalized to N slots, plain-Python "
        "whole-run driver vs NumPy loop, per (S, N) shape; the same feeds "
        "and the endsystem 1:1:2:4 feed enqueued and decided per cycle, "
        "Python rank vs NumPy rank, per (S, N) shape; head-only Table 2 "
        "ranking on captured periodic and aggregation-tier keys, "
        "masked-minimum scan vs lexsort, per (S, N) shape",
    )


def _feed(kind: str, n: int):
    """The ``winner`` or ``block`` periodic feed at N slots."""
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
    kwargs = dict(
        offsets=np.arange(1, n + 1, dtype=np.int64),
        step=1,
        consume=consume,
        count_misses=kind == "winner",
    )
    return arch, streams, kwargs


def _unpinned(s_count: int, n: int) -> tensor_engine.CampaignEngine:
    """An S-row, N-slot campaign under the engine's own bounds, to ask
    which side each entry point picks."""
    arch = ArchConfig(n_slots=n, wrap=False, extended=n > 32)
    return tensor_engine.CampaignEngine(arch, n_scenarios=s_count)


def _pin_periodic(monkeypatch, side: str) -> None:
    """Force one ``run_periodic`` side at any swept shape."""
    monkeypatch.setattr(tensor_engine, "PERIODIC_MAX_ROWS", _SIDES[side])
    monkeypatch.setattr(tensor_engine, "PERIODIC_MAX_CELLS", _SIDES[side])


def _rate(monkeypatch, side: str, kind: str, s_count: int, n: int):
    """Scenario-cycles/s of one run on one side, and its win counts."""
    arch, streams, kwargs = _feed(kind, n)
    cycles = max(SCENARIO_CYCLES // s_count, 1)
    with monkeypatch.context() as mp:
        _pin_periodic(mp, side)
        engine = tensor_engine.CampaignEngine(arch, [streams] * s_count)
        start = time.perf_counter()
        results = engine.run_periodic(cycles, **kwargs)
        rate = s_count * cycles / (time.perf_counter() - start)
    return rate, np.stack([r.wins for r in results])


def test_driver_crossover_sweep(monkeypatch, report, bench_records):
    bounds = dict(
        periodic_max_rows=tensor_engine.PERIODIC_MAX_ROWS,
        periodic_max_cells=tensor_engine.PERIODIC_MAX_CELLS,
    )
    # Warm-up: first calls pay imports and allocator growth.
    for kind in ("winner", "block"):
        _rate(monkeypatch, "python", kind, 1, 4)

    rows = []
    misplaced = []
    speedups: dict[tuple[str, int, int], float] = {}
    for kind in ("winner", "block"):
        for s, n in SHAPES:
            picked = _unpinned(s, n).periodic_side
            rates: dict[str, list[float]] = {side: [] for side in _SIDES}
            wins = {}
            for _ in range(ROUNDS):
                for side in _SIDES:
                    rate, wins[side] = _rate(monkeypatch, side, kind, s, n)
                    rates[side].append(rate)
            np.testing.assert_array_equal(
                wins["python"], wins["numpy"],
                err_msg=f"sides diverged: {kind} S={s} N={n}",
            )
            python = statistics.median(rates["python"])
            numpy_ = statistics.median(rates["numpy"])
            speedup = python / numpy_
            speedups[(kind, s, n)] = speedup
            faster = "python" if speedup > 1.0 else "numpy"
            tied = abs(speedup - 1.0) < TIE_BAND
            if picked != faster and not tied:
                misplaced.append(f"{kind} S={s} N={n} ({speedup:.2f}x)")
            meta = dict(
                feed=kind, scenarios=s, slots=n, **bounds,
                direction="higher",
            )
            bench_records.extend([
                bench_record(
                    f"periodic_python.{kind}.s{s}n{n}",
                    python, "scenario-cycles/s", **meta,
                ),
                bench_record(
                    f"periodic_numpy.{kind}.s{s}n{n}",
                    numpy_, "scenario-cycles/s", **meta,
                ),
                bench_record(
                    f"periodic_python_vs_numpy.{kind}.s{s}n{n}",
                    speedup, "ratio", **meta,
                ),
            ])
            rows.append(
                f"{kind:<6} S={s:>2} N={n:>2} S*N={s * n:>3}  "
                f"python {python:>9,.0f}  numpy {numpy_:>9,.0f}  "
                f"{speedup:>5.2f}x  dispatch={picked}"
                + ("  (tie)" if tied else "")
            )
    rows.append(
        f"PERIODIC_MAX_ROWS={bounds['periodic_max_rows']}, "
        f"PERIODIC_MAX_CELLS={bounds['periodic_max_cells']}; "
        f"median of {ROUNDS} interleaved runs per side"
    )
    report(
        "run_periodic crossover (plain-Python driver): scenario-cycles/s",
        "\n".join(rows),
    )

    assert not misplaced, (
        "PERIODIC_MAX_ROWS/PERIODIC_MAX_CELLS send these shapes to the "
        "slower side: " + ", ".join(misplaced)
    )
    s, n = TABLE3_SHAPE
    unpaid = {
        kind: speedups[(kind, s, n)]
        for kind in ("winner", "block")
        if speedups[(kind, s, n)] <= 1.0 + TIE_BAND
    }
    assert not unpaid, (
        f"the driver no longer beats the NumPy loop by more than "
        f"{TIE_BAND:.0%} at S={s} N={n}: "
        + ", ".join(f"{kind} {x:.2f}x" for kind, x in unpaid.items())
    )


def _cycle_rate(monkeypatch, side: str, kind: str, s_count: int, n: int):
    """Scenario-cycles/s of one enqueue + decide loop on one side, and
    its final counters."""
    monkeypatch.setattr(
        tensor_engine, "DRIVER_MAX_CELLS", _CYCLE_SIDES[side]
    )
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
        arch, streams, kwargs = _feed(kind, n)
        offsets = kwargs["offsets"].tolist()
        engine = tensor_engine.CampaignEngine(arch, [streams] * s_count)
        start = time.perf_counter()
        for t in range(cycles):
            for s in rows:
                for i in range(n):
                    engine.enqueue(s, i, offsets[i] + t, t)
            engine.decision_cycle_all(
                t,
                consume=kwargs["consume"],
                count_misses=kwargs["count_misses"],
            )
    rate = s_count * cycles / (time.perf_counter() - start)
    return rate, [engine.counters(s) for s in rows]


def test_decision_cycle_crossover_sweep(monkeypatch, report, bench_records):
    limit = tensor_engine.DRIVER_MAX_CELLS
    rows = []
    misplaced = []
    python_wins_above = []
    speedups: dict[tuple[str, int, int], float] = {}
    for kind in CYCLE_FEEDS:
        for s, n in SHAPES:
            picked = _unpinned(s, n).cycle_side
            rates: dict[str, list[float]] = {side: [] for side in _CYCLE_SIDES}
            counters = {}
            for _ in range(ROUNDS):
                for side in _CYCLE_SIDES:
                    with monkeypatch.context() as mp:
                        rate, counters[side] = _cycle_rate(
                            mp, side, kind, s, n
                        )
                    rates[side].append(rate)
            assert counters["python"] == counters["numpy"], (
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
                f"{kind:<9} S={s:>2} N={n:>2} S*N={s * n:>3}  "
                f"python {python:>9,.0f}  numpy {numpy_:>9,.0f}  "
                f"{speedup:>5.2f}x  dispatch={picked}"
                + ("  (tie)" if tied else "")
            )
    rows.append(
        f"DRIVER_MAX_CELLS={limit}; enqueue + decide loop; median rate of "
        f"{ROUNDS} interleaved runs per side, median per-round ratio"
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


def _capture_heads(monkeypatch, run, limit: int) -> list[dict]:
    """Operands of the head-only rank calls ``run()`` makes, evenly
    sampled down to ``limit`` calls."""
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
        run()
    return calls[:: max(1, len(calls) // limit)][:limit]


def _periodic_heads(monkeypatch, s_count: int, n: int) -> list[dict]:
    """Head calls of ``test_bench_campaign_engine``'s periodic EDF feed."""
    arch, streams = campaign_arch_streams(n)
    engine = tensor_engine.CampaignEngine(arch, [streams] * s_count)
    # The NumPy loop ranks heads; the driver would take small shapes.
    _pin_periodic(monkeypatch, "numpy")
    return _capture_heads(
        monkeypatch,
        lambda: engine.run_periodic(HEAD_CYCLES, step=1),
        HEAD_CALLS,
    )


def _aggregation_heads(monkeypatch, s_count: int, n: int) -> list[dict]:
    """Head calls of the aggregation tier replaying a seeded churn
    segment and draining it (perfbench's ``aggregation`` workload at
    N aggregates: 0-3 submits per cycle, deadlines 1-50 cycles out,
    joins and leaves at 15% and 10% of cycles)."""
    assert s_count == 1
    rng = random.Random(n)
    population = 16 * n
    left: set[int] = set()
    tier = AggregationTier(n, engine="tensor", strict=False)
    for sid in range(population):
        tier.join(sid)

    def live() -> int:
        while True:
            sid = rng.randrange(population)
            if sid not in left:
                return sid

    def replay():
        nonlocal population
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

    return _capture_heads(monkeypatch, replay, HEAD_CALLS)


_HEAD_FEEDS = {"periodic": _periodic_heads, "aggregation": _aggregation_heads}


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
    for feed, shapes in HEAD_SHAPES.items():
        for s, n in shapes:
            calls = _HEAD_FEEDS[feed](monkeypatch, s, n)
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
