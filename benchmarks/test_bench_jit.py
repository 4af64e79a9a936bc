"""Crossover sweeps that place the tensor engine's two shape constants.

``DRIVER_MAX_CELLS``:
:meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic` runs the
scalar whole-run driver (:func:`repro.core.jit.run_cycles`) when the
campaign holds at most ``DRIVER_MAX_CELLS`` scenario-slots (S×N) and the
NumPy loop above that.  The driver sweep times both sides on the same
periodic feed across S×N from 4 to 64, forcing each side by pinning the
constant.

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

* at every swept shape, each dispatch picks the faster side.  Shapes
  where the two sides are within ``TIE_BAND`` of each other count as
  ties, so either pick passes there: which one wins flips with host
  noise near a crossover;
* at S=1 N=4, Table 3's shape, the driver beats the NumPy loop by more
  than ``TIE_BAND`` on both feeds: the condition under which the driver
  still pays at Table 3's shape.

Two feeds generalize the Table 3 configurations to N slots: ``winner``
is max-finding (WR routing, one winner consumed per cycle) and ``block``
is block min-first (BA routing, the whole block consumed, which makes
the driver sort and replay the network every cycle, so its speedup is
lower).  Each side runs ``ROUNDS`` interleaved times and the median rate
counts; in the head sweep the best rate counts, because a head-only call
takes microseconds and a host stall can only lower its rate.  The driver
is compiled when numba is importable; its constant is placed from the
interpreted driver, so on such hosts the sweep records the driver rates
and skips the two driver gates.  The head sweep is plain NumPy and
always gated.

Results land in ``BENCH_JIT.json`` via the shared ``write_bench``
envelope; each driver record's ``mode`` metadata says whether the
driver was compiled or interpreted.
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
from repro.core.jit import NUMBA_AVAILABLE
from test_bench_campaign_engine import _arch_streams as campaign_arch_streams

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_JIT.json"

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

_MODE = "compiled" if NUMBA_AVAILABLE else "interpreted"
_SIDES = {"driver": 1 << 30, "numpy": 0}
_HEAD_SIDES = {"scan": 0, "lexsort": 1 << 30}


@pytest.fixture(scope="module")
def bench_records():
    """Records from every sweep in this module, written once at the end."""
    records: list[dict] = []
    yield records
    write_bench(
        OUTPUT,
        "jit",
        records,
        workload="periodic Table 3 feeds generalized to N slots, scalar "
        "whole-run driver vs NumPy loop, per (S, N) shape; head-only "
        "Table 2 ranking on captured periodic and aggregation-tier keys, "
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


def _rate(monkeypatch, side: str, kind: str, s_count: int, n: int):
    """Scenario-cycles/s of one run on one side, and its win counts."""
    monkeypatch.setattr(tensor_engine, "DRIVER_MAX_CELLS", _SIDES[side])
    arch, streams, kwargs = _feed(kind, n)
    cycles = max(SCENARIO_CYCLES // s_count, 1)
    engine = tensor_engine.CampaignEngine(arch, [streams] * s_count)
    start = time.perf_counter()
    results = engine.run_periodic(cycles, **kwargs)
    rate = s_count * cycles / (time.perf_counter() - start)
    return rate, np.stack([r.wins for r in results])


def test_driver_crossover_sweep(monkeypatch, report, bench_records):
    limit = tensor_engine.DRIVER_MAX_CELLS
    # Warm-up: numba compiles (or loads from its cache) on first call.
    for kind in ("winner", "block"):
        _rate(monkeypatch, "driver", kind, 1, 4)

    rows = []
    misplaced = []
    speedups: dict[tuple[str, int, int], float] = {}
    for kind in ("winner", "block"):
        for s, n in SHAPES:
            rates: dict[str, list[float]] = {side: [] for side in _SIDES}
            wins = {}
            for _ in range(ROUNDS):
                for side in _SIDES:
                    rate, wins[side] = _rate(monkeypatch, side, kind, s, n)
                    rates[side].append(rate)
            np.testing.assert_array_equal(
                wins["driver"], wins["numpy"],
                err_msg=f"sides diverged: {kind} S={s} N={n}",
            )
            driver = statistics.median(rates["driver"])
            numpy_ = statistics.median(rates["numpy"])
            speedup = driver / numpy_
            speedups[(kind, s, n)] = speedup
            picked = "driver" if s * n <= limit else "numpy"
            faster = "driver" if speedup > 1.0 else "numpy"
            tied = abs(speedup - 1.0) < TIE_BAND
            if picked != faster and not tied:
                misplaced.append(f"{kind} S={s} N={n} ({speedup:.2f}x)")
            meta = dict(
                mode=_MODE, numba=NUMBA_AVAILABLE, feed=kind,
                scenarios=s, slots=n, driver_max_cells=limit,
                direction="higher",
            )
            bench_records.extend([
                bench_record(
                    f"periodic_driver.{_MODE}.{kind}.s{s}n{n}",
                    driver, "scenario-cycles/s", **meta,
                ),
                bench_record(
                    f"periodic_numpy.{kind}.s{s}n{n}",
                    numpy_, "scenario-cycles/s", **meta,
                ),
                bench_record(
                    f"driver_vs_numpy.{_MODE}.{kind}.s{s}n{n}",
                    speedup, "ratio", **meta,
                ),
            ])
            rows.append(
                f"{kind:<6} S={s:>2} N={n:>2} S*N={s * n:>3}  "
                f"driver {driver:>9,.0f}  numpy {numpy_:>9,.0f}  "
                f"{speedup:>5.2f}x  dispatch={picked}"
                + ("  (tie)" if tied else "")
            )
    rows.append(
        f"DRIVER_MAX_CELLS={limit}; driver {_MODE} "
        f"(numba {'installed' if NUMBA_AVAILABLE else 'absent'}); "
        f"median of {ROUNDS} interleaved runs per side"
    )
    report(
        f"run_periodic crossover ({_MODE} driver): scenario-cycles/s",
        "\n".join(rows),
    )

    if NUMBA_AVAILABLE:
        pytest.skip(
            "DRIVER_MAX_CELLS is placed from the interpreted driver; "
            "rates recorded, driver gates skipped on a numba host"
        )
    assert not misplaced, (
        f"DRIVER_MAX_CELLS={limit} sends these shapes to the slower side: "
        + ", ".join(misplaced)
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
    monkeypatch.setattr(tensor_engine, "DRIVER_MAX_CELLS", 0)
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
