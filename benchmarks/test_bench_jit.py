"""Crossover sweep that places ``DRIVER_MAX_CELLS``.

:meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic` runs the
scalar whole-run driver (:func:`repro.core.jit.run_cycles`) when the
campaign holds at most ``DRIVER_MAX_CELLS`` scenario-slots (S×N) and the
NumPy loop above that.  This sweep times both sides on the same periodic
feed across S×N from 4 to 64, forcing each side by pinning the constant,
and gates two things:

* at every swept shape the dispatch picks the faster side.  Shapes where
  the two sides are within ``TIE_BAND`` of each other count as ties, so
  either pick passes there: at S×N = 16 the driver measured 0.93–1.30×
  the NumPy loop, and which one wins flips with host noise;
* at S=1 N=4, Table 3's shape, the driver is at least 3× the NumPy loop
  on the ``winner`` feed.

Two feeds generalize the Table 3 configurations to N slots: ``winner``
is max-finding (WR routing, one winner consumed per cycle) and ``block``
is block min-first (BA routing, the whole block consumed, which makes
the driver sort and replay the network every cycle, so its speedup is
lower).  Each side runs ``ROUNDS`` interleaved times and the median rate
counts.  The driver is compiled when numba is importable; the constant
is placed from the interpreted driver, so on such hosts the sweep
records rates and skips the placement gate.

Results land in ``BENCH_JIT.json`` via the shared ``write_bench``
envelope; each record's ``mode`` metadata says whether the driver was
compiled or interpreted.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from _schema import bench_record, write_bench
from repro.core import tensor_engine
from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.jit import NUMBA_AVAILABLE

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_JIT.json"

#: (S, N) shapes swept, S×N from 4 to 64, on both sides of the constant.
SHAPES = ((1, 4), (1, 8), (2, 4), (1, 16), (4, 4), (1, 32), (8, 4), (1, 64), (16, 4))

#: Scenario-cycles per timed run; rates are per scenario-cycle.
SCENARIO_CYCLES = 1200
ROUNDS = 5

#: Relative rate gap below which the two sides count as tied.
TIE_BAND = 0.15

#: Table 3's shape and the driver's minimum speedup there (winner feed).
TABLE3_SHAPE = (1, 4)
TABLE3_MIN_SPEEDUP = 3.0

_MODE = "compiled" if NUMBA_AVAILABLE else "interpreted"
_SIDES = {"driver": 1 << 30, "numpy": 0}


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


def test_driver_crossover_sweep(monkeypatch, report):
    limit = tensor_engine.DRIVER_MAX_CELLS
    # Warm-up: numba compiles (or loads from its cache) on first call.
    for kind in ("winner", "block"):
        _rate(monkeypatch, "driver", kind, 1, 4)

    records = []
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
            records += [
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
            ]
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

    write_bench(
        OUTPUT,
        "jit",
        records,
        workload="periodic Table 3 feeds generalized to N slots, scalar "
        "whole-run driver vs NumPy loop, per (S, N) shape",
    )
    report(
        f"run_periodic crossover ({_MODE} driver): scenario-cycles/s",
        "\n".join(rows),
    )

    if NUMBA_AVAILABLE:
        pytest.skip(
            "DRIVER_MAX_CELLS is placed from the interpreted driver; "
            "rates recorded, placement gate skipped on a numba host"
        )
    assert not misplaced, (
        f"DRIVER_MAX_CELLS={limit} sends these shapes to the slower side: "
        + ", ".join(misplaced)
    )
    s, n = TABLE3_SHAPE
    speedup = speedups[("winner", s, n)]
    assert speedup >= TABLE3_MIN_SPEEDUP, (
        f"driver managed only {speedup:.2f}x over the NumPy loop at "
        f"S={s} N={n} (gate: >= {TABLE3_MIN_SPEEDUP}x)"
    )
