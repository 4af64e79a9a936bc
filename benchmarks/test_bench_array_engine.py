"""Engine comparison: the array engine's periodic path vs the object model.

Runs the identical periodic EDF workload (the Table 3 feed generalized
over slot count) on both engines and reports decision cycles per
second.  The object model pays per-slot, per-pass Python costs — its
cycle time grows like ``N log N`` function calls — while
:meth:`TensorScheduler.run_periodic` runs each cycle as a handful of
array operations, so the gap widens with slot count.  The asserts pin
the crossover: the array engine must win from 32 slots up and by at
least 5x at 128 slots.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import TensorScheduler

SLOT_COUNTS = (8, 32, 128, 512)

#: Timed decision cycles per engine (reference shrinks with N to keep
#: the harness fast; rates are compared, not wall-clock totals).
_REFERENCE_CYCLES = {8: 400, 32: 200, 128: 60, 512: 16}
_ARRAY_CYCLES = {8: 2000, 32: 2000, 128: 1000, 512: 400}
_WARMUP = 8


def _arch_streams(n_slots: int) -> tuple[ArchConfig, list[StreamConfig]]:
    extended = n_slots > 32
    arch = ArchConfig(
        n_slots=n_slots, routing=Routing.WR, wrap=False, extended=extended
    )
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF, extended=extended)
        for i in range(n_slots)
    ]
    return arch, streams


def _reference_rate(n_slots: int) -> float:
    """Decision cycles/second of the object model on the periodic feed."""
    scheduler = ShareStreamsScheduler(*_arch_streams(n_slots))
    cycles = _REFERENCE_CYCLES[n_slots]

    def run(t0: int, n: int) -> None:
        for t in range(t0, t0 + n):
            for sid in range(n_slots):
                scheduler.enqueue(sid, deadline=(sid + 1) + t, arrival=t)
            scheduler.decision_cycle(t, consume="winner", count_misses=True)

    run(0, _WARMUP)
    start = time.perf_counter()
    run(_WARMUP, cycles)
    return cycles / (time.perf_counter() - start)


def _array_rate(n_slots: int) -> float:
    """Decision cycles/second of ``TensorScheduler.run_periodic``."""
    offsets = np.arange(1, n_slots + 1, dtype=np.int64)
    cycles = _ARRAY_CYCLES[n_slots]
    arch, streams = _arch_streams(n_slots)

    warm = TensorScheduler(arch, streams)
    warm.run_periodic(_WARMUP, offsets=offsets, step=1)

    scheduler = TensorScheduler(arch, streams)
    start = time.perf_counter()
    scheduler.run_periodic(cycles, offsets=offsets, step=1)
    return cycles / (time.perf_counter() - start)


def test_array_engine_scaling(report):
    rows = []
    speedups = {}
    for n in SLOT_COUNTS:
        ref = _reference_rate(n)
        arr = _array_rate(n)
        speedups[n] = arr / ref
        rows.append(
            f"{n:>4} slots: reference {ref:>10,.0f} cyc/s | "
            f"array {arr:>10,.0f} cyc/s | {arr / ref:>6.1f}x"
        )
    report("Engine comparison: periodic EDF feed", "\n".join(rows))
    # The object model may win at tiny N (array-op overhead dominates);
    # from 32 slots up the array engine must win, and by a wide margin
    # at experiment scale.
    for n in SLOT_COUNTS:
        if n >= 32:
            assert speedups[n] > 1.0, f"array engine lost at {n} slots"
    assert speedups[128] >= 5.0, (
        f"array engine only {speedups[128]:.1f}x at 128 slots (need >= 5x)"
    )
