"""Campaign throughput: tensor engine vs per-scenario execution.

Runs the identical periodic EDF campaign — S same-shape scenarios of N
streams each — three ways and reports *scenario-cycles per second*
(one scenario advancing one decision cycle = one op):

* **reference** — the cycle-level object model, one scenario at a time
  (its rate is per-scenario, independent of S);
* **serial** — one single-row :class:`CampaignEngine` per scenario,
  run serially (the per-scenario campaign shape: fast cycles, but the
  Python per-cycle loop is paid S times);
* **tensor** — one :class:`CampaignEngine` holding all S scenarios as
  rows of its ``(S, N)`` state, so the whole campaign pays the Python
  per-cycle loop once.

The crossover table lands in ``docs/ENGINES.md``; the machine-readable
results are written to ``BENCH_CAMPAIGN.json`` at the repo root (CI
uploads it as an artifact).  The assert pins the acceptance bar:
>= 5x over serial per-scenario execution at S=64.
"""

from __future__ import annotations

import time
from pathlib import Path

from _schema import bench_record, write_bench
from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import CampaignEngine

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_CAMPAIGN.json"

SCENARIO_COUNTS = (1, 16, 64)
SLOT_COUNTS = (8, 32)

#: Timed decision cycles per scenario (rates are compared, not totals;
#: the reference engine gets fewer so the harness stays fast).
_CYCLES = {8: 400, 32: 250}
_REFERENCE_CYCLES = {8: 300, 32: 120}
_WARMUP = 8


def _arch_streams(n_slots: int) -> tuple[ArchConfig, list[StreamConfig]]:
    arch = ArchConfig(n_slots=n_slots, routing=Routing.WR, wrap=False)
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
        for i in range(n_slots)
    ]
    return arch, streams


def _feed(scheduler, t: int, n_slots: int) -> None:
    for sid in range(n_slots):
        scheduler.enqueue(sid, deadline=(sid + 1) + t, arrival=t)


def _reference_rate(n_slots: int) -> float:
    """Scenario-cycles/second of the object model (per-scenario; the
    campaign runs scenarios serially so the rate is S-independent)."""
    scheduler = ShareStreamsScheduler(*_arch_streams(n_slots))
    cycles = _REFERENCE_CYCLES[n_slots]

    def run(t0: int, n: int) -> None:
        for t in range(t0, t0 + n):
            _feed(scheduler, t, n_slots)
            scheduler.decision_cycle(t, consume="winner", count_misses=True)

    run(0, _WARMUP)
    start = time.perf_counter()
    run(_WARMUP, cycles)
    return cycles / (time.perf_counter() - start)


def _serial_rate(s_count: int, n_slots: int) -> float:
    """Scenario-cycles/second of S serial one-row CampaignEngine runs."""
    arch, streams = _arch_streams(n_slots)
    cycles = _CYCLES[n_slots]
    CampaignEngine(arch, [list(streams)]).run_periodic(_WARMUP, step=1)
    engines = [CampaignEngine(arch, [list(streams)]) for _ in range(s_count)]
    start = time.perf_counter()
    for engine in engines:
        engine.run_periodic(cycles, step=1)
    return s_count * cycles / (time.perf_counter() - start)


def _tensor_rate(s_count: int, n_slots: int) -> float:
    """Scenario-cycles/second of one CampaignEngine holding S rows."""
    arch, streams = _arch_streams(n_slots)
    cycles = _CYCLES[n_slots]
    lists = [list(streams) for _ in range(s_count)]
    CampaignEngine(arch, [list(streams)]).run_periodic(_WARMUP, step=1)
    engine = CampaignEngine(arch, lists)
    start = time.perf_counter()
    engine.run_periodic(cycles, step=1)
    return s_count * cycles / (time.perf_counter() - start)


def test_campaign_engine_scaling(report):
    reference = {n: _reference_rate(n) for n in SLOT_COUNTS}
    rows = []
    records = []
    speedups = {}
    for n in SLOT_COUNTS:
        records.append(
            bench_record(
                "reference_ops", reference[n], "scenario-cycles/s",
                slots=n, direction="higher",
            )
        )
        for s in SCENARIO_COUNTS:
            ser = _serial_rate(s, n)
            ten = _tensor_rate(s, n)
            speedups[(s, n)] = ten / ser
            point = {"scenarios": s, "slots": n}
            records.extend(
                [
                    bench_record(
                        "serial_ops", ser, "scenario-cycles/s",
                        direction="higher", **point,
                    ),
                    bench_record(
                        "tensor_ops", ten, "scenario-cycles/s",
                        direction="higher", **point,
                    ),
                    bench_record(
                        "tensor_vs_serial", ten / ser, "ratio",
                        direction="higher", **point,
                    ),
                ]
            )
            rows.append(
                f"S={s:>3} N={n:>3}: reference {reference[n]:>10,.0f} | "
                f"serial {ser:>10,.0f} | tensor {ten:>10,.0f} "
                f"scenario-cyc/s | {ten / ser:>6.1f}x"
            )
    records.append(
        bench_record(
            "tensor_vs_serial_at_s64",
            max(speedups[(64, n)] for n in SLOT_COUNTS),
            "ratio",
            direction="higher",
            required=5.0,
        )
    )
    write_bench(
        OUTPUT,
        "campaign",
        records,
        workload="periodic EDF feed, one arrival per stream per "
        "decision cycle",
    )
    report("Campaign throughput: tensorized vs per-scenario", "\n".join(rows))
    # One engine instance amortizes the Python per-cycle loop across
    # all S rows; the batched evaluation must win big at campaign
    # scale (the acceptance bar for the tensor path's existence).
    for n in SLOT_COUNTS:
        assert speedups[(64, n)] >= 5.0, (
            f"tensor engine only {speedups[(64, n)]:.1f}x over "
            f"serial per-scenario runs at S=64 N={n} (need >= 5x)"
        )
