"""Million-stream aggregation tier: scale, churn latency, memory.

Drives one :class:`repro.aggregation.AggregationTier` (tensor engine,
1024 aggregates, non-strict membership — the production-scale mode) to
``AGG_BENCH_STREAMS`` concurrent streams (default 1,000,000; CI smoke
runs 100,000) and measures the three claims the issue pins:

* **scale** — the configured stream population is actually joined and
  concurrently resident, and a service phase runs on top of it;
* **O(1) join/leave** — per-operation churn latency measured at a
  small population and again at the full population must not grow
  with the stream count (asserted ratio bound);
* **O(aggregates) hot-path memory** — the RSS delta across the whole
  run stays under an absolute bound that a per-stream cost of even a
  hundred bytes would blow past at 1M streams (asserted).

Machine-readable results land in ``BENCH_AGGREGATION.json`` at the
repo root (CI uploads the smoke-scale artifact).
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

from _schema import bench_record, write_bench
from repro.aggregation import AggregationTier

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_AGGREGATION.json"

N_AGGREGATES = 1024

#: Stream population (override for smoke runs: AGG_BENCH_STREAMS=100000).
N_STREAMS = int(os.environ.get("AGG_BENCH_STREAMS", 1_000_000))

#: join+leave pairs per churn-latency measurement.
CHURN_OPS = 20_000

#: Packets pushed through the tier in the service phase.
SERVICE_PACKETS = 20_000

#: Hot-path memory bound: absolute, *independent of the stream count*.
#: 100 bytes/stream of hidden per-stream state would cost ~100 MB at
#: 1M streams, so staying under this bound at full scale is what
#: "memory O(aggregates)" means operationally.
RSS_BOUND_MB = 64.0

#: Churn latency at full population may exceed the small-population
#: baseline by at most this factor (O(1) means no dependence on the
#: total stream count; 4x absorbs allocator/cache noise, not growth).
CHURN_RATIO_BOUND = 4.0


def _rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found")


def _churn_latency(tier: AggregationTier, base_sid: int, ops: int) -> float:
    """Mean seconds per join+leave pair at the current population."""
    start = time.perf_counter()
    for sid in range(base_sid, base_sid + ops):
        tier.join(sid)
        tier.leave(sid, weight=1)
    return (time.perf_counter() - start) / ops


def test_million_stream_tier(report):
    rss_start = _rss_bytes()
    tier = AggregationTier(N_AGGREGATES, engine="tensor", strict=False)

    # -- population ----------------------------------------------------
    small_population = min(N_STREAMS, max(10_000, N_STREAMS // 10))
    t0 = time.perf_counter()
    for sid in range(small_population):
        tier.join(sid)
    churn_small = _churn_latency(tier, 10 * N_STREAMS, CHURN_OPS)
    for sid in range(small_population, N_STREAMS):
        tier.join(sid)
    join_seconds = time.perf_counter() - t0
    assert tier.active_members == N_STREAMS

    # -- O(1) churn: latency at full population vs small ---------------
    churn_full = _churn_latency(tier, 20 * N_STREAMS, CHURN_OPS)
    churn_ratio = churn_full / churn_small
    assert churn_ratio <= CHURN_RATIO_BOUND, (
        f"join/leave latency grew {churn_ratio:.2f}x from population "
        f"{small_population:,} to {N_STREAMS:,} — churn is not O(1)"
    )

    # -- service phase on top of the full population -------------------
    stride = max(1, N_STREAMS // SERVICE_PACKETS)
    t0 = time.perf_counter()
    for i in range(SERVICE_PACKETS):
        tier.submit((i * stride) % N_STREAMS, deadline=1 << 30)
    submit_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cycles = tier.drain()
    service_seconds = time.perf_counter() - t0
    assert tier.core.serviced == SERVICE_PACKETS
    assert cycles == SERVICE_PACKETS  # work-conserving: one per cycle

    # -- O(aggregates) hot-path memory ---------------------------------
    rss_delta = _rss_bytes() - rss_start
    assert rss_delta <= RSS_BOUND_MB * 1e6, (
        f"RSS grew {rss_delta / 1e6:.1f} MB over the run at "
        f"{N_STREAMS:,} streams (bound {RSS_BOUND_MB} MB) — hot-path "
        f"state is not O(aggregates)"
    )

    results = {
        "streams": N_STREAMS,
        "aggregates": N_AGGREGATES,
        "join_per_second": N_STREAMS / join_seconds,
        "churn_latency_small_us": churn_small * 1e6,
        "churn_latency_full_us": churn_full * 1e6,
        "churn_ratio": churn_ratio,
        "submit_per_second": SERVICE_PACKETS / submit_seconds,
        "decisions_per_second": cycles / service_seconds,
        "packets_serviced": SERVICE_PACKETS,
        "rss_delta_mb": rss_delta / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
    }
    scale = {"streams": N_STREAMS, "aggregates": N_AGGREGATES}
    write_bench(
        OUTPUT,
        "aggregation",
        [
            bench_record("streams", N_STREAMS),
            bench_record("aggregates", N_AGGREGATES),
            bench_record(
                "join_per_second", results["join_per_second"], "ops/s",
                direction="higher", **scale,
            ),
            bench_record(
                "churn_latency_small_us", churn_small * 1e6, "us",
                direction="lower", **scale,
            ),
            bench_record(
                "churn_latency_full_us", churn_full * 1e6, "us",
                direction="lower", **scale,
            ),
            bench_record(
                "churn_ratio", churn_ratio, "ratio",
                direction="lower", bound=CHURN_RATIO_BOUND, **scale,
            ),
            bench_record(
                "submit_per_second", results["submit_per_second"], "ops/s",
                direction="higher", **scale,
            ),
            bench_record(
                "decisions_per_second", results["decisions_per_second"],
                "ops/s", direction="higher", **scale,
            ),
            bench_record("packets_serviced", SERVICE_PACKETS),
            bench_record(
                "rss_delta_mb", results["rss_delta_mb"], "mb",
                direction="lower", bound=RSS_BOUND_MB, **scale,
            ),
            bench_record("peak_rss_mb", results["peak_rss_mb"], "mb", **scale),
        ],
        workload=f"{N_STREAMS} streams / {N_AGGREGATES} aggregates, "
        f"{CHURN_OPS} churn pairs, {SERVICE_PACKETS} serviced packets",
    )
    report(
        f"Aggregation tier at {N_STREAMS:,} streams / {N_AGGREGATES} aggregates",
        "\n".join(
            [
                f"joins:     {results['join_per_second']:,.0f}/s "
                f"({join_seconds:.2f}s to populate)",
                f"churn:     {results['churn_latency_small_us']:.2f}us @ "
                f"{small_population:,} -> "
                f"{results['churn_latency_full_us']:.2f}us @ {N_STREAMS:,} "
                f"({churn_ratio:.2f}x, bound {CHURN_RATIO_BOUND}x)",
                f"service:   {results['decisions_per_second']:,.0f} "
                f"decisions/s over {cycles:,} cycles",
                f"memory:    +{results['rss_delta_mb']:.1f} MB RSS "
                f"(bound {RSS_BOUND_MB} MB), peak "
                f"{results['peak_rss_mb']:.0f} MB",
                f"artifact:  {OUTPUT.name}",
            ]
        ),
    )
