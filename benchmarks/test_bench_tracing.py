"""Span-tracing overhead: the disabled path must stay near zero.

Every tentpole instrumentation site (pool items, bucket pre-pass,
tensor-engine phases, churn rollups) guards on one ``tracer is not
None`` test, so a run with tracing *disabled* must be indistinguishable
from the pre-instrumentation baseline.  Measured with the same
discipline as ``test_bench_monitor``: two interleaved disabled-path
series, lower-envelope minima, and the acceptance gate that their
spread stays within ``OVERHEAD_BOUND`` (<= 2% — the guard is not
allowed to cost measurable time).  The tracing-*enabled* ratio is
reported alongside (phases add two clock reads per decision cycle).

Machine-readable results land in ``BENCH_TRACING.json`` at the repo
root (``benchmarks/_schema.py`` record format; the CI ``tracing`` job
uploads it).
"""

from __future__ import annotations

import time
from pathlib import Path

from _schema import bench_record, write_bench
from repro.core.differential import bucket_key, generate_scenario, run_bucket
from repro.observability.spans import SpanTracer

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_TRACING.json"

BUCKET_SIZE = 4
CYCLES = 120
REPEATS = 3
#: Acceptance gate: the disabled path may not exceed its own interleaved
#: baseline by more than 2% (one `is not None` guard per site).
OVERHEAD_BOUND = 1.02
MAX_ATTEMPTS = 5


def _same_shape_bucket() -> list:
    """First BUCKET_SIZE generated scenarios sharing one bucket key."""
    groups: dict[tuple, list] = {}
    for seed in range(500):
        scenario = generate_scenario(seed, n_cycles=CYCLES)
        group = groups.setdefault(bucket_key(scenario), [])
        group.append(scenario)
        if len(group) == BUCKET_SIZE:
            return group
    raise AssertionError("no same-shape bucket found in 500 seeds")


def _time_bucket(scenarios, tracer) -> float:
    start = time.perf_counter()
    run_bucket(scenarios, tracer=tracer)
    return time.perf_counter() - start


def _interleaved_disabled_minima(scenarios) -> tuple[float, float, float]:
    """Minima of two interleaved tracer=None series and their spread."""
    series_a, series_b = [], []
    for _ in range(REPEATS):
        series_a.append(_time_bucket(scenarios, None))
        series_b.append(_time_bucket(scenarios, None))
    min_a, min_b = min(series_a), min(series_b)
    hi, lo = max(min_a, min_b), min(min_a, min_b)
    return lo, hi, hi / lo


def test_disabled_tracing_within_2_percent(report):
    scenarios = _same_shape_bucket()
    run_bucket(scenarios)  # warmup

    for _ in range(MAX_ATTEMPTS):
        lo, hi, spread = _interleaved_disabled_minima(scenarios)
        if spread <= OVERHEAD_BOUND:
            break

    # Enabled ratio (informational): spans recorded, phases profiled.
    enabled_runs = []
    for _ in range(REPEATS):
        tracer = SpanTracer("bench")
        enabled_runs.append(_time_bucket(scenarios, tracer))
    enabled = min(enabled_runs)
    assert tracer.records(), "enabled run recorded no spans"
    enabled_ratio = enabled / lo

    shape = {
        "scenarios": BUCKET_SIZE,
        "cycles": CYCLES,
        "slots": scenarios[0].n_slots,
    }
    write_bench(
        OUTPUT,
        "tracing",
        [
            bench_record(
                "disabled_bucket_us", lo * 1e6, "us",
                direction="lower", **shape,
            ),
            bench_record(
                "disabled_spread", spread, "ratio",
                direction="lower", bound=OVERHEAD_BOUND, **shape,
            ),
            bench_record(
                "enabled_bucket_us", enabled * 1e6, "us",
                direction="lower", **shape,
            ),
            bench_record(
                "enabled_vs_disabled", enabled_ratio, "ratio", **shape
            ),
            bench_record("spans_recorded", len(tracer.records()), **shape),
        ],
        workload=f"run_bucket: {BUCKET_SIZE} same-shape scenarios x "
        f"{CYCLES} cycles, interleaved lower-envelope minima",
    )

    report(
        "Span-tracing overhead (tensorized bucket, tracer=None vs traced)",
        "\n".join(
            [
                f"bucket:            {BUCKET_SIZE} scenarios x {CYCLES} "
                f"cycles, {scenarios[0].n_slots} slots",
                f"disabled path:     {lo * 1e6:9.1f} us (interleaved "
                f"minima spread {spread:.4f}x, bound {OVERHEAD_BOUND}x)",
                f"tracing enabled:   {enabled * 1e6:9.1f} us "
                f"({enabled_ratio:.3f}x, {len(tracer.records())} spans)",
                f"artifact:          {OUTPUT.name}",
            ]
        ),
    )

    assert spread <= OVERHEAD_BOUND, (
        f"two interleaved tracer=None runs differ by {spread:.4f}x "
        f"(bound {OVERHEAD_BOUND}x): the disabled tracing path costs "
        f"measurable time or the host is too noisy to certify it"
    )


def test_disabled_run_records_nothing(report):
    """tracer=None really is off: no contextvar leaks, no span state."""
    from repro.observability.spans import current_tracer

    scenarios = _same_shape_bucket()[:2]
    assert current_tracer() is None
    run_bucket(scenarios)
    assert current_tracer() is None
    report(
        "Disabled-path sanity",
        "run_bucket(tracer=None) leaves no active tracer and records "
        "no spans; per-site cost is one `is not None` guard",
    )
