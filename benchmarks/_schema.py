"""Shared writer surface for every ``benchmarks/test_bench_*.py``.

One record format for every ``BENCH_*.json`` artifact (see
:mod:`repro.benchtrend` for the full schema and the trajectory built on
top of it)::

    from _schema import bench_record, write_bench

    write_bench(
        OUTPUT, "campaign",
        [bench_record("tensor_vs_serial", 26.0, "ratio",
                      scenarios=64, slots=8, direction="higher")],
        workload="S-scenario crossover sweep",
    )

Benchmarks run with ``PYTHONPATH=src``, so this is a thin re-export; it
exists (rather than importing ``repro.benchtrend`` everywhere) so the
bench suite has a single documented seam and the normalizer/trajectory
internals stay out of benchmark code.
"""

from repro.benchtrend import (
    BENCH_SCHEMA,
    bench_payload,
    bench_record,
    validate_bench,
    write_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "bench_payload",
    "bench_record",
    "validate_bench",
    "write_bench",
]
