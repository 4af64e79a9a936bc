"""Canonical JSON writer for the ``BENCH_*.json`` artifacts.

Every ``benchmarks/test_bench_*.py`` that writes an artifact writes one
record per measurement::

    from _schema import bench_record, write_bench

    write_bench(
        OUTPUT, "campaign",
        [bench_record("tensor_vs_serial", 26.0, "ratio",
                      scenarios=64, slots=8, direction="higher")],
        workload="S-scenario crossover sweep",
    )

The file is written with sorted keys, ``indent=1`` and a trailing
newline, records in name order, so rewriting unchanged results leaves
it byte for byte unchanged.  The benches' own asserts are their gates;
the performance gate is ``tools/perf_pairs.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

__all__ = ["bench_record", "write_bench"]


def bench_record(
    name: str, value: float, unit: str = "", **metadata: Any
) -> dict[str, Any]:
    """One measurement: a named number with its unit and workload parameters."""
    return {"name": name, "value": value, "unit": unit, "metadata": metadata}


def write_bench(
    path: str | Path,
    bench: str,
    records: Iterable[dict[str, Any]],
    *,
    workload: str | None = None,
) -> None:
    """Write ``records`` as the artifact ``bench`` at ``path``."""
    payload: dict[str, Any] = {
        "bench": bench,
        "records": sorted(
            records,
            key=lambda r: (r["name"], json.dumps(r["metadata"], sort_keys=True)),
        ),
    }
    if workload is not None:
        payload["workload"] = workload
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
