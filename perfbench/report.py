"""Raw run files -> one CSV -> one text table per workload.

Every benchmark run writes one raw JSON under ``<out>/raw/<workload>/``.
This module flattens all of them into ``<out>/results.csv`` and
regenerates ``<out>/tables/<workload>.txt`` from that CSV: per metric,
the number of runs, median, quartiles and range, split by traced and
untraced runs.  Run it directly to rebuild the tables::

    python3 perfbench/report.py [--out perfbench/out]
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
from pathlib import Path

__all__ = ["regenerate"]

FIELDS = ("workload", "seed", "trace", "stamp", "correct", "metric", "value", "unit")


def _rows(out: Path):
    for path in sorted((out / "raw").glob("*/*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in run["metrics"].items():
            yield {
                "workload": run["workload"],
                "seed": run["seed"],
                "trace": run["trace"],
                "stamp": run["stamp"],
                "correct": run["correct"],
                "metric": name,
                "value": metric["value"],
                "unit": metric["unit"],
            }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _table(workload: str, rows: list[dict]) -> str:
    lines = [f"{workload}: runs by metric (median and quartiles over runs)", ""]
    header = f"{'metric':<34} {'trace':>5} {'runs':>4} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14}  unit"
    lines += [header, "-" * len(header)]
    groups: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["metric"], int(row["trace"])), []).append(row)
    for (metric, trace), group in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        values = [float(r["value"]) for r in group]
        q1, q3 = _quartiles(values)
        lines.append(
            f"{metric:<34} {trace:>5} {len(values):>4} {statistics.median(values):>14.6g} "
            f"{q1:>14.6g} {q3:>14.6g} {min(values):>14.6g} {max(values):>14.6g}  {group[0]['unit']}"
        )
    failed = sum(1 for r in rows if str(r["correct"]) in ("False", "false"))
    lines += ["", f"rows from runs that failed a correctness gate: {failed}"]
    return "\n".join(lines) + "\n"


def regenerate(out: Path) -> list[Path]:
    """Rebuild the CSV and every workload table from the raw files."""
    out = Path(out)
    rows = list(_rows(out))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tables = out / "tables"
    tables.mkdir(exist_ok=True)
    written = []
    for workload in sorted({r["workload"] for r in rows}):
        path = tables / f"{workload}.txt"
        path.write_text(_table(workload, [r for r in rows if r["workload"] == workload]), encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="perfbench/out", help="results directory")
    for table in regenerate(Path(parser.parse_args().out)):
        print(table)
