"""Alternating parent/change benchmark pairs and their claim table.

Usage (from anywhere inside the repository)::

    python3 tools/perf_pairs.py --workload aggregation --pairs 5 --seconds 8
    python3 tools/perf_pairs.py --workload table3 --parent main --seed 17

The parent revision (``--parent``, default ``HEAD~1``) is checked out
into a temporary ``git worktree``, which is removed on exit, failures
included.  Each pair runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py ... --trace 0``) once in that worktree and once in
the working tree, swapping which side goes first on every pair so that
slow drifts of host speed hit both sides alike.  Each side writes its
results and its own bytecode cache under the temporary directory, so
neither checkout's ``__pycache__`` takes part (``setup_s`` includes
import time), and one unrecorded single-round run per side fills that
cache before the pairs start.  A run whose result line reports
``correct: false`` or ``failed > 0`` aborts the script.

For every end-to-end metric of ``BENCHMARK.json`` the table gives the
parent and change medians, their interquartile ranges, change ÷ parent,
how many pairs the change won, and a verdict.  The margin is the
metric's relative ``bound`` times the parent median.  A metric is
``unresolved`` when either side's interquartile range is wider than the
margin and the two sides' runs overlap, that is, neither every change
run beats every parent run nor the reverse: its spread cannot tell a
move within the bound from none.  Otherwise it is ``better`` or
``worse`` when the change's median moves past the parent's by more than
the margin in that direction, and ``same`` when it does not.  The script
prints the table and exits 1 when any metric is ``worse``, so it serves
as a regression gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class RefusedRun(RuntimeError):
    """A benchmark run failed its correctness checks or printed no result."""


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric of ``BENCHMARK.json``."""

    name: str
    unit: str
    better: str  # "higher" or "lower"
    bound: float


@dataclass(frozen=True)
class Row:
    """One metric's summary over the pairs."""

    metric: Metric
    parent_median: float
    parent_iqr: float
    change_median: float
    change_iqr: float
    wins: int
    pairs: int
    verdict: str

    @property
    def ratio(self) -> float:
        """Change median ÷ parent median (``nan`` when the parent reads 0)."""
        if self.parent_median == 0:
            return float("nan")
        return self.change_median / self.parent_median


def load_metrics(benchmark: dict) -> list[Metric]:
    """The end-to-end metrics declared in a parsed ``BENCHMARK.json``."""
    return [
        Metric(m["name"], m["unit"], m["better"], float(m["bound"]))
        for m in benchmark["end_to_end"]
    ]


def parse_result(stdout: str) -> dict[str, float]:
    """Metric values from a run's result line (its last line of output).

    Raises :class:`RefusedRun` when there is no result line or it
    reports ``correct: false`` or ``failed > 0``.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct, failed = result["correct"], result["failed"]
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise RefusedRun(f"no result line in benchmark output ({exc})") from exc
    if correct is not True or failed > 0:
        raise RefusedRun(f"run reported correct={correct}, failed={failed}")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def _spread(values: list[float]) -> tuple[float, float]:
    """``(median, interquartile range)`` of ``values``."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def _beats(metric: Metric, change: float, parent: float) -> bool:
    return change > parent if metric.better == "higher" else change < parent


def verdict(metric: Metric, parent: list[float], change: list[float]) -> str:
    """One metric's verdict from its parent and change runs.

    ``unresolved`` when either side's interquartile range is wider than
    the margin (the metric's relative bound times the parent median)
    and the runs overlap; otherwise ``better``/``worse`` when the
    change's median moves past the parent's by more than the margin,
    else ``same``.
    """
    (parent_median, parent_iqr), (change_median, change_iqr) = (
        _spread(parent), _spread(change)
    )
    margin = metric.bound * abs(parent_median)
    cross = [(p, c) for p in parent for c in change]
    overlap = not (
        all(_beats(metric, c, p) for p, c in cross)
        or all(_beats(metric, p, c) for p, c in cross)
    )
    if max(parent_iqr, change_iqr) > margin and overlap:
        return "unresolved"
    if abs(change_median - parent_median) <= margin:
        return "same"
    return "better" if _beats(metric, change_median, parent_median) else "worse"


def summarize(
    metrics: list[Metric], pairs: list[tuple[dict[str, float], dict[str, float]]]
) -> list[Row]:
    """One row per metric from ``(parent, change)`` metric dicts, one per pair."""
    rows = []
    for metric in metrics:
        parent = [p[metric.name] for p, _ in pairs]
        change = [c[metric.name] for _, c in pairs]
        wins = sum(_beats(metric, c, p) for p, c in zip(parent, change))
        rows.append(
            Row(
                metric, *_spread(parent), *_spread(change), wins, len(pairs),
                verdict(metric, parent, change),
            )
        )
    return rows


def gate(rows: list[Row]) -> int:
    """The script's exit status: 1 when any metric reads ``worse``, else 0."""
    return int(any(row.verdict == "worse" for row in rows))


def _fmt(value: float) -> str:
    if value != value:  # nan
        return "n/a"
    if value == 0 or abs(value) >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render(rows: list[Row]) -> str:
    """The claim table as Markdown."""
    lines = [
        "| metric | better | bound | parent median | parent IQR "
        "| change median | change IQR | change ÷ parent | change won | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        m = row.metric
        ratio = "n/a" if row.ratio != row.ratio else f"{row.ratio:.2f}×"
        lines.append(
            f"| `{m.name}` ({m.unit}) | {m.better} | {m.bound:g} "
            f"| {_fmt(row.parent_median)} | {_fmt(row.parent_iqr)} "
            f"| {_fmt(row.change_median)} | {_fmt(row.change_iqr)} "
            f"| {ratio} | {row.wins}/{row.pairs} | {row.verdict} |"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# git and subprocess side
# ---------------------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def _run_side(
    command: list[str], checkout: Path, scratch: Path, args, seconds: float
) -> dict[str, float]:
    # Each side compiles into and reads from its own bytecode cache, so a
    # stale or missing ``__pycache__`` in either checkout cannot bias
    # ``setup_s`` (which includes import time).
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
    proc = subprocess.run(
        [
            *command,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(seconds),
            "--trace", "0",
            "--out", str(scratch / "out"),
        ],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    try:
        return parse_result(proc.stdout)
    except RefusedRun as exc:
        sys.stderr.write(proc.stderr[-2000:])
        raise RefusedRun(f"{checkout}: {exc}") from None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parent", default="HEAD~1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = load_metrics(benchmark)
    try:
        parent_sha = _git("rev-parse", "--short", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"perf_pairs: unknown revision {args.parent!r}", file=sys.stderr)
        return 2
    # A SIGTERM unwinds through ``finally`` like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = Path(tempfile.mkdtemp(prefix="perf-pairs-"))
    worktree = tmp / "checkout"
    try:
        _git("worktree", "add", "--detach", "--quiet", str(worktree), parent_sha)
        sides = {"parent": worktree, "change": ROOT}
        for side, checkout in sides.items():
            # One unrecorded single-round run fills the side's bytecode cache.
            _run_side(benchmark["command"], checkout, tmp / side, args, 0)
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = _run_side(
                    benchmark["command"], sides[side], tmp / side, args, args.seconds
                )
                print(
                    f"pair {i + 1}/{args.pairs} {side}: "
                    + ", ".join(f"{m.name}={_fmt(got[side][m.name])}" for m in metrics),
                    file=sys.stderr,
                )
            pairs.append((got["parent"], got["change"]))
    except RefusedRun as exc:
        print(f"perf_pairs: refused run: {exc}", file=sys.stderr)
        return 1
    finally:
        for cleanup in (("remove", "--force", str(worktree)), ("prune",)):
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", *cleanup], capture_output=True
            )
        shutil.rmtree(tmp, ignore_errors=True)
    print(
        f"{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s "
        f"runs, seed {args.seed}, parent {parent_sha} vs working tree"
    )
    rows = summarize(metrics, pairs)
    print(render(rows))
    return gate(rows)


if __name__ == "__main__":
    sys.exit(main())
