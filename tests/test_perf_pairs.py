"""The claim-table arithmetic and exit status of ``tools/perf_pairs.py``, on
canned result lines and runs (no git, no benchmark runs)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = perf_pairs  # dataclasses resolve their module
_spec.loader.exec_module(perf_pairs)

RATE = perf_pairs.Metric("oracle.rate", "1/s", "higher", 0.2)
RSS = perf_pairs.Metric("peak_rss_mb", "MB", "lower", 0.15)


def result_line(correct=True, failed=0, **values):
    return json.dumps(
        {
            "correct": correct,
            "attempted": 3,
            "failed": failed,
            "metrics": {
                k.replace("_", ".", 1): {"value": v, "unit": "u"}
                for k, v in values.items()
            },
        }
    )


def test_metrics_come_from_the_benchmark_file():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = perf_pairs.load_metrics(benchmark)
    assert [m.name for m in metrics] == [m["name"] for m in benchmark["end_to_end"]]
    assert all(m.better in ("higher", "lower") and m.bound > 0 for m in metrics)


def test_parse_reads_the_last_line():
    out = "progress noise\n" + result_line(oracle_rate=440.5) + "\n"
    assert perf_pairs.parse_result(out) == {"oracle.rate": 440.5}


@pytest.mark.parametrize(
    "stdout",
    [
        result_line(correct=False, failed=1, oracle_rate=1.0),
        result_line(correct=True, failed=2, oracle_rate=1.0),
        result_line(correct=False, failed=0, oracle_rate=1.0),
        "",
        "Traceback (most recent call last):\n  ...\nValueError: boom",
    ],
)
def test_parse_refuses_failed_or_missing_results(stdout):
    with pytest.raises(perf_pairs.RefusedRun):
        perf_pairs.parse_result(stdout)


def test_summary_medians_iqr_and_wins():
    parent = [200.0, 204.0, 199.0, 202.0, 201.0]
    change = [440.0, 458.0, 450.0, 190.0, 445.0]
    pairs = [
        ({"oracle.rate": p, "peak_rss_mb": 100.0}, {"oracle.rate": c, "peak_rss_mb": 99.0})
        for p, c in zip(parent, change)
    ]
    rate, rss = perf_pairs.summarize([RATE, RSS], pairs)
    assert (rate.parent_median, rate.change_median) == (201.0, 445.0)
    # Inclusive quartiles: parent 200..202, change 440..450.
    assert rate.parent_iqr == pytest.approx(2.0)
    assert rate.change_iqr == pytest.approx(10.0)
    assert (rate.wins, rate.pairs) == (4, 5)
    assert rate.ratio == pytest.approx(445.0 / 201.0)
    assert rate.verdict == "better"
    # Lower is better for memory: every pair wins, but inside the bound.
    assert (rss.wins, rss.verdict) == (5, "same")


def test_single_pair_has_zero_iqr():
    (row,) = perf_pairs.summarize([RATE], [({"oracle.rate": 3.0}, {"oracle.rate": 2.0})])
    assert (row.parent_iqr, row.change_iqr, row.wins) == (0.0, 0.0, 0)


@pytest.mark.parametrize(
    "metric,parent,change,want",
    [
        (RATE, 100.0, 121.0, "better"),
        (RATE, 100.0, 120.0, "same"),
        (RATE, 100.0, 80.0, "same"),
        (RATE, 100.0, 79.0, "worse"),
        (RSS, 100.0, 84.0, "better"),
        (RSS, 100.0, 115.0, "same"),
        (RSS, 100.0, 116.0, "worse"),
        (RATE, 0.0, 0.0, "same"),
        (RATE, 0.0, 1.0, "better"),
    ],
)
def test_verdict_uses_the_relative_bound_and_direction(metric, parent, change, want):
    assert perf_pairs.verdict(metric, [parent] * 5, [change] * 5) == want


#: Median 100, interquartile range 40: twice ``RATE``'s margin of 20.
WIDE = [60.0, 80.0, 100.0, 120.0, 140.0]


@pytest.mark.parametrize(
    "metric,parent,change,want",
    [
        # Overlapping runs with a spread past the margin, on either side,
        # whether or not the medians differ by more than the bound.
        (RATE, WIDE, [100.0] * 5, "unresolved"),
        (RATE, [100.0] * 5, WIDE, "unresolved"),
        (RATE, WIDE, [x + 30.0 for x in WIDE], "unresolved"),
        # Fully separated wide runs keep the median-vs-bound verdict.
        (RATE, WIDE, [150.0, 170.0, 200.0, 230.0, 260.0], "better"),
        (RATE, WIDE, [10.0, 20.0, 30.0, 40.0, 50.0], "worse"),
        (RSS, [100.0, 110.0, 120.0, 130.0, 140.0], [150.0] * 5, "worse"),
        (RATE, [50.0, 85.0, 100.0, 106.0, 107.0], [108.0] * 5, "same"),
    ],
)
def test_wide_runs_are_unresolved_unless_separated(metric, parent, change, want):
    assert perf_pairs.verdict(metric, parent, change) == want


def test_render_prints_one_row_per_metric():
    pairs = [({"oracle.rate": 200.0}, {"oracle.rate": 450.0})] * 3
    table = perf_pairs.render(perf_pairs.summarize([RATE], pairs))
    header, rule, row = table.splitlines()
    assert header.count("|") == rule.count("|") == row.count("|")
    assert row.startswith("| `oracle.rate` (1/s) | higher | 0.2 | 200 | 0 | 450 | 0 |")
    assert row.endswith("| 2.25× | 3/3 | better |")


def test_render_prints_unresolved():
    pairs = [({"oracle.rate": p}, {"oracle.rate": 100.0}) for p in WIDE]
    table = perf_pairs.render(perf_pairs.summarize([RATE], pairs))
    assert table.splitlines()[-1].endswith("| 2/5 | unresolved |")


@pytest.mark.parametrize(
    "parent_rate,change_rate,change_rss,status",
    [
        ([200.0] * 5, [450.0] * 5, [99.0] * 5, 0),  # better, same
        ([200.0] * 5, [200.0] * 5, [100.0] * 5, 0),  # same, same
        (WIDE, [x + 30.0 for x in WIDE], [100.0] * 5, 0),  # unresolved, same
        ([200.0] * 5, [150.0] * 5, [100.0] * 5, 1),  # worse, same
        ([200.0] * 5, [450.0] * 5, [120.0] * 5, 1),  # better, worse
    ],
)
def test_exit_status_is_nonzero_iff_some_metric_is_worse(
    parent_rate, change_rate, change_rss, status
):
    pairs = [
        ({"oracle.rate": p, "peak_rss_mb": 100.0}, {"oracle.rate": c, "peak_rss_mb": m})
        for p, c, m in zip(parent_rate, change_rate, change_rss)
    ]
    assert perf_pairs.gate(perf_pairs.summarize([RATE, RSS], pairs)) == status
