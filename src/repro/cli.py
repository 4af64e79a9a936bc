"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro table3 [--frames N]  # the headline experiment
    python -m repro figure8 [--frames N]
    python -m repro comparison
    ...

Each subcommand runs the corresponding experiment driver and prints
the reproduced rows/series next to the paper's reported values — the
same output the benchmark harness records.
"""

from __future__ import annotations

import argparse
import sys

from repro.metrics.report import render_series, render_table

__all__ = ["main"]


def _cmd_table1(args) -> None:
    from repro.experiments.table1 import (
        build_table1,
        witness_dwcs_dynamics,
        witness_tag_stability,
    )

    rows = build_table1()
    print(
        render_table(
            ["Characteristic", "Priority-class", "Fair-queuing", "Window-constrained"],
            [
                [r.characteristic, r.priority_class, r.fair_queuing, r.window_constrained]
                for r in rows
            ],
            title="Table 1: Comparing Scheduling Disciplines",
        )
    )
    print(
        f"witnesses: FQ tags immutable={witness_tag_stability()}, "
        f"DWCS dynamic priorities={witness_dwcs_dynamics()}"
    )


def _cmd_table2(args) -> None:
    from repro.experiments.table2 import run_rule_coverage

    cov = run_rule_coverage()
    print(
        render_table(
            ["Rule", "pairs resolved"],
            sorted(
                ((r.value, n) for r, n in cov.counts.items()),
                key=lambda x: -x[1],
            ),
            title="Table 2: decision-rule coverage",
        )
    )
    print(f"all substantive rules fired: {cov.all_rules_fired}")


def _cmd_table3(args) -> None:
    from repro.experiments.table3 import run_table3

    frames = args.frames or 16_000
    results = run_table3(
        frames, engine=args.engine, observer=args.observability,
        workers=args.workers,
    )
    mf = results["max_finding"]
    bmax = results["block_max_first"]
    bmin = results["block_min_first"]
    rows = []
    for i in range(4):
        rows.append(
            [
                f"Stream {i + 1}",
                mf.rows[i].missed_deadlines,
                bmax.rows[i].missed_deadlines,
                bmin.rows[i].missed_deadlines,
                bmax.rows[i].winner_cycles,
            ]
        )
    rows.append(
        ["Total", mf.total_missed, bmax.total_missed, bmin.total_missed, bmax.decision_cycles]
    )
    print(
        render_table(
            [
                "Stream-Slot",
                "Max-finding missed",
                "Max-first missed",
                "Min-first missed",
                "Block winner cycles",
            ],
            rows,
            title=f"Table 3 at {frames} frames/stream "
            f"(max-finding: {mf.decision_cycles} cycles, block: {bmax.decision_cycles})",
        )
    )


def _cmd_figure1(args) -> None:
    from repro.experiments.figure1 import run_figure1

    sweep = run_figure1()
    print(
        f"Figure 1 framework sweep: fpga realizable "
        f"{sweep.realizable_fraction('fpga'):.2f}, software "
        f"{sweep.realizable_fraction('software'):.2f}"
    )
    rows = [
        [
            p.discipline,
            p.n_streams,
            p.length_bytes,
            f"{p.rate_bps / 1e9:g}G",
            p.target,
            "yes" if p.realizable else "no",
        ]
        for p in sweep.points
        if p.length_bytes == 64
    ]
    print(
        render_table(
            ["discipline", "streams", "frame", "link", "target", "realizable"],
            rows,
            title="64-byte-frame slice",
        )
    )


def _cmd_figure6(args) -> None:
    from repro.experiments.figure6 import render_timeline, run_figure6

    print("Figure 6: scheduler timeline (4 stream-slots)")
    print(render_timeline(run_figure6(args.frames or 6)))


def _cmd_figure7(args) -> None:
    from repro.experiments.figure7 import degradation_ba_vs_wr, run_figure7

    points = run_figure7()
    print(
        render_table(
            ["slots", "variant", "slices", "clock MHz", "sort cycles"],
            [
                [p.n_slots, p.routing.value.upper(), round(p.slices), f"{p.clock_mhz:.1f}", p.sort_cycles]
                for p in points
            ],
            title="Figure 7: area-clock characteristics (Virtex-I)",
        )
    )
    deg = degradation_ba_vs_wr(points)
    print("BA vs WR clock: " + ", ".join(f"{n}:{d:.0%}" for n, d in deg.items()))


def _cmd_figure8(args) -> None:
    from repro.experiments.figure8 import run_figure8

    result = run_figure8(
        args.frames or 16_000, engine=args.engine,
        observer=args.observability,
    )
    print(
        render_table(
            ["stream", "steady MBps", "ratio"],
            [
                [f"Stream {sid + 1}", f"{mbps:.2f}", f"{result.ratios[sid]:.2f}"]
                for sid, mbps in sorted(result.steady_mbps.items())
            ],
            title="Figure 8: fair bandwidth allocation (paper: 2/2/4/8 MBps)",
        )
    )


def _cmd_figure9(args) -> None:
    from repro.experiments.figure9 import run_figure9

    result = run_figure9(
        n_bursts=3, burst_size=args.frames or 4000, engine=args.engine,
        observer=args.observability,
    )
    delays = result.mean_delays_us()
    print(
        render_table(
            ["stream", "mean delay ms", "zigzag score"],
            [
                [
                    f"Stream {sid + 1}",
                    f"{delays[sid] / 1e3:.2f}",
                    f"{result.zigzag_score(sid, args.frames or 4000):.2f}",
                ]
                for sid in sorted(delays)
            ],
            title="Figure 9: queuing delay under bursty arrivals",
        )
    )
    for sid in sorted(delays):
        s = result.series[sid]
        print(
            render_series(
                f"stream {sid + 1}",
                s.departures_us / 1e6,
                s.delays_us / 1e3,
                max_points=10,
                x_unit="s",
                y_unit="ms",
            )
        )


def _cmd_figure10(args) -> None:
    from repro.experiments.figure10 import run_figure10

    result = run_figure10(
        args.frames or 16_000, engine=args.engine,
        observer=args.observability,
    )
    print(
        render_table(
            ["slot/set", "streamlet MBps"],
            [[g, f"{v:.4f}"] for g, v in result.representative_mbps().items()],
            title="Figure 10: 100-streamlet aggregation "
            "(paper: 0.02/0.02/0.04; slot4 set1 = 2x set2)",
        )
    )


def _cmd_comparison(args) -> None:
    from repro.experiments.comparison import run_comparison

    rows = run_comparison(frames_per_stream=args.frames or 4000)
    print(
        render_table(
            ["system", "packets/second", "source"],
            [[r.system, f"{r.pps:,.0f}", r.source] for r in rows],
            title="Section 5.2: performance comparison",
        )
    )


def _cmd_ablation_sort(args) -> None:
    from repro.experiments.ablations import sort_schedule_sweep

    points = sort_schedule_sweep(trials=args.frames or 200)
    print(
        render_table(
            ["slots", "schedule", "passes", "blocks fully sorted"],
            [
                [p.n_slots, p.schedule, p.passes, f"{p.fully_sorted_fraction:.2f}"]
                for p in points
            ],
            title="Ablation: recirculation schedule vs block-order quality",
        )
    )


def _cmd_ablation_transfers(args) -> None:
    from repro.experiments.ablations import pio_dma_crossover, transfer_cost_sweep

    print(
        render_table(
            ["words", "PIO us", "DMA us", "best"],
            [
                [w, f"{p:.2f}", f"{d:.2f}", best]
                for w, p, d, best in pio_dma_crossover()
            ],
            title="PIO vs DMA crossover",
        )
    )
    print()
    print(
        render_table(
            ["per-frame PIO cost us", "endsystem pps"],
            [
                [f"{c:.2f}", f"{pps:,.0f}"]
                for c, pps in transfer_cost_sweep(
                    frames_per_stream=args.frames or 600
                )
            ],
            title="endsystem throughput vs transfer cost",
        )
    )


def _cmd_ablation_extensions(args) -> None:
    from repro.experiments.ablations import extensions_sweep

    print(
        render_table(
            ["slots", "baseline Mpps", "+compute-ahead", "+Virtex-II", "area factor"],
            [
                [
                    r["n_slots"],
                    f"{r['base_pps'] / 1e6:.2f}",
                    f"{r['compute_ahead_pps'] / 1e6:.2f}",
                    f"{r['virtex2_pps'] / 1e6:.2f}",
                    f"{r['area_factor']:.2f}x",
                ]
                for r in extensions_sweep()
            ],
            title="Section 6 extensions",
        )
    )


def _cmd_verilog(args) -> None:
    from repro.core.config import ArchConfig
    from repro.core.hdl import emit_verilog

    print(emit_verilog(ArchConfig(n_slots=args.slots)))


def _cmd_isolation(args) -> None:
    from repro.experiments.isolation import run_isolation

    results = run_isolation(
        horizon=args.frames or 4000, engine=args.engine,
        observer=args.observability,
    )
    print(
        render_table(
            ["system", "queues", "rt miss rate", "tight-flow p99 delay"],
            [
                [
                    r.system,
                    r.queues,
                    f"{r.rt_miss_rate:.1%}",
                    f"{r.tight_flow_p99_delay:.1f}",
                ]
                for r in results
            ],
            title="Per-flow isolation vs Section 5.2 line-card peers",
        )
    )


def _cmd_monitor(args) -> None:
    """Live conformance dashboard over the fair-share endsystem run.

    Runs the Figure 8 workload (four backlogged streams at 1:1:2:4)
    with a :class:`~repro.observability.monitor.ConformanceMonitor`
    attached — share-band SLOs around the paper's targets — and
    redraws a terminal dashboard every rollup window.  ``--slo`` /
    ``--flight-recorder`` / ``--serve-metrics`` compose as with the
    experiment subcommands.
    """
    from repro.endsystem.host import EndsystemConfig, EndsystemRouter
    from repro.observability import Dashboard
    from repro.traffic.specs import ratio_workload

    obs = args.observability  # always built for this subcommand
    dashboard = Dashboard(obs.monitor).attach()
    specs = ratio_workload(_MONITOR_RATIOS, frames_per_stream=args.frames or 4000)
    router = EndsystemRouter(
        specs, EndsystemConfig(engine=args.engine), observer=obs
    )
    router.run(preload=True)
    if dashboard.frames_drawn == 0:
        dashboard.draw()  # run shorter than one window: show the flush
    print()
    print(obs.monitor.report())


#: The Figure 8/10 bandwidth split the monitor subcommand watches.
_MONITOR_RATIOS = (1, 1, 2, 4)


def _default_slos(experiment: str):
    """Per-experiment default objectives for ``--slo``.

    * fair-share runs (figure8 / figure10 / monitor) get share-band
      SLOs around the 1:1:2:4 targets of Figures 8 and 10;
    * table3 gets zero miss budgets — the max-finding configuration is
      the paper's own overload case, and flagging it demonstrates
      detection (block max-first stays clean);
    * everything else monitors rollups without objectives.
    """
    from repro.observability import StreamSlo, slos_from_shares

    if experiment in ("figure8", "figure10", "monitor"):
        return slos_from_shares(
            {sid: float(r) for sid, r in enumerate(_MONITOR_RATIOS)}
        )
    if experiment == "table3":
        return [StreamSlo(sid=i, miss_budget=0) for i in range(4)]
    return []


def _cmd_sweep(args) -> None:
    """``--sweep`` path: run one figure/isolation experiment per value.

    Values are workload sizes for the figures (frames per stream, or
    burst size for figure9) and best-effort seeds for isolation;
    points run through :func:`repro.runner.run_sharded`, so
    ``--workers`` / ``--cache-dir`` apply and the merged summary is
    identical for any worker count.
    """
    from repro.experiments.sweeps import sweep_figures, sweep_isolation

    values = [int(v) for v in args.sweep.split(",") if v.strip()]
    if args.experiment == "isolation":
        result = sweep_isolation(
            values,
            horizon=args.frames or 4000,
            engine=args.engine,
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    else:
        result = sweep_figures(
            args.experiment,
            values,
            engine=args.engine,
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    rows = []
    for point in result.points:
        for group, series in sorted(point.summary.items()):
            if isinstance(series, dict):
                for key, value in sorted(series.items()):
                    rows.append(
                        [point.param, group, key, _render_value(value)]
                    )
            else:  # isolation: list of per-system rows
                for entry in series:
                    rows.append(
                        [
                            point.param,
                            entry["system"],
                            f"miss {entry['rt_miss_rate']:.1%}",
                            f"p99 {entry['tight_flow_p99_delay']:.1f}",
                        ]
                    )
    from repro.experiments.sweeps import PARAM_NAMES

    print(
        render_table(
            [PARAM_NAMES[args.experiment], "series", "key", "value"],
            rows,
            title=f"{args.experiment} sweep over {values} "
            f"({result.executed} executed, {result.cached} cached, "
            f"{result.workers} worker(s))",
        )
    )
    for failure in result.failures:
        print(f"FAILED {failure.describe()}")
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as fh:
            fh.write(result.summary_json())
        print(f"summary written to {args.summary_json}")
    if not result.passed:
        raise SystemExit(1)


def _render_value(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _run_validation(args, kind, count: int) -> None:
    """One validation campaign of ``kind`` over ``count`` seeds, with
    ``--cycles``, ``--workers``, ``--cache-dir``/``--no-cache`` and
    ``--summary-json``; exits 1 unless it passed."""
    from repro.core.differential import campaign

    result = campaign(
        range(count),
        kind=kind,
        n_cycles=args.cycles,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    if not result.report(args.summary_json):
        raise SystemExit(1)


def _cmd_pifo(args) -> None:
    """Two-way validation of programmable PIFO rank functions.

    Runs one rank-kind campaign (:class:`repro.disciplines.pifo.RankKind`)
    over the selected (or every registered) rank function: reference vs
    tensor byte-identical summaries, plus service-order equivalence
    against the handwritten counterpart where one is declared.
    """
    from repro.disciplines.pifo import PIFO_RANK_FUNCTIONS, RankKind, rank_function

    if args.discipline is None:
        names = sorted(PIFO_RANK_FUNCTIONS)
    else:
        if not args.discipline.startswith("pifo:"):
            raise SystemExit(
                f"--discipline takes pifo:<name>; got {args.discipline!r}"
            )
        names = [args.discipline[len("pifo:"):]]
    kind = RankKind(tuple(rank_function(name) for name in names))
    count = args.frames if args.frames is not None else 20
    print(
        render_table(
            ["discipline", "rank", "equivalent to"],
            [
                [f"pifo:{fn.name}", fn.rank.describe(), fn.equivalent_to or "-"]
                for fn in kind.functions
            ],
            title=f"PIFO rank functions ({count} scenarios each, "
            f"{args.cycles} cycles; reference == tensor)",
        )
    )
    _run_validation(args, kind, count)


def _cmd_aggregation(args) -> None:
    """Million-stream hierarchical aggregation tier (demo or validation).

    Default mode replays a seeded churn workload — ``--streams``
    lightweight streams hash-bucketed into ``--aggregate`` slots, with
    intra-aggregate ordering by ``--agg-discipline`` — on the selected
    engine and tabulates the per-aggregate rollups.  ``--validate``
    instead runs an aggregation-kind campaign
    (:class:`repro.aggregation.AggregationKind`): reference vs tensor
    byte-identical summaries and the drain invariant over ``--frames``
    seeded churn scenarios.
    """
    import json

    from repro.aggregation import (
        AggregationKind,
        generate_aggregation_scenario,
        hash_bucket,
        run_aggregation,
    )

    if args.aggregate < 2 or args.aggregate & (args.aggregate - 1):
        raise SystemExit("--aggregate must be a power of two >= 2")
    if args.validate:
        kind = AggregationKind(
            n_streams=args.streams or 48,
            n_aggregates=args.aggregate,
            discipline=args.agg_discipline,
        )
        _run_validation(args, kind, 10 if args.frames is None else args.frames)
        return
    scenario = generate_aggregation_scenario(
        0,
        n_streams=args.streams or 10_000,
        n_aggregates=args.aggregate,
        n_cycles=args.cycles,
        discipline=args.agg_discipline,
    )
    obs = args.observability
    if obs is not None and obs.monitor is not None:
        # Per-aggregate share bands from the initial membership: each
        # aggregate's expected service share is its member-weight sum
        # (stream ids at the engine level are aggregate ids).
        from repro.observability import ConformanceMonitor, slos_from_shares

        weights: dict[int, int] = {}
        for sid, weight in scenario.initial:
            bucket = hash_bucket(sid, args.aggregate)
            weights[bucket] = weights.get(bucket, 0) + weight
        obs.monitor = ConformanceMonitor(
            slos_from_shares({a: float(w) for a, w in weights.items()}),
            window_cycles=args.slo_window,
            registry=obs.metrics,
            dump_dir=args.flight_recorder,
        )
    summary = run_aggregation(scenario, engine=args.engine, observer=obs)
    per = summary["per_aggregate"]
    print(
        render_table(
            ["aggregate", "members", "weight", "enqueued", "serviced"],
            [
                [
                    str(a),
                    str(per["members"][a]),
                    str(per["weight"][a]),
                    str(per["enqueued"][a]),
                    str(per["serviced"][a]),
                ]
                for a in range(args.aggregate)
            ],
            title=f"Aggregation tier: {summary['streams_joined']} streams "
            f"({summary['streams_left']} left) on {args.aggregate} "
            f"aggregates, {args.agg_discipline} intra, "
            f"{summary['serviced']} serviced in {summary['cycles']} cycles "
            f"[{args.engine}]",
        )
    )
    print(f"service digest: {summary['service_digest']}")
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=1) + "\n")
        print(f"summary written to {args.summary_json}")


#: Experiments whose drivers accept the telemetry hook.
_OBSERVABLE = {
    "table3", "figure8", "figure9", "figure10", "isolation", "monitor",
    "aggregation",
}

#: Experiments ``--sweep`` can iterate (see repro.experiments.sweeps).
_SWEEPABLE = {"figure8", "figure9", "figure10", "isolation"}

def _trace_main(argv: list[str]) -> int:
    """``repro trace``: span-traced campaign + rollup/critical-path report."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run a span-traced differential validation campaign "
        "(or load a previously exported span file) and report the "
        "per-(kind, name) rollup, optionally the critical path, and "
        "export JSONL / Chrome trace-event files.",
    )
    parser.add_argument(
        "--count", type=int, default=24,
        help="scenario seeds in the campaign (default 24)",
    )
    parser.add_argument(
        "--cycles", type=int, default=200,
        help="decision cycles per scenario (default 200)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (0 = all cores; the canonical span tree "
        "is byte-identical for any value)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk scenario cache (hits become spans tagged cache=hit)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir (neither read nor write entries)",
    )
    parser.add_argument(
        "--trace-id", default="campaign",
        help="trace id seeding the deterministic span ids",
    )
    parser.add_argument(
        "--input", metavar="SPANS.jsonl", default=None,
        help="report on an exported span file instead of running",
    )
    parser.add_argument(
        "--spans", metavar="PATH", default=None,
        help="export the full span tree (timing included) as JSONL",
    )
    parser.add_argument(
        "--canonical", metavar="PATH", default=None,
        help="export the canonical worker-invariant span JSONL",
    )
    parser.add_argument(
        "--export-chrome", metavar="PATH", default=None,
        help="export a Chrome trace-event JSON (Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="print the longest root-to-leaf wall-time chain",
    )
    parser.add_argument(
        "--summary-json", metavar="PATH", default=None,
        help="write the campaign's canonical summary to PATH (the bytes "
        "python -m repro.core.differential --summary-json writes for the "
        "same --count and --cycles)",
    )
    args = parser.parse_args(argv)
    if args.input is not None and args.summary_json is not None:
        parser.error("--summary-json needs a campaign run, not --input")

    import json as _json
    from pathlib import Path

    from repro.observability.spans import (
        SpanTracer,
        canonical_span_bytes,
        chrome_trace,
        critical_path,
        load_spans_jsonl,
        spans_jsonl_bytes,
        summarize_spans,
    )

    code = 0
    if args.input is not None:
        records = load_spans_jsonl(args.input)
        trace_id = args.trace_id
        print(f"loaded {len(records)} spans from {args.input}")
    else:
        from repro.core.differential import campaign

        tracer = SpanTracer(args.trace_id)
        result = campaign(
            range(args.count),
            n_cycles=args.cycles,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            use_cache=not args.no_cache,
            tracer=tracer,
        )
        records = tracer.records()
        trace_id = tracer.trace_id
        print(
            f"campaign: {result.scenarios} scenarios x {args.cycles} cycles, "
            f"workers={result.workers}, "
            f"cached={result.cached}, passed={result.passed}"
        )
        code = 0 if result.passed else 1
        if args.summary_json:
            with open(args.summary_json, "w", encoding="utf-8") as fh:
                fh.write(result.summary_json())
            print(f"summary written to {args.summary_json}")

    rows = []
    for g in summarize_spans(records):
        annotations = [
            f"{k}={v}" for k, v in sorted(g["tag_totals"].items())
        ] + [
            f"{k} x{n}" for k, n in sorted(g["tag_counts"].items())
        ]
        rows.append(
            [
                g["kind"],
                g["name"],
                g["count"],
                f"{g['wall_us'] / 1000.0:.3f}",
                " ".join(annotations) or "-",
            ]
        )
    print(
        render_table(
            ["kind", "name", "spans", "wall (ms)", "tags"],
            rows,
            title=f"span rollup ({len(records)} spans, trace_id={trace_id})",
        )
    )
    if args.critical_path:
        print(
            render_table(
                ["path", "kind", "wall (ms)", "self (ms)", "of root"],
                [
                    [
                        e["path"],
                        e["kind"],
                        f"{e['wall_us'] / 1000.0:.3f}",
                        f"{e['self_us'] / 1000.0:.3f}",
                        f"{e['fraction']:.1%}",
                    ]
                    for e in critical_path(records)
                ],
                title="critical path (longest root-to-leaf chain)",
            )
        )
    if args.spans:
        Path(args.spans).write_bytes(spans_jsonl_bytes(records))
        print(f"spans written to {args.spans}")
    if args.canonical:
        Path(args.canonical).write_bytes(canonical_span_bytes(records))
        print(f"canonical spans written to {args.canonical}")
    if args.export_chrome:
        trace = chrome_trace(records, trace_id=trace_id)
        Path(args.export_chrome).write_text(
            _json.dumps(trace, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        print(
            f"chrome trace ({len(trace['traceEvents'])} events) written "
            f"to {args.export_chrome}"
        )
    return code


_COMMANDS = {
    "monitor": _cmd_monitor,
    "verilog": _cmd_verilog,
    "isolation": _cmd_isolation,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "figure1": _cmd_figure1,
    "figure6": _cmd_figure6,
    "figure7": _cmd_figure7,
    "figure8": _cmd_figure8,
    "figure9": _cmd_figure9,
    "figure10": _cmd_figure10,
    "comparison": _cmd_comparison,
    "pifo": _cmd_pifo,
    "aggregation": _cmd_aggregation,
    "ablation-sort": _cmd_ablation_sort,
    "ablation-transfers": _cmd_ablation_transfers,
    "ablation-extensions": _cmd_ablation_extensions,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # ``trace`` has its own parser and routes before the experiment parser.
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the ShareStreams paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["list"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="workload size override (frames per stream / burst size; "
        "scenario count for the pifo and aggregation --validate "
        "campaigns)",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=4,
        help="stream-slot count (verilog generation)",
    )
    parser.add_argument(
        "--discipline",
        metavar="pifo:<name>",
        default=None,
        help="rank function for the pifo experiment (e.g. pifo:sfq); "
        "default: validate every registered rank function",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=200,
        help="arrival cycles per scenario (pifo and aggregation "
        "experiments)",
    )
    parser.add_argument(
        "--aggregate",
        type=int,
        metavar="N",
        default=16,
        help="aggregate count for the aggregation experiment (one "
        "scheduler slot per aggregate; power of two)",
    )
    parser.add_argument(
        "--streams",
        type=int,
        metavar="N",
        default=None,
        help="stream population for the aggregation experiment "
        "(default: 10000 for the demo run, 48 per --validate scenario)",
    )
    parser.add_argument(
        "--agg-discipline",
        metavar="pifo:<name>",
        default="pifo:sfq",
        help="intra-aggregate ordering discipline for the aggregation "
        "experiment (any registered rank function; default pifo:sfq)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="aggregation experiment: run the two-way differential "
        "validation campaign instead of the demo workload",
    )
    parser.add_argument(
        "--engine",
        choices=("reference", "tensor"),
        default="reference",
        help="scheduler engine: cycle-level object model (oracle) or the "
        "scenario-tensorized array engine (cross-validated against the "
        "oracle)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record the structured decision trace and print its tail "
        "plus the per-phase profile after the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry to PATH "
        "(.json -> JSON, anything else -> Prometheus text format)",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help="evaluate per-stream SLOs online (streaming rollups + "
        "violation detection; default objectives per experiment)",
    )
    parser.add_argument(
        "--slo-window",
        type=int,
        metavar="CYCLES",
        default=256,
        help="rollup window size in decision cycles (default 256)",
    )
    parser.add_argument(
        "--flight-recorder",
        metavar="DIR",
        default=None,
        help="dump the last decision cycles before each SLO violation "
        "to DIR as canonical JSONL (implies --slo)",
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        metavar="PORT",
        default=None,
        help="serve /metrics (Prometheus), /rollups and /violations "
        "over HTTP for the duration of the run (0 = ephemeral port)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for parallelizable runs: table3 "
        "configurations without telemetry flags (telemetry needs "
        "--workers 1), --sweep points, and the buckets of a campaign "
        "(the pifo and aggregation --validate campaigns are one bucket "
        "each, so they run on one worker); 0 = all cores; results are "
        "identical for any value",
    )
    parser.add_argument(
        "--sweep",
        metavar="V1,V2,...",
        default=None,
        help="run the experiment once per comma-separated value "
        "(figure8/figure10: frames per stream, figure9: burst size, "
        "isolation: best-effort seed) and tabulate the points",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk result cache for --sweep points and for the "
        "scenarios the pifo and aggregation --validate campaigns "
        "already validated (keyed on the canonical config + engine + "
        "package version)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir (neither read nor write entries)",
    )
    parser.add_argument(
        "--summary-json",
        metavar="PATH",
        default=None,
        help="write the canonical summary of a --sweep or of the pifo "
        "or aggregation --validate campaign to PATH (byte-identical "
        "across --workers values and cache state)",
    )
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name in sorted(_COMMANDS):
            print(name)
        print("trace")
        return 0
    monitoring = (
        args.slo or args.flight_recorder is not None
        or args.experiment == "monitor"
    )
    # Each sink is built only when some flag reads it: --trace prints
    # the decision ring, the phase profile and the metrics.
    metrics = bool(
        args.trace or args.metrics_out or args.serve_metrics is not None
    )
    telemetry = metrics or monitoring
    if args.sweep is not None:
        if args.experiment not in _SWEEPABLE:
            parser.error(
                f"--sweep supported for: {', '.join(sorted(_SWEEPABLE))}"
            )
        if telemetry:
            parser.error(
                "--sweep points run headless; telemetry flags apply to "
                "single runs only"
            )
        try:
            _cmd_sweep(args)
        except SystemExit as exc:
            return int(exc.code or 0)
        return 0
    if telemetry and args.experiment == "aggregation" and args.validate:
        parser.error(
            "--trace/--metrics-out/--slo/--flight-recorder/--serve-metrics "
            "apply to the aggregation demo run only: --validate runs a "
            "validation campaign, which records no telemetry"
        )
    args.observability = None
    if telemetry:
        if args.experiment not in _OBSERVABLE:
            parser.error(
                f"--trace/--metrics-out/--slo/--flight-recorder/"
                f"--serve-metrics supported for: "
                f"{', '.join(sorted(_OBSERVABLE))}"
            )
        if args.experiment == "table3" and args.workers != 1:
            parser.error(
                "table3 telemetry flags need --workers 1: decisions are "
                "observed in the process that makes them"
            )
        from repro.observability import Observability

        args.observability = Observability(
            trace=args.trace, metrics=metrics, profile=args.trace
        )
        if monitoring:
            from repro.observability import ConformanceMonitor

            args.observability.monitor = ConformanceMonitor(
                _default_slos(args.experiment),
                window_cycles=args.slo_window,
                registry=args.observability.metrics,
                dump_dir=args.flight_recorder,
            )
    obs = args.observability
    server = None
    if args.serve_metrics is not None:
        from repro.observability import TelemetryServer

        server = TelemetryServer(
            obs.metrics, monitor=obs.monitor, port=args.serve_metrics
        ).start()
        print(f"serving telemetry at {server.url}/metrics")
    try:
        _COMMANDS[args.experiment](args)
    finally:
        if server is not None:
            server.stop()
    if obs is not None:
        obs.finalize()
        if args.trace:
            print(obs.render())
        if monitoring and args.experiment != "monitor":
            print(obs.monitor.report())
        if args.metrics_out:
            from repro.metrics.export import write_metrics

            path = write_metrics(args.metrics_out, obs.metrics)
            print(f"metrics written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
