"""Tests for the CLI entry point."""

import pytest

from repro.cli import main

#: The telemetry flags, each of which makes the CLI build an observer.
TELEMETRY_FLAGS = [
    "--trace", "--slo", "--flight-recorder", "--metrics-out", "--serve-metrics",
]


def _flag_args(flag, tmp_path):
    """``flag`` with the argument it takes, writing under ``tmp_path``."""
    return {
        "--flight-recorder": [flag, str(tmp_path / "dumps")],
        "--metrics-out": [flag, str(tmp_path / "m.json")],
        "--serve-metrics": [flag, "0"],
    }.get(flag, [flag])


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "figure8" in out and "comparison" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Window-constrained" in out
        assert "witnesses" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "all substantive rules fired: True" in capsys.readouterr().out

    def test_table3_reduced(self, capsys):
        assert main(["table3", "--frames", "200"]) == 0
        out = capsys.readouterr().out
        assert "Max-finding missed" in out
        assert "Total" in out

    def test_figure6(self, capsys):
        assert main(["figure6"]) == 0
        assert "PRIORITY_UPDATE" in capsys.readouterr().out

    def test_figure7(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "clock MHz" in out
        assert "32:10%" in out

    def test_figure8_reduced(self, capsys):
        assert main(["figure8", "--frames", "1000"]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_figure10_reduced(self, capsys):
        assert main(["figure10", "--frames", "1000"]) == 0
        assert "slot4/set2" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "realizable" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_verilog(self, capsys):
        assert main(["verilog", "--slots", "8"]) == 0
        out = capsys.readouterr().out
        assert "module sharestreams_scheduler" in out
        assert "8 stream-slots" in out

    def test_isolation_reduced(self, capsys):
        assert main(["isolation", "--frames", "1200"]) == 0
        out = capsys.readouterr().out
        assert "ShareStreams" in out and "Teracross" in out

    def test_ablation_extensions(self, capsys):
        assert main(["ablation-extensions"]) == 0
        assert "compute-ahead" in capsys.readouterr().out

    def test_ablation_sort_reduced(self, capsys):
        assert main(["ablation-sort", "--frames", "20"]) == 0
        assert "bitonic" in capsys.readouterr().out


class TestCLITelemetry:
    def test_metrics_out_writes_valid_prometheus(self, capsys, tmp_path):
        from repro.observability import parse_prometheus_text

        out_path = tmp_path / "m.prom"
        assert main(
            ["figure8", "--frames", "400", "--metrics-out", str(out_path)]
        ) == 0
        assert f"metrics written to {out_path}" in capsys.readouterr().out
        snapshot = parse_prometheus_text(out_path.read_text())
        assert "sharestreams_decisions_total" in snapshot
        assert "endsystem_tx_frames_total" in snapshot

    def test_metrics_out_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "m.json"
        assert main(
            ["table3", "--frames", "50", "--metrics-out", str(out_path)]
        ) == 0
        snapshot = json.loads(out_path.read_text())
        assert snapshot["sharestreams_decisions_total"]["type"] == "counter"

    def test_trace_prints_tail_and_profile(self, capsys):
        assert main(["isolation", "--frames", "400", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "decide" in out
        assert "sharestreams_decisions_total" in out

    def test_trace_on_tensor_engine(self, capsys):
        assert main(
            ["figure8", "--frames", "400", "--engine", "tensor", "--trace"]
        ) == 0
        assert "endsystem.decide" in capsys.readouterr().out

    def test_telemetry_rejected_for_unsupported_command(self):
        with pytest.raises(SystemExit):
            main(["table1", "--trace"])

    @pytest.mark.parametrize("flag", TELEMETRY_FLAGS)
    def test_table3_telemetry_needs_one_worker(self, flag, capsys, tmp_path):
        args = _flag_args(flag, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["table3", "--frames", "200", "--workers", "3", *args])
        assert exc.value.code == 2
        assert "--workers 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", TELEMETRY_FLAGS)
    def test_aggregation_validate_rejects_telemetry(self, flag, capsys, tmp_path):
        """The validation campaign runs no observer, so a telemetry flag
        would report empty telemetry after a passing campaign."""
        args = _flag_args(flag, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["aggregation", "--validate", "--frames", "2", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and "--validate" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, sinks",
        [
            # (recorder, metrics, phase timers, monitor)
            (["--trace"], (True, True, True, False)),
            (["--metrics-out", "m.json"], (False, True, False, False)),
            (["--serve-metrics", "0"], (False, True, False, False)),
            (["--slo"], (False, False, False, True)),
            (["--slo", "--metrics-out", "m.json"], (False, True, False, True)),
            (["--flight-recorder", "dumps"], (False, False, False, True)),
        ],
    )
    def test_builds_only_the_sinks_a_flag_reads(
        self, flags, sinks, monkeypatch, tmp_path
    ):
        from repro import observability

        built = []

        class Spy(observability.Observability):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(self)

        monkeypatch.setattr(observability, "Observability", Spy)
        monkeypatch.chdir(tmp_path)
        assert main(["table3", "--frames", "50", *flags]) == 0
        (obs,) = built
        assert (
            obs.recorder is not None,
            obs.metrics is not None,
            obs.tracer is not None,
            obs.monitor is not None,
        ) == sinks
        if obs.monitor is not None and obs.metrics is not None:
            assert "sharestreams_slo_violations_total" in obs.metrics.names()


class TestCLIMonitoring:
    def test_monitor_subcommand_draws_dashboard_and_report(self, capsys):
        assert main(["monitor", "--frames", "300", "--slo-window", "64"]) == 0
        out = capsys.readouterr().out
        assert "conformance monitor" in out
        assert "windows evaluated:" in out

    def test_slo_flag_prints_conformance_report(self, capsys):
        assert main(
            ["figure8", "--frames", "400", "--slo", "--slo-window", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "windows evaluated:" in out
        assert "objectives on 4 streams" in out
        # the figure table still renders alongside the report
        assert "ratio" in out

    def test_flight_recorder_writes_canonical_dumps(self, capsys, tmp_path):
        from repro.observability import deserialize_events

        dump_dir = tmp_path / "dumps"
        # table3 max-finding is the paper's own overload case: zero miss
        # budgets guarantee violations, hence flight dumps on disk.
        assert main(
            [
                "table3",
                "--frames",
                "200",
                "--flight-recorder",
                str(dump_dir),
                "--slo-window",
                "64",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "flight dumps:" in out
        jsonl = sorted(dump_dir.glob("flight-*.jsonl"))
        assert jsonl, "no flight dumps written"
        assert deserialize_events(jsonl[0].read_bytes())

    def test_serve_metrics_announces_endpoint(self, capsys):
        assert main(
            ["figure8", "--frames", "400", "--serve-metrics", "0"]
        ) == 0
        assert "serving telemetry at http://" in capsys.readouterr().out

    def test_serve_metrics_rejected_with_sweep(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure8", "--sweep", "400", "--serve-metrics", "0"])
        assert exc.value.code == 2
        assert "run headless" in capsys.readouterr().err

    def test_slo_rejected_for_unsupported_command(self):
        with pytest.raises(SystemExit):
            main(["table2", "--slo"])

    def test_flight_recorder_rejected_for_unsupported_command(self):
        with pytest.raises(SystemExit):
            main(["figure7", "--flight-recorder", "/tmp/nope"])


class TestCLITrace:
    def test_trace_runs_campaign_and_prints_rollup(self, capsys):
        assert main(["trace", "--count", "4", "--cycles", "60"]) == 0
        out = capsys.readouterr().out
        assert "span rollup" in out
        assert "campaign" in out and "engine_run" in out
        assert "passed=True" in out

    def test_trace_exports_and_critical_path(self, capsys, tmp_path):
        spans = tmp_path / "spans.jsonl"
        canonical = tmp_path / "canonical.jsonl"
        chrome = tmp_path / "trace.json"
        assert main(
            [
                "trace", "--count", "3", "--cycles", "60",
                "--critical-path",
                "--spans", str(spans),
                "--canonical", str(canonical),
                "--export-chrome", str(chrome),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert spans.exists() and canonical.exists()
        import json as _json

        trace = _json.loads(chrome.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_reports_on_exported_file(self, capsys, tmp_path):
        spans = tmp_path / "spans.jsonl"
        assert main(
            ["trace", "--count", "3", "--cycles", "60", "--spans", str(spans)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "--input", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "loaded" in out and "span rollup" in out

    def test_trace_listed(self, capsys):
        assert main(["list"]) == 0
        assert "trace" in capsys.readouterr().out.splitlines()

    def test_trace_summary_json_matches_differential_cli(self, capsys, tmp_path):
        from repro.core import differential

        traced = tmp_path / "trace-summary.json"
        plain = tmp_path / "differential-summary.json"
        assert main(
            ["trace", "--count", "20", "--cycles", "200",
             "--summary-json", str(traced)]
        ) == 0
        assert differential.main(
            ["--count", "20", "--cycles", "200", "--summary-json", str(plain)]
        ) == 0
        assert traced.read_bytes() == plain.read_bytes()
        assert '"scenarios": 20' in traced.read_text()

    def test_trace_summary_json_needs_a_campaign(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--input", "spans.jsonl",
                  "--summary-json", str(tmp_path / "s.json")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []
