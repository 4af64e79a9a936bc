"""Tests for the CLI entry point."""

import pytest

from repro.cli import main


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
        out = capsys.readouterr().out
        assert "trace" in out and "bench trend" in out


class TestCLIBenchTrend:
    def _seed_bench(self, root, value=100.0):
        from repro.benchtrend import bench_record, write_bench

        write_bench(
            root / "BENCH_DEMO.json",
            "demo",
            [bench_record("ops", value, "ops/s", direction="higher")],
        )

    def test_trend_appends_and_coalesces(self, capsys, tmp_path):
        self._seed_bench(tmp_path)
        argv = ["bench", "trend", "--root", str(tmp_path)]
        assert main(argv) == 0
        assert "appended snapshot" in capsys.readouterr().out
        assert main(argv) == 0
        assert "coalesced" in capsys.readouterr().out
        assert (tmp_path / "BENCH_TRAJECTORY.json").exists()

    def test_trend_check_fails_on_regression(self, capsys, tmp_path):
        self._seed_bench(tmp_path, 100.0)
        assert main(["bench", "trend", "--root", str(tmp_path)]) == 0
        self._seed_bench(tmp_path, 10.0)
        assert main(
            ["bench", "trend", "--root", str(tmp_path), "--check"]
        ) == 1
        assert "regression: demo:ops" in capsys.readouterr().out

    def test_trend_validate_only(self, capsys, tmp_path):
        self._seed_bench(tmp_path)
        assert main(["bench", "trend", "--root", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(
            ["bench", "trend", "--root", str(tmp_path), "--validate"]
        ) == 0
        assert "trajectory ok" in capsys.readouterr().out

    def test_trend_validate_missing_trajectory(self, capsys, tmp_path):
        assert main(
            ["bench", "trend", "--root", str(tmp_path), "--validate"]
        ) == 1
        assert "no trajectory" in capsys.readouterr().out

    def test_trend_no_bench_files(self, capsys, tmp_path):
        assert main(["bench", "trend", "--root", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().out
