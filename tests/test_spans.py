"""Unit tests for the hierarchical span tracer (repro.observability.spans)."""

import json

import pytest

from repro.aggregation import AggregationTier
from repro.observability.spans import (
    SpanTracer,
    activate_tracer,
    canonical_span_bytes,
    critical_path,
    current_tracer,
    deterministic_span_id,
    load_spans_jsonl,
    spans_jsonl_bytes,
    summarize_spans,
)


class FakeClock:
    """Deterministic perf_counter/time stand-in."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_tracer(trace_id="t"):
    return SpanTracer(trace_id, clock=FakeClock(), wall=FakeClock(1.0))


class TestIdentity:
    def test_span_id_is_content_addressed(self):
        a = deterministic_span_id("t", "campaign[0]/seed[3]")
        assert a == deterministic_span_id("t", "campaign[0]/seed[3]")
        assert len(a) == 16
        assert a != deterministic_span_id("t", "campaign[0]/seed[4]")
        assert a != deterministic_span_id("u", "campaign[0]/seed[3]")

    def test_paths_nest_and_ordinals_count_per_parent_per_name(self):
        tracer = make_tracer()
        with tracer.span("campaign", kind="campaign"):
            with tracer.span("seed"):
                pass
            with tracer.span("seed"):
                pass
            with tracer.span("prepass"):
                pass
        paths = [r.path for r in tracer.records()]
        assert paths == [
            "campaign[0]",
            "campaign[0]/seed[0]",
            "campaign[0]/seed[1]",
            "campaign[0]/prepass[0]",
        ]

    def test_explicit_ordinal_pins_the_path(self):
        tracer = make_tracer()
        with tracer.span("campaign"):
            with tracer.span("seed", ordinal=7) as sp:
                pass
        assert sp.path == "campaign[0]/seed[7]"
        assert sp.span_id == deterministic_span_id("t", "campaign[0]/seed[7]")

    def test_parent_ids_link_the_tree(self):
        tracer = make_tracer()
        with tracer.span("campaign") as root:
            with tracer.span("seed") as child:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id


class TestPropagation:
    def test_worker_tracer_reproduces_parent_side_ids(self):
        """from_context + absorb == recording directly under the parent."""
        direct = make_tracer()
        with direct.span("campaign"):
            with direct.span("item", ordinal=5, cache="miss"):
                pass

        parent = make_tracer()
        with parent.span("campaign"):
            ctx = parent.context()
        worker = SpanTracer.from_context(ctx)
        with worker.span("item", ordinal=5, cache="miss"):
            pass
        parent.absorb(worker.export_records())

        assert parent.canonical_bytes() == direct.canonical_bytes()

    def test_context_names_the_trace_root_outside_any_span(self):
        tracer = make_tracer()
        ctx = tracer.context()
        assert ctx == {"trace_id": "t", "path": "", "span_id": None}

    def test_contextvar_activation(self):
        assert current_tracer() is None
        tracer = make_tracer()
        with activate_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
        assert current_tracer() is None


class TestCanonicalBytes:
    def test_excludes_timing_and_non_canonical_spans(self):
        tracer = make_tracer()
        with tracer.span("campaign"):
            with tracer.span("item", ordinal=0) as item:
                item.measure(lane=3)
            tracer.record_span(
                "shard", kind="shard", canonical=False,
                measures={"lane": 1},
            )
        lines = tracer.canonical_bytes().decode().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [r["path"] for r in rows] == ["campaign[0]", "campaign[0]/item[0]"]
        for row in rows:
            assert set(row) == {
                "kind", "name", "parent_id", "path", "span_id", "tags",
            }

    def test_path_sorted_regardless_of_record_order(self):
        tracer = make_tracer()
        with tracer.span("campaign"):
            with tracer.span("item", ordinal=11):
                pass
            with tracer.span("item", ordinal=2):
                pass
        rows = [
            json.loads(line)
            for line in tracer.canonical_bytes().decode().splitlines()
        ]
        assert [r["path"] for r in rows] == [
            "campaign[0]",
            "campaign[0]/item[2]",
            "campaign[0]/item[11]",
        ]

    def test_tags_are_deterministic_scalars(self):
        tracer = make_tracer()
        with tracer.span("campaign", seeds=8, mode="outcome", obj=object()):
            pass
        (row,) = [
            json.loads(line)
            for line in tracer.canonical_bytes().decode().splitlines()
        ]
        assert row["tags"]["seeds"] == 8
        assert row["tags"]["mode"] == "outcome"
        assert isinstance(row["tags"]["obj"], str)

    def test_jsonl_round_trips_through_loader(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("campaign", seeds=2) as sp:
            sp.measure(workers=4)
        out = tmp_path / "spans.jsonl"
        out.write_bytes(spans_jsonl_bytes(tracer.records()))
        loaded = load_spans_jsonl(out)
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in tracer.records()
        ]
        assert canonical_span_bytes(loaded) == tracer.canonical_bytes()


class TestAggregatedSpans:
    def test_record_span_appends_completed_span(self):
        tracer = make_tracer()
        with tracer.span("engine_run"):
            tracer.record_span(
                "schedule", kind="phase", tags={"calls": 10},
                measures={"wall_us": 1234}, dur_us=0,
            )
        phase = tracer.records()[-1]
        assert phase.path == "engine_run[0]/schedule[0]"
        assert phase.tags == {"calls": 10}
        assert phase.measures == {"wall_us": 1234}


class TestExportsAndReports:
    def _tree(self):
        tracer = make_tracer()
        with tracer.span("campaign", seeds=2):
            with tracer.span("item", ordinal=0, cache="hit") as sp:
                sp.measure(lane=1)
            with tracer.span("item", ordinal=1, cache="miss"):
                pass
        return tracer

    def test_chrome_trace_layout(self):
        trace = self._tree().chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["args"]["name"] for e in meta}
        assert {"coordinator", "shard-1"} <= names
        assert len(spans) == 3
        lanes = {e["name"]: e["tid"] for e in spans}
        assert lanes["campaign"] == 0 and lanes["item"] in (0, 1)
        for e in spans:
            assert e["dur"] >= 1 and "path" in e["args"]

    def test_summarize_groups_by_kind_and_name(self):
        (campaign, items) = summarize_spans(self._tree().records())[:2]
        groups = {g["name"]: g for g in (campaign, items)}
        assert groups["item"]["count"] == 2
        assert groups["item"]["tag_counts"] == {"cache=hit": 1, "cache=miss": 1}
        assert groups["campaign"]["tag_totals"] == {"seeds": 2}

    def test_critical_path_descends_longest_child(self):
        tracer = SpanTracer("t", clock=FakeClock(), wall=FakeClock(1.0))
        with tracer.span("campaign"):
            with tracer.span("fast"):
                pass
            with tracer.span("slow"):
                with tracer.span("inner"):
                    pass
        chain = critical_path(tracer.records())
        assert [e["name"] for e in chain] == ["campaign", "slow", "inner"]
        assert chain[0]["fraction"] == 1.0
        assert all(e["self_us"] >= 0 for e in chain)

    def test_empty_records(self):
        assert summarize_spans([]) == []
        assert critical_path([]) == []
        assert canonical_span_bytes([]) == b""


class TestAggregationTierSpans:
    def test_flush_spans_rolls_up_churn_ops(self):
        tracer = make_tracer()
        tier = AggregationTier(4, engine="tensor", strict=False, tracer=tracer)
        for sid in range(6):
            tier.join(sid)
        tier.leave(5, weight=1)
        for i in range(3):
            tier.submit(i, deadline=1 << 20)
        tier.drain()
        tier.flush_spans()
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["churn.join"].tags["ops"] == 6
        assert by_name["churn.leave"].tags["ops"] == 1
        assert by_name["submit"].tags["ops"] == 3
        assert by_name["dispatch"].tags["ops"] >= 3
        assert by_name["dispatch"].kind == "dispatch"
        assert by_name["churn.join"].measures["wall_us"] >= 0

    def test_flush_resets_accumulators(self):
        tracer = make_tracer()
        tier = AggregationTier(4, engine="tensor", strict=False, tracer=tracer)
        tier.join(0)
        tier.flush_spans()
        n = len(tracer.records())
        tier.flush_spans()
        assert len(tracer.records()) == n  # nothing new accumulated

    def test_untraced_tier_keeps_fast_path(self):
        tier = AggregationTier(4, engine="tensor", strict=False)
        assert tier.tracer is None
        tier.join(0)
        tier.flush_spans()  # no-op, must not raise

    def test_flush_requires_no_pending_ops(self):
        tracer = make_tracer()
        tier = AggregationTier(4, engine="tensor", strict=False, tracer=tracer)
        tier.flush_spans()
        assert tracer.records() == []


class TestEnginePhaseSpans:
    def test_run_bucket_emits_phase_spans_only_when_traced(self):
        from repro.core.differential import generate_scenario, run_bucket

        scenarios = [generate_scenario(3, n_cycles=60)]
        tracer = make_tracer()
        run_bucket(scenarios, tracer=tracer)
        phases = {r.name for r in tracer.records() if r.kind == "phase"}
        assert {"schedule", "priority_update"} <= phases
        sched = next(r for r in tracer.records() if r.name == "schedule")
        assert sched.tags["calls"] > 0
        assert "wall_us" in sched.measures

    def test_phase_report_disabled_by_default(self):
        from repro.core.attributes import SchedulingMode, StreamConfig
        from repro.core.config import ArchConfig, Routing
        from repro.core.tensor_engine import CampaignEngine

        arch = ArchConfig(n_slots=4, routing=Routing.WR, wrap=False)
        streams = [
            StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
            for i in range(4)
        ]
        engine = CampaignEngine(arch, [streams])
        engine.run_periodic(5, step=1)
        assert engine.phase_report() == {}


@pytest.mark.parametrize("bad", ["seed[x]", ""])
def test_path_key_requires_bracketed_segments(bad):
    from repro.observability.spans import _path_key

    with pytest.raises(ValueError):
        _path_key(bad)
