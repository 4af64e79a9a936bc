"""Trace-replay determinism and the golden decision-trace vector.

The structured decision trace is only useful as a correctness oracle
if it is deterministic down to the byte: the same workload must
serialize to the identical JSONL stream on every run, from *either*
engine.  These tests pin that property and replay the committed golden
vector (``tests/golden/decision_trace.json``) so any change to the
event schema, flattening order or encoding fails loudly until the
vector is regenerated and the diff reviewed.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.batch_engine import make_scheduler
from repro.core.differential import generate_scenario, run_engine
from repro.observability import (
    DecisionEvent,
    TraceRecorder,
    deserialize_events,
)

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))

from regen import (  # noqa: E402  (path set up above)
    DECISION_TRACE_CYCLES,
    build_decision_trace,
    dwcs_arch_streams,
    dwcs_arrivals,
)


def _run_dwcs(engine: str, n_cycles: int = DECISION_TRACE_CYCLES) -> TraceRecorder:
    """The golden DWCS workload against either engine, trace attached."""
    recorder = TraceRecorder()
    scheduler = make_scheduler(*dwcs_arch_streams(), engine=engine, observer=recorder)
    for t in range(n_cycles):
        for sid, deadline, arrival in dwcs_arrivals(t):
            scheduler.enqueue(sid, deadline=deadline, arrival=arrival)
        scheduler.decision_cycle(
            t, consume="winner", count_misses=True, drop_late=(t % 3 == 0)
        )
    return recorder


class TestReplayDeterminism:
    def test_same_engine_twice_is_byte_identical(self):
        assert _run_dwcs("reference").serialize() == _run_dwcs("reference").serialize()

    def test_engines_serialize_byte_identically(self):
        ref = _run_dwcs("reference").serialize()
        tensor = _run_dwcs("tensor").serialize()
        assert ref == tensor

    @pytest.mark.parametrize("seed", [3, 17, 4242])
    def test_randomized_scenarios_byte_identical_across_engines(self, seed):
        scenario = generate_scenario(seed, n_cycles=120, max_slots=16)
        recs = {}
        for engine in ("reference", "tensor"):
            recs[engine] = TraceRecorder()
            run_engine(scenario, engine, observer=recs[engine])
        assert recs["reference"].serialize() == recs["tensor"].serialize()

    def test_serialization_round_trips(self):
        recorder = _run_dwcs("reference")
        events = deserialize_events(recorder.serialize())
        assert events == list(recorder.events())
        assert all(isinstance(e, DecisionEvent) for e in events)


class TestGoldenDecisionTrace:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((GOLDEN / "decision_trace.json").read_text())

    def test_builder_matches_committed_vector(self, golden):
        assert build_decision_trace() == golden

    @pytest.mark.parametrize("engine", ["reference", "tensor"])
    def test_engine_replays_golden_bytes(self, golden, engine):
        recorder = _run_dwcs(engine, n_cycles=golden["n_cycles"])
        assert recorder.serialize().decode("utf-8") == golden["jsonl"]
        assert recorder.to_dicts() == golden["events"]

    def test_golden_covers_all_event_kinds(self, golden):
        kinds = {e["kind"] for e in golden["events"]}
        assert kinds == {"decide", "miss", "drop"}

    def test_golden_jsonl_matches_events(self, golden):
        parsed = [json.loads(line) for line in golden["jsonl"].splitlines()]
        assert parsed == golden["events"]
