"""Golden conformance vectors: both engines vs the committed JSON.

The vectors under ``tests/golden/`` were generated from the reference
engine by ``tests/golden/regen.py`` and are committed; these tests
replay them against the reference engine (regression pin: behaviour
cannot drift silently) *and* the tensor array engine (conformance: the
fast path reproduces the pinned traces exactly).  After an
intentional behaviour change, regenerate with::

    PYTHONPATH=src python tests/golden/regen.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.rules import Rule, compare_with_rule
from repro.core.tensor_engine import TensorScheduler
from tests.golden import regen

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load(name: str) -> dict:
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"missing golden vector {name}; run PYTHONPATH=src python tests/golden/regen.py"
    )
    return json.loads(path.read_text())


class TestGeneratorSync:
    """The committed JSON matches what the generator produces today.

    Fails when reference-engine behaviour (or the generator) changes
    without regenerating — the signal to rerun regen.py and review the
    vector diff.
    """

    @pytest.mark.parametrize("name", sorted(regen.VECTORS))
    def test_vector_file_is_current(self, name):
        assert regen.VECTORS[name]() == _load(name)


class TestTable2Rules:
    def test_every_case_matches(self):
        data = _load("table2_rules.json")
        for i, case in enumerate(data["cases"]):
            a = regen._attrs_from_dict(case["a"])
            b = regen._attrs_from_dict(case["b"])
            result, rule = compare_with_rule(
                a, b, wrap=case["wrap"], deadline_only=case["deadline_only"]
            )
            assert (result, rule.value) == (case["result"], case["rule"]), (
                f"case {i}: {case}"
            )

    def test_all_rules_covered(self):
        data = _load("table2_rules.json")
        fired = {case["rule"] for case in data["cases"]}
        assert fired == {rule.value for rule in Rule}


class TestTable3Traces:
    @pytest.mark.parametrize(
        "config", sorted(regen._TABLE3_CONFIGS)
    )
    def test_reference_engine_matches(self, config):
        data = _load("table3_vectors.json")
        rebuilt = regen.build_table3_vectors(data["frames_per_stream"])
        assert rebuilt["configs"][config] == data["configs"][config]


class TestTable3TensorDispatch:
    """The pinned traces replay through ``TensorScheduler.run_periodic``
    on both sides of the shape dispatch: the scalar periodic driver
    (compiled when numba is importable) and the NumPy loop."""

    @pytest.mark.parametrize("config", sorted(regen._TABLE3_CONFIGS))
    @pytest.mark.parametrize("driver_max_cells", [0, 1 << 30], ids=["numpy", "driver"])
    def test_tensor_engine_matches(self, monkeypatch, driver_max_cells, config):
        from repro.core import tensor_engine

        monkeypatch.setattr(tensor_engine, "DRIVER_MAX_CELLS", driver_max_cells)
        data = _load("table3_vectors.json")
        vec = data["configs"][config]
        engine = TensorScheduler(*regen.table3_arch_streams(vec))
        res = engine.run_periodic(
            vec["n_cycles"],
            offsets=np.arange(1, 5, dtype=np.int64),
            step=1,
            consume=vec["consume"],
            count_misses=vec["count_misses"],
            collect_winners=True,
        )
        assert res.winners is not None
        assert res.winners.tolist() == vec["winners"]
        assert res.wins.tolist() == vec["wins"]
        assert res.misses.tolist() == vec["missed"]
        assert res.serviced.tolist() == vec["serviced"]


class TestPifoVectors:
    """Committed PIFO rank-function summaries replay on every engine."""

    @pytest.mark.parametrize("engine", ["reference", "tensor"])
    def test_all_rank_functions_match(self, engine):
        from repro.disciplines.pifo import generate_pifo_scenario, run_pifo

        data = _load("pifo_vectors.json")
        for name, vec in data["disciplines"].items():
            for seed, expected in zip(data["seeds"], vec["runs"]):
                scenario = generate_pifo_scenario(
                    seed, n_cycles=data["n_cycles"]
                )
                got = run_pifo(name, scenario, engine=engine)
                assert got == expected, f"pifo:{name} seed={seed} ({engine})"

    def test_metadata_matches_registry(self):
        from repro.disciplines.pifo import PIFO_RANK_FUNCTIONS

        data = _load("pifo_vectors.json")
        assert sorted(data["disciplines"]) == sorted(PIFO_RANK_FUNCTIONS)
        for name, vec in data["disciplines"].items():
            fn = PIFO_RANK_FUNCTIONS[name]
            assert vec["rank"] == fn.rank.describe()
            assert vec["vclock"] == fn.vclock
            assert vec["equivalent_to"] == fn.equivalent_to


class TestAggregationVectors:
    """The committed 10k-stream churn summary replays on every engine."""

    @pytest.mark.parametrize("engine", ["reference", "tensor"])
    def test_standalone_engines_match(self, engine):
        from repro.aggregation import run_aggregation

        data = _load("aggregation_vectors.json")
        got = run_aggregation(regen.aggregation_scenario(), engine=engine)
        assert got == data["summary"], f"aggregation vector diverged ({engine})"

    def test_tensor_campaign_matches(self):
        from repro.aggregation import run_aggregation_bucket

        data = _load("aggregation_vectors.json")
        [got] = run_aggregation_bucket([regen.aggregation_scenario()])
        assert got == data["summary"], "aggregation vector diverged (tensor)"

    def test_scenario_shape_is_pinned(self):
        data = _load("aggregation_vectors.json")
        scenario = regen.aggregation_scenario()
        assert data["n_streams"] == regen.AGGREGATION_STREAMS == 10_000
        assert data["n_aggregates"] == regen.AGGREGATION_AGGREGATES == 16
        assert scenario.total_streams >= 10_000
        # Scripted churn actually happened in the committed workload.
        assert data["summary"]["streams_left"] > 0
        assert data["summary"]["enqueued"] == data["summary"]["serviced"]


class TestDWCSTrace:
    def _replay(self, scheduler, data):
        for expected in data["cycles"]:
            t = expected["now"]
            for sid, deadline, arrival in regen.dwcs_arrivals(t):
                scheduler.enqueue(sid, deadline=deadline, arrival=arrival)
            outcome = scheduler.decision_cycle(
                t, consume="winner", count_misses=True
            )
            got = {
                "now": t,
                "block": list(outcome.block),
                "circulated": (
                    -1 if outcome.circulated_sid is None else outcome.circulated_sid
                ),
                "serviced": [sid for sid, _pkt in outcome.serviced],
                "misses": list(outcome.misses),
            }
            assert got == expected, f"cycle {t} diverged"
        counters = scheduler.counters()
        assert [counters[s].wins for s in range(4)] == data["wins"]
        assert [counters[s].missed_deadlines for s in range(4)] == data["missed"]
        assert [counters[s].violations for s in range(4)] == data["violations"]
        assert [counters[s].window_resets for s in range(4)] == data["window_resets"]

    def test_reference_engine_matches(self):
        data = _load("dwcs_trace.json")
        self._replay(regen._dwcs_scheduler(), data)

    def test_tensor_engine_matches(self):
        data = _load("dwcs_trace.json")
        self._replay(TensorScheduler(*regen.dwcs_arch_streams()), data)
