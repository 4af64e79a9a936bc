"""Correctness gates: a corrupted simulated counter must fail the round."""

import dataclasses
import json

import pytest

from roles import ROLES
from workloads import Aggregation, Campaign, Clock, Table3, _scenario_class, digest

ENGINES = dict(ROLES)


@pytest.fixture
def small_table3():
    workload = Table3(ENGINES)
    workload.FRAMES = 40
    return workload, workload.setup(0)


def test_clean_round_passes_every_check(small_table3):
    workload, state = small_table3
    rnd = workload.run(state, 0, Clock())
    assert rnd.checks and all(c.ok for c in rnd.checks), [c for c in rnd.checks if not c.ok]


def test_corrupted_counter_fails_the_gate(small_table3, monkeypatch):
    from repro.experiments import table3

    workload, state = small_table3
    real = table3.run_table3

    def corrupted(*args, **kwargs):
        results = real(*args, **kwargs)
        if kwargs.get("engine") == ENGINES["array"]:
            res = results["block_min_first"]
            row = dataclasses.replace(res.rows[0], missed_deadlines=res.rows[0].missed_deadlines + 1)
            results["block_min_first"] = dataclasses.replace(res, rows=(row,) + res.rows[1:])
        return results

    monkeypatch.setattr(table3, "run_table3", corrupted)
    rnd = workload.run(state, 0, Clock())
    failed = {c.name for c in rnd.checks if not c.ok}
    assert failed == {"oracle == array counters", "array block_min_first total"}


def test_digest_moves_with_any_counter(small_table3):
    workload, state = small_table3
    stats = workload.run(state, 0, Clock()).stats
    bumped = json.loads(json.dumps(stats))
    bumped["max_finding"][0][0] += 1
    assert digest(stats) != digest(bumped)


def test_expected_totals_at_paper_scale():
    assert Table3.expected(16_000) == {
        "max_finding": 255_982,
        "block_max_first": 0,
        "block_min_first": 48_000,
        "block_winner_cycles": 16_000,
    }


def test_aggregation_replay_checks_service(monkeypatch):
    from workloads import ChurnScript

    workload = Aggregation(ENGINES)
    tier = workload._tier(ENGINES["array"], 2048)
    from workloads import Round

    rnd = Round(units=0)
    served = workload.replay(tier, ChurnScript(3, 2048).segment(60), rnd, "array")
    assert served > 0 and all(c.ok for c in rnd.checks)


def test_campaign_seeds_keep_the_canonical_shape_mix(tmp_path):
    from repro.core.differential import generate_scenario

    workload = Campaign(ENGINES, tmp_path)
    assert workload.seeds(0) == list(range(50))
    held_out = workload.seeds(12345)
    assert len(set(held_out)) == 50 and not set(held_out) & set(range(50))
    for canonical, seed in zip(range(50), held_out):
        assert _scenario_class(generate_scenario(seed)) == _scenario_class(
            generate_scenario(canonical)
        )
