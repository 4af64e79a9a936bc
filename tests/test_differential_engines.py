"""Property-based differential tests: the tensor adapter vs the oracle.

The array engine's single-scenario adapter
(:class:`~repro.core.tensor_engine.TensorScheduler`) must be
winner-for-winner, miss-for-miss and packet-for-packet identical to the
cycle-level object model on any scenario.  Scenarios are derived from integer seeds by
:func:`repro.core.differential.generate_scenario`; a failing test
prints the seed, and ``cross_validate(generate_scenario(seed))``
reproduces the divergence exactly.

The full acceptance campaign (200 scenarios x 1000 cycles) can be run
standalone with::

    PYTHONPATH=src python -m repro.core.differential --count 200
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core import differential
from repro.core.attributes import SchedulingMode
from repro.core.config import BlockMode, Routing
from repro.core.differential import (
    campaign,
    cross_validate,
    generate_scenario,
    run_engine,
    work_conservation,
)
from tests.strategies import differential_scenarios


def _assert_agrees(scenario):
    divergence = cross_validate(scenario)
    assert divergence is None, (
        f"\nreproduce with seed {scenario.seed}:\n{divergence}"
    )


class TestCampaign:
    def test_two_hundred_randomized_scenarios(self):
        """The acceptance campaign: >= 200 seeded scenarios spanning
        both routings, both block modes and >= 2 disciplines, with
        zero divergences from the object model."""
        result = campaign(range(200), n_cycles=300)
        assert result.scenarios == 200
        assert result.coverage["routings"] == {Routing.BA.value, Routing.WR.value}
        assert result.coverage["block_modes"] == {
            BlockMode.MAX_FIRST.value, BlockMode.MIN_FIRST.value,
        }
        assert len(result.coverage["modes"]) >= 2
        assert result.passed, "\n\n".join(str(d) for d in result.divergences)

    def test_long_runs_thousand_cycles(self):
        """A slice of the campaign at >= 1k decision cycles each."""
        for seed in range(16):
            _assert_agrees(generate_scenario(seed, n_cycles=1000))

    def test_large_extended_configs(self):
        """Beyond-single-chip widths (up to 64 streams) also agree."""
        checked = 0
        seed = 0
        while checked < 4:
            scenario = generate_scenario(seed, n_cycles=300)
            if scenario.n_slots == 64:
                _assert_agrees(scenario)
                checked += 1
            seed += 1


class TestPropertyBased:
    @given(scenario=differential_scenarios(n_cycles=1000, max_slots=16))
    @settings(max_examples=25, deadline=None, print_blob=True)
    def test_any_seed_agrees(self, scenario):
        """Any scenario drawn from the full seed space agrees over 1k
        cycles (hypothesis prints the falsifying seed on failure)."""
        _assert_agrees(scenario)


class TestScenarioGenerator:
    def test_deterministic(self):
        assert generate_scenario(42) == generate_scenario(42)

    def test_seed_sensitivity(self):
        assert generate_scenario(1) != generate_scenario(2)

    def test_traces_are_reproducible(self):
        scenario = generate_scenario(7, n_cycles=100)
        assert run_engine(scenario, "tensor") == run_engine(scenario, "tensor")

    def test_coverage_of_design_space(self):
        """200 seeds cover both routings, both block modes, both
        schedules, both arithmetic modes and all four disciplines."""
        scenarios = [generate_scenario(s) for s in range(200)]
        assert {s.routing for s in scenarios} == {Routing.BA, Routing.WR}
        assert {s.block_mode for s in scenarios} == {
            BlockMode.MAX_FIRST,
            BlockMode.MIN_FIRST,
        }
        assert {s.schedule for s in scenarios} == {"paper", "bitonic"}
        assert {s.wrap for s in scenarios} == {True, False}
        modes = {st.mode for s in scenarios for st in s.streams}
        assert modes == {
            SchedulingMode.DWCS,
            SchedulingMode.EDF,
            SchedulingMode.STATIC_PRIORITY,
            SchedulingMode.FAIR_SHARE,
        }


def _drop_service(record):
    """One serviced packet removed from a busy cycle."""
    if not record.serviced:
        return None
    return record._replace(serviced=record.serviced[1:])


def _make_idle(record):
    """A backlogged cycle recorded as idle: no block, winner or service."""
    if record.circulated is None:
        return None
    return record._replace(block=(), circulated=None, serviced=())


def _doctor(trace, mutate):
    """``trace`` with ``mutate`` applied to the first cycle it changes,
    and that cycle (``None``: nothing to change)."""
    records = list(trace.records)
    for t, record in enumerate(records):
        doctored = mutate(record)
        if doctored is not None:
            records[t] = doctored
            return replace(trace, records=tuple(records)), t
    return trace, None


class TestWorkConservation:
    """The scheduler kind's invariant, computed from the arrival
    schedule and the oracle's cycle records alone."""

    def test_oracle_runs_are_work_conserving(self):
        for seed in range(30):
            scenario = generate_scenario(seed, n_cycles=300)
            trace = run_engine(scenario, "reference")
            assert work_conservation(scenario, trace) is None, seed

    @pytest.mark.parametrize("mutate", [_drop_service, _make_idle])
    def test_doctored_trace_is_caught(self, mutate):
        checked = 0
        for seed in range(16):
            scenario = generate_scenario(seed, n_cycles=200)
            doctored, t = _doctor(run_engine(scenario, "reference"), mutate)
            if t is None:
                continue
            checked += 1
            divergence = work_conservation(scenario, doctored)
            assert divergence is not None, seed
            assert (divergence.field, divergence.cycle) == (
                "work_conservation", t
            )
            assert divergence.invariant
            assert "oracle broke work_conservation" in str(divergence)
        assert checked >= 10

    @pytest.mark.parametrize("mutate", [_drop_service, _make_idle])
    def test_campaign_fails_when_both_engines_agree_on_it(
        self, monkeypatch, mutate
    ):
        """Doctor the oracle trace and every bucket row the same way:
        the engines still agree, so only the invariant fails."""
        run_one, run_rows = differential.run_engine, differential.run_bucket

        def doctored_engine(*args, **kwargs):
            return _doctor(run_one(*args, **kwargs), mutate)[0]

        def doctored_bucket(*args, **kwargs):
            return [_doctor(t, mutate)[0] for t in run_rows(*args, **kwargs)]

        monkeypatch.setattr(differential, "run_engine", doctored_engine)
        monkeypatch.setattr(differential, "run_bucket", doctored_bucket)
        result = campaign(range(6), n_cycles=120)
        assert not result.passed
        assert result.scenarios == 6
        assert len(result.divergences) >= 4
        assert {d.field for d in result.divergences} == {"work_conservation"}
        summary = result.summary()
        assert summary["divergences"][0]["field"] == "work_conservation"
