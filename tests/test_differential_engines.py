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

from hypothesis import given, settings

from repro.core.attributes import SchedulingMode
from repro.core.config import BlockMode, Routing
from repro.core.differential import (
    campaign,
    cross_validate,
    cross_validate_traces,
    generate_scenario,
    run_engine,
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
        assert result.routings == {Routing.BA, Routing.WR}
        assert result.block_modes == {BlockMode.MAX_FIRST, BlockMode.MIN_FIRST}
        assert len(result.modes) >= 2
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


class TestTraceEquivalence:
    def test_fifty_scenarios_byte_identical_telemetry(self):
        """The trace-equivalence acceptance campaign: >= 50 randomized
        scenarios where both engines' structured telemetry event
        streams (and their canonical serializations) are identical,
        with zero divergences."""
        result = campaign(range(50), n_cycles=200, mode="trace")
        assert result.scenarios == 50
        assert result.routings == {Routing.BA, Routing.WR}
        assert result.block_modes == {BlockMode.MAX_FIRST, BlockMode.MIN_FIRST}
        assert result.passed, "\n\n".join(str(d) for d in result.divergences)

    def test_single_scenario_validator(self):
        scenario = generate_scenario(11, n_cycles=200)
        assert cross_validate_traces(scenario) is None


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
