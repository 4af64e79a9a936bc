"""Integration tests: parallel campaigns equal sequential ones.

The acceptance bar for the sharded runner is that ``--workers N`` is
purely an execution detail: the differential campaign summary, the
sweep summaries and the Table 3 counters must come out identical for
any worker count, warm cache runs must execute nothing, and a crashing
shard must name exactly the seeds it lost.
"""

import os

import pytest

from repro.core.differential import (
    CampaignResult,
    SeedOutcome,
    campaign,
    validate_bucket,
    validate_seed,
)
from repro.experiments.sweeps import sweep_figures, sweep_isolation
from repro.experiments.table3 import run_table3
from repro.runner import start_method

CYCLES = 80
SEEDS = range(12)


def crash_on_seed_5(seeds, n_cycles, mode):
    """Drop-in for ``validate_bucket`` that hard-kills seed 5's shard."""
    if 5 in seeds:
        os._exit(9)
    return validate_bucket(seeds, n_cycles, mode)


class TestCampaignParallelEquality:
    @pytest.mark.parametrize("mode", ["outcome", "trace"])
    def test_summary_is_byte_identical_across_worker_counts(self, mode):
        sequential = campaign(SEEDS, n_cycles=CYCLES, mode=mode, workers=1)
        sharded = campaign(SEEDS, n_cycles=CYCLES, mode=mode, workers=4)
        assert sequential.passed and sharded.passed
        assert sharded.summary_json() == sequential.summary_json()
        assert sharded.scenarios == len(list(SEEDS))
        assert sharded.routings == sequential.routings
        assert sharded.block_modes == sequential.block_modes
        assert sharded.modes == sequential.modes

    def test_validate_seed_matches_inline_fold(self):
        outcome = validate_seed(3, CYCLES, "outcome")
        assert isinstance(outcome, SeedOutcome)
        assert outcome.seed == 3
        assert outcome.divergence is None
        result = campaign([3], n_cycles=CYCLES)
        assert {outcome.routing} == {r.value for r in result.routings}

    def test_stop_on_divergence_still_sequential(self):
        result = campaign(
            SEEDS, n_cycles=CYCLES, stop_on_divergence=True, workers=4
        )
        assert result.passed
        assert result.workers == 1  # forced sequential path

    def test_summary_excludes_execution_details(self):
        summary = campaign(SEEDS, n_cycles=CYCLES, workers=2).summary()
        assert "workers" not in summary
        assert "cached" not in summary


class TestCampaignCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        cold = campaign(
            SEEDS, n_cycles=CYCLES, workers=2, cache_dir=tmp_path
        )
        assert cold.executed == cold.scenarios and cold.cached == 0
        warm = campaign(
            SEEDS, n_cycles=CYCLES, workers=2, cache_dir=tmp_path
        )
        assert warm.cached == warm.scenarios and warm.executed == 0
        assert warm.summary_json() == cold.summary_json()

    def test_no_cache_leaves_directory_untouched(self, tmp_path):
        campaign(
            SEEDS, n_cycles=CYCLES, cache_dir=tmp_path, use_cache=False
        )
        assert list(tmp_path.iterdir()) == []

    def test_cache_keys_separate_modes_and_cycles(self, tmp_path):
        campaign(SEEDS, n_cycles=CYCLES, cache_dir=tmp_path)
        relitigated = campaign(
            SEEDS, n_cycles=CYCLES + 1, cache_dir=tmp_path
        )
        assert relitigated.cached == 0  # different resolved scenarios
        other_mode = campaign(
            SEEDS, n_cycles=CYCLES, mode="trace", cache_dir=tmp_path
        )
        assert other_mode.cached == 0  # different namespace


@pytest.mark.skipif(
    start_method() is None, reason="no multiprocessing start method"
)
class TestCampaignFailureIsolation:
    def test_crashing_shard_surfaces_its_seeds(self):
        result = campaign(
            SEEDS, n_cycles=CYCLES, workers=4, _task=crash_on_seed_5
        )
        assert not result.passed
        (failure,) = result.failures
        assert 5 in failure.items
        assert failure.exitcode == 9
        # Every seed is its own bucket at this cycle count, so
        # round-robin over 12 buckets / 4 shards: seed 5 rode shard 1
        # with seeds 1 and 9; everything else still validated.
        assert set(failure.items) == {1, 5, 9}
        assert result.scenarios == len(list(SEEDS)) - len(failure.items)
        summary = result.summary()
        assert summary["passed"] is False
        assert summary["failures"][0]["seeds"] == sorted(failure.items)

    def test_crash_report_is_deterministic(self):
        first = campaign(
            SEEDS, n_cycles=CYCLES, workers=4, _task=crash_on_seed_5
        )
        second = campaign(
            SEEDS, n_cycles=CYCLES, workers=4, _task=crash_on_seed_5
        )
        assert first.summary_json() == second.summary_json()


class TestTable3Parallel:
    def test_workers_do_not_change_the_table(self):
        frames = 200
        sequential = run_table3(frames, workers=1)
        sharded = run_table3(frames, workers=3)
        assert sharded == sequential

    def test_tensor_engine_parallel(self):
        frames = 200
        assert run_table3(frames, engine="tensor", workers=3) == run_table3(
            frames, engine="tensor", workers=1
        )

    def test_parallel_telemetry_is_merged(self):
        from repro.observability import (
            ConformanceMonitor,
            Observability,
            StreamSlo,
        )

        def observed(workers):
            obs = Observability(trace=False, profile=False)
            obs.monitor = ConformanceMonitor(
                [StreamSlo(sid=i, miss_budget=0) for i in range(4)],
                window_cycles=64,
                registry=obs.metrics,
                flight_recorder=False,
            )
            run_table3(100, observer=obs, workers=workers)
            return obs

        merged = observed(workers=3)
        # All three configurations' windows arrived, in config order.
        assert merged.monitor.rollup.windows_closed > 0
        indices = [w.index for w in merged.monitor.rollup.history]
        assert indices == sorted(set(indices))
        # The overloaded max-finding configuration violates the zero
        # miss budget; the violations survived the merge.
        assert merged.monitor.slo.violations
        assert merged.metrics.names()


class TestSweepParallelEquality:
    def test_figure8_sweep_matches_sequential(self):
        sizes = [400, 800]
        sequential = sweep_figures("figure8", sizes, workers=1)
        sharded = sweep_figures("figure8", sizes, workers=2)
        assert sharded.summary_json() == sequential.summary_json()
        assert [p.param for p in sharded.points] == sizes

    def test_isolation_sweep_cache(self, tmp_path):
        seeds = [3, 5]
        cold = sweep_isolation(
            seeds, horizon=600, workers=2, cache_dir=tmp_path
        )
        warm = sweep_isolation(
            seeds, horizon=600, workers=1, cache_dir=tmp_path
        )
        assert cold.executed == 2 and cold.cached == 0
        assert warm.cached == 2 and warm.executed == 0
        assert warm.summary_json() == cold.summary_json()
        # A different horizon is a different workload, not a cache hit.
        other = sweep_isolation(
            seeds, horizon=601, workers=1, cache_dir=tmp_path
        )
        assert other.cached == 0

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            sweep_figures("table3", [1])

    def test_campaign_mode_validation(self):
        with pytest.raises(ValueError):
            campaign([1], mode="nonsense")

    def test_campaign_result_defaults(self):
        result = CampaignResult()
        assert result.passed and result.summary()["scenarios"] == 0
