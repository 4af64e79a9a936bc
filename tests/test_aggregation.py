"""Unit tests for the hierarchical million-stream aggregation tier.

Covers the tier mechanics (bucketing, O(1) churn, refill/service flow,
hot-path memory eviction), the three-way byte-identity contract,
per-aggregate SLO rollups through the ``observer=`` hook, the
aggregation-aware differential path with its topology-keyed result
cache, the ``CACHE_SCHEMA`` bump regression, and the CLI subcommand.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    AggregationCampaign,
    AggregationTier,
    aggregate_share_slos,
    generate_aggregation_scenario,
    hash_bucket,
    run_aggregation,
    run_aggregation_bucket,
)
from repro.aggregation.scenario import _apply_cycle, summarize_tier
from repro.aggregation.tier import ServiceLog
from repro.core.differential import validate_aggregation
from repro.runner import ResultCache


def _blob(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=1) + "\n"


class TestHashBucket:
    def test_deterministic_and_in_range(self):
        for sid in range(5000):
            a = hash_bucket(sid, 16)
            assert 0 <= a < 16
            assert hash_bucket(sid, 16) == a

    def test_salt_changes_mapping(self):
        base = [hash_bucket(sid, 16) for sid in range(1000)]
        salted = [hash_bucket(sid, 16, salt=1) for sid in range(1000)]
        assert base != salted

    def test_roughly_uniform(self):
        counts = [0] * 16
        for sid in range(16_000):
            counts[hash_bucket(sid, 16)] += 1
        assert min(counts) > 700 and max(counts) < 1300


class TestMembership:
    def test_join_assigns_hash_bucket(self):
        tier = AggregationTier(8, engine="reference")
        for sid in (0, 7, 123, 99_999):
            assert tier.join(sid) == hash_bucket(sid, 8)

    def test_duplicate_join_rejected_strict(self):
        tier = AggregationTier(4, engine="reference")
        tier.join(1)
        with pytest.raises(ValueError, match="already joined"):
            tier.join(1)

    def test_leave_unknown_rejected_strict(self):
        tier = AggregationTier(4, engine="reference")
        with pytest.raises(KeyError, match="not a member"):
            tier.leave(5)

    def test_submit_requires_membership_strict(self):
        tier = AggregationTier(4, engine="reference")
        with pytest.raises(KeyError, match="not a member"):
            tier.submit(3, deadline=10)

    def test_weight_tracking_across_churn(self):
        tier = AggregationTier(4, engine="reference")
        tier.join(0, weight=3)
        tier.join(1, weight=5)
        total = sum(s.weight for s in tier.stats())
        assert total == 8
        tier.leave(0)
        assert sum(s.weight for s in tier.stats()) == 5
        assert tier.active_members == 1

    def test_non_strict_needs_no_per_stream_state(self):
        tier = AggregationTier(4, engine="reference", strict=False)
        tier.join(7, weight=2)
        tier.leave(7, weight=2)
        assert tier.active_members == 0
        assert tier.core._stream_info == {}

    def test_churn_never_touches_engine_state(self):
        """join/leave are pure bucket arithmetic — zero engine calls."""
        tier = AggregationTier(8, engine="tensor")
        calls = []
        tier.scheduler.enqueue = lambda *a, **k: calls.append(a)
        for sid in range(500):
            tier.join(sid)
        for sid in range(0, 500, 2):
            tier.leave(sid)
        assert calls == []

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            AggregationTier(3, engine="reference")
        with pytest.raises(ValueError, match="power of two"):
            AggregationTier(1, engine="reference")

    def test_invalid_weight_rejected(self):
        tier = AggregationTier(4, engine="reference")
        with pytest.raises(ValueError, match="positive"):
            tier.join(0, weight=0)


class TestServiceFlow:
    def test_work_conserving_drain(self):
        tier = AggregationTier(4, engine="reference")
        for sid in range(12):
            tier.join(sid)
        for sid in range(12):
            for _ in range(3):
                tier.submit(sid, deadline=100)
        assert tier.outstanding == 36
        cycles = tier.drain()
        assert tier.outstanding == 0
        assert cycles == 36  # one service per cycle while backlogged

    def test_leave_with_queued_packets_still_drains(self):
        tier = AggregationTier(4, engine="reference")
        tier.join(0, weight=2)
        tier.submit(0, deadline=10)
        tier.submit(0, deadline=11)
        tier.leave(0)
        tier.drain()
        assert tier.core.serviced == 2

    def test_per_stream_state_evicted_on_drain(self):
        """Hot-path memory is O(aggregates + backlog), not O(streams)."""
        tier = AggregationTier(8, engine="tensor")
        for sid in range(200):
            tier.join(sid)
            tier.submit(sid, deadline=50)
        tier.drain()
        assert tier.core._pending == {}
        assert tier.core._finish == {}
        assert tier.core._credits == {}
        assert all(not h for h in tier.core._heaps)

    def test_weighted_shares_follow_aggregate_weights(self):
        """Backlogged aggregates share service ∝ member-weight sums."""
        tier = AggregationTier(2, engine="tensor", salt=3)
        heavy = [sid for sid in range(40) if hash_bucket(sid, 2, salt=3) == 0]
        light = [sid for sid in range(40) if hash_bucket(sid, 2, salt=3) == 1]
        for sid in heavy[:4]:
            tier.join(sid, weight=3)
        for sid in light[:4]:
            tier.join(sid, weight=1)
        n_cycles = 400
        for _ in range(n_cycles // 4):
            for sid in heavy[:4] + light[:4]:
                tier.submit(sid, deadline=10_000)
        for _ in range(n_cycles):
            tier.decision_cycle()
        stats = tier.stats()
        share = stats[0].serviced / (stats[0].serviced + stats[1].serviced)
        assert share == pytest.approx(0.75, abs=0.08)

    def test_intra_aggregate_priority_ordering(self):
        """pifo:prio inside one aggregate: high class first, FIFO within."""
        tier = AggregationTier(2, engine="reference", discipline="pifo:prio")
        sids = [sid for sid in range(20) if hash_bucket(sid, 2) == 0][:3]
        tier.join(sids[0], priority=0)
        tier.join(sids[1], priority=9)
        tier.join(sids[2], priority=0)
        tier.submit(sids[0], deadline=10)
        tier.submit(sids[1], deadline=10)
        tier.submit(sids[2], deadline=10)
        tier.drain()
        order = [sid for _t, sid, _a, _r in tier.services]
        # sids[0] refilled first (head-of-line); the remaining class-0
        # packet then beats the class-9 one (lower class serves first).
        assert order.index(sids[1]) == 2


_INT64 = st.integers(-(2**63), 2**63 - 1)


class TestServiceLog:
    """The compact int64 log behaves like the list of tuples it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.tuples(_INT64, _INT64, _INT64, _INT64), max_size=40),
        data=st.data(),
    )
    def test_matches_plain_list(self, rows, data):
        log = ServiceLog()
        for row in rows:
            log.append(row)
        assert len(log) == len(rows)
        assert list(log) == rows
        assert log == rows and rows == log
        assert log == ServiceLog(rows)
        assert log != rows + [(0, 0, 0, 0)]
        for i in range(-len(rows), len(rows)):
            assert log[i] == rows[i]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                log[i]
        cut = data.draw(st.slices(len(rows) + 2))
        assert log[cut] == rows[cut]
        assert json.dumps(log[cut], separators=(",", ":")) == json.dumps(
            rows[cut], separators=(",", ":")
        )
        log.clear()
        assert len(log) == 0 and log == [] and list(log) == []

    @pytest.mark.parametrize(
        "row",
        [
            (0, 1, 2, 2**63),
            (0, 1, -(2**63) - 1, 3),
            (0, 1, 2**64 + 2, 3),
            (0, 1, 2),
            (0, 1, 2, 3, 4),
            (0, 1, 2.0, 3),
        ],
    )
    def test_bad_row_raises_and_leaves_log_unchanged(self, row):
        """A value outside int64 raises instead of wrapping around."""
        log = ServiceLog([(5, 6, 7, 8)])
        with pytest.raises(ValueError, match="four int64 values"):
            log.append(row)
        assert log == [(5, 6, 7, 8)]

    def test_summary_digest_same_as_list(self):
        scenario = generate_aggregation_scenario(
            3, n_streams=40, n_aggregates=8, n_cycles=80
        )
        tier = AggregationTier(
            scenario.n_aggregates,
            engine="reference",
            discipline=scenario.discipline,
            salt=scenario.salt,
        )
        for sid, weight in scenario.initial:
            tier.join(sid, weight=weight)
        for cycle in scenario.events:
            _apply_cycle(tier, cycle)
            tier.decision_cycle()
        tier.drain()
        assert isinstance(tier.services, ServiceLog)
        summary = summarize_tier(scenario, tier.core, tier.services)
        assert summary == summarize_tier(scenario, tier.core, list(tier.services))
        assert summary == run_aggregation(scenario, engine="reference")


class TestThreeWayIdentity:
    def test_reference_tensor_campaign_byte_identical(self):
        """Standalone tiers on the oracle and on the tensor adapter and
        one tensorized campaign emit byte-identical summaries."""
        scenarios = [
            generate_aggregation_scenario(
                seed, n_streams=30, n_aggregates=8, n_cycles=90
            )
            for seed in range(4)
        ]
        tensor = run_aggregation_bucket(scenarios)
        for scenario, tsum in zip(scenarios, tensor):
            ref = run_aggregation(scenario, engine="reference")
            single = run_aggregation(scenario, engine="tensor")
            assert _blob(ref) == _blob(single) == _blob(tsum)

    def test_campaign_rows_match_standalone(self):
        scenarios = [
            generate_aggregation_scenario(
                7 + i, n_streams=12 + i * 5, n_aggregates=4, n_cycles=60
            )
            for i in range(3)
        ]
        # Unequal populations: short rows idle in lockstep while the
        # longest drains — summaries must be unaffected.
        bucket = run_aggregation_bucket(scenarios)
        for scenario, summary in zip(scenarios, bucket):
            assert _blob(summary) == _blob(
                run_aggregation(scenario, engine="reference")
            )

    def test_bucket_rejects_mixed_topologies(self):
        a = generate_aggregation_scenario(0, n_aggregates=4, n_cycles=10)
        b = generate_aggregation_scenario(1, n_aggregates=8, n_cycles=10)
        with pytest.raises(ValueError, match="share"):
            run_aggregation_bucket([a, b])

    def test_campaign_engine_is_shared(self):
        campaign = AggregationCampaign(4, 3)
        assert campaign.engine is campaign.engine  # one engine object
        assert len(campaign.cores) == 3


class TestSloRollups:
    def test_per_aggregate_rollups_via_observer(self):
        from repro.observability import ConformanceMonitor

        probe = AggregationTier(4, engine="tensor")
        for sid in range(16):
            probe.join(sid, weight=1 + sid % 2)
        slos = aggregate_share_slos(probe, tolerance=0.9)
        assert {slo.sid for slo in slos} <= set(range(4))
        monitor = ConformanceMonitor(slos, window_cycles=64)
        tier = AggregationTier(4, engine="tensor", observer=monitor)
        for sid in range(16):
            tier.join(sid, weight=1 + sid % 2)
        for _ in range(20):
            for sid in range(16):
                tier.submit(sid, deadline=5_000)
        for _ in range(256):
            tier.decision_cycle()
        monitor.finalize()
        assert monitor.slo.windows_evaluated >= 4
        # Generous band + fully backlogged aggregates: conformant.
        assert monitor.violations == []
        rolled = {sid for w in monitor.rollup.history for sid in w.streams}
        assert rolled <= set(range(4))

    def test_share_slos_skip_empty_aggregates(self):
        tier = AggregationTier(8, engine="reference")
        tier.join(0, weight=4)
        slos = aggregate_share_slos(tier)
        assert [slo.sid for slo in slos] == [hash_bucket(0, 8)]

    def test_share_slos_empty_tier(self):
        assert aggregate_share_slos(AggregationTier(4, engine="reference")) == []


class TestDifferentialPath:
    def test_validate_aggregation_passes(self):
        result = validate_aggregation(
            seeds=range(3), n_streams=20, n_aggregates=4, n_cycles=60
        )
        assert result.passed, "\n".join(result.divergences)
        assert result.scenarios == 3
        assert result.services > 0
        summary = result.summary()
        assert summary["kind"] == "aggregation-validation"
        assert result.summary_json().endswith("\n")

    def test_validate_aggregation_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="aggregation")
        first = validate_aggregation(
            seeds=range(2), n_streams=16, n_aggregates=4, n_cycles=40,
            cache=cache,
        )
        assert first.passed
        assert cache.stats.writes == 2
        again = validate_aggregation(
            seeds=range(2), n_streams=16, n_aggregates=4, n_cycles=40,
            cache=cache,
        )
        assert again.passed
        assert cache.stats.hits == 2
        assert _blob(first.summary()) == _blob(again.summary())


class TestCacheSchema:
    def test_schema_is_4(self):
        from repro.runner.cache import CACHE_SCHEMA

        assert CACHE_SCHEMA == 4

    def test_schema_bump_evicts_cleanly(self, tmp_path):
        """Entries keyed under an older schema can never satisfy
        lookups under the current one — a bump is a clean, total
        eviction, not a partial one."""
        from repro import __version__

        stale = ResultCache(
            tmp_path, namespace="aggregation", version=f"{__version__}/2"
        )
        payload = {"seed": 1, "n_aggregates": 8}
        stale.put(stale.key(payload), {"stale": True})
        fresh = ResultCache(tmp_path, namespace="aggregation")
        hit, _ = fresh.get(fresh.key(payload))
        assert not hit
        assert fresh.stats.misses == 1

    def test_topology_in_cache_key(self):
        """Two runs differing only in aggregate topology never collide."""
        base = generate_aggregation_scenario(5, n_aggregates=4, n_cycles=10)
        other = generate_aggregation_scenario(5, n_aggregates=8, n_cycles=10)
        salted = generate_aggregation_scenario(
            5, n_aggregates=4, n_cycles=10, salt=9
        )
        cache = ResultCache("unused", namespace="aggregation")
        keys = {
            cache.key(sc.cache_payload()) for sc in (base, other, salted)
        }
        assert len(keys) == 3


class TestCli:
    def test_demo_run(self, capsys):
        from repro.cli import main

        assert main(
            [
                "aggregation", "--streams", "300", "--aggregate", "8",
                "--cycles", "60",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Aggregation tier" in out
        assert "service digest" in out

    def test_validate_mode_with_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "agg.json"
        assert main(
            [
                "aggregation", "--validate", "--frames", "2",
                "--cycles", "40", "--summary-json", str(path),
            ]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["kind"] == "aggregation-validation"
        assert payload["passed"] is True
        assert "pass" in capsys.readouterr().out

    def test_rejects_bad_aggregate_count(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["aggregation", "--aggregate", "5"])
