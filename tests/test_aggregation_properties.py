"""Property tests locking down the aggregation tier under churn.

The issue's acceptance properties, each over randomized join/leave
interleavings:

* **Work conservation** — every accepted packet is eventually
  serviced, exactly one per cycle while any backlog exists, and the
  tier's per-stream hot-path state is empty once drained.
* **Weight-share band** — with every aggregate continuously
  backlogged, per-aggregate service shares track member-weight shares
  within the Figure-8 tolerance band (the
  ``slos_from_shares(tolerance=0.25)`` contract), even after leaves
  rebalance the weights.
* **Three-way byte identity** — standalone reference and tensor-adapter
  tiers and the tensorized campaign replay of the same churn scenario
  produce byte-identical canonical summaries (the
  ``validate_aggregation`` contract).
* **Membership isolation** — join/leave interleavings touch only O(1)
  per-aggregate counters: the engine receives no calls and per-stream
  rank state stays empty.
"""

import json

from hypothesis import given, settings

from repro.aggregation import (
    AggregationTier,
    hash_bucket,
    run_aggregation,
    run_aggregation_bucket,
)
from tests.strategies import (
    aggregation_buckets,
    aggregation_scenarios,
    membership_interleavings,
)


def _blob(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=1) + "\n"


class TestWorkConservation:
    @given(scenario=aggregation_scenarios())
    @settings(max_examples=12, deadline=None, print_blob=True)
    def test_every_packet_serviced_one_per_busy_cycle(self, scenario):
        tier = AggregationTier(scenario.n_aggregates, engine="tensor",
                               discipline=scenario.discipline,
                               salt=scenario.salt)
        for sid, weight in scenario.initial:
            tier.join(sid, weight=weight)
        busy_cycles = 0
        for joins, leaves, arrivals in scenario.events:
            for sid, weight in joins:
                tier.join(sid, weight=weight)
            for sid in leaves:
                tier.leave(sid)
            for sid, deadline, length in arrivals:
                tier.submit(sid, deadline, length)
            backlogged = tier.outstanding > 0
            serviced = tier.decision_cycle() is not None
            assert serviced == backlogged  # exactly one iff backlog
            busy_cycles += serviced
        drained = tier.drain()
        assert busy_cycles + drained == scenario.total_arrivals
        assert tier.core.serviced == tier.core.enqueued
        assert tier.core._pending == {}
        assert tier.core._finish == {}
        assert all(not h for h in tier.core._heaps)

    @given(scenario=aggregation_scenarios())
    @settings(max_examples=8, deadline=None, print_blob=True)
    def test_per_aggregate_counts_balance(self, scenario):
        summary = run_aggregation(scenario, engine="tensor")
        per = summary["per_aggregate"]
        assert sum(per["enqueued"]) == summary["enqueued"]
        assert sum(per["serviced"]) == summary["serviced"]
        assert summary["enqueued"] == summary["serviced"]
        assert sum(per["members"]) == (
            summary["streams_joined"] - summary["streams_left"]
        )


class TestWeightShareBand:
    @given(ops=membership_interleavings())
    @settings(max_examples=10, deadline=None, print_blob=True)
    def test_backlogged_shares_within_figure8_band(self, ops):
        """After an arbitrary legal churn prefix, saturate every member
        and check service shares against the Figure-8 band around the
        aggregate weight shares (tolerance 0.25 + quantization slack)."""
        tier = AggregationTier(4, engine="tensor")
        members: dict[int, int] = {}
        for op in ops:
            if op[0] == "join":
                _, sid, weight = op
                tier.join(sid, weight=weight)
                members[sid] = weight
            else:
                tier.leave(op[1])
                del members[op[1]]
        if not members:
            return
        n_cycles = 600
        for sid in members:
            for _ in range(n_cycles):
                tier.submit(sid, deadline=1_000_000)
        for _ in range(n_cycles):
            tier.decision_cycle()
        weights = [0] * 4
        for sid, weight in members.items():
            weights[hash_bucket(sid, 4)] += weight
        total_weight = sum(weights)
        stats = tier.stats()
        total_serviced = sum(s.serviced for s in stats)
        for a in range(4):
            if weights[a] == 0:
                assert stats[a].serviced == 0
                continue
            expected = weights[a] / total_weight
            observed = stats[a].serviced / total_serviced
            slack = 0.25 * expected + 2 / n_cycles
            assert abs(observed - expected) <= slack, (
                f"aggregate {a}: observed {observed:.3f} vs "
                f"expected {expected:.3f} ± {slack:.3f}"
            )


class TestThreeWayByteIdentity:
    @given(bucket=aggregation_buckets())
    @settings(max_examples=8, deadline=None, print_blob=True)
    def test_reference_tensor_campaign_identical(self, bucket):
        tensor = run_aggregation_bucket(bucket)
        for scenario, tsum in zip(bucket, tensor):
            ref = run_aggregation(scenario, engine="reference")
            single = run_aggregation(scenario, engine="tensor")
            assert _blob(ref) == _blob(single), f"seed {scenario.seed}"
            assert _blob(ref) == _blob(tsum), f"seed {scenario.seed}"


class TestMembershipIsolation:
    @given(ops=membership_interleavings())
    @settings(max_examples=15, deadline=None, print_blob=True)
    def test_churn_is_pure_counter_arithmetic(self, ops):
        tier = AggregationTier(8, engine="tensor")
        engine_calls = []
        tier.scheduler.enqueue = lambda *a, **k: engine_calls.append(a)
        expected: dict[int, int] = {}
        for op in ops:
            if op[0] == "join":
                tier.join(op[1], weight=op[2])
                expected[op[1]] = op[2]
            else:
                tier.leave(op[1])
                del expected[op[1]]
        assert engine_calls == []  # the (S, N) state was never touched
        assert tier.active_members == len(expected)
        weights = [0] * 8
        members = [0] * 8
        for sid, weight in expected.items():
            weights[hash_bucket(sid, 8)] += weight
            members[hash_bucket(sid, 8)] += 1
        stats = tier.stats()
        assert [s.weight for s in stats] == weights
        assert [s.members for s in stats] == members
        assert tier.core._pending == {}
        assert tier.core._finish == {}
