"""Tests for the recirculating shuffle-exchange network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import HardwareAttributes
from repro.core.rules import ordering_key
from repro.core.shuffle import (
    ShuffleExchangeNetwork,
    is_pow2,
    perfect_shuffle,
)


#: Window constraints ``(x', y')`` covering every Table 2 window rule:
#: zero ratios (``x' = 0`` or ``y' = 0``) with distinct denominators,
#: equal ratios with distinct numerators (1/2, 2/4, 3/6) and distinct
#: live ratios.
_WINDOWS = ((0, 0), (0, 3), (0, 5), (2, 0), (1, 2), (2, 4), (3, 6), (1, 3), (2, 3))


def bundles_for(deadlines, valid=None):
    out = []
    for sid, d in enumerate(deadlines):
        b = HardwareAttributes(sid=sid, deadline=d)
        if valid is not None:
            b.valid = valid[sid]
        out.append(b)
    return out


class TestHelpers:
    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(2) and is_pow2(32)
        assert not is_pow2(0) and not is_pow2(3) and not is_pow2(-4)

    def test_perfect_shuffle_interleaves(self):
        assert perfect_shuffle(["a", "b", "c", "d"]) == ["a", "c", "b", "d"]
        assert perfect_shuffle([0, 1, 2, 3, 4, 5, 6, 7]) == [
            0, 4, 1, 5, 2, 6, 3, 7,
        ]

    def test_perfect_shuffle_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            perfect_shuffle([1, 2, 3])

    @given(st.integers(1, 5))
    def test_perfect_shuffle_is_permutation(self, k):
        n = 1 << k
        items = list(range(n))
        assert sorted(perfect_shuffle(items)) == items


class TestConstruction:
    def test_block_count_is_half(self):
        net = ShuffleExchangeNetwork(8)
        assert len(net.blocks) == 4

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_rejects_bad_widths(self, n):
        with pytest.raises(ValueError):
            ShuffleExchangeNetwork(n)

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ValueError):
            ShuffleExchangeNetwork(4, schedule="quicksort")

    @pytest.mark.parametrize(
        "n,expected", [(4, 2), (8, 3), (16, 4), (32, 5)]
    )
    def test_paper_pass_counts(self, n, expected):
        # "2, 3, 4, 5 cycles required to sort 4, 8, 16 and 32 stream-slots"
        assert ShuffleExchangeNetwork(n).passes_per_decision == expected

    @pytest.mark.parametrize("n,expected", [(4, 3), (8, 6), (16, 10), (32, 15)])
    def test_bitonic_pass_counts(self, n, expected):
        net = ShuffleExchangeNetwork(n, schedule="bitonic")
        assert net.passes_per_decision == expected


class TestMaxFinding:
    def test_winner_at_position_zero(self):
        net = ShuffleExchangeNetwork(4)
        result = net.run(bundles_for([9, 2, 7, 5]))
        assert result.winner.sid == 1

    def test_winner_only_routing(self):
        net = ShuffleExchangeNetwork(4)
        result = net.run(bundles_for([9, 2, 7, 5]), winner_only=True)
        assert len(result.order) == 1
        assert result.winner.sid == 1

    def test_pass_count_consumed(self):
        net = ShuffleExchangeNetwork(8)
        result = net.run(bundles_for(range(8)))
        assert result.passes == 3
        assert result.comparisons == 3 * 4

    @given(
        deadlines=st.lists(
            st.integers(0, 1000), min_size=8, max_size=8
        )
    )
    def test_max_certified_any_input(self, deadlines):
        net = ShuffleExchangeNetwork(8, wrap=False)
        result = net.run(bundles_for(deadlines))
        assert result.winner.deadline == min(deadlines)

    @given(
        deadlines=st.lists(st.integers(0, 1000), min_size=16, max_size=16)
    )
    def test_max_certified_width_16(self, deadlines):
        net = ShuffleExchangeNetwork(16, wrap=False)
        result = net.run(bundles_for(deadlines))
        assert result.winner.deadline == min(deadlines)

    def test_invalid_slots_never_win(self):
        net = ShuffleExchangeNetwork(4)
        valid = [False, True, False, True]
        result = net.run(bundles_for([1, 5, 2, 9], valid=valid))
        assert result.winner.sid == 1


class TestBitonicSort:
    @given(
        deadlines=st.lists(st.integers(0, 1000), min_size=8, max_size=8)
    )
    def test_full_sort_matches_key_order(self, deadlines):
        net = ShuffleExchangeNetwork(8, wrap=False, schedule="bitonic")
        result = net.run(bundles_for(deadlines))
        keys = [ordering_key(b) for b in result.order]
        assert keys == sorted(keys)

    def test_emits_whole_block(self):
        net = ShuffleExchangeNetwork(4, wrap=False, schedule="bitonic")
        result = net.run(bundles_for([9, 2, 7, 5]))
        assert [b.sid for b in result.order] == [1, 3, 2, 0]

    def test_winner_only_uses_tournament(self):
        # WR routing never needs the full sort even on bitonic configs.
        net = ShuffleExchangeNetwork(8, wrap=False, schedule="bitonic")
        result = net.run(bundles_for(range(8)), winner_only=True)
        assert result.passes == 3


class TestReferenceOrder:
    def test_matches_bitonic_on_distinct_keys(self):
        net = ShuffleExchangeNetwork(8, wrap=False, schedule="bitonic")
        bundles = bundles_for([5, 3, 8, 1, 9, 0, 7, 4])
        by_net = [b.sid for b in net.run(bundles).order]
        by_ref = [b.sid for b in net.reference_order(bundles)]
        assert by_net == by_ref

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bitonic_emits_reference_order_on_full_keys(self, n, data):
        """A complete Batcher network sorts: bitonic emission is the
        certified Table 2 order on every rule, including deadline ties,
        zero-ratio and equal-ratio window constraints and invalid slots.
        The array engines rely on this to emit the rank order directly
        instead of replaying the bitonic passes."""
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 3),  # deadline
                    st.sampled_from(_WINDOWS),
                    st.integers(0, 3),  # arrival
                    st.booleans(),  # valid
                ),
                min_size=n,
                max_size=n,
            )
        )
        bundles = []
        for sid, (deadline, (x, y), arrival, valid) in enumerate(rows):
            bundle = HardwareAttributes(
                sid=sid,
                deadline=deadline,
                loss_numerator=x,
                loss_denominator=y,
                arrival=arrival,
            )
            bundle.valid = valid
            bundles.append(bundle)
        net = ShuffleExchangeNetwork(n, wrap=False, schedule="bitonic")
        by_net = [b.sid for b in net.run(bundles).order]
        by_ref = [b.sid for b in net.reference_order(bundles)]
        assert by_net == by_ref

    def test_input_width_validation(self):
        net = ShuffleExchangeNetwork(4)
        with pytest.raises(ValueError):
            net.run(bundles_for([1, 2]))

    def test_reset_counters(self):
        net = ShuffleExchangeNetwork(4)
        net.run(bundles_for([1, 2, 3, 4]))
        net.reset_counters()
        assert all(b.decisions == 0 for b in net.blocks)
