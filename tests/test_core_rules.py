"""Tests for the Table 2 pairwise ordering rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.attributes import HardwareAttributes
from repro.core.rules import (
    RULES,
    Rule,
    compare,
    compare_with_rule,
    decision_code,
    evaluate,
    ordering_key,
)


def attrs(
    sid=0, deadline=0, x=0, y=0, arrival=0, valid=True
) -> HardwareAttributes:
    return HardwareAttributes(
        sid=sid,
        deadline=deadline,
        loss_numerator=x,
        loss_denominator=y,
        arrival=arrival,
        valid=valid,
    )


attr_strategy = st.builds(
    attrs,
    sid=st.integers(0, 31),
    deadline=st.integers(0, 200),
    x=st.integers(0, 8),
    y=st.integers(0, 8),
    arrival=st.integers(0, 50),
    valid=st.booleans(),
)


class TestRule1EarliestDeadline:
    def test_earlier_deadline_wins(self):
        r = evaluate(attrs(deadline=5), attrs(deadline=9))
        assert r.result == -1
        assert r.rule is Rule.EARLIEST_DEADLINE

    def test_wrapped_deadline(self):
        # 65530 is "earlier" than 2 across the 16-bit boundary.
        r = evaluate(attrs(deadline=65530), attrs(deadline=2))
        assert r.result == -1

    def test_ideal_mode_disables_wrap(self):
        r = evaluate(attrs(deadline=65530), attrs(deadline=2), wrap=False)
        assert r.result == 1


class TestRule2LowestWindowConstraint:
    def test_lower_constraint_wins(self):
        # 1/4 < 1/2 with equal deadlines.
        r = evaluate(attrs(deadline=5, x=1, y=4), attrs(deadline=5, x=1, y=2))
        assert r.result == -1
        assert r.rule is Rule.LOWEST_WINDOW_CONSTRAINT

    def test_zero_beats_nonzero(self):
        r = evaluate(attrs(deadline=5, x=0, y=4), attrs(deadline=5, x=1, y=2))
        assert r.result == -1
        assert r.rule is Rule.LOWEST_WINDOW_CONSTRAINT

    def test_cross_multiplication_equivalence(self):
        # 2/4 == 1/2 -> rule 2 does not fire; falls through to rule 4.
        r = evaluate(attrs(deadline=5, x=2, y=4), attrs(deadline=5, x=1, y=2))
        assert r.rule is Rule.LOWEST_NUMERATOR_EQUAL_WC


class TestRule3HighestDenominatorZeroWC:
    def test_higher_denominator_wins(self):
        r = evaluate(attrs(deadline=5, x=0, y=9), attrs(deadline=5, x=0, y=3))
        assert r.result == -1
        assert r.rule is Rule.HIGHEST_DENOMINATOR_ZERO_WC

    def test_requires_both_zero(self):
        r = evaluate(attrs(deadline=5, x=0, y=9), attrs(deadline=5, x=1, y=3))
        assert r.rule is Rule.LOWEST_WINDOW_CONSTRAINT


class TestRule4LowestNumeratorEqualWC:
    def test_lower_numerator_wins(self):
        # 1/2 vs 2/4: equal ratios, numerator 1 first.
        r = evaluate(attrs(deadline=5, x=1, y=2), attrs(deadline=5, x=2, y=4))
        assert r.result == -1
        assert r.rule is Rule.LOWEST_NUMERATOR_EQUAL_WC


class TestRule5FCFS:
    def test_earlier_arrival_wins(self):
        r = evaluate(
            attrs(deadline=5, x=1, y=2, arrival=3),
            attrs(deadline=5, x=1, y=2, arrival=7),
        )
        assert r.result == -1
        assert r.rule is Rule.FCFS


class TestValidityAndTieBreak:
    def test_invalid_always_loses(self):
        r = evaluate(attrs(deadline=1, valid=False), attrs(deadline=99))
        assert r.result == 1
        assert r.rule is Rule.VALIDITY

    def test_total_tie_breaks_on_sid(self):
        r = evaluate(attrs(sid=2, deadline=5), attrs(sid=7, deadline=5))
        assert r.result == -1
        assert r.rule is Rule.STREAM_ID

    def test_never_returns_zero(self):
        r = evaluate(attrs(sid=1), attrs(sid=1))
        assert r.result in (-1, 1)


class TestDeadlineOnlyMode:
    def test_ignores_window_fields(self):
        # Equal deadlines, different windows: falls to FCFS.
        r = evaluate(
            attrs(deadline=5, x=0, y=9, arrival=7),
            attrs(deadline=5, x=1, y=2, arrival=3),
            deadline_only=True,
        )
        assert r.rule is Rule.FCFS
        assert r.result == 1


#: Serials that tie, sit near each other, straddle the 16-bit wrap or lie
#: exactly 2**15 apart.
_serials = st.one_of(
    st.integers(0, 4),
    st.integers(65532, 65535),
    st.sampled_from((32767, 32768, 32769, 65536, 98304)),
)

wire_strategy = st.builds(
    attrs,
    sid=st.integers(0, 31),
    deadline=_serials,
    x=st.one_of(st.integers(0, 4), st.just(255)),
    y=st.one_of(st.integers(0, 8), st.just(255)),
    arrival=_serials,
    valid=st.booleans(),
)


class TestDecisionCode:
    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("deadline_only", [True, False])
    @given(a=wire_strategy, b=wire_strategy)
    def test_matches_evaluate(self, wrap, deadline_only, a, b):
        code = decision_code(a, b, wrap, deadline_only)
        full = evaluate(a, b, wrap=wrap, deadline_only=deadline_only)
        assert code != 0
        assert (code > 0) == (full.result > 0)
        assert RULES[abs(code) - 1] is full.rule

    @pytest.mark.parametrize("deadline_only", [True, False])
    @given(a=wire_strategy, b=wire_strategy)
    def test_antisymmetric_on_distinct_ids(self, deadline_only, a, b):
        # Ideal arithmetic only: under ``wrap=True`` two serials exactly
        # 2**15 apart each precede the other.
        if a.sid != b.sid:
            assert decision_code(a, b, False, deadline_only) == -decision_code(
                b, a, False, deadline_only
            )

    @pytest.mark.parametrize("field", ["deadline", "arrival"])
    def test_half_modulus_apart_each_precedes(self, field):
        """Two serials exactly 2**15 apart: the first operand precedes in
        either order, as :func:`serial_cmp` resolves it."""
        a, b = attrs(sid=0, **{field: 32768}), attrs(sid=1, **{field: 65536})
        for x, y in ((a, b), (b, a)):
            assert evaluate(x, y).result == -1
            assert decision_code(x, y, True, False) < 0

    def test_codes_name_rules_in_priority_order(self):
        assert RULES == tuple(Rule)
        assert decision_code(attrs(valid=False), attrs()) == 1
        assert decision_code(attrs(deadline=1), attrs(deadline=2)) == -2
        assert decision_code(attrs(sid=1), attrs(sid=2)) == -7


class TestConsistency:
    @given(a=attr_strategy, b=attr_strategy)
    def test_fast_path_matches_evaluate(self, a, b):
        for wrap in (True, False):
            for deadline_only in (True, False):
                full = evaluate(a, b, wrap=wrap, deadline_only=deadline_only)
                fast = compare_with_rule(
                    a, b, wrap=wrap, deadline_only=deadline_only
                )
                assert (full.result, full.rule) == fast

    @given(a=attr_strategy, b=attr_strategy)
    def test_antisymmetry(self, a, b):
        ab = compare(a, b, wrap=False)
        ba = compare(b, a, wrap=False)
        if a == b:
            # sid tie-break favors the first operand on exact ties.
            assert ab == -1 and ba == -1
        else:
            assert ab == -ba or (a.sid == b.sid)

    @given(a=attr_strategy, b=attr_strategy)
    def test_matches_ordering_key(self, a, b):
        result = compare(a, b, wrap=False)
        ka, kb = ordering_key(a), ordering_key(b)
        if ka < kb:
            assert result == -1
        elif kb < ka:
            assert result == 1

    @given(a=attr_strategy, b=attr_strategy, c=attr_strategy)
    def test_transitivity_ideal(self, a, b, c):
        # The ordering-key formulation is a total order, hence the
        # pairwise rules are transitive in ideal-arithmetic mode.
        if compare(a, b, wrap=False) < 0 and compare(b, c, wrap=False) < 0:
            assert compare(a, c, wrap=False) < 0

    def test_predicate_vector_exposed(self):
        r = evaluate(attrs(deadline=1), attrs(deadline=2))
        assert r.predicates["deadline_lt"] is True
        assert r.predicates["deadline_eq"] is False
        assert "both_zero_wc" in r.predicates
