"""Pairwise stream-ordering rules (Table 2) with concurrent evaluation.

Table 2 of the paper gives the scheduler decision rules a Decision block
implements for DWCS (Dynamic Window-Constrained Scheduling):

1. **Earliest-Deadline First** — earlier deadline wins.
2. Equal deadlines → order **lowest window-constraint** (``x'/y'``) first.
3. Equal deadlines and *zero* window-constraints → order **highest
   window-denominator** first.
4. Equal deadlines and *equal non-zero* window-constraints → order
   **lowest window-numerator** first.
5. All other cases: **first-come-first-serve** (earlier arrival first).

The hardware evaluates every rule *concurrently* in combinational logic
and priority-encodes the valid rule's output into a single-cycle
decision (Figure 5).  :func:`evaluate` mirrors that: it computes every
predicate, then selects the first applicable rule.  The full predicate
vector is exposed on the returned :class:`RuleEvaluation` so tests and
the Table 2 benchmark can check rule coverage exactly as the hardware's
concurrent evaluation would resolve it.

Window-constraint comparison uses cross-multiplication
(``x_a * y_b`` vs ``x_b * y_a``) rather than division — this is how the
hardware compares 8-bit ratios (the paper's future-work section mentions
moving these products onto Virtex-II hard multipliers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.attributes import HardwareAttributes
from repro.core.fields import (
    ARRIVAL_BITS,
    ARRIVAL_FIELD,
    DEADLINE_BITS,
    DEADLINE_FIELD,
    serial_cmp,
)

__all__ = [
    "Rule",
    "RuleEvaluation",
    "compare",
    "compare_with_rule",
    "evaluate",
    "ordering_key",
]


class Rule(enum.Enum):
    """Which Table 2 rule resolved a pairwise decision."""

    VALIDITY = "validity"  # one side holds no eligible packet
    EARLIEST_DEADLINE = "earliest_deadline"
    LOWEST_WINDOW_CONSTRAINT = "lowest_window_constraint"
    HIGHEST_DENOMINATOR_ZERO_WC = "highest_denominator_zero_wc"
    LOWEST_NUMERATOR_EQUAL_WC = "lowest_numerator_equal_wc"
    FCFS = "fcfs"
    STREAM_ID = "stream_id"  # deterministic final tie-break (lower sid)

    # Members are singletons, so identity hashing is exact; it keeps the
    # per-decision rule counters off the interpreted ``Enum.__hash__``.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class RuleEvaluation:
    """Outcome of one concurrent rule evaluation.

    Attributes
    ----------
    result:
        ``-1`` if the first operand precedes (wins), ``+1`` if the
        second does.  Never ``0`` — the stream-ID tie-break makes the
        pairwise order total.
    rule:
        The rule that produced the decision.
    predicates:
        Mapping of predicate name → bool, the full combinational
        predicate vector the hardware would compute in parallel.
    """

    result: int
    rule: Rule
    predicates: dict[str, bool]


def _window_cmp(a: HardwareAttributes, b: HardwareAttributes) -> int:
    """Three-way compare of current window-constraints.

    Returns negative when ``a`` has the lower constraint.  A zero
    numerator *or* denominator counts as constraint 0 (the degenerate
    ``y' = 0`` state only arises transiently because window resets
    restore ``y'``); non-zero ratios compare by cross-products, as the
    8-bit hardware multipliers would.
    """
    a_zero = a.loss_numerator == 0 or a.loss_denominator == 0
    b_zero = b.loss_numerator == 0 or b.loss_denominator == 0
    if a_zero or b_zero:
        return b_zero - a_zero  # the zero side is the lower constraint
    lhs = a.loss_numerator * b.loss_denominator
    rhs = b.loss_numerator * a.loss_denominator
    return (lhs > rhs) - (lhs < rhs)


def compare_with_rule(
    a: HardwareAttributes,
    b: HardwareAttributes,
    *,
    wrap: bool = True,
    deadline_only: bool = False,
) -> tuple[int, Rule]:
    """Allocation-free pairwise decision: ``(result, fired_rule)``.

    The hot path of the decision network — same priority encoding as
    :func:`evaluate` but without materializing the predicate vector.
    ``result`` is ``-1`` when ``a`` precedes, ``+1`` when ``b`` does.
    """
    if a.valid != b.valid:
        return (-1 if a.valid else 1), Rule.VALIDITY
    if wrap:
        dl = serial_cmp(a.deadline, b.deadline, DEADLINE_BITS)
    else:
        dl = (a.deadline > b.deadline) - (a.deadline < b.deadline)
    if dl:
        return dl, Rule.EARLIEST_DEADLINE
    if not deadline_only:
        a_zero = a.loss_numerator == 0 or a.loss_denominator == 0
        b_zero = b.loss_numerator == 0 or b.loss_denominator == 0
        if a_zero and b_zero:
            den = (a.loss_denominator > b.loss_denominator) - (
                a.loss_denominator < b.loss_denominator
            )
            if den:
                return -den, Rule.HIGHEST_DENOMINATOR_ZERO_WC
        elif a_zero != b_zero:
            # Exactly one zero constraint: zero (= lowest) orders first.
            return (-1 if a_zero else 1), Rule.LOWEST_WINDOW_CONSTRAINT
        else:
            lhs = a.loss_numerator * b.loss_denominator
            rhs = b.loss_numerator * a.loss_denominator
            if lhs != rhs:
                return (
                    (1 if lhs > rhs else -1),
                    Rule.LOWEST_WINDOW_CONSTRAINT,
                )
            num = (a.loss_numerator > b.loss_numerator) - (
                a.loss_numerator < b.loss_numerator
            )
            if num:
                return num, Rule.LOWEST_NUMERATOR_EQUAL_WC
    if wrap:
        arr = serial_cmp(a.arrival, b.arrival, ARRIVAL_BITS)
    else:
        arr = (a.arrival > b.arrival) - (a.arrival < b.arrival)
    if arr:
        return arr, Rule.FCFS
    return (-1 if a.sid <= b.sid else 1), Rule.STREAM_ID


def evaluate(
    a: HardwareAttributes,
    b: HardwareAttributes,
    *,
    wrap: bool = True,
    deadline_only: bool = False,
) -> RuleEvaluation:
    """Resolve the pairwise order of two attribute bundles.

    Parameters
    ----------
    a, b:
        The two stream-slot attribute bundles presented to a Decision
        block in one hardware cycle.
    wrap:
        When true (default), deadline and arrival comparisons use
        16-bit serial (wrap-aware) arithmetic, as the hardware does.
        When false, plain integer comparison is used (the *ideal* mode
        used for cross-validation against software references).
    deadline_only:
        Restrict ordering to the deadline field plus FCFS/ID
        tie-breaks.  This is the simple-comparator configuration used
        when mapping pure fair-queuing service tags (Section 4.3:
        "require simple comparators to compare weights").

    Returns
    -------
    RuleEvaluation
        Decision (−1: ``a`` first, +1: ``b`` first), the rule that
        fired, and the concurrent predicate vector.
    """

    def _cmp(x: int, y: int, bits: int) -> int:
        if wrap:
            return serial_cmp(x, y, bits)
        return (x > y) - (x < y)

    dl = _cmp(a.deadline, b.deadline, DEADLINE_FIELD.bits)
    wc = _window_cmp(a, b)
    a_zero_wc = a.loss_numerator == 0 or a.loss_denominator == 0
    b_zero_wc = b.loss_numerator == 0 or b.loss_denominator == 0
    den = (a.loss_denominator > b.loss_denominator) - (
        a.loss_denominator < b.loss_denominator
    )
    num = (a.loss_numerator > b.loss_numerator) - (
        a.loss_numerator < b.loss_numerator
    )
    arr = _cmp(a.arrival, b.arrival, ARRIVAL_FIELD.bits)
    sid = (a.sid > b.sid) - (a.sid < b.sid)

    predicates = {
        "a_valid": a.valid,
        "b_valid": b.valid,
        "deadline_lt": dl < 0,
        "deadline_eq": dl == 0,
        "wc_lt": wc < 0,
        "wc_eq": wc == 0,
        "both_zero_wc": a_zero_wc and b_zero_wc,
        "denominator_gt": den > 0,
        "numerator_lt": num < 0,
        "arrival_lt": arr < 0,
        "arrival_eq": arr == 0,
    }

    # Priority-encoded selection, exactly the mux cascade of Figure 5.
    if a.valid != b.valid:
        return RuleEvaluation(-1 if a.valid else 1, Rule.VALIDITY, predicates)
    if dl != 0:
        return RuleEvaluation(dl, Rule.EARLIEST_DEADLINE, predicates)
    if not deadline_only:
        if a_zero_wc and b_zero_wc:
            if den != 0:
                return RuleEvaluation(
                    -den, Rule.HIGHEST_DENOMINATOR_ZERO_WC, predicates
                )
        elif wc != 0:
            return RuleEvaluation(wc, Rule.LOWEST_WINDOW_CONSTRAINT, predicates)
        else:  # equal, non-zero window-constraints
            if num != 0:
                return RuleEvaluation(
                    num, Rule.LOWEST_NUMERATOR_EQUAL_WC, predicates
                )
    if arr != 0:
        return RuleEvaluation(arr, Rule.FCFS, predicates)
    # Total tie: deterministic hardware tie-break on the wired slot index.
    return RuleEvaluation(-1 if sid <= 0 else 1, Rule.STREAM_ID, predicates)


def compare(
    a: HardwareAttributes,
    b: HardwareAttributes,
    *,
    wrap: bool = True,
    deadline_only: bool = False,
) -> int:
    """Three-way pairwise order (−1: ``a`` first, +1: ``b`` first).

    Thin convenience wrapper over :func:`compare_with_rule` for callers
    that do not need the fired rule.
    """
    return compare_with_rule(a, b, wrap=wrap, deadline_only=deadline_only)[0]


def ordering_key(attrs: HardwareAttributes, now: int = 0):
    """Total-order key equivalent to the Table 2 rules (ideal arithmetic).

    Produces a tuple such that sorting bundles by it matches repeated
    pairwise :func:`compare` with ``wrap=False``.  ``now`` rebases
    wrapped deadlines so keys stay monotone across the 16-bit horizon.
    Used by the software reference disciplines and by property tests
    that check the pairwise rules against an independent formulation.
    """
    from repro.core.fields import serial_distance

    zero_wc = attrs.loss_numerator == 0 or attrs.loss_denominator == 0
    wc = attrs.window_constraint
    return (
        not attrs.valid,
        serial_distance(attrs.deadline, now & DEADLINE_FIELD.mask),
        wc,
        # Rule 3: among zero constraints, highest denominator first.
        -attrs.loss_denominator if zero_wc else 0,
        # Rule 4: among equal *non-zero* constraints, lowest numerator
        # first; zero-constraint pairs never consult the numerator.
        0 if zero_wc else attrs.loss_numerator,
        serial_distance(attrs.arrival, now & ARRIVAL_FIELD.mask),
        attrs.sid,
    )
