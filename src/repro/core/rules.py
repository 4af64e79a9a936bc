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
concurrent evaluation would resolve it.  :func:`decision_code` is the
hot path every Decision block runs: the same priority encoding as one
signed integer whose magnitude names the fired rule in :data:`RULES`;
:func:`evaluate` stays the independent full-predicate reference.

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
    "RULES",
    "Rule",
    "RuleEvaluation",
    "compare",
    "compare_with_rule",
    "decision_code",
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


#: The rules in priority-encoder order: decision code ``±k`` (see
#: :func:`decision_code`) names ``RULES[k - 1]``.
RULES = tuple(Rule)

_DEADLINE_MASK = (1 << DEADLINE_BITS) - 1
_DEADLINE_HALF = 1 << (DEADLINE_BITS - 1)
_ARRIVAL_MASK = (1 << ARRIVAL_BITS) - 1
_ARRIVAL_HALF = 1 << (ARRIVAL_BITS - 1)


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


def decision_code(
    a: HardwareAttributes,
    b: HardwareAttributes,
    wrap: bool = True,
    deadline_only: bool = False,
) -> int:
    """Signed Table 2 decision code: the Decision block's priority encoder.

    Returns ``-k`` when ``a`` precedes (wins) and ``+k`` when ``b`` does,
    where ``RULES[k - 1]`` is the rule that resolved the pair; the code
    is never ``0``.  This is the one hot implementation of the rules:
    the same priority encoding as :func:`evaluate`, without
    materializing the predicate vector, and with the 16-bit serial
    comparison of :func:`~repro.core.fields.serial_cmp` inlined.  The
    network's passes call it positionally and count fires in a list
    indexed by the code.
    """
    if a.valid != b.valid:
        return -1 if a.valid else 1
    da = a.deadline
    db = b.deadline
    if da != db:
        if wrap:
            return 2 if (da - db) & _DEADLINE_MASK < _DEADLINE_HALF else -2
        return 2 if da > db else -2
    if not deadline_only:
        xa = a.loss_numerator
        ya = a.loss_denominator
        xb = b.loss_numerator
        yb = b.loss_denominator
        if xa == 0 or ya == 0:
            if xb != 0 and yb != 0:
                # Exactly one zero constraint: zero (= lowest) orders first.
                return -3
            if ya != yb:
                return -4 if ya > yb else 4
        elif xb == 0 or yb == 0:
            return 3
        else:
            lhs = xa * yb
            rhs = xb * ya
            if lhs != rhs:
                return 3 if lhs > rhs else -3
            if xa != xb:
                return 5 if xa > xb else -5
    ra = a.arrival
    rb = b.arrival
    if ra != rb:
        if wrap:
            return 6 if (ra - rb) & _ARRIVAL_MASK < _ARRIVAL_HALF else -6
        return 6 if ra > rb else -6
    return -7 if a.sid <= b.sid else 7


def compare_with_rule(
    a: HardwareAttributes,
    b: HardwareAttributes,
    *,
    wrap: bool = True,
    deadline_only: bool = False,
) -> tuple[int, Rule]:
    """Pairwise decision as ``(result, fired_rule)``.

    Thin wrapper over :func:`decision_code`: ``result`` is ``-1`` when
    ``a`` precedes, ``+1`` when ``b`` does.
    """
    code = decision_code(a, b, wrap, deadline_only)
    if code < 0:
        return -1, RULES[-code - 1]
    return 1, RULES[code - 1]


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
    """Two-way pairwise order (−1: ``a`` first, +1: ``b`` first).

    The sign of :func:`decision_code`, for callers that do not need the
    fired rule.
    """
    return -1 if decision_code(a, b, wrap, deadline_only) < 0 else 1


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
