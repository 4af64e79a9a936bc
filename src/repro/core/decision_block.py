"""Decision block: single-cycle, multi-attribute pairwise comparator.

A Decision block (Figure 5) receives two full attribute bundles and, in
one hardware cycle, concurrently evaluates every Table 2 ordering rule
and emits the bundles re-ordered: the higher-priority stream on the
*winner* port, the other on the *loser* port.

Two output configurations exist (Section 4.3, "Max-finding and Block
Decisions"):

* **Base architecture (BA)** — both winner *and* loser are driven to the
  next stage, so after the recirculation completes a whole sorted
  *block* of streams is available.
* **Winner-only routing (WR)** — only the winner port is driven; losers
  are dropped from the network, easing physical routing at the cost of
  obtaining just the single max-priority stream.

The block keeps per-rule fire counters so experiments can report which
ordering rules actually resolved decisions (the Table 2 coverage bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import HardwareAttributes
from repro.core.rules import Rule, compare_with_rule

__all__ = ["DecisionResult", "DecisionBlock"]


@dataclass(frozen=True, slots=True)
class DecisionResult:
    """One single-cycle pairwise decision.

    ``winner`` is the higher-priority bundle, ``loser`` the other;
    ``rule`` records which Table 2 rule resolved the pair.
    """

    winner: HardwareAttributes
    loser: HardwareAttributes
    rule: Rule


@dataclass
class DecisionBlock:
    """One physical Decision block instance.

    Parameters
    ----------
    index:
        Position of the block in the single network stage
        (``0 .. N/2 - 1``).
    wrap:
        Use 16-bit serial deadline/arrival comparison (hardware
        behavior).  ``False`` selects ideal unbounded arithmetic.
    deadline_only:
        Simple-comparator configuration for fair-queuing service tags.
    """

    index: int = 0
    wrap: bool = True
    deadline_only: bool = False
    decisions: int = field(default=0, init=False)
    rule_counts: dict[Rule, int] = field(default_factory=dict, init=False)

    def decide(
        self, a: HardwareAttributes, b: HardwareAttributes
    ) -> DecisionResult:
        """Order a pair of attribute bundles in one cycle.

        The single-pair API (the Table 2 coverage bench uses it).  The
        network's passes (:class:`~repro.core.shuffle.ShuffleExchangeNetwork`)
        call the same comparator and charge these counters in place.
        """
        result, rule = compare_with_rule(
            a, b, wrap=self.wrap, deadline_only=self.deadline_only
        )
        self.decisions += 1
        self.rule_counts[rule] = self.rule_counts.get(rule, 0) + 1
        if result < 0:
            return DecisionResult(a, b, rule)
        return DecisionResult(b, a, rule)

    def reset_counters(self) -> None:
        """Clear the decision and per-rule fire counters."""
        self.decisions = 0
        self.rule_counts.clear()
