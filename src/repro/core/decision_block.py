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

The block counts how often each signed rule code
(:func:`~repro.core.rules.decision_code`) fired, so experiments can
report which ordering rules actually resolved decisions (the Table 2
coverage bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import HardwareAttributes
from repro.core.rules import RULES, Rule, decision_code

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


def _no_fires() -> list[int]:
    return [0] * (2 * len(RULES) + 1)


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

    ``fires`` counts decisions per signed rule code: ``fires[code]``
    for each code :func:`~repro.core.rules.decision_code` returned, so
    ``fires[k]`` and ``fires[-k]`` together count ``RULES[k - 1]``
    (entry 0 stays zero).  :attr:`rule_counts` reads them per rule and
    :attr:`decisions` sums them.
    """

    index: int = 0
    wrap: bool = True
    deadline_only: bool = False
    fires: list[int] = field(default_factory=_no_fires, init=False)

    @property
    def decisions(self) -> int:
        """Pairwise decisions made: every decision fires one rule code."""
        return sum(self.fires)

    @property
    def rule_counts(self) -> dict[Rule, int]:
        """Fires per rule that resolved at least one decision."""
        fires = self.fires
        counts = {rule: fires[k] + fires[-k] for k, rule in enumerate(RULES, 1)}
        return {rule: n for rule, n in counts.items() if n}

    def decide(
        self, a: HardwareAttributes, b: HardwareAttributes
    ) -> DecisionResult:
        """Order a pair of attribute bundles in one cycle.

        The single-pair API (the Table 2 coverage bench uses it).  The
        network's passes (:class:`~repro.core.shuffle.ShuffleExchangeNetwork`)
        call the same comparator and charge these counters in place.
        """
        code = decision_code(a, b, self.wrap, self.deadline_only)
        self.fires[code] += 1
        if code < 0:
            return DecisionResult(a, b, RULES[-code - 1])
        return DecisionResult(b, a, RULES[code - 1])

    def reset_counters(self) -> None:
        """Clear the per-rule fire counters (and so the decision count)."""
        self.fires[:] = _no_fires()
