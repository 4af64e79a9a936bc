"""Table 2: scheduler decision rules — exhaustive coverage check.

The Decision block implements the five pairwise ordering rules of
Table 2 by concurrent evaluation (Figure 5).  This experiment sweeps a
structured attribute grid through a Decision block and reports, per
rule, how many pairs it resolved — demonstrating every rule is
reachable and showing the priority encoding in action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.attributes import HardwareAttributes
from repro.core.decision_block import DecisionBlock
from repro.core.rules import Rule

__all__ = ["RuleCoverage", "run_rule_coverage"]


@dataclass(frozen=True, slots=True)
class RuleCoverage:
    """How many pairwise decisions each Table 2 rule resolved."""

    counts: dict[Rule, int]
    total: int

    @property
    def all_rules_fired(self) -> bool:
        """Whether every substantive rule resolved at least one pair."""
        needed = {
            Rule.EARLIEST_DEADLINE,
            Rule.LOWEST_WINDOW_CONSTRAINT,
            Rule.HIGHEST_DENOMINATOR_ZERO_WC,
            Rule.LOWEST_NUMERATOR_EQUAL_WC,
            Rule.FCFS,
        }
        return needed <= {r for r, n in self.counts.items() if n > 0}


def _attribute_grid() -> list[HardwareAttributes]:
    """A structured grid hitting every rule's guard conditions."""
    deadlines = (10, 10, 12)
    windows = ((0, 0), (0, 4), (0, 8), (1, 2), (2, 4), (1, 4), (3, 4))
    arrivals = (0, 5)
    grid = []
    sid = 0
    for deadline, (x, y), arrival in itertools.product(
        deadlines, windows, arrivals
    ):
        grid.append(
            HardwareAttributes(
                sid=sid % 32,
                deadline=deadline,
                loss_numerator=x,
                loss_denominator=y,
                arrival=arrival,
            )
        )
        sid += 1
    return grid


def run_rule_coverage() -> RuleCoverage:
    """Push every grid pair through one Decision block."""
    block = DecisionBlock()
    grid = _attribute_grid()
    total = 0
    for a, b in itertools.combinations(grid, 2):
        block.decide(a, b)
        total += 1
    return RuleCoverage(counts=block.rule_counts, total=total)
