"""Recirculating shuffle-exchange network of Decision blocks.

The ShareStreams architecture conserves area by arranging only ``N/2``
Decision blocks in a *single* network stage and recirculating the
attribute bundles through it (Section 3: "a recirculating shuffle ...
conserves area, and scales better by using only N/2 decision blocks in
a single-stage recirculating shuffle").  Each pass performs a perfect
shuffle of the ``N`` bundle positions followed by a compare-exchange of
adjacent pairs; ``log2(N)`` passes deliver the maximum-priority stream
to position 0 (a tournament folded onto one stage).

Sorting schedules
-----------------
``schedule="paper"``
    The paper's ``log2(N)``-pass recirculation.  It *certifies* the
    maximum (and, with reversed comparison on the mirrored pairs, the
    minimum); the rest of the emitted *block* is the partial order the
    hardware would produce.  This is the default, matching the paper.
``schedule="bitonic"``
    A full Batcher bitonic sorting schedule executed on the same
    ``N/2`` comparators, taking ``log2(N) * (log2(N)+1) / 2`` passes.
    It produces a certified total order; experiments that need an exact
    sorted block use it, and the ablation bench compares the two.

See DESIGN.md ("Known interpretation points") for why both exist.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from repro.core.attributes import HardwareAttributes
from repro.core.decision_block import DecisionBlock
from repro.core.rules import compare, decision_code

__all__ = ["NetworkResult", "ShuffleExchangeNetwork", "perfect_shuffle", "is_pow2"]


def is_pow2(n: int) -> bool:
    """Whether ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def perfect_shuffle(items: list) -> list:
    """Perfect shuffle: interleave the two halves of ``items``.

    ``[a, b, c, d] -> [a, c, b, d]`` — position ``2i`` receives element
    ``i`` and position ``2i+1`` receives element ``i + N/2``.  This is
    the fixed wiring between the register file and the decision stage.
    """
    n = len(items)
    if not is_pow2(n):
        raise ValueError(f"shuffle width must be a power of two, got {n}")
    half = n // 2
    out = [None] * n
    for i in range(half):
        out[2 * i] = items[i]
        out[2 * i + 1] = items[i + half]
    return out


class NetworkResult(NamedTuple):
    """Outcome of one full recirculation (one SCHEDULE phase).

    A named tuple, built once per decision cycle.

    Attributes
    ----------
    order:
        Attribute bundles in emitted priority order, position 0 being
        the highest-priority (winner) stream.  Under winner-only
        routing this contains just the winner.
    passes:
        Number of network passes (hardware cycles) consumed.
    comparisons:
        Total pairwise decisions made across all passes.
    """

    order: list[HardwareAttributes]
    passes: int
    comparisons: int

    @property
    def winner(self) -> HardwareAttributes:
        """The maximum-priority bundle (block head)."""
        return self.order[0]


@functools.lru_cache(maxsize=None)
def _bitonic_stages(n: int) -> tuple[tuple[tuple[int, int, int, bool], ...], ...]:
    """Batcher bitonic pass tables: ``(block, i, partner, ascending)`` rows.

    One table per network pass.  Pair geometry follows the classic
    network; every stage holds exactly ``N/2`` pairs, dealt to the
    physical Decision blocks in order of their lower index.  Ascending
    pairs put the higher-priority bundle at the lower index.
    """
    stages = []
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            pairs = [(i, i ^ j, (i & k) == 0) for i in range(n) if (i ^ j) > i]
            stages.append(
                tuple(
                    (block, i, partner, ascending)
                    for block, (i, partner, ascending) in enumerate(pairs)
                )
            )
            j //= 2
        k *= 2
    return tuple(stages)


class ShuffleExchangeNetwork:
    """Single-stage recirculating network over ``n_slots`` bundles.

    Parameters
    ----------
    n_slots:
        Number of stream-slots (power of two, 2..32 on one Virtex chip).
    wrap:
        16-bit serial deadline/arrival comparison (hardware behavior).
    deadline_only:
        Simple-comparator mode for fair-queuing service tags.
    schedule:
        ``"paper"`` (log2 N recirculation) or ``"bitonic"`` (full sort).

    One pass is one loop over the ``N/2`` blocks, each making one
    :func:`~repro.core.rules.decision_code` call and counting the code
    it returned in the block's ``fires`` list, which also gives the
    block's decision count.  A paper pass lets block ``j`` order
    bundles ``j`` and ``j + N/2`` of the previous pass (the pair
    :func:`perfect_shuffle` wires onto positions ``2j``/``2j + 1``);
    the bitonic passes read their pairs from stage tables built once
    per slot count.
    """

    def __init__(
        self,
        n_slots: int,
        *,
        wrap: bool = True,
        deadline_only: bool = False,
        schedule: str = "paper",
    ) -> None:
        if not is_pow2(n_slots) or n_slots < 2:
            raise ValueError(
                f"n_slots must be a power of two >= 2, got {n_slots}"
            )
        if schedule not in ("paper", "bitonic"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.n_slots = n_slots
        self.schedule = schedule
        self.wrap = wrap
        self.deadline_only = deadline_only
        # The single physical stage: N/2 decision blocks, reused each pass.
        self.blocks = [
            DecisionBlock(index=i, wrap=wrap, deadline_only=deadline_only)
            for i in range(n_slots // 2)
        ]
        # The blocks' rule-fire counters, charged in place by every pass.
        self._fires = [block.fires for block in self.blocks]
        self._paper_passes = n_slots.bit_length() - 1
        self._bitonic = _bitonic_stages(n_slots) if schedule == "bitonic" else ()

    # ------------------------------------------------------------------

    @property
    def passes_per_decision(self) -> int:
        """Network passes one SCHEDULE phase consumes."""
        return len(self._bitonic) or self._paper_passes

    def _run_paper(
        self, bundles: list[HardwareAttributes]
    ) -> list[HardwareAttributes]:
        """``log2(N)`` passes of perfect shuffle + pairwise exchange.

        After the shuffle, block ``j`` compares bundles ``j`` and
        ``j + N/2`` of the previous pass and drives its winner and
        loser onto positions ``2j`` and ``2j + 1``.
        """
        wrap, deadline_only = self.wrap, self.deadline_only
        fires = self._fires
        half = len(fires)
        state = bundles
        for _ in range(self._paper_passes):
            out: list[HardwareAttributes] = []
            push = out.append
            for a, b, counts in zip(state, state[half:], fires):
                code = decision_code(a, b, wrap, deadline_only)
                counts[code] += 1
                if code < 0:
                    push(a)
                    push(b)
                else:
                    push(b)
                    push(a)
            state = out
        return state

    def _run_bitonic(
        self, bundles: list[HardwareAttributes]
    ) -> list[HardwareAttributes]:
        """Batcher bitonic sort using the same comparator pool.

        Each stage maps onto one recirculation pass of the ``N/2``
        physical comparators (the steering muxes select the operand
        routing).
        """
        wrap, deadline_only = self.wrap, self.deadline_only
        fires = self._fires
        state = list(bundles)
        for stage in self._bitonic:
            for j, i, partner, ascending in stage:
                a = state[i]
                b = state[partner]
                code = decision_code(a, b, wrap, deadline_only)
                fires[j][code] += 1
                if (code < 0) != ascending:
                    state[i] = b
                    state[partner] = a
        return state

    # ------------------------------------------------------------------

    def run(
        self,
        bundles: list[HardwareAttributes],
        *,
        winner_only: bool = False,
    ) -> NetworkResult:
        """Execute one SCHEDULE phase over the slot attribute bundles.

        Parameters
        ----------
        bundles:
            One attribute bundle per stream-slot, in slot order.  The
            list is not modified.
        winner_only:
            Winner-only (WR / max-finding) routing: only the winner is
            emitted.  The pass count is identical (the tournament depth
            does not change); only the interconnect differs, which the
            area/clock model captures separately.
        """
        if len(bundles) != self.n_slots:
            raise ValueError(
                f"expected {self.n_slots} bundles, got {len(bundles)}"
            )
        if self._bitonic and not winner_only:
            order = self._run_bitonic(bundles)
            passes = len(self._bitonic)
        else:
            order = self._run_paper(bundles)
            passes = self._paper_passes
            if winner_only:
                order = order[:1]
        # Every pass fires each of the N/2 blocks exactly once.
        return NetworkResult(order, passes, passes * len(self._fires))

    def reference_order(
        self, bundles: list[HardwareAttributes]
    ) -> list[HardwareAttributes]:
        """Certified total order via direct pairwise comparison.

        Uses an insertion sort driven by the same Table 2 comparator —
        the oracle the property tests compare network output against.
        """
        order: list[HardwareAttributes] = []
        for bundle in bundles:
            lo = 0
            while lo < len(order) and compare(
                order[lo], bundle, wrap=self.wrap, deadline_only=self.deadline_only
            ) < 0:
                lo += 1
            order.insert(lo, bundle)
        return order

    def reset_counters(self) -> None:
        """Clear all decision-block counters."""
        for block in self.blocks:
            block.reset_counters()
