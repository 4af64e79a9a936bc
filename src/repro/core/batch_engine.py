"""Generalized vectorized scheduler engine (the NumPy fast path).

:class:`BatchScheduler` is a drop-in twin of
:class:`~repro.core.scheduler.ShareStreamsScheduler` that holds every
per-slot attribute — latched deadlines/arrivals, DWCS window counters
``(x', y')``, EDF winner bias, performance counters — as NumPy arrays
and executes a whole SCHEDULE + PRIORITY_UPDATE pair as a handful of
array operations:

1. **Rank** — one :func:`numpy.lexsort` over the Table 2 key cascade
   (validity, deadline, window-constraint class/ratio, denominator,
   numerator, arrival, stream ID) produces a total-order rank per slot.
   The pairwise Decision-block comparator is consistent with this
   linear order (the documented :func:`repro.core.rules.ordering_key`
   equivalence), so any compare-exchange outcome equals a rank
   comparison.
2. **Network emulation** — the recirculating shuffle-exchange passes
   (paper schedule) or the Batcher bitonic schedule are replayed as
   index permutations + vectorized rank compare-exchanges, reproducing
   the *exact* emitted block — including the partial order the log2(N)
   paper recirculation leaves below the certified maximum.
3. **PRIORITY_UPDATE** — miss registration and the DWCS loser window
   adjustments run vectorized over all slots; the circulated winner's
   consume/adjust path mirrors the Register Base block update rules.

The object model remains the trusted oracle: every behavior here is
cross-validated cycle-by-cycle in :mod:`repro.core.differential` and
``tests/test_differential_engines.py`` (see ``docs/ENGINES.md`` for the
oracle/fast-path contract).

Wrapped (16-bit serial) arithmetic is supported by rebasing serials
around ``now`` — exact under the serial-number contract the hardware
already requires (live deadlines/arrivals within half the 16-bit
horizon of each other).

For self-advancing periodic workloads (Table 3, the throughput
benches) :meth:`BatchScheduler.run_periodic` replaces the per-cycle
Python enqueue loop with pure counter arithmetic, which is where the
order-of-magnitude speedups at large stream counts come from.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.control import ControlUnit
from repro.core.fields import (
    ARRIVAL_FIELD,
    DEADLINE_FIELD,
    LOSS_DEN_FIELD,
)
from repro.core.register_block import PendingPacket, SlotCounters
from repro.core.scheduler import DecisionOutcome
from repro.observability.hooks import resolve_observer

__all__ = [
    "BatchScheduler",
    "BatchSlotView",
    "PeriodicRunResult",
    "build_bitonic_passes",
    "make_scheduler",
]

# SchedulingMode -> small integer codes for vectorized masking.
_MODE_CODE = {
    SchedulingMode.DWCS: 0,
    SchedulingMode.EDF: 1,
    SchedulingMode.STATIC_PRIORITY: 2,
    SchedulingMode.FAIR_SHARE: 3,
    SchedulingMode.SERVICE_TAG: 4,
}
_DWCS_LIKE = (0, 3)  # DWCS + FAIR_SHARE share the window-update path

_DL_MASK = DEADLINE_FIELD.mask
_DL_MOD = DEADLINE_FIELD.modulus
_DL_HALF = DEADLINE_FIELD.half
_ARR_MASK = ARRIVAL_FIELD.mask
_ARR_MOD = ARRIVAL_FIELD.modulus
_ARR_HALF = ARRIVAL_FIELD.half
_Y_MAX = LOSS_DEN_FIELD.mask


@functools.lru_cache(maxsize=None)
def build_bitonic_passes(
    n: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Batcher pass geometry as (index, partner, ascending) arrays.

    Pure function of the slot count, memoized so every engine instance
    at width ``n`` — sequential, batch or tensor — shares one schedule
    instead of re-deriving the ``O(n log^2 n)`` geometry per
    construction.  The arrays are treated as read-only by all callers.
    """
    passes = []
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            idx, partner, asc = [], [], []
            for i in range(n):
                p = i ^ j
                if p <= i:
                    continue
                idx.append(i)
                partner.append(p)
                asc.append((i & k) == 0)
            passes.append(
                (
                    np.asarray(idx, dtype=np.int64),
                    np.asarray(partner, dtype=np.int64),
                    np.asarray(asc, dtype=bool),
                )
            )
            j //= 2
        k *= 2
    return tuple(passes)


@functools.lru_cache(maxsize=None)
def build_shuffle_permutation(n: int) -> np.ndarray:
    """Perfect-shuffle index permutation for ``n`` slots (read-only)."""
    half = n // 2
    shuffle = np.empty(n, dtype=np.int64)
    shuffle[0::2] = np.arange(half)
    shuffle[1::2] = np.arange(half) + half
    return shuffle


@dataclass(frozen=True, slots=True)
class PeriodicRunResult:
    """Aggregate outcome of a :meth:`BatchScheduler.run_periodic` run."""

    n_streams: int
    decision_cycles: int
    wins: np.ndarray  # per-stream circulated-winner counts
    misses: np.ndarray  # per-stream missed-deadline registrations
    serviced: np.ndarray  # per-stream consumed-packet counts
    frames_scheduled: int
    winners: np.ndarray | None = None  # circulated sid per cycle (-1: idle)


def make_scheduler(
    config: ArchConfig,
    streams: list[StreamConfig] | None = None,
    *,
    engine: str = "reference",
    trace_timeline: bool = False,
    trace=None,
    observer=None,
):
    """Instantiate a scheduler engine by name.

    ``engine="reference"`` builds the cycle-level object model (the
    oracle); ``engine="batch"`` builds the vectorized
    :class:`BatchScheduler`; ``engine="tensor"`` builds a
    single-scenario slice of the scenario-tensorized
    :class:`~repro.core.tensor_engine.CampaignEngine`.  All expose the
    same ``decision_cycle`` / ``enqueue`` / ``slot`` / ``counters``
    surface — including the ``observer`` telemetry hook — and are
    asserted behaviorally identical by :mod:`repro.core.differential`.
    """
    if engine == "reference":
        from repro.core.scheduler import ShareStreamsScheduler

        return ShareStreamsScheduler(
            config,
            streams,
            trace_timeline=trace_timeline,
            trace=trace,
            observer=observer,
        )
    if engine == "batch":
        return BatchScheduler(
            config,
            streams,
            trace_timeline=trace_timeline,
            trace=trace,
            observer=observer,
        )
    if engine == "tensor":
        # Imported lazily: tensor_engine builds on this module.
        from repro.core.tensor_engine import TensorScheduler

        return TensorScheduler(
            config,
            streams,
            trace_timeline=trace_timeline,
            trace=trace,
            observer=observer,
        )
    raise ValueError(
        f"unknown engine {engine!r} "
        f"(expected 'reference', 'batch' or 'tensor')"
    )


class BatchSlotView:
    """Read/inspect adapter for one slot, mirroring RegisterBaseBlock.

    Exposes the subset of the Register Base block surface the drivers
    use (``config``, ``head``, ``backlog``, ``pending``, ``counters``)
    backed by the engine's arrays, so :class:`BatchScheduler` is a
    drop-in for streaming-unit refills and residual-queue accounting.
    """

    __slots__ = ("_engine", "_sid")

    def __init__(self, engine: "BatchScheduler", sid: int) -> None:
        self._engine = engine
        self._sid = sid

    @property
    def config(self) -> StreamConfig:
        return self._engine._configs[self._sid]

    @property
    def head(self) -> PendingPacket | None:
        """The request currently latched in the registers, if any."""
        e, i = self._engine, self._sid
        if not e._has_head[i]:
            return None
        return PendingPacket(
            deadline=int(e._head_deadline[i]),
            arrival=int(e._head_arrival[i]),
            length=int(e._head_length[i]),
        )

    @property
    def backlog(self) -> int:
        """Requests waiting behind the latched head."""
        return len(self._engine._queues[self._sid])

    @property
    def pending(self) -> list[PendingPacket]:
        """Waiting requests as packets (inspection only)."""
        return [
            PendingPacket(deadline=d, arrival=a, length=ln)
            for d, a, ln in self._engine._queues[self._sid]
        ]

    @property
    def counters(self) -> SlotCounters:
        return self._engine._slot_counters(self._sid)


class BatchScheduler:
    """Vectorized cycle-level engine, drop-in for ShareStreamsScheduler.

    Parameters
    ----------
    config:
        Architecture configuration (slot count, routing, block mode,
        sorting schedule, wrap/ideal arithmetic...).
    streams:
        Stream service constraints to load; further streams can be
        loaded later with :meth:`load_stream`.
    trace_timeline:
        Record the control FSM timeline (adds per-cycle bookkeeping).
    trace:
        Optional legacy :class:`repro.observability.TraceLog` receiving
        "decide" / "miss" / "drop" events, as the reference engine
        emits them.
    observer:
        Telemetry hook receiving every cycle's outcome — same protocol
        as the reference engine, so traces/metrics are emitted
        identically by both.
    """

    def __init__(
        self,
        config: ArchConfig,
        streams: list[StreamConfig] | None = None,
        *,
        trace_timeline: bool = False,
        trace=None,
        observer=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.observer = resolve_observer(trace, observer)
        self.trace_timeline = trace_timeline
        self.control = ControlUnit(trace=trace_timeline)
        n = config.n_slots
        self._n = n
        self._wrap = config.wrap
        self._deadline_only = config.deadline_only

        # -- per-slot state (idle bundles: valid=False, fields zero) --
        self._configs: list[StreamConfig | None] = [None] * n
        self._loaded = np.zeros(n, dtype=bool)
        self._has_head = np.zeros(n, dtype=bool)  # a latched request
        self._attr_deadline = np.zeros(n, dtype=np.int64)  # as driven
        self._attr_arrival = np.zeros(n, dtype=np.int64)
        self._x = np.zeros(n, dtype=np.int64)  # current numerator x'
        self._y = np.zeros(n, dtype=np.int64)  # current denominator y'
        self._cfg_x = np.zeros(n, dtype=np.int64)  # original window
        self._cfg_y = np.zeros(n, dtype=np.int64)
        self._head_deadline = np.zeros(n, dtype=np.int64)  # actual
        self._head_arrival = np.zeros(n, dtype=np.int64)
        self._head_length = np.zeros(n, dtype=np.int64)
        self._edf_bias = np.zeros(n, dtype=np.int64)
        self._period = np.ones(n, dtype=np.int64)
        self._mode = np.full(n, _MODE_CODE[SchedulingMode.DWCS], np.int64)
        self._dwcs_like = np.zeros(n, dtype=bool)  # mode in {DWCS, FS}
        self._sid = np.arange(n, dtype=np.int64)

        # -- performance counters --
        self._wins = np.zeros(n, dtype=np.int64)
        self._serviced = np.zeros(n, dtype=np.int64)
        self._missed = np.zeros(n, dtype=np.int64)
        self._violations = np.zeros(n, dtype=np.int64)
        self._window_resets = np.zeros(n, dtype=np.int64)
        self._loads = np.zeros(n, dtype=np.int64)
        self._fast_forwarded = 0  # idle decision cycles skipped in bulk

        # -- pending-request queues: (deadline, arrival, length) --
        self._queues: list[deque] = [deque() for _ in range(n)]

        # -- network geometry (memoized index permutations, shared) --
        self._shuffle = build_shuffle_permutation(n)
        self._log2n = n.bit_length() - 1
        self._bitonic_passes = build_bitonic_passes(n)

        if streams:
            for stream in streams:
                self.load_stream(stream)
        self.control.load(1, detail="power-on constraint load")

    # ------------------------------------------------------------------
    # slot management (LOAD path)
    # ------------------------------------------------------------------

    def load_stream(self, stream: StreamConfig) -> BatchSlotView:
        """Bind a stream's service constraints to its stream-slot."""
        if not 0 <= stream.sid < self._n:
            raise ValueError(
                f"sid {stream.sid} out of range for "
                f"{self._n}-slot scheduler"
            )
        if self._configs[stream.sid] is not None:
            raise ValueError(f"slot {stream.sid} already loaded")
        i = stream.sid
        self._configs[i] = stream
        self._loaded[i] = True
        self._attr_deadline[i] = stream.initial_deadline
        self._attr_arrival[i] = 0
        self._x[i] = self._cfg_x[i] = stream.loss_numerator
        self._y[i] = self._cfg_y[i] = stream.loss_denominator
        self._period[i] = stream.period
        self._mode[i] = _MODE_CODE[stream.mode]
        self._dwcs_like[i] = _MODE_CODE[stream.mode] in _DWCS_LIKE
        return BatchSlotView(self, i)

    def slot(self, sid: int) -> BatchSlotView:
        """View of the slot bound to stream ``sid``."""
        if not (0 <= sid < self._n) or self._configs[sid] is None:
            raise KeyError(f"no stream loaded in slot {sid}")
        return BatchSlotView(self, sid)

    @property
    def active_slots(self) -> list[BatchSlotView]:
        """All populated stream-slots, in slot order."""
        return [
            BatchSlotView(self, i)
            for i in range(self._n)
            if self._configs[i] is not None
        ]

    def enqueue(
        self, sid: int, deadline: int, arrival: int, length: int = 1500
    ) -> None:
        """Deposit one packet request into a slot's pending queue."""
        if not 0 <= sid < self._n:
            raise ValueError(
                f"sid {sid} out of range for {self._n}-slot scheduler"
            )
        if self._configs[sid] is None:
            raise KeyError(f"no stream loaded in slot {sid}")
        self._queues[sid].append((deadline, arrival, length))
        if not self._has_head[sid]:
            self._latch_next(sid)

    # ------------------------------------------------------------------
    # Register Base block update mirror (scalar, one slot)
    # ------------------------------------------------------------------

    def _latch_next(self, i: int) -> None:
        q = self._queues[i]
        if not q:
            self._has_head[i] = False
            return
        deadline, arrival, length = q.popleft()
        self._head_deadline[i] = deadline
        self._head_arrival[i] = arrival
        self._head_length[i] = length
        attr_dl = deadline
        if self._mode[i] == _MODE_CODE[SchedulingMode.EDF]:
            attr_dl += int(self._edf_bias[i])
        if self._wrap:
            self._attr_deadline[i] = attr_dl & _DL_MASK
            self._attr_arrival[i] = arrival & _ARR_MASK
        else:
            self._attr_deadline[i] = attr_dl
            self._attr_arrival[i] = arrival
        self._has_head[i] = True
        self._loads[i] += 1

    def _head_is_late(self, i: int, now: int) -> bool:
        if not self._has_head[i]:
            return False
        d = int(self._head_deadline[i])
        if self._wrap:
            diff = (d - now) & _DL_MASK
            return diff >= _DL_HALF
        return d < now

    def _reset_window(self, i: int) -> None:
        self._x[i] = self._cfg_x[i]
        self._y[i] = self._cfg_y[i]
        self._window_resets[i] += 1

    def _apply_win_update(self, i: int) -> None:
        if self._y[i] > 0:
            self._y[i] -= 1
        if self._y[i] == 0 or self._y[i] <= self._x[i]:
            self._reset_window(i)

    def _apply_loss_update(self, i: int) -> None:
        if self._x[i] > 0:
            self._x[i] -= 1
            if self._y[i] > 0:
                self._y[i] -= 1
            if self._y[i] == 0 or self._x[i] == self._y[i]:
                self._reset_window(i)
        else:
            self._violations[i] += 1
            self._y[i] = min(int(self._y[i]) + 1, _Y_MAX)

    def _record_miss(self, i: int, now: int) -> bool:
        if not self._head_is_late(i, now):
            return False
        self._missed[i] += 1
        if self._mode[i] in _DWCS_LIKE:
            self._apply_loss_update(i)
        return True

    def _service(
        self, i: int, now: int, *, as_winner: bool | None = None
    ) -> tuple[int, int, int] | None:
        if not self._has_head[i]:
            return None
        self._serviced[i] += 1
        mode = int(self._mode[i])
        if mode in _DWCS_LIKE:
            if as_winner is None:
                if self._head_is_late(i, now):
                    self._apply_loss_update(i)
                else:
                    self._apply_win_update(i)
            elif as_winner:
                self._apply_win_update(i)
        elif mode == _MODE_CODE[SchedulingMode.EDF] and as_winner is not False:
            self._edf_bias[i] += self._period[i]
        packet = (
            int(self._head_deadline[i]),
            int(self._head_arrival[i]),
            int(self._head_length[i]),
        )
        self._latch_next(i)
        return packet

    # ------------------------------------------------------------------
    # SCHEDULE phase: rank + network emulation (vectorized)
    # ------------------------------------------------------------------

    def _rank(
        self,
        now: int,
        valid: np.ndarray,
        attr_dl: np.ndarray,
        attr_arr: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ) -> np.ndarray:
        """Slot index array sorted highest-priority-first.

        The sort keys replicate the Table 2 comparator cascade; the
        stream-ID tie-break makes the order total, so the result both
        names the certified winner (position 0) and drives the
        compare-exchange emulation.  Wrapped serials are rebased around
        ``now`` — exact under the serial-arithmetic contract.
        """
        if self._wrap:
            dl = (attr_dl - now) & _DL_MASK
            dl = dl - (_DL_MOD * (dl >= _DL_HALF))
            arr = (attr_arr - now) & _ARR_MASK
            arr = arr - (_ARR_MOD * (arr >= _ARR_HALF))
        else:
            dl = attr_dl
            arr = attr_arr
        invalid = ~valid
        if self._deadline_only:
            return np.lexsort((self._sid, arr, dl, invalid))
        zero_wc = (x == 0) | (y == 0)
        # x / max(y, 1) is exact in float64 for 8-bit ratios and never
        # divides by zero; zero-constraint slots are forced to 0.0.
        wc = np.where(zero_wc, 0.0, x / np.where(y == 0, 1, y))
        den_key = np.where(zero_wc, -y, 0)
        num_key = np.where(zero_wc, 0, x)
        return np.lexsort((self._sid, arr, num_key, den_key, wc, dl, invalid))

    def _emit_positions(self, order: np.ndarray) -> np.ndarray:
        """Slot IDs in emitted network-position order (BA block).

        Replays the compare-exchange network on the total-order ranks:
        any Decision-block outcome equals a rank comparison, so the
        emitted permutation — including the paper schedule's partial
        order below the certified winner — matches the object model
        exactly.
        """
        n = self._n
        rank = np.empty(n, dtype=np.int64)
        rank[order] = self._sid
        state = np.arange(n, dtype=np.int64)
        if self.config.schedule == "bitonic":
            for idx, partner, asc in self._bitonic_passes:
                wi = state[idx]
                wp = state[partner]
                ri = rank[wi]
                rp = rank[wp]
                swap = np.where(asc, ri > rp, ri < rp)
                state[idx] = np.where(swap, wp, wi)
                state[partner] = np.where(swap, wi, wp)
        else:
            for _ in range(self._log2n):
                state = state[self._shuffle]
                r = rank[state]
                a = state[0::2]
                b = state[1::2]
                swap = r[0::2] > r[1::2]
                lo = np.where(swap, b, a)
                hi = np.where(swap, a, b)
                state[0::2] = lo
                state[1::2] = hi
        return state

    #: Kept as a staticmethod alias for back-compat; the memoized
    #: module-level function is the real implementation.
    _build_bitonic_passes = staticmethod(build_bitonic_passes)

    @property
    def _schedule_passes(self) -> int:
        if self.config.schedule == "bitonic" and not self.config.winner_only:
            return len(self._bitonic_passes)
        return self._log2n

    # ------------------------------------------------------------------
    # vectorized miss registration (loser window adjustments)
    # ------------------------------------------------------------------

    def _register_misses(self, late: np.ndarray) -> None:
        """Vectorized twin of ``record_miss`` over all late heads."""
        self._missed[late] += 1
        dwcs = late & self._dwcs_like
        if not dwcs.any():
            return
        x, y = self._x, self._y
        has_loss = dwcs & (x > 0)
        # consume one loss: x' -= 1, y' -= 1 (floored at zero)
        x[has_loss] -= 1
        dec_y = has_loss & (y > 0)
        y[dec_y] -= 1
        reset = has_loss & ((y == 0) | (x == y))
        x[reset] = self._cfg_x[reset]
        y[reset] = self._cfg_y[reset]
        self._window_resets[reset] += 1
        # violation: constraint already broken, denominator increments
        violated = dwcs & ~has_loss
        self._violations[violated] += 1
        y[violated] = np.minimum(y[violated] + 1, _Y_MAX)

    # ------------------------------------------------------------------
    # decision cycle (SCHEDULE + PRIORITY_UPDATE)
    # ------------------------------------------------------------------

    def decision_cycle(
        self,
        now: int,
        *,
        consume: str = "winner",
        count_misses: bool = True,
        drop_late: bool = False,
    ) -> DecisionOutcome:
        """Run one full decision cycle at scheduler time ``now``.

        Same contract as
        :meth:`repro.core.scheduler.ShareStreamsScheduler.decision_cycle`;
        the differential harness asserts cycle-by-cycle identical
        outcomes.
        """
        if consume not in ("winner", "block", "none"):
            raise ValueError(f"unknown consume policy {consume!r}")
        if consume == "block" and self.config.routing is Routing.WR:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )

        dropped: list[tuple[int, PendingPacket]] = []
        if drop_late:
            for i in np.nonzero(self._loaded)[0]:
                i = int(i)
                while True:
                    if count_misses and self._head_is_late(i, now):
                        self._record_miss(i, now)
                    if not self._head_is_late(i, now):
                        break
                    d, a, ln = (
                        int(self._head_deadline[i]),
                        int(self._head_arrival[i]),
                        int(self._head_length[i]),
                    )
                    self._latch_next(i)
                    dropped.append(
                        (i, PendingPacket(deadline=d, arrival=a, length=ln))
                    )

        # SCHEDULE: rank, then replay the network permutation.
        valid = self._has_head & self._loaded
        rank_order = self._rank(
            now, valid, self._attr_deadline, self._attr_arrival,
            self._x, self._y,
        )
        if self.config.winner_only:
            w = int(rank_order[0])
            order = [w] if valid[w] else []
        else:
            emitted = self._emit_positions(rank_order)
            order = emitted[valid[emitted]].tolist()
        passes = self._schedule_passes
        self.control.schedule(passes, detail=f"t={now}")

        # Miss registration (performance counters, Table 3).
        misses: list[int] = []
        if count_misses:
            if self._wrap:
                diff = (self._head_deadline - now) & _DL_MASK
                late = valid & (diff >= _DL_HALF)
            else:
                late = valid & (self._head_deadline < now)
            if late.any():
                misses = np.nonzero(late)[0].tolist()
                self._register_misses(late)

        # PRIORITY_UPDATE: circulate one ID, consume, adjust attributes.
        circulated: int | None = None
        serviced: list[tuple[int, PendingPacket]] = []
        if order:
            update_sid = order[0]
            if self.config.block_mode is BlockMode.MAX_FIRST:
                circulated = order[0]
            else:
                circulated = order[-1]
            if consume == "winner":
                if count_misses and self._head_is_late(circulated, now):
                    packet = self._service(circulated, now, as_winner=False)
                else:
                    packet = self._service(circulated, now)
                if packet is not None:
                    serviced.append(
                        (circulated, PendingPacket(*packet))
                    )
            elif consume == "block":
                consume_order = (
                    order
                    if self.config.block_mode is BlockMode.MAX_FIRST
                    else list(reversed(order))
                )
                for sid in consume_order:
                    packet = self._service(
                        sid, now, as_winner=(sid == update_sid)
                    )
                    if packet is not None:
                        serviced.append((sid, PendingPacket(*packet)))
            self._wins[circulated] += 1
        self.control.priority_update(
            self.config.update_cycles, detail=f"circulate={circulated}"
        )

        outcome = DecisionOutcome(
            now=now,
            block=tuple(order),
            circulated_sid=circulated,
            serviced=tuple(serviced),
            misses=tuple(misses),
            hw_cycles=passes + self.config.update_cycles,
            dropped=tuple(dropped),
        )
        if self.observer is not None:
            self.observer.on_decision(outcome)
        return outcome

    # ------------------------------------------------------------------
    # self-advancing periodic workloads (whole runs, no Python queues)
    # ------------------------------------------------------------------

    def run_periodic(
        self,
        n_cycles: int,
        *,
        offsets: np.ndarray | None = None,
        step: np.ndarray | int | None = None,
        stride: np.ndarray | int | None = None,
        consume: str = "winner",
        count_misses: bool = True,
        collect_winners: bool = False,
        fast_forward: bool = True,
    ) -> PeriodicRunResult:
        """Run ``n_cycles`` decision cycles of a periodic request feed.

        Each loaded slot ``i`` emits one request per release interval
        (request ``k`` becomes available at cycle ``k * stride[i]``;
        the default stride of 1 is the dense one-request-per-cycle
        feed) with deadline ``offsets[i] + k * step[i]`` and
        arrival-time key ``k`` — the Table 3 workload family,
        generalized over slot count, offsets, steps, release strides,
        routing, block mode and discipline.  Heads never touch the
        Python pending queues: availability is
        ``consumed * stride <= t`` and consumption is counter
        arithmetic, so a whole decision cycle is a handful of array
        operations.

        Decision cycles where *no* slot has a pending head are
        fast-forwarded: ``now`` jumps straight to the next release
        boundary and the skipped SCHEDULE/PRIORITY_UPDATE pairs are
        accounted in bulk
        (:meth:`~repro.core.control.ControlUnit.advance_decision_cycles`),
        so sparse feeds (``stride > 1``) never burn Python cycles on
        empty decisions.  ``fast_forward=False`` keeps the cycle-by-
        cycle idle path; both produce identical results by construction
        (asserted by the hypothesis suite).

        Produces exactly the counters the equivalent per-cycle
        ``enqueue`` + :meth:`decision_cycle` loop would (the EDF winner
        bias commutes with latch time because the bias only changes
        when the slot is serviced, which also latches the next head).
        Requires ideal arithmetic (``wrap=False``) — these runs exceed
        the 16-bit horizon by construction.
        """
        if n_cycles < 0:
            raise ValueError(f"n_cycles must be >= 0, got {n_cycles}")
        if self._wrap:
            raise ValueError(
                "run_periodic requires ideal arithmetic (wrap=False)"
            )
        if consume not in ("winner", "block"):
            raise ValueError(f"unknown consume policy {consume!r}")
        if consume == "block" and self.config.routing is Routing.WR:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )
        n = self._n
        loaded = self._loaded
        if offsets is None:
            offs = np.where(
                loaded,
                np.asarray(
                    [
                        c.initial_deadline if c is not None else 0
                        for c in self._configs
                    ],
                    dtype=np.int64,
                ),
                0,
            )
        else:
            offs = np.asarray(offsets, dtype=np.int64)
            if offs.shape != (n,):
                raise ValueError("offsets shape mismatch")
        if step is None:
            steps = self._period.copy()
        else:
            steps = np.broadcast_to(
                np.asarray(step, dtype=np.int64), (n,)
            ).copy()
        if stride is None:
            strides = np.ones(n, dtype=np.int64)
        else:
            strides = np.broadcast_to(
                np.asarray(stride, dtype=np.int64), (n,)
            ).copy()
            if (strides < 1).any():
                raise ValueError("stride must be >= 1")

        consumed = np.zeros(n, dtype=np.int64)
        bias = self._edf_bias
        edf = self._mode == _MODE_CODE[SchedulingMode.EDF]
        max_first = self.config.block_mode is BlockMode.MAX_FIRST
        winner_only = self.config.winner_only
        winners = (
            np.full(n_cycles, -1, dtype=np.int64) if collect_winners else None
        )
        update_cycles = self.config.update_cycles
        t = 0
        while t < n_cycles:
            avail = consumed * strides
            valid = loaded & (avail <= t)
            if not valid.any():
                # Idle decision cycle: no slot has a pending head, so
                # nothing can be serviced or miss.  Jump to the next
                # release boundary (bulk control accounting) unless the
                # caller asked for the cycle-by-cycle path.
                if fast_forward:
                    pending = avail[loaded]
                    nxt = int(pending.min()) if pending.size else n_cycles
                    nxt = min(max(nxt, t + 1), n_cycles)
                    self.control.advance_decision_cycles(
                        nxt - t, self._schedule_passes, update_cycles,
                        detail="idle fast-forward",
                    )
                    self._fast_forwarded += nxt - t
                    t = nxt
                else:
                    self.control.schedule(
                        self._schedule_passes, detail=f"t={t}"
                    )
                    self.control.priority_update(
                        update_cycles, detail="circulate=None"
                    )
                    t += 1
                continue
            real_dl = offs + consumed * steps
            attr_dl = real_dl + np.where(edf, bias, 0)
            order = self._rank(t, valid, attr_dl, consumed, self._x, self._y)
            late = valid & (real_dl < t)
            if count_misses and late.any():
                self._register_misses(late)
            # Emitted block head / tail selection.
            w = int(order[0])
            if winner_only or max_first:
                circulated = w
            else:
                emitted = self._emit_positions(order)
                block = emitted[valid[emitted]]
                circulated = int(block[-1])
            update_sid = w
            if consume == "winner":
                i = circulated
                late_head = count_misses and bool(late[i])
                mode = int(self._mode[i])
                if mode in _DWCS_LIKE:
                    if late_head:
                        pass  # miss path already applied the loss update
                    elif bool(late[i]):
                        self._apply_loss_update(i)
                    else:
                        self._apply_win_update(i)
                elif edf[i] and not late_head:
                    bias[i] += steps[i]
                self._serviced[i] += 1
                consumed[i] += 1
            else:  # block: every valid head consumed this cycle
                i = update_sid
                mode = int(self._mode[i])
                if mode in _DWCS_LIKE:
                    self._apply_win_update(i)
                elif edf[i]:
                    bias[i] += steps[i]
                self._serviced[valid] += 1
                consumed[valid] += 1
            self._wins[circulated] += 1
            if winners is not None:
                winners[t] = circulated
            self.control.schedule(self._schedule_passes, detail=f"t={t}")
            self.control.priority_update(
                update_cycles, detail=f"circulate={circulated}"
            )
            t += 1
        result = PeriodicRunResult(
            n_streams=int(loaded.sum()),
            decision_cycles=n_cycles,
            wins=self._wins.copy(),
            misses=self._missed.copy(),
            serviced=self._serviced.copy(),
            frames_scheduled=int(self._serviced.sum()),
            winners=winners,
        )
        # The vectorized whole-run path intentionally emits no
        # per-cycle events (that would reintroduce the Python loop);
        # observers that understand run summaries get the final
        # per-stream counters instead.
        if self.observer is not None:
            summary_hook = getattr(self.observer, "on_run_summary", None)
            if summary_hook is not None:
                summary_hook(result)
        return result

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def cycles_per_decision(self) -> int:
        """Hardware cycles one decision cycle consumes."""
        return self.config.sort_passes + self.config.update_cycles

    @property
    def fast_forwarded(self) -> int:
        """Idle decision cycles skipped in bulk by ``run_periodic``."""
        return self._fast_forwarded

    def _slot_counters(self, i: int) -> SlotCounters:
        return SlotCounters(
            wins=int(self._wins[i]),
            serviced=int(self._serviced[i]),
            missed_deadlines=int(self._missed[i]),
            violations=int(self._violations[i]),
            window_resets=int(self._window_resets[i]),
            loads=int(self._loads[i]),
        )

    def counters(self) -> dict[int, SlotCounters]:
        """Per-stream performance counters, keyed by stream ID."""
        return {
            i: self._slot_counters(i)
            for i in range(self._n)
            if self._configs[i] is not None
        }
