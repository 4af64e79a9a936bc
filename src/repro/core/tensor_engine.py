"""The array engine: scenario-tensorized, NumPy-backed.

:class:`CampaignEngine` holds every per-slot attribute of S
*same-shape* scenarios — identical architecture configuration (slot
count, routing, block mode, sorting schedule, wrap/extended arithmetic)
but independent stream constraint sets and workloads — one row per
scenario: latched deadlines/arrivals, DWCS window counters ``(x', y')``,
EDF winner bias and performance counters.  Campaigns of more than
:data:`DRIVER_MAX_CELLS` scenario-slots hold them as ``(S, N)`` arrays,
and a whole SCHEDULE + PRIORITY_UPDATE pair runs as a handful of
batched array ops across the *whole campaign* at once:

1. **Rank** — the Table 2 key cascade (validity, deadline,
   window-constraint class/ratio, denominator, numerator, arrival,
   stream ID) yields a total-order rank per slot.  The pairwise
   Decision-block comparator is consistent with this linear order (the
   documented :func:`repro.core.rules.ordering_key` equivalence), so
   any compare-exchange outcome equals a rank comparison.
2. **Network emulation** — the emitted block, including the partial
   order the paper's ``log2(N)`` recirculation leaves below the
   certified maximum, is reproduced from the ranks.
3. **PRIORITY_UPDATE** — miss registration and the DWCS loser window
   adjustments run vectorized over all slots; the circulated winner's
   consume/adjust path mirrors the Register Base block update rules.

Per-cycle Python overhead is amortized over S scenarios instead of
paid S times, which composes multiplicatively with the process-level
sharding in :mod:`repro.runner`.  The object model remains the trusted
oracle: every behavior here is cross-validated cycle-by-cycle in
:mod:`repro.core.differential` (see ``docs/ENGINES.md`` for the
oracle/array-engine contract).

The same-shape bucketing contract is what makes the leading axis
sound: every scenario in a bucket shares one ``ArchConfig``, so the
sort-key cascade, the network pass geometry and the wrap rebasing are
common subexpressions; per-stream attributes (periods, window
constraints, disciplines, deadlines) vary freely along ``(S, N)``.
Mixed campaigns are bucketed by
:func:`repro.core.differential.bucket_key` before they reach this
module.

Wrapped (16-bit serial) arithmetic is supported by rebasing serials
around ``now`` — exact under the serial-number contract the hardware
already requires (live deadlines/arrivals within half the 16-bit
horizon of each other).

Idle-cycle fast-forward: a caller that knows *no* scenario in the
campaign has a pending head (the bucketed differential runs of
:func:`repro.core.differential.run_bucket`) accounts a whole idle gap's
SCHEDULE/PRIORITY_UPDATE pairs in one :meth:`CampaignEngine.advance_idle`
call, so sparse workloads cost array ops only on the cycles where a
decision can actually differ from "nothing happened".

:class:`TensorScheduler` is the S=1 adapter: a drop-in for
:class:`~repro.core.scheduler.ShareStreamsScheduler`
(``make_scheduler(..., engine="tensor")``) backed by a one-row
campaign, cross-validated cycle-by-cycle by
:mod:`repro.core.differential`.

Each decision pays only for the part of the Table 2 order it uses.
:func:`table2_rank_order` reads the packed window-constraint key from a
256×256 table indexed by ``(x', y')``.  WR decisions need only each
row's head: on rows shorter than
:data:`HEAD_SCAN_MIN_SLOTS` that is column 0 of one
:func:`numpy.lexsort`, on longer rows an O(N) masked-minimum scan.  BA
decisions need the whole emitted block: a complete Batcher network
sorts, so bitonic emission *is* the rank order, and the paper's
``log2(N)`` recirculation is replayed on ranks (min/max on the pair
lanes) with one final gather back to slot ids.

Queued requests and latched heads are the :class:`PendingPacket`
objects ``enqueue`` built, as in the object model's Register Base
blocks.

Each engine takes one of two sides, fixed when it is built from S×N
(:attr:`CampaignEngine.cycle_side`).  Campaigns of at most
:data:`DRIVER_MAX_CELLS` scenario-slots — the S=1 adapter at the
paper's slot counts, and most differential buckets — keep each row of
per-slot state as a Python list: :meth:`CampaignEngine.decision_cycle_all`
ranks each row in plain Python (with each slot's packed window key
cached beside its window), registers misses per loaded slot, and reads
or writes no NumPy array of engine state.  Larger campaigns keep the
``(S, N)`` arrays, with ``(S, N)`` mirrors of head presence and head
deadline for the vectorized rank and miss paths, and hand the scalar
latch and service paths one view per array row, so one copy of those
paths serves both sides.  Both sides are byte-identical; the bound sits
at a crossover measured by ``benchmarks/test_bench_shape_rules.py``.
:meth:`CampaignEngine.run_periodic` runs every whole run in one
plain-Python driver, on the row lists themselves or on list copies of
the arrays.  The driver and the Python side share one Table 2 key-tuple
ranking with the paper schedule replayed on the ranks
(:func:`_emit_block`) and one scalar DWCS window update
(:func:`_win_update`, :func:`_loss_update`).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode
from repro.core.control import ControlUnit, cycle_count
from repro.core.fields import (
    ARRIVAL_FIELD,
    DEADLINE_FIELD,
    LOSS_DEN_FIELD,
    LOSS_NUM_FIELD,
)
from repro.core.register_block import (
    PendingPacket,
    SlotCounters,
    negative_time_error,
    nonpositive_length_error,
)
from repro.core.scheduler import DecisionOutcome, flag_error
from repro.observability.spans import PhaseTimer

__all__ = [
    "DRIVER_MAX_CELLS",
    "HEAD_SCAN_MIN_SLOTS",
    "CampaignEngine",
    "PeriodicRunResult",
    "TensorScheduler",
    "TensorSlotView",
    "table2_rank_order",
]

# DWCS + FAIR_SHARE share the window-update path.
_DWCS_LIKE = (SchedulingMode.DWCS, SchedulingMode.FAIR_SHARE)
_EDF = SchedulingMode.EDF

_DL_MASK = DEADLINE_FIELD.mask
_DL_MOD = DEADLINE_FIELD.modulus
_DL_HALF = DEADLINE_FIELD.half
_ARR_MASK = ARRIVAL_FIELD.mask
_ARR_MOD = ARRIVAL_FIELD.modulus
_ARR_HALF = ARRIVAL_FIELD.half
_Y_MAX = LOSS_DEN_FIELD.mask

#: Fixed-point scale for the window-constraint ratio key.  ``x`` and
#: ``y`` are 8-bit fields, so two distinct ratios differ by at least
#: ``1/(255*255) = 1/65025``; scaling by ``2**16 = 65536`` stretches
#: every such gap past 1, making ``(x << 16) // y`` *order-exact*:
#: floored keys compare identically to the exact rationals (and equal
#: rationals floor to equal keys).  This replaces the float ``x / y``
#: lexsort key with an integer one.
_WC_SHIFT = 16

#: Key value of masked-out slots in the head scan.
_INT64_MAX = np.iinfo(np.int64).max

#: Largest S×N (scenarios × slots) on which a campaign keeps its
#: per-slot state in Python row lists and
#: :meth:`CampaignEngine.decision_cycle_all` ranks in plain Python
#: instead of with :func:`table2_rank_order` over ``(S, N)`` arrays; the
#: side is fixed when the engine is built.  The endsystem feed places it
#: (``benchmarks/test_bench_shape_rules.py``): the Python side runs at
#: 0.97–1.14× the NumPy side there at S=1 N=64, and at 0.67–0.90× on its
#: 128-cell rows of 64 and 128 slots, while every other feed and shape up
#: to 64 cells, the campaign workload's own buckets included, runs at
#: 1.05× or more.
DRIVER_MAX_CELLS = 64

#: Shortest row (slot count N) on which :func:`table2_rank_order` finds
#: each row's head with the O(N) masked-minimum scan instead of column 0
#: of the lexsort.  The lexsort's cost follows the keys as well as the
#: shape, so the constant is placed on head-only calls captured from
#: the two feeds that rank heads on long or many rows
#: (``benchmarks/test_bench_shape_rules.py``).  On the aggregation tier's keys
#: the scan runs at 0.71–1.17× the lexsort at N=128, 1.28–1.84× at 256
#: and 2.9–4.2× at 1024; on the periodic EDF campaign feed, whose keys come
#: in a few long runs of equal values, the lexsort stays faster at every
#: swept shape (N=8 and 32, up to S×N=2048).  Row length separates the
#: two where S×N does not.
HEAD_SCAN_MIN_SLOTS = 256


@dataclass(frozen=True, slots=True)
class PeriodicRunResult:
    """One scenario's outcome of a :meth:`CampaignEngine.run_periodic` run."""

    n_streams: int
    decision_cycles: int
    wins: np.ndarray  # per-stream circulated-winner counts
    misses: np.ndarray  # per-stream missed-deadline registrations
    serviced: np.ndarray  # per-stream consumed-packet counts
    frames_scheduled: int
    winners: np.ndarray | None = None  # circulated sid per cycle (-1: idle)


def _window_key(x, y):
    """One int64 word ordering like the (ratio, den, num) key triple.

    Zero-wildcard slots (``x == 0 or y == 0``) carry ``wc_key = 0``,
    ``den_key = 255 - y`` (``-y`` shifted to an unsigned 8-bit lane;
    order is translation-invariant) and ``num_key = 0``; live-ratio
    slots carry the order-exact fixed-point ratio, ``den_key = 255`` and
    ``num_key = x``.
    """
    zero_wc = (x == 0) | (y == 0)
    wc_key = np.where(zero_wc, 0, (x << _WC_SHIFT) // np.where(y == 0, 1, y))
    den_key = np.where(zero_wc, 255 - y, 255)
    num_key = np.where(zero_wc, 0, x)
    return (wc_key << 16) | (den_key << 8) | num_key


def _window_key_table() -> np.ndarray:
    """:func:`_window_key` for every 8-bit ``(x', y')`` pair.

    Built one ``x'`` row at a time: the whole-array build materializes
    several 65,536-entry temporaries and raises peak RSS by megabytes.
    """
    y = np.arange(LOSS_DEN_FIELD.modulus, dtype=np.int64)
    table = np.empty((LOSS_NUM_FIELD.modulus, y.size), dtype=np.int64)
    for x in range(LOSS_NUM_FIELD.modulus):
        table[x] = _window_key(x, y)
    return table


#: Packed window-constraint key, indexed ``[x', y']``.
_WC_KEY = _window_key_table()


def _head_scan(invalid, keys) -> np.ndarray:
    """Each row's first slot by ``(invalid, *keys)``, in O(N).

    Narrows the valid slots to those holding the row minimum of each
    key in turn (most significant first); the first survivor is the
    lowest slot id, ``lexsort``'s stable tie-break.  Rows with no valid
    slot return 0.
    """
    cand = ~invalid
    for key in keys:
        masked = np.where(cand, key, _INT64_MAX)
        cand &= masked == masked.min(axis=-1, keepdims=True)
    return cand.argmax(axis=-1)


def table2_rank_order(
    *,
    invalid,
    dl,
    arr,
    x=None,
    y=None,
    deadline_only: bool = False,
    head_only: bool = False,
) -> np.ndarray:
    """Table 2 rank cascade over the last axis.

    Produces the exact permutation of::

        np.lexsort((sid, arr, num_key, den_key, wc, dl, invalid))

    (or ``np.lexsort((sid, arr, dl, invalid))`` when ``deadline_only``),
    where ``wc = x / y`` is the float loss-constraint ratio.  The three
    bounded window-constraint keys (ratio, denominator, numerator —
    8-bit fields) come packed into one order-exact integer word from a
    table, and the ``sid`` key is implicit because ``lexsort`` is
    stable.

    With ``head_only`` it returns just each row's first slot (column 0
    of that permutation) as an ``(S,)`` array, exact on every row that
    holds a valid slot.  On rows of at least :data:`HEAD_SCAN_MIN_SLOTS`
    slots the head comes from an O(N) masked-minimum scan instead of
    the sort.

    All operands are ``(S, N)`` arrays: ``invalid`` bool (sorts
    loaded-and-pending slots first), ``dl``/``arr`` rebased int64
    deadline/arrival keys, ``x``/``y`` the live window-constraint
    counters (ignored when ``deadline_only``).
    """
    if deadline_only:
        keys = (dl, arr)
    else:
        keys = (dl, _WC_KEY[x, y], arr)
    if head_only and invalid.shape[-1] >= HEAD_SCAN_MIN_SLOTS:
        return _head_scan(invalid, keys)
    order = np.lexsort((*keys[::-1], invalid), axis=-1)
    return order[..., 0] if head_only else order


@lru_cache(maxsize=1024)
def _paper_emit(state: tuple) -> tuple:
    """The paper schedule's ``log2 N`` min/max passes over ``state``.

    ``state[p]`` is the rank at network position ``p``; each pass's
    perfect shuffle pairs position ``p`` with ``p + N/2`` and writes the
    pair's lower rank to the even lane and the higher to the odd lane,
    as :meth:`CampaignEngine._emit_positions` does on arrays.  Returns
    the ranks in emitted order.  The result depends on the rank pattern
    alone, and periodic workloads revisit a few patterns, so the replay
    is memoized.
    """
    n = len(state)
    half = n // 2
    for _ in range(n.bit_length() - 1):
        nxt = []
        append = nxt.append
        # zip stops at the shorter list: position p meets p + N/2.
        for a, b in zip(state, state[half:]):
            if a < b:
                append(a)
                append(b)
            else:
                append(b)
                append(a)
        state = nxt
    return tuple(state)


def _emit_block(keys, head_only: bool, paper: bool, n: int) -> tuple:
    """One row's emitted block of slot ids, ranked in plain Python.

    ``keys`` holds one Table 2 key tuple per latched head, ending in the
    slot id (the lexsort's stable tie-break), so ``min`` is the head and
    ``sorted`` the rank order, which the bitonic schedule emits as is.
    ``head_only`` returns just the head.  The paper schedule replays its
    passes on the ranks (:func:`_paper_emit`).  Empty slots all take the
    rank after the last head: a compare-exchange network commutes with
    that clamp, so the heads land where the full ranking puts them.
    """
    if head_only:
        return (min(keys)[-1],)
    ranked = sorted(keys)
    if not paper:
        return tuple([key[-1] for key in ranked])
    m = len(ranked)
    state = [m] * n
    for rank, key in enumerate(ranked):
        state[key[-1]] = rank
    return tuple([
        ranked[rank][-1] for rank in _paper_emit(tuple(state)) if rank < m
    ])


def _win_update(k, x, y, cfg_x, cfg_y, resets, violations, wc) -> None:
    """DWCS win update of slot ``k``'s window ``(x', y')``, in place.

    The containers are one row's window state, indexed by slot id
    (Python lists, or views of one row of the NumPy side's ``(S, N)``
    arrays): the counters ``(x', y')``, the configured ``(x, y)``, the
    reset and violation counts, and ``wc``, the packed window key of
    each slot's ``(x', y')``, refreshed here (``None`` where no key is
    cached).
    """
    yk = y[k]
    if yk > 0:
        yk -= 1
        y[k] = yk
    if yk == 0 or yk <= x[k]:
        x[k] = cfg_x[k]
        y[k] = cfg_y[k]
        resets[k] += 1
    if wc is not None:
        wc[k] = _WC_KEY.item(x[k], y[k])


def _loss_update(k, x, y, cfg_x, cfg_y, resets, violations, wc) -> None:
    """DWCS loss update of slot ``k``'s window, in place (see
    :func:`_win_update` for the containers): spend one unit of loss
    tolerance, or count a violation and widen the window when none is
    left."""
    xk, yk = x[k], y[k]
    if xk > 0:
        xk -= 1
        if yk > 0:
            yk -= 1
        if yk == 0 or xk == yk:
            x[k] = cfg_x[k]
            y[k] = cfg_y[k]
            resets[k] += 1
        else:
            x[k] = xk
            y[k] = yk
    else:
        violations[k] += 1
        y[k] = min(yk + 1, _Y_MAX)
    if wc is not None:
        wc[k] = _WC_KEY.item(x[k], y[k])


def _feed_array(value, name: str, shape: tuple[int, int]) -> np.ndarray:
    """A ``run_periodic`` feed input (``offsets``, ``step``) as an
    ``(S, N)`` int64 array; non-integer values and shapes that do not
    broadcast raise instead of being truncated or misread."""
    array = np.asarray(value)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    try:
        return np.ascontiguousarray(
            np.broadcast_to(array.astype(np.int64), shape)
        )
    except ValueError:
        raise ValueError(
            f"{name} of shape {array.shape} does not broadcast to {shape}"
        ) from None


def _per_scenario(value, n_scenarios: int, name: str) -> list:
    """Broadcast a scalar or validate a per-scenario sequence."""
    if isinstance(value, (list, tuple)):
        if len(value) != n_scenarios:
            raise ValueError(
                f"{name} must have one entry per scenario "
                f"({len(value)} != {n_scenarios})"
            )
        return list(value)
    return [value] * n_scenarios


def _flags(value, n_scenarios: int, name: str) -> list:
    """An on/off argument as one ``bool`` per scenario; any value that
    is not a ``bool`` raises :func:`~repro.core.scheduler.flag_error`."""
    if value is True or value is False:
        return [value] * n_scenarios
    values = _per_scenario(value, n_scenarios, name)
    for flag in values:
        if flag is not True and flag is not False:
            raise flag_error(name, flag)
    return values



class TensorSlotView:
    """Read/inspect adapter for one (scenario, slot) register block.

    Built once per loaded slot; it reads the engine's Python head and
    queue state, so inspection costs no array access.
    """

    __slots__ = ("_engine", "_scenario", "_sid", "_heads", "_queue")

    def __init__(self, engine: "CampaignEngine", scenario: int, sid: int):
        self._engine = engine
        self._scenario = scenario
        self._sid = sid
        self._heads = engine._heads[scenario]
        self._queue = engine._queues[scenario][sid]

    @property
    def config(self) -> StreamConfig:
        return self._engine._configs[self._scenario][self._sid]

    @property
    def head(self) -> PendingPacket | None:
        """The request currently latched in the registers, if any."""
        return self._heads[self._sid]

    @property
    def backlog(self) -> int:
        """Requests waiting behind the latched head."""
        return len(self._queue)

    @property
    def pending(self) -> list[PendingPacket]:
        """Waiting requests as packets (inspection only)."""
        return list(self._queue)

    @property
    def counters(self) -> SlotCounters:
        return self._engine._slot_counters(self._scenario, self._sid)


class CampaignEngine:
    """S-scenario tensorized scheduler: per-slot state by row, lockstep cycles.

    Parameters
    ----------
    config:
        The *shared* architecture configuration — every scenario in the
        campaign runs the same slot count, routing, block mode, sorting
        schedule and arithmetic (the same-shape bucketing contract).
    stream_lists:
        One stream-constraint list per scenario (entries may be empty).
        Alternatively pass ``n_scenarios`` and load streams later with
        :meth:`load_stream`.
    observers:
        Optional per-scenario telemetry hooks (same ``on_decision``
        protocol as the other engines); ``None`` entries are skipped.
        :meth:`run_periodic` hands each its row's result through
        ``on_run_summary`` where the observer defines it.
    trace_timeline:
        Record the (shared, lockstep) control FSM timeline.
    tracer:
        Optional :class:`~repro.observability.spans.SpanTracer`: the
        SCHEDULE, PRIORITY_UPDATE and idle fast-forward phases are timed
        with one :class:`~repro.observability.spans.PhaseTimer` each and
        recorded as ``schedule``, ``priority_update`` and
        ``fast_forward`` spans by :meth:`record_phases`.  Without one
        the per-cycle cost is a single ``is not None`` check, matching
        the observer-hook contract.
    """

    def __init__(
        self,
        config: ArchConfig,
        stream_lists=None,
        *,
        n_scenarios: int | None = None,
        observers=None,
        trace_timeline: bool = False,
        tracer=None,
    ) -> None:
        if stream_lists is None:
            if n_scenarios is None:
                raise ValueError(
                    "pass stream_lists or an explicit n_scenarios"
                )
            stream_lists = [None] * n_scenarios
        s_count = len(stream_lists)
        if n_scenarios is not None and n_scenarios != s_count:
            raise ValueError("n_scenarios disagrees with stream_lists")
        if s_count < 1:
            raise ValueError("campaign needs at least one scenario")
        self.config = config
        self.n_scenarios = s_count
        self.observers = list(observers) if observers is not None else None
        if self.observers is not None and len(self.observers) != s_count:
            raise ValueError("observers must have one entry per scenario")
        self.trace_timeline = trace_timeline
        #: Lockstep cycle accountant: every scenario consumes the same
        #: SCHEDULE/PRIORITY_UPDATE sequence, so one ControlUnit holds
        #: the per-scenario hardware-cycle tally for the whole campaign.
        self.control = ControlUnit(trace=trace_timeline)
        n = config.n_slots
        self._n = n
        self._wrap = config.wrap
        self._deadline_only = config.deadline_only
        # The configuration the per-cycle paths read, derived once.
        self._winner_only = config.winner_only
        self._paper = config.schedule != "bitonic"
        self._max_first = config.block_mode is BlockMode.MAX_FIRST
        self._sort_passes = config.sort_passes
        self._update_cycles = config.update_cycles
        #: Which side :meth:`decision_cycle_all` takes, fixed by S×N
        #: (:attr:`cycle_side`).
        self._small = s_count * n <= DRIVER_MAX_CELLS

        # -- per-(scenario, slot) Python state --
        self._configs: list[list[StreamConfig | None]] = [
            [None] * n for _ in range(s_count)
        ]
        self._views: list[list[TensorSlotView | None]] = [
            [None] * n for _ in range(s_count)
        ]
        #: Each row's loaded slot ids in slot order: the slots the
        #: per-slot loops visit.
        self._slots: list[list[int]] = [[] for _ in range(s_count)]
        # Pending-request queues and latched heads, as packets.
        self._queues: list[list[deque[PendingPacket]]] = [
            [deque() for _ in range(n)] for _ in range(s_count)
        ]
        self._heads: list[list[PendingPacket | None]] = [
            [None] * n for _ in range(s_count)
        ]
        self._loads = [[0] * n for _ in range(s_count)]

        # -- per-slot integer state, one row per scenario --
        # The Python side holds each row as a list.  The NumPy side holds
        # (S, N) int64 arrays (``_grid``) for its vectorized rank and miss
        # paths and gives the scalar paths (latch, service, miss) one view
        # per array row, so one copy of those paths writes either side.
        shape = (s_count, n)
        grid: dict[str, np.ndarray] | None = None
        if not self._small:
            grid = {
                # Array mirrors of the heads and of the slots' modes.
                "has_head": np.zeros(shape, dtype=bool),
                "head_deadline": np.zeros(shape, dtype=np.int64),
                "dwcs_like": np.zeros(shape, dtype=bool),
                "late": np.empty(shape, dtype=bool),  # per-cycle scratch
            }
        self._grid = grid

        def per_row(name: str) -> list:
            if grid is None:
                return [[0] * n for _ in range(s_count)]
            array = grid[name] = np.zeros(shape, dtype=np.int64)
            return list(array)

        #: Latched attribute deadline (EDF bias included) and arrival.
        self._attr_deadline = per_row("attr_deadline")
        self._attr_arrival = per_row("attr_arrival")
        #: DWCS window counters (x', y') and the configured (x, y).
        self._x = per_row("x")
        self._y = per_row("y")
        self._cfg_x = per_row("cfg_x")
        self._cfg_y = per_row("cfg_y")
        self._edf_bias = per_row("edf_bias")
        # -- performance counters --
        self._wins = per_row("wins")
        self._serviced = per_row("serviced")
        self._missed = per_row("missed")
        self._violations = per_row("violations")
        self._window_resets = per_row("window_resets")
        #: The Python side's packed window key of each slot's (x', y'),
        #: refreshed by every window update; the NumPy side ranks on
        #: the table directly.
        self._wc = per_row("wc") if grid is None else None
        #: Each row's window state, as :func:`_win_update` and
        #: :func:`_loss_update` take it.
        self._windows = [
            (
                self._x[s], self._y[s], self._cfg_x[s], self._cfg_y[s],
                self._window_resets[s], self._violations[s],
                None if self._wc is None else self._wc[s],
            )
            for s in range(s_count)
        ]
        self._fast_forwarded = 0  # idle decision cycles skipped in bulk
        # Per-scenario count_misses policies recur across cycles, so the
        # NumPy miss path memoizes their broadcast masks.
        self._counting_cache: dict[tuple, np.ndarray] = {}
        self.tracer = tracer
        #: schedule, priority_update and fast_forward timers, in span
        #: order; None = untraced.
        self._phases = (
            tuple(
                PhaseTimer(name)
                for name in ("schedule", "priority_update", "fast_forward")
            )
            if tracer is not None
            else None
        )

        # -- network geometry (NumPy side) --
        self._log2n = n.bit_length() - 1
        self._iota = np.arange(n, dtype=np.int64)
        #: Row index for per-scenario fancy indexing: ``a[self._rows,
        #: cols]`` gathers ``a[s, cols[s, ...]]`` row by row.
        self._rows = np.arange(s_count)[:, None]

        for s, streams in enumerate(stream_lists):
            if streams:
                for stream in streams:
                    self.load_stream(s, stream)
        self.control.load(1, detail="power-on constraint load")

    # ------------------------------------------------------------------
    # slot management (LOAD path)
    # ------------------------------------------------------------------

    def load_stream(self, scenario: int, stream: StreamConfig) -> TensorSlotView:
        """Bind a stream's constraints to its slot in one scenario."""
        if not 0 <= scenario < self.n_scenarios:
            raise ValueError(
                f"scenario {scenario} out of range for "
                f"{self.n_scenarios}-scenario campaign"
            )
        if not 0 <= stream.sid < self._n:
            raise ValueError(
                f"sid {stream.sid} out of range for "
                f"{self._n}-slot scheduler"
            )
        if self._configs[scenario][stream.sid] is not None:
            raise ValueError(
                f"slot {stream.sid} already loaded in scenario {scenario}"
            )
        s, i = scenario, stream.sid
        self._configs[s][i] = stream
        insort(self._slots[s], i)
        self._x[s][i] = self._cfg_x[s][i] = stream.loss_numerator
        self._y[s][i] = self._cfg_y[s][i] = stream.loss_denominator
        if self._wc is not None:
            self._wc[s][i] = _WC_KEY.item(
                stream.loss_numerator, stream.loss_denominator
            )
        else:
            self._grid["dwcs_like"][s, i] = stream.mode in _DWCS_LIKE
        view = self._views[s][i] = TensorSlotView(self, s, i)
        return view

    def slot(self, scenario: int, sid: int) -> TensorSlotView:
        """View of the slot bound to stream ``sid`` in one scenario."""
        if 0 <= scenario < self.n_scenarios and 0 <= sid < self._n:
            view = self._views[scenario][sid]
            if view is not None:
                return view
        raise KeyError(f"no stream loaded in scenario {scenario} slot {sid}")

    def enqueue(
        self,
        scenario: int,
        sid: int,
        deadline: int,
        arrival: int,
        length: int = 1500,
    ) -> None:
        """Deposit one packet request into a scenario's slot queue."""
        if not 0 <= scenario < self.n_scenarios:
            raise ValueError(
                f"scenario {scenario} out of range for "
                f"{self.n_scenarios}-scenario campaign"
            )
        if not 0 <= sid < self._n:
            raise ValueError(
                f"sid {sid} out of range for {self._n}-slot scheduler"
            )
        if self._configs[scenario][sid] is None:
            raise KeyError(
                f"no stream loaded in scenario {scenario} slot {sid}"
            )
        if not self._wrap and (deadline < 0 or arrival < 0):
            raise negative_time_error(deadline, arrival)
        if length <= 0:
            raise nonpositive_length_error(length)
        self._queues[scenario][sid].append(
            PendingPacket(deadline, arrival, length)
        )
        if self._heads[scenario][sid] is None:
            self._latch_next(scenario, sid)

    # ------------------------------------------------------------------
    # Register Base block update mirror (scalar, one scenario-slot)
    # ------------------------------------------------------------------

    def _latch_next(self, s: int, i: int) -> None:
        q = self._queues[s][i]
        grid = self._grid
        if not q:
            self._heads[s][i] = None
            if grid is not None:
                grid["has_head"][s, i] = False
            return
        packet = self._heads[s][i] = q.popleft()
        deadline = packet.deadline
        # Only EDF slots ever advance their bias; every other slot adds 0.
        attr_dl = deadline + self._edf_bias[s][i]
        if self._wrap:
            self._attr_deadline[s][i] = attr_dl & _DL_MASK
            self._attr_arrival[s][i] = packet.arrival & _ARR_MASK
        else:
            self._attr_deadline[s][i] = attr_dl
            self._attr_arrival[s][i] = packet.arrival
        if grid is not None:
            grid["has_head"][s, i] = True
            grid["head_deadline"][s, i] = deadline
        self._loads[s][i] += 1

    def _head_is_late(self, s: int, i: int, now: int) -> bool:
        packet = self._heads[s][i]
        if packet is None:
            return False
        if self._wrap:
            return ((packet.deadline - now) & _DL_MASK) >= _DL_HALF
        return packet.deadline < now

    def _record_miss(self, s: int, i: int) -> None:
        """Count the late head's miss: a DWCS-like slot takes the loss
        update."""
        self._missed[s][i] += 1
        if self._configs[s][i].mode in _DWCS_LIKE:
            _loss_update(i, *self._windows[s])

    def _service(
        self, s: int, i: int, now: int, *, as_winner: bool | None = None
    ) -> PendingPacket | None:
        """Consume slot ``i``'s head and latch its next request.

        ``as_winner`` ``None`` takes the win update when the head is on
        time and the loss update when it is late (the head's own
        lateness test, inlined), ``True`` the win update, ``False``
        neither (nor an EDF advance): the miss path already took this
        head's loss.
        """
        packet = self._heads[s][i]
        if packet is None:
            return None
        self._serviced[s][i] += 1
        cfg = self._configs[s][i]
        if cfg.mode in _DWCS_LIKE:
            if as_winner is None:
                if self._wrap:
                    as_winner = ((packet.deadline - now) & _DL_MASK) < _DL_HALF
                else:
                    as_winner = packet.deadline >= now
                if not as_winner:
                    _loss_update(i, *self._windows[s])
            if as_winner:
                _win_update(i, *self._windows[s])
        elif cfg.mode is _EDF and as_winner is not False:
            self._edf_bias[s][i] += cfg.period
        self._latch_next(s, i)
        return packet

    # ------------------------------------------------------------------
    # SCHEDULE phase: rank + network emulation
    # ------------------------------------------------------------------

    def _rank(
        self, now: int, valid, attr_dl, attr_arr, x, y, *, head_only=False
    ) -> np.ndarray:
        """``(S, N)`` slot orders, highest-priority-first per scenario.

        One :func:`table2_rank_order` call over the Table 2 key cascade
        ranks *every scenario in the campaign* — the keys are ``(S, N)``
        and the ranking runs along the last axis.  ``head_only`` returns
        just each scenario's head, ``(S,)``.
        """
        if self._wrap:
            dl = (attr_dl - now) & _DL_MASK
            dl = np.where(dl >= _DL_HALF, dl - _DL_MOD, dl)
            arr = (attr_arr - now) & _ARR_MASK
            arr = np.where(arr >= _ARR_HALF, arr - _ARR_MOD, arr)
        else:
            dl = attr_dl
            arr = attr_arr
        return table2_rank_order(
            invalid=~valid,
            dl=dl,
            arr=arr,
            x=x,
            y=y,
            deadline_only=self._deadline_only,
            head_only=head_only,
        )

    def _emit_positions(self, order: np.ndarray) -> np.ndarray:
        """``(S, N)`` slot IDs in emitted network-position order.

        A complete Batcher network sorts, so the bitonic schedule emits
        the rank order itself.  The paper schedule is replayed on ranks:
        each pass's perfect shuffle pairs position ``p`` with
        ``p + N/2``, and the compare-exchange writes the pair's lower
        rank (higher priority) to the even lane and the higher rank to
        the odd lane.  One final gather maps ranks back to slot ids.
        Every op broadcasts across the scenario axis.
        """
        if not self._paper:
            return order
        rows = self._rows
        half = self._n // 2
        # The network inputs hold the slots in id order, so the initial
        # state is each slot's rank: the inverse permutation of order.
        state = np.empty_like(order)
        state[rows, order] = self._iota
        nxt = np.empty_like(order)
        for _ in range(self._log2n):
            lo, hi = state[:, :half], state[:, half:]
            np.minimum(lo, hi, out=nxt[:, 0::2])
            np.maximum(lo, hi, out=nxt[:, 1::2])
            state, nxt = nxt, state
        return order[rows, state]

    def _blocks_array(self, now: int) -> list[tuple[int, ...]]:
        """Each row's emitted block, from one batched rank over ``(S, N)``.

        WR emits only the winner, so it ranks only each row's head.
        """
        grid = self._grid
        valid = grid["has_head"]
        winner_only = self._winner_only
        ranked = self._rank(
            now, valid, grid["attr_deadline"], grid["attr_arrival"],
            grid["x"], grid["y"], head_only=winner_only,
        )
        if winner_only:
            head_valid = valid[self._rows[:, 0], ranked]
            return [
                (w,) if ok else ()
                for w, ok in zip(ranked.tolist(), head_valid.tolist())
            ]
        emitted = self._emit_positions(ranked)
        emitted_valid = valid[self._rows, emitted]
        return [
            tuple(emitted[s][emitted_valid[s]].tolist())
            for s in range(self.n_scenarios)
        ]

    def _blocks_small(self, now: int) -> list[tuple[int, ...]]:
        """Each row's emitted block, ranked in plain Python.

        The small side of SCHEDULE (:attr:`cycle_side`): every latched
        head gets its Table 2 key tuple from the row lists and
        :func:`_emit_block` ranks the row.
        """
        wrap = self._wrap
        deadline_only = self._deadline_only
        winner_only = self._winner_only
        paper = self._paper
        n = self._n
        blocks = []
        for heads, slots, dls, arrs, wcs in zip(
            self._heads, self._slots, self._attr_deadline,
            self._attr_arrival, self._wc,
        ):
            if wrap:
                # Serials rebased around now into [-half, half).
                dls = [((d - now + _DL_HALF) & _DL_MASK) - _DL_HALF for d in dls]
                arrs = [
                    ((a - now + _ARR_HALF) & _ARR_MASK) - _ARR_HALF
                    for a in arrs
                ]
            if deadline_only:
                keys = [
                    (dls[i], arrs[i], i) for i in slots if heads[i] is not None
                ]
            else:
                keys = [
                    (dls[i], wcs[i], arrs[i], i)
                    for i in slots
                    if heads[i] is not None
                ]
            if not keys:
                blocks.append(())
            elif winner_only:
                blocks.append((min(keys)[-1],))
            else:
                blocks.append(_emit_block(keys, False, paper, n))
        return blocks

    # ------------------------------------------------------------------
    # miss registration
    # ------------------------------------------------------------------

    def _misses_small(self, s: int, now: int) -> tuple[int, ...]:
        """Register one row's late heads slot by slot; their sids."""
        heads = self._heads[s]
        if self._wrap:
            late = tuple([
                i for i in self._slots[s]
                if (p := heads[i]) is not None
                and ((p.deadline - now) & _DL_MASK) >= _DL_HALF
            ])
        else:
            late = tuple([
                i for i in self._slots[s]
                if (p := heads[i]) is not None and p.deadline < now
            ])
        for i in late:
            self._record_miss(s, i)
        return late

    def _misses_array(self, now: int, count_s) -> list[tuple[int, ...]]:
        """Register every counting row's late heads in one masked
        ``(S, N)`` update; each row's sids."""
        misses: list[tuple[int, ...]] = [()] * self.n_scenarios
        if not any(count_s):
            return misses
        grid = self._grid
        late = grid["late"]
        if self._wrap:
            diff = (grid["head_deadline"] - now) & _DL_MASK
            np.greater_equal(diff, _DL_HALF, out=late)
        else:
            np.less(grid["head_deadline"], now, out=late)
        np.logical_and(late, grid["has_head"], out=late)
        count_key = tuple(count_s)
        counting = self._counting_cache.get(count_key)
        if counting is None:
            counting = self._counting_cache[count_key] = np.asarray(
                count_key, dtype=bool
            )
        counted_late = late & counting[:, None]
        if counted_late.any():
            for s in np.nonzero(counted_late.any(axis=1))[0]:
                misses[int(s)] = tuple(np.nonzero(counted_late[s])[0].tolist())
            self._register_misses(counted_late)
        return misses

    def _register_misses(self, late: np.ndarray) -> None:
        """Vectorized miss path over all late heads in all scenarios.

        Writes the arrays in place: the scalar paths hold views of them.
        """
        grid = self._grid
        grid["missed"] += late
        dwcs = late & grid["dwcs_like"]
        if not np.count_nonzero(dwcs):
            return
        x, y = grid["x"], grid["y"]
        has_loss = dwcs & (x > 0)
        new_x = np.where(has_loss, x - 1, x)
        new_y = np.where(has_loss & (y > 0), y - 1, y)
        reset = has_loss & ((new_y == 0) | (new_x == new_y))
        violated = dwcs & ~has_loss
        new_y = np.where(violated, np.minimum(new_y + 1, _Y_MAX), new_y)
        np.copyto(x, np.where(reset, grid["cfg_x"], new_x))
        np.copyto(y, np.where(reset, grid["cfg_y"], new_y))
        grid["window_resets"] += reset
        grid["violations"] += violated

    # ------------------------------------------------------------------
    # shape rule: which side decision_cycle_all takes
    # ------------------------------------------------------------------

    @property
    def cycle_side(self) -> str:
        """``"python"`` when :meth:`decision_cycle_all` runs on the row
        lists and ranks in plain Python (at most
        :data:`DRIVER_MAX_CELLS` scenario-slots at construction), else
        ``"numpy"``."""
        return "python" if self._small else "numpy"

    # ------------------------------------------------------------------
    # decision cycle (SCHEDULE + PRIORITY_UPDATE), lockstep over S
    # ------------------------------------------------------------------

    def decision_cycle_all(
        self,
        now: int,
        *,
        consume="winner",
        count_misses=True,
        drop_late=False,
    ) -> list[DecisionOutcome]:
        """Run one decision cycle at ``now`` in *every* scenario.

        ``consume``, ``count_misses`` and ``drop_late`` accept either a
        single value for the whole campaign or one value per scenario
        (the differential buckets mix policies freely — only the
        architecture shape must agree); ``count_misses`` and
        ``drop_late`` values must be ``bool``.  Returns one
        :class:`~repro.core.scheduler.DecisionOutcome` per scenario,
        each identical to what the reference engine produces for that
        scenario in isolation.

        Campaigns of at most :data:`DRIVER_MAX_CELLS` scenario-slots
        rank in plain Python and register misses per slot instead of
        over ``(S, N)`` arrays (:attr:`cycle_side`); both sides produce
        identical results.
        """
        s_count = self.n_scenarios
        policies = ("winner", "block", "none")
        if consume in policies:
            consume_s = [consume] * s_count
        else:
            consume_s = _per_scenario(consume, s_count, "consume")
            for c in consume_s:
                if c not in policies:
                    raise ValueError(f"unknown consume policy {c!r}")
        if self._winner_only and "block" in consume_s:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )
        count_s = _flags(count_misses, s_count, "count_misses")
        drop_s = _flags(drop_late, s_count, "drop_late")
        phases = self._phases
        if phases is None:
            orders, dropped = self._schedule(now, count_s, drop_s)
            outcomes = self._priority_update(
                now, orders, dropped, consume_s, count_s
            )
        else:
            with phases[0]:
                orders, dropped = self._schedule(now, count_s, drop_s)
            with phases[1]:
                outcomes = self._priority_update(
                    now, orders, dropped, consume_s, count_s
                )
        if self.observers is not None:
            for s, observer in enumerate(self.observers):
                if observer is not None:
                    observer.on_decision(outcomes[s])
        return outcomes

    def _schedule(self, now: int, count_s, drop_s) -> tuple[list, list]:
        """SCHEDULE: shed late heads, then rank every scenario's slots.

        Returns each row's emitted block and its shed ``(sid, packet)``
        pairs.
        """
        dropped: list[tuple] = [()] * self.n_scenarios
        for s, drop in enumerate(drop_s):
            if drop:
                dropped[s] = self._drop_late(s, now, count_s[s])
        orders = self._blocks_small(now) if self._small else self._blocks_array(now)
        control = self.control
        if control.trace:
            control.schedule(self._sort_passes, detail=f"t={now}")
        else:
            control.schedule(self._sort_passes)
        return orders, dropped

    def _drop_late(self, s: int, now: int, count: bool) -> tuple:
        """Shed every late head of one row, slot by slot, counting each
        as a miss when ``count``; the shed ``(sid, packet)`` pairs."""
        heads = self._heads[s]
        shed = []
        for i in self._slots[s]:
            while self._head_is_late(s, i, now):
                if count:
                    self._record_miss(s, i)
                shed.append((i, heads[i]))
                self._latch_next(s, i)
        return tuple(shed)

    def _priority_update(
        self, now: int, orders, dropped, consume_s, count_s
    ) -> list[DecisionOutcome]:
        """PRIORITY_UPDATE: register misses, circulate and consume."""
        if self._small:
            misses: list[tuple[int, ...]] = [()] * self.n_scenarios
            for s, count in enumerate(count_s):
                if count:
                    misses[s] = self._misses_small(s, now)
        else:
            misses = self._misses_array(now, count_s)

        # Per-scenario circulate/consume (queue-backed, so the service
        # path stays scalar).
        max_first = self._max_first
        hw_cycles = self._sort_passes + self._update_cycles
        outcomes: list[DecisionOutcome] = []
        circulated: int | None = None
        for s, order in enumerate(orders):
            if not order:
                outcomes.append(DecisionOutcome(
                    now, (), None, (), misses[s], hw_cycles, dropped[s]
                ))
                continue
            c = order[0] if max_first else order[-1]
            policy = consume_s[s]
            serviced: tuple = ()
            if policy == "winner":
                # With misses counted, a late winner took the miss path's
                # loss update: it is consumed without a window update.
                late = count_s[s] and self._head_is_late(s, c, now)
                packet = self._service(
                    s, c, now, as_winner=False if late else None
                )
                if packet is not None:
                    serviced = ((c, packet),)
            elif policy == "block":
                # The winner's update always targets the block head.
                head = order[0]
                served = []
                for sid in order if max_first else order[::-1]:
                    packet = self._service(s, sid, now, as_winner=sid == head)
                    if packet is not None:
                        served.append((sid, packet))
                serviced = tuple(served)
            self._wins[s][c] += 1
            circulated = c
            outcomes.append(DecisionOutcome(
                now, order, c, serviced, misses[s], hw_cycles, dropped[s]
            ))
        control = self.control
        if control.trace:
            control.priority_update(
                self._update_cycles, detail=f"circulate={circulated}"
            )
        else:
            control.priority_update(self._update_cycles)
        return outcomes

    def advance_idle(self, count: int) -> None:
        """Bulk-account ``count`` decision cycles where nothing is live.

        The campaign-level idle fast-forward: callers that *know* no
        scenario has a pending head (and no arrivals land) skip the
        rank/network/update array ops entirely and advance the lockstep
        control accounting in O(1).  ``count`` must be a non-negative
        integer (:func:`~repro.core.control.cycle_count`), checked
        before anything is accounted; 0 is a no-op.
        """
        count = cycle_count(count)
        if count == 0:
            return
        with self._phases[2] if self._phases else nullcontext():
            self.control.advance_decision_cycles(
                count,
                self._sort_passes,
                self._update_cycles,
                detail="idle fast-forward",
            )
            self._fast_forwarded += count

    @property
    def has_pending(self) -> bool:
        """True when any scenario has a latched head."""
        if self._grid is None:
            return any(p is not None for heads in self._heads for p in heads)
        return bool(self._grid["has_head"].any())

    def idle_outcome(self, now: int) -> DecisionOutcome:
        """The outcome every scenario observes on an idle cycle."""
        return DecisionOutcome(
            now, (), None, (), (), self._sort_passes + self._update_cycles, ()
        )

    # ------------------------------------------------------------------
    # self-advancing periodic workloads, whole-campaign runs
    # ------------------------------------------------------------------

    def run_periodic(
        self,
        n_cycles: int,
        *,
        offsets: np.ndarray | None = None,
        step: np.ndarray | int | None = None,
        consume: str = "winner",
        count_misses: bool = True,
        collect_winners: bool = False,
    ) -> list[PeriodicRunResult]:
        """Run a periodic feed through *every* scenario in lockstep.

        Every loaded slot ``i`` holds one request at every cycle: its
        ``k``-th request has deadline ``offsets[i] + k * step[i]`` and
        arrival-time key ``k`` — the Table 3 workload family,
        generalized over slot count, offsets, steps, routing, block mode
        and discipline.  ``offsets`` defaults to each stream's initial
        deadline and ``step`` to its period; both take integers and
        broadcast over ``(S, N)``.  Heads never touch the Python pending
        queues (consumption is counter arithmetic), so the campaign must
        hold no packet queued with :meth:`enqueue`.  Requires ideal
        arithmetic (``wrap=False``) — these runs exceed the 16-bit
        horizon by construction — so negative offsets and steps are
        rejected like negative deadlines at ``enqueue``; ``n_cycles`` is
        a non-negative integer and ``count_misses``/``collect_winners``
        are ``bool``.  Every input is checked before any state changes.

        One plain-Python driver runs the whole K-cycle loop
        (:meth:`_run_periodic_driver`).

        Returns one :class:`PeriodicRunResult` per scenario.  Each
        equals the per-cycle loop that enqueues request ``k`` of every
        loaded slot at cycle ``k`` and runs one
        :meth:`decision_cycle_all` per cycle *when every EDF stream's
        ``step`` equals its ``period``*: this path advances a winner's
        EDF bias by ``step``, the per-cycle path by the stream's
        ``period``.  The default ``step`` (the period) always meets
        that condition.  Each observer's ``on_run_summary`` hook, where
        it has one, receives its row's result.
        """
        n_cycles = cycle_count(n_cycles, "n_cycles")
        for name, flag in (
            ("count_misses", count_misses),
            ("collect_winners", collect_winners),
        ):
            if flag is not True and flag is not False:
                raise flag_error(name, flag)
        if self._wrap:
            raise ValueError(
                "run_periodic requires ideal arithmetic (wrap=False)"
            )
        if consume not in ("winner", "block"):
            raise ValueError(f"unknown consume policy {consume!r}")
        if consume == "block" and self._winner_only:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )
        if self.has_pending:
            raise ValueError(
                "run_periodic feeds every slot itself; packets queued "
                "with enqueue would be ignored"
            )
        shape = (self.n_scenarios, self._n)
        configs = self._configs
        if offsets is None:
            offs = np.array([
                [0 if c is None else c.initial_deadline for c in row]
                for row in configs
            ], dtype=np.int64)
        else:
            offs = _feed_array(offsets, "offsets", shape)
        if step is None:
            steps = np.array([
                [1 if c is None else c.period for c in row]
                for row in configs
            ], dtype=np.int64)
        else:
            steps = _feed_array(step, "step", shape)
        if (offs < 0).any():
            raise ValueError("offsets must be >= 0 (wrap=False)")
        if (steps < 0).any():
            raise ValueError("step must be >= 0 (wrap=False)")

        results = self._run_periodic_driver(
            n_cycles, offs.tolist(), steps.tolist(),
            consume=consume, count_misses=count_misses,
            collect_winners=collect_winners,
        )
        if self.observers is not None:
            for observer, result in zip(self.observers, results):
                hook = getattr(observer, "on_run_summary", None)
                if hook is not None:
                    hook(result)
        return results

    def _run_periodic_driver(
        self,
        n_cycles: int,
        offs: list[list[int]],
        steps: list[list[int]],
        *,
        consume: str,
        count_misses: bool,
        collect_winners: bool,
    ) -> list[PeriodicRunResult]:
        """The plain-Python driver: K periodic decision cycles in one loop.

        Runs every cycle's rank (:func:`_emit_block`), miss
        registration, DWCS window updates (:func:`_win_update`,
        :func:`_loss_update`), EDF bias advance and consumption on row
        lists: the engine's own on the Python side, on the NumPy side
        list copies of its arrays, written back once at the end.  Every
        consumed request is a serviced one, so the consumption counts
        join the serviced counters once, at the end.  The K
        SCHEDULE/PRIORITY_UPDATE pairs are replayed on the control unit
        in bulk: with tracing off it is a pure counter, and with tracing
        on the bulk replay records one timeline pair per cycle.
        """
        s_count, n = self.n_scenarios, self._n
        head_only = self._winner_only or self._max_first
        block = consume == "block"
        paper = self._paper
        deadline_only = self._deadline_only
        grid = self._grid
        fields = (
            "x", "y", "cfg_x", "cfg_y", "edf_bias", "wins", "missed",
            "violations", "window_resets", "serviced",
        )
        if grid is None:
            state = (
                self._x, self._y, self._cfg_x, self._cfg_y, self._edf_bias,
                self._wins, self._missed, self._violations,
                self._window_resets, self._serviced,
            )
        else:
            state = tuple(grid[name].tolist() for name in fields)
        (
            x, y, cfg_x, cfg_y, bias, wins, missed, violations, resets,
            serviced,
        ) = state
        consumed = [[0] * n for _ in range(s_count)]
        ring = (
            [[-1] * n_cycles for _ in range(s_count)]
            if collect_winners
            else None
        )
        # Each scenario's loaded slot ids, row lists and window state
        # (:func:`_win_update`); the window key cache is the Python
        # side's own, else built here.
        if grid is None:
            windows = self._windows
        else:
            wc_key = _WC_KEY.item
            windows = [
                (xr, yr, cxr, cyr, rr, vr, [wc_key(a, b) for a, b in zip(xr, yr)])
                for xr, yr, cxr, cyr, rr, vr in zip(
                    x, y, cfg_x, cfg_y, resets, violations
                )
            ]
        rows = list(zip(
            self._slots, offs, steps,
            ([c is not None and c.mode is _EDF for c in row]
             for row in self._configs),
            ([c is not None and c.mode in _DWCS_LIKE for c in row]
             for row in self._configs),
            windows, bias, wins, missed, consumed,
        ))
        for t in range(n_cycles):
            for s, row in enumerate(rows):
                (
                    slots, off, step, edf, dwcs, window, edf_bias, won,
                    miss, used,
                ) = row
                wc = window[-1]
                if not slots:
                    continue
                # SCHEDULE keys of the heads: attribute deadline =
                # periodic release (+ EDF bias), arrival key = consumed
                # count.  Built before miss registration, which moves
                # x'/y' below.
                keys = []
                late = []
                for i in slots:
                    k = used[i]
                    real_dl = off[i] + k * step[i]
                    if real_dl < t:
                        late.append(i)
                    if deadline_only:
                        keys.append((real_dl + edf_bias[i], k, i))
                    else:
                        keys.append((real_dl + edf_bias[i], wc[i], k, i))
                order = _emit_block(keys, head_only, paper, n)
                w = order[0]
                c = w if head_only else order[-1]
                if count_misses:
                    for i in late:
                        miss[i] += 1
                        if dwcs[i]:
                            _loss_update(i, *window)
                # PRIORITY_UPDATE: winner consume updates the circulated
                # slot; block consume services every head.
                if block:
                    if dwcs[w]:
                        _win_update(w, *window)
                    if edf[w]:
                        edf_bias[w] += step[w]
                    for i in slots:
                        used[i] += 1
                else:
                    late_c = off[c] + used[c] * step[c] < t
                    if dwcs[c]:
                        # With misses counted, a late winner took the
                        # miss path's loss update above.
                        if not late_c:
                            _win_update(c, *window)
                        elif not count_misses:
                            _loss_update(c, *window)
                    if edf[c] and not (count_misses and late_c):
                        edf_bias[c] += step[c]
                    used[c] += 1
                won[c] += 1
                if ring is not None:
                    ring[s][t] = c

        for served, used in zip(serviced, consumed):
            for i, k in enumerate(used):
                served[i] += k
        if grid is not None:
            for name, lists in zip(fields, state):
                grid[name][...] = lists
        self.control.advance_decision_cycles(
            n_cycles, self._sort_passes, self._update_cycles
        )
        return [
            PeriodicRunResult(
                n_streams=len(self._slots[s]),
                decision_cycles=n_cycles,
                wins=np.array(wins[s], dtype=np.int64),
                misses=np.array(missed[s], dtype=np.int64),
                serviced=np.array(serviced[s], dtype=np.int64),
                frames_scheduled=int(sum(serviced[s])),
                winners=(
                    np.array(ring[s], dtype=np.int64)
                    if ring is not None
                    else None
                ),
            )
            for s in range(s_count)
        ]

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def cycles_per_decision(self) -> int:
        """Hardware cycles one decision cycle consumes."""
        return self._sort_passes + self._update_cycles

    @property
    def fast_forwarded(self) -> int:
        """Idle decision cycles skipped in bulk (campaign-wide)."""
        return self._fast_forwarded

    def _slot_counters(self, s: int, i: int) -> SlotCounters:
        return SlotCounters(
            wins=int(self._wins[s][i]),
            serviced=int(self._serviced[s][i]),
            missed_deadlines=int(self._missed[s][i]),
            violations=int(self._violations[s][i]),
            window_resets=int(self._window_resets[s][i]),
            loads=self._loads[s][i],
        )

    def counters(self, scenario: int) -> dict[int, SlotCounters]:
        """Per-stream performance counters for one scenario."""
        return {i: self._slot_counters(scenario, i) for i in self._slots[scenario]}

    def record_phases(self) -> None:
        """Record each timed phase as one aggregated span on the tracer.

        Emits ``schedule``, ``priority_update`` and ``fast_forward`` in
        that order, zero-call phases included, and resets the timers;
        a no-op without a tracer.  Call counts (and the fast-forwarded
        cycle total) are a pure function of the workload, so they are
        canonical tags; wall time is an execution detail.
        """
        if self._phases is None:
            return
        schedule, update, fast_forward = self._phases
        schedule.flush(self.tracer)
        update.flush(self.tracer)
        fast_forward.flush(self.tracer, cycles=self._fast_forwarded)


class TensorScheduler:
    """Single-scenario adapter over :class:`CampaignEngine`.

    Drop-in for the reference engine
    (``make_scheduler(..., engine="tensor")``): the full scheduler
    surface — ``load_stream`` / ``enqueue`` / ``decision_cycle`` /
    ``slot`` / ``counters`` / ``run_periodic`` / ``control`` /
    ``observer`` — backed by a one-row campaign, so the tensor code
    paths are exercised (and differentially validated) even at S=1.
    """

    def __init__(
        self,
        config: ArchConfig,
        streams: list[StreamConfig] | None = None,
        *,
        trace_timeline: bool = False,
        observer=None,
    ) -> None:
        self.config = config
        self.observer = observer
        self.trace_timeline = trace_timeline
        self._engine = CampaignEngine(
            config,
            [list(streams) if streams else None],
            observers=[self.observer] if self.observer is not None else None,
            trace_timeline=trace_timeline,
        )
        self.control = self._engine.control

    @property
    def engine(self) -> CampaignEngine:
        """The backing one-row campaign engine."""
        return self._engine

    def load_stream(self, stream: StreamConfig) -> TensorSlotView:
        """Bind a stream's service constraints to its stream-slot."""
        return self._engine.load_stream(0, stream)

    def slot(self, sid: int) -> TensorSlotView:
        """View of the slot bound to stream ``sid``."""
        views = self._engine._views[0]
        if 0 <= sid < len(views) and views[sid] is not None:
            return views[sid]
        return self._engine.slot(0, sid)  # raises the engine's KeyError

    @property
    def active_slots(self) -> list[TensorSlotView]:
        """All populated stream-slots, in slot order."""
        engine = self._engine
        return [engine._views[0][i] for i in engine._slots[0]]

    def enqueue(
        self, sid: int, deadline: int, arrival: int, length: int = 1500
    ) -> None:
        """Deposit one packet request into a slot's pending queue."""
        self._engine.enqueue(0, sid, deadline, arrival, length)

    def decision_cycle(
        self,
        now: int,
        *,
        consume: str = "winner",
        count_misses: bool = True,
        drop_late: bool = False,
    ) -> DecisionOutcome:
        """Run one full decision cycle at scheduler time ``now``."""
        return self._engine.decision_cycle_all(
            now,
            consume=consume,
            count_misses=count_misses,
            drop_late=drop_late,
        )[0]

    def run_periodic(self, n_cycles: int, **kwargs) -> PeriodicRunResult:
        """Single-scenario slice of :meth:`CampaignEngine.run_periodic`."""
        return self._engine.run_periodic(n_cycles, **kwargs)[0]

    @property
    def cycles_per_decision(self) -> int:
        """Hardware cycles one decision cycle consumes."""
        return self._engine.cycles_per_decision

    def counters(self) -> dict[int, SlotCounters]:
        """Per-stream performance counters, keyed by stream ID."""
        return self._engine.counters(0)
