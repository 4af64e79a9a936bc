"""The array engine: scenario-tensorized, NumPy-backed.

:class:`CampaignEngine` holds every per-slot attribute of S
*same-shape* scenarios — identical architecture configuration (slot
count, routing, block mode, sorting schedule, wrap/extended arithmetic)
but independent stream constraint sets and workloads — as ``(S, N)``
arrays: latched deadlines/arrivals, DWCS window counters ``(x', y')``,
EDF winner bias and performance counters.  A whole SCHEDULE +
PRIORITY_UPDATE pair runs as a handful of batched array ops across the
*whole campaign* at once:

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
blocks; the ``(S, N)`` arrays mirror only what the vectorized paths
read (head presence and deadline, latched attributes, window counters).

:meth:`CampaignEngine.decision_cycle_all` picks a plain-Python side or a
NumPy side by shape: on campaigns of at most :data:`DRIVER_MAX_CELLS`
scenario-slots it ranks each row in plain Python and registers misses
per slot, above that it runs its NumPy path.  Both sides are
byte-identical; the bound sits at a crossover measured by
``benchmarks/test_bench_shape_rules.py``, and
:attr:`CampaignEngine.cycle_side` says which side a campaign takes.
:meth:`CampaignEngine.run_periodic` runs every whole run in one
plain-Python driver over list copies of the ``(S, N)`` state.  The
driver and the small per-cycle side share one Table 2 key-tuple ranking
with the paper schedule replayed on the ranks (:func:`_emit_block`) and
one scalar DWCS window update (:func:`_win_update`,
:func:`_loss_update`).
"""

from __future__ import annotations

import operator
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.control import ControlUnit
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
from repro.core.scheduler import DecisionOutcome
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

#: Largest S×N (scenarios × slots) on which
#: :meth:`CampaignEngine.decision_cycle_all` ranks in plain Python
#: instead of :func:`table2_rank_order`.  The endsystem feed places it:
#: in the enqueue + decide loop the Python rank runs at 1.14–1.39× the
#: NumPy rank there at S×N=4 and 1.05–1.25× at 8, and ties (0.91–1.08×)
#: at 16; the Table 3 winner and block feeds' crossovers lie higher
#: (``benchmarks/test_bench_shape_rules.py``).
DRIVER_MAX_CELLS = 8

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


def _emit_block(keys, head_only: bool, paper: bool, n: int) -> list:
    """One row's emitted block, ranked in plain Python.

    ``keys`` holds one Table 2 key tuple per latched head, ending in the
    slot id (the lexsort's stable tie-break), so ``min`` is the head and
    ``sorted`` the rank order, which the bitonic schedule emits as is.
    ``head_only`` returns just the head.  The paper schedule replays its
    passes on the ranks (:func:`_paper_emit`).  Empty slots all take the
    rank after the last head: a compare-exchange network commutes with
    that clamp, so the heads land where the full ranking puts them.
    """
    if head_only:
        return [min(keys)[-1]]
    ranked = sorted(keys)
    if not paper:
        return [key[-1] for key in ranked]
    m = len(ranked)
    state = [m] * n
    for rank, key in enumerate(ranked):
        state[key[-1]] = rank
    return [ranked[rank][-1] for rank in _paper_emit(tuple(state)) if rank < m]


def _win_update(k, x, y, cfg_x, cfg_y, resets) -> None:
    """DWCS win update of one slot's window ``(x', y')``, in place.

    ``k`` indexes every container: ``(s, i)`` on the engine's ``(S, N)``
    arrays, a slot id on the periodic driver's row lists.
    """
    yk = y[k]
    if yk > 0:
        yk -= 1
        y[k] = yk
    if yk == 0 or yk <= x[k]:
        x[k] = cfg_x[k]
        y[k] = cfg_y[k]
        resets[k] += 1


def _loss_update(k, x, y, cfg_x, cfg_y, resets, violations) -> None:
    """DWCS loss update of one slot's window, in place (see
    :func:`_win_update` for ``k``): spend one unit of loss tolerance, or
    count a violation and widen the window when none is left."""
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
    """S-scenario tensorized scheduler: ``(S, N)`` state, lockstep cycles.

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

        shape = (s_count, n)
        i64 = np.int64
        # -- per-(scenario, slot) state (idle bundles: valid=False) --
        self._configs: list[list[StreamConfig | None]] = [
            [None] * n for _ in range(s_count)
        ]
        self._views: list[list[TensorSlotView | None]] = [
            [None] * n for _ in range(s_count)
        ]
        # -- pending-request queues and latched heads, as packets --
        self._queues: list[list[deque[PendingPacket]]] = [
            [deque() for _ in range(n)] for _ in range(s_count)
        ]
        self._heads: list[list[PendingPacket | None]] = [
            [None] * n for _ in range(s_count)
        ]
        # Array mirrors of the heads for the vectorized paths.
        self._has_head = np.zeros(shape, dtype=bool)
        self._head_deadline = np.zeros(shape, dtype=i64)
        self._loaded = np.zeros(shape, dtype=bool)
        self._attr_deadline = np.zeros(shape, dtype=i64)
        self._attr_arrival = np.zeros(shape, dtype=i64)
        self._x = np.zeros(shape, dtype=i64)
        self._y = np.zeros(shape, dtype=i64)
        self._cfg_x = np.zeros(shape, dtype=i64)
        self._cfg_y = np.zeros(shape, dtype=i64)
        self._edf_bias = np.zeros(shape, dtype=i64)
        self._period = np.ones(shape, dtype=i64)
        self._init_deadline = np.zeros(shape, dtype=i64)
        self._edf = np.zeros(shape, dtype=bool)
        self._dwcs_like = np.zeros(shape, dtype=bool)
        self._iota = np.arange(n, dtype=i64)

        # -- performance counters --
        self._wins = np.zeros(shape, dtype=i64)
        self._serviced = np.zeros(shape, dtype=i64)
        self._missed = np.zeros(shape, dtype=i64)
        self._violations = np.zeros(shape, dtype=i64)
        self._window_resets = np.zeros(shape, dtype=i64)
        self._loads = [[0] * n for _ in range(s_count)]
        self._fast_forwarded = 0  # idle decision cycles skipped in bulk
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

        # -- network geometry --
        self._log2n = n.bit_length() - 1
        #: Row index for per-scenario fancy indexing: ``a[self._rows,
        #: cols]`` gathers ``a[s, cols[s, ...]]`` row by row.
        self._rows = np.arange(s_count)[:, None]

        # -- per-cycle scratch, reused across decision cycles --
        # Hot campaigns run millions of cycles, so decision_cycle_all
        # clears/overwrites these outcome accumulators and boolean masks
        # per call instead of rebuilding them.
        self._cycle_dropped: list[list] = [[] for _ in range(s_count)]
        self._cycle_misses: list[list[int]] = [[] for _ in range(s_count)]
        self._counting_cache: dict[tuple, np.ndarray] = {}
        self._scratch_late = np.empty(shape, dtype=bool)

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
        self._loaded[s, i] = True
        self._attr_deadline[s, i] = stream.initial_deadline
        self._attr_arrival[s, i] = 0
        self._x[s, i] = self._cfg_x[s, i] = stream.loss_numerator
        self._y[s, i] = self._cfg_y[s, i] = stream.loss_denominator
        self._period[s, i] = stream.period
        self._init_deadline[s, i] = stream.initial_deadline
        self._edf[s, i] = stream.mode is _EDF
        self._dwcs_like[s, i] = stream.mode in _DWCS_LIKE
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
            PendingPacket(deadline=deadline, arrival=arrival, length=length)
        )
        if self._heads[scenario][sid] is None:
            self._latch_next(scenario, sid)

    # ------------------------------------------------------------------
    # Register Base block update mirror (scalar, one scenario-slot)
    # ------------------------------------------------------------------

    def _latch_next(self, s: int, i: int) -> None:
        q = self._queues[s][i]
        if not q:
            self._heads[s][i] = None
            self._has_head[s, i] = False
            return
        packet = self._heads[s][i] = q.popleft()
        deadline = packet.deadline
        self._head_deadline[s, i] = deadline
        attr_dl = deadline
        if self._configs[s][i].mode is _EDF:
            attr_dl += self._edf_bias.item(s, i)
        if self._wrap:
            self._attr_deadline[s, i] = attr_dl & _DL_MASK
            self._attr_arrival[s, i] = packet.arrival & _ARR_MASK
        else:
            self._attr_deadline[s, i] = attr_dl
            self._attr_arrival[s, i] = packet.arrival
        self._has_head[s, i] = True
        self._loads[s][i] += 1

    def _head_is_late(self, s: int, i: int, now: int) -> bool:
        packet = self._heads[s][i]
        if packet is None:
            return False
        if self._wrap:
            return ((packet.deadline - now) & _DL_MASK) >= _DL_HALF
        return packet.deadline < now

    def _apply_win_update(self, s: int, i: int) -> None:
        _win_update(
            (s, i), self._x, self._y, self._cfg_x, self._cfg_y,
            self._window_resets,
        )

    def _apply_loss_update(self, s: int, i: int) -> None:
        _loss_update(
            (s, i), self._x, self._y, self._cfg_x, self._cfg_y,
            self._window_resets, self._violations,
        )

    def _record_miss(self, s: int, i: int, now: int) -> bool:
        if not self._head_is_late(s, i, now):
            return False
        self._missed[s, i] += 1
        if self._configs[s][i].mode in _DWCS_LIKE:
            self._apply_loss_update(s, i)
        return True

    def _service(
        self, s: int, i: int, now: int, *, as_winner: bool | None = None
    ) -> PendingPacket | None:
        packet = self._heads[s][i]
        if packet is None:
            return None
        self._serviced[s, i] += 1
        cfg = self._configs[s][i]
        if cfg.mode in _DWCS_LIKE:
            if as_winner is None:
                if self._head_is_late(s, i, now):
                    self._apply_loss_update(s, i)
                else:
                    self._apply_win_update(s, i)
            elif as_winner:
                self._apply_win_update(s, i)
        elif cfg.mode is _EDF and as_winner is not False:
            self._edf_bias[s, i] += cfg.period
        self._latch_next(s, i)
        return packet

    # ------------------------------------------------------------------
    # SCHEDULE phase: rank + network emulation, batched over scenarios
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
        if self.config.schedule == "bitonic":
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

    def _blocks_array(self, now: int) -> list[list[int]]:
        """Each row's emitted block, from one batched rank over ``(S, N)``.

        WR emits only the winner, so it ranks only each row's head.
        """
        valid = self._has_head
        winner_only = self.config.winner_only
        ranked = self._rank(
            now, valid, self._attr_deadline, self._attr_arrival,
            self._x, self._y, head_only=winner_only,
        )
        if winner_only:
            head_valid = valid[self._rows[:, 0], ranked]
            return [
                [w] if ok else []
                for w, ok in zip(ranked.tolist(), head_valid.tolist())
            ]
        emitted = self._emit_positions(ranked)
        emitted_valid = valid[self._rows, emitted]
        return [
            emitted[s][emitted_valid[s]].tolist()
            for s in range(self.n_scenarios)
        ]

    def _blocks_small(self, now: int) -> list[list[int]]:
        """Each row's emitted block, ranked in plain Python.

        The small side of SCHEDULE (:attr:`cycle_side`): every latched
        head gets its Table 2 key tuple and :func:`_emit_block` ranks
        the row.
        """
        wrap = self._wrap
        deadline_only = self._deadline_only
        winner_only = self.config.winner_only
        paper = self.config.schedule != "bitonic"
        wc_key = _WC_KEY.item
        n = self._n
        blocks = []
        for heads, dls, arrs, xs, ys in zip(
            self._heads,
            self._attr_deadline.tolist(),
            self._attr_arrival.tolist(),
            self._x.tolist(),
            self._y.tolist(),
        ):
            keys = []
            for i, packet in enumerate(heads):
                if packet is None:
                    continue
                dl, arr = dls[i], arrs[i]
                if wrap:
                    dl = (dl - now) & _DL_MASK
                    if dl >= _DL_HALF:
                        dl -= _DL_MOD
                    arr = (arr - now) & _ARR_MASK
                    if arr >= _ARR_HALF:
                        arr -= _ARR_MOD
                if deadline_only:
                    keys.append((dl, arr, i))
                else:
                    keys.append((dl, wc_key(xs[i], ys[i]), arr, i))
            blocks.append(
                _emit_block(keys, winner_only, paper, n) if keys else []
            )
        return blocks

    # ------------------------------------------------------------------
    # batched miss registration and window updates
    # ------------------------------------------------------------------

    def _register_misses(self, late: np.ndarray) -> None:
        """Vectorized miss path over all late heads in all scenarios."""
        self._missed += late
        dwcs = late & self._dwcs_like
        if not np.count_nonzero(dwcs):
            return
        x, y = self._x, self._y
        has_loss = dwcs & (x > 0)
        x = np.where(has_loss, x - 1, x)
        y = np.where(has_loss & (y > 0), y - 1, y)
        reset = has_loss & ((y == 0) | (x == y))
        violated = dwcs & ~has_loss
        y = np.where(violated, np.minimum(y + 1, _Y_MAX), y)
        self._x = np.where(reset, self._cfg_x, x)
        self._y = np.where(reset, self._cfg_y, y)
        self._window_resets = np.where(
            reset, self._window_resets + 1, self._window_resets
        )
        self._violations = np.where(
            violated, self._violations + 1, self._violations
        )

    # ------------------------------------------------------------------
    # shape rule: which side decision_cycle_all takes
    # ------------------------------------------------------------------

    @property
    def cycle_side(self) -> str:
        """``"python"`` when :meth:`decision_cycle_all` ranks in plain
        Python (at most :data:`DRIVER_MAX_CELLS` scenario-slots), else
        ``"numpy"``."""
        if self.n_scenarios * self._n <= DRIVER_MAX_CELLS:
            return "python"
        return "numpy"

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
        architecture shape must agree).  Returns one
        :class:`~repro.core.scheduler.DecisionOutcome` per scenario,
        each identical to what the reference engine produces for that
        scenario in isolation.

        Campaigns of at most :data:`DRIVER_MAX_CELLS` scenario-slots
        rank in plain Python and register misses per slot instead of
        over ``(S, N)`` arrays (:attr:`cycle_side`); both sides produce
        identical results.
        """
        s_count = self.n_scenarios
        consume_s = _per_scenario(consume, s_count, "consume")
        count_s = _per_scenario(count_misses, s_count, "count_misses")
        drop_s = _per_scenario(drop_late, s_count, "drop_late")
        for c in consume_s:
            if c not in ("winner", "block", "none"):
                raise ValueError(f"unknown consume policy {c!r}")
        if self.config.routing is Routing.WR and "block" in consume_s:
            raise ValueError(
                "block consumption requires BA routing "
                "(WR emits only the winner)"
            )
        small = self.cycle_side == "python"
        phases = self._phases
        if phases is None:
            orders = self._schedule(now, small, count_s, drop_s)
            outcomes = self._priority_update(
                now, small, orders, consume_s, count_s
            )
        else:
            with phases[0]:
                orders = self._schedule(now, small, count_s, drop_s)
            with phases[1]:
                outcomes = self._priority_update(
                    now, small, orders, consume_s, count_s
                )
        if self.observers is not None:
            for s, observer in enumerate(self.observers):
                if observer is not None:
                    observer.on_decision(outcomes[s])
        return outcomes

    def _schedule(self, now: int, small: bool, count_s, drop_s) -> list:
        """SCHEDULE: shed late heads, then rank every scenario's slots."""
        s_count = self.n_scenarios
        # Reused per-cycle accumulators (hoisted to __init__): clearing
        # in place avoids rebuilding S lists on every decision cycle.
        dropped = self._cycle_dropped
        for row in dropped:
            row.clear()
        for s in range(s_count):
            if not drop_s[s]:
                continue
            heads = self._heads[s]
            for i in range(self._n):
                while self._head_is_late(s, i, now):
                    if count_s[s]:
                        self._record_miss(s, i, now)
                    packet = heads[i]
                    self._latch_next(s, i)
                    dropped[s].append((i, packet))

        # One rank + one network replay for all scenarios.  Small
        # campaigns rank in plain Python, where the per-call cost of the
        # array ops would dominate.
        if small:
            orders = self._blocks_small(now)
        else:
            orders = self._blocks_array(now)
        self.control.schedule(
            self.config.sort_passes,
            detail=f"t={now}" if self.control.trace else "",
        )
        return orders

    def _priority_update(
        self, now: int, small: bool, orders, consume_s, count_s
    ) -> list[DecisionOutcome]:
        """PRIORITY_UPDATE: register misses, circulate and consume."""
        s_count = self.n_scenarios
        misses = self._cycle_misses
        for row in misses:
            row.clear()
        dropped = self._cycle_dropped
        # Miss registration: per slot on small campaigns, else batched
        # over the scenarios that count them.
        if small:
            for s in range(s_count):
                if count_s[s]:
                    for i in range(self._n):
                        if self._record_miss(s, i, now):
                            misses[s].append(i)
        elif any(count_s):
            late = self._scratch_late
            if self._wrap:
                diff = (self._head_deadline - now) & _DL_MASK
                np.greater_equal(diff, _DL_HALF, out=late)
            else:
                np.less(self._head_deadline, now, out=late)
            np.logical_and(late, self._has_head, out=late)
            # Per-scenario count_misses policies recur across cycles, so
            # the broadcast mask is memoized instead of rebuilt per cycle.
            count_key = tuple(count_s)
            counting = self._counting_cache.get(count_key)
            if counting is None:
                counting = self._counting_cache[count_key] = np.asarray(
                    count_key, dtype=bool
                )
            counted_late = late & counting[:, None]
            if counted_late.any():
                for s in np.nonzero(counted_late.any(axis=1))[0]:
                    misses[int(s)].extend(
                        np.nonzero(counted_late[s])[0].tolist()
                    )
                self._register_misses(counted_late)

        # Per-scenario circulate/consume (queue-backed, so the service
        # path stays scalar).
        passes = self.config.sort_passes
        update_cycles = self.config.update_cycles
        max_first = self.config.block_mode is BlockMode.MAX_FIRST
        outcomes: list[DecisionOutcome] = []
        any_circulated: int | None = None
        for s in range(s_count):
            order = orders[s]
            circulated: int | None = None
            serviced: list[tuple[int, PendingPacket]] = []
            if order:
                update_sid = order[0]
                circulated = order[0] if max_first else order[-1]
                policy = consume_s[s]
                if policy == "winner":
                    if count_s[s] and self._head_is_late(s, circulated, now):
                        packet = self._service(
                            s, circulated, now, as_winner=False
                        )
                    else:
                        packet = self._service(s, circulated, now)
                    if packet is not None:
                        serviced.append((circulated, packet))
                elif policy == "block":
                    consume_order = (
                        order if max_first else list(reversed(order))
                    )
                    for sid in consume_order:
                        packet = self._service(
                            s, sid, now, as_winner=(sid == update_sid)
                        )
                        if packet is not None:
                            serviced.append((sid, packet))
                self._wins[s, circulated] += 1
                any_circulated = circulated
            outcomes.append(
                DecisionOutcome(
                    now=now,
                    block=tuple(order),
                    circulated_sid=circulated,
                    serviced=tuple(serviced),
                    misses=tuple(misses[s]),
                    hw_cycles=passes + update_cycles,
                    dropped=tuple(dropped[s]),
                )
            )
        self.control.priority_update(
            update_cycles,
            detail=f"circulate={any_circulated}" if self.control.trace else "",
        )
        return outcomes

    def advance_idle(self, count: int) -> None:
        """Bulk-account ``count`` decision cycles where nothing is live.

        The campaign-level idle fast-forward: callers that *know* no
        scenario has a pending head (and no arrivals land) skip the
        rank/network/update array ops entirely and advance the lockstep
        control accounting in O(1).  ``count`` must be non-negative; 0
        is a no-op.
        """
        if count < 0:
            raise ValueError("cycle count must be non-negative")
        if count == 0:
            return
        with self._phases[2] if self._phases else nullcontext():
            self.control.advance_decision_cycles(
                count,
                self.config.sort_passes,
                self.config.update_cycles,
                detail="idle fast-forward",
            )
            self._fast_forwarded += count

    @property
    def has_pending(self) -> bool:
        """True when any scenario has a latched head."""
        return bool(self._has_head.any())

    def idle_outcome(self, now: int) -> DecisionOutcome:
        """The outcome every scenario observes on an idle cycle."""
        return DecisionOutcome(
            now=now,
            block=(),
            circulated_sid=None,
            serviced=(),
            misses=(),
            hw_cycles=self.config.sort_passes + self.config.update_cycles,
            dropped=(),
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
        a non-negative integer.  Every input is checked before any state
        changes.

        One plain-Python driver runs the whole K-cycle loop over list
        copies of the ``(S, N)`` state (:meth:`_run_periodic_driver`).

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
        try:
            n_cycles = operator.index(n_cycles)
        except TypeError:
            raise ValueError(
                f"n_cycles must be an integer, got {n_cycles!r}"
            ) from None
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
        if self.has_pending:
            raise ValueError(
                "run_periodic feeds every slot itself; packets queued "
                "with enqueue would be ignored"
            )
        shape = (self.n_scenarios, self._n)
        if offsets is None:
            offs = np.where(self._loaded, self._init_deadline, 0)
        else:
            offs = _feed_array(offsets, "offsets", shape)
        if step is None:
            steps = self._period
        else:
            steps = _feed_array(step, "step", shape)
        if (offs < 0).any():
            raise ValueError("offsets must be >= 0 (wrap=False)")
        if (steps < 0).any():
            raise ValueError("step must be >= 0 (wrap=False)")

        results = self._run_periodic_driver(
            n_cycles, offs, steps,
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
        offs: np.ndarray,
        steps: np.ndarray,
        *,
        consume: str,
        count_misses: bool,
        collect_winners: bool,
    ) -> list[PeriodicRunResult]:
        """The plain-Python driver: K periodic decision cycles in one loop.

        Copies the ``(S, N)`` state to lists once, runs every cycle's
        rank (:func:`_emit_block`), miss registration, DWCS window
        updates (:func:`_win_update`, :func:`_loss_update`), EDF bias
        advance and consumption on them, and writes the state back once.
        Every consumed request is a serviced one, so the consumption
        counts join the serviced counters once, at the end.  The K
        SCHEDULE/PRIORITY_UPDATE pairs are replayed on the control unit
        in bulk: with tracing off it is a pure counter, and with tracing
        on the bulk replay records one timeline pair per cycle.
        """
        s_count, n = self.n_scenarios, self._n
        head_only = (
            self.config.winner_only
            or self.config.block_mode is BlockMode.MAX_FIRST
        )
        block = consume == "block"
        paper = self.config.schedule != "bitonic"
        deadline_only = self._deadline_only
        wc_key = _WC_KEY.item
        x, y = self._x.tolist(), self._y.tolist()
        bias = self._edf_bias.tolist()
        wins = self._wins.tolist()
        missed = self._missed.tolist()
        violations = self._violations.tolist()
        resets = self._window_resets.tolist()
        consumed = [[0] * n for _ in range(s_count)]
        ring = (
            [[-1] * n_cycles for _ in range(s_count)]
            if collect_winners
            else None
        )
        # Each scenario's loaded slot ids and row lists; ``wc`` caches
        # each slot's packed window key, refreshed after every window
        # update.
        rows = list(zip(
            ([i for i in range(n) if row[i]] for row in self._loaded.tolist()),
            offs.tolist(), steps.tolist(),
            self._edf.tolist(), self._dwcs_like.tolist(),
            x, y, self._cfg_x.tolist(), self._cfg_y.tolist(), bias,
            wins, missed, violations, resets, consumed,
            ([wc_key(a, b) for a, b in zip(xr, yr)] for xr, yr in zip(x, y)),
        ))
        for t in range(n_cycles):
            for s, row in enumerate(rows):
                (
                    slots, off, step, edf, dwcs, xs, ys, cfg_x, cfg_y,
                    edf_bias, won, miss, viol, reset, used, wc,
                ) = row
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
                            _loss_update(i, xs, ys, cfg_x, cfg_y, reset, viol)
                            wc[i] = wc_key(xs[i], ys[i])
                # PRIORITY_UPDATE: winner consume updates the circulated
                # slot; block consume services every head.
                if block:
                    if dwcs[w]:
                        _win_update(w, xs, ys, cfg_x, cfg_y, reset)
                        wc[w] = wc_key(xs[w], ys[w])
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
                            _win_update(c, xs, ys, cfg_x, cfg_y, reset)
                        elif not count_misses:
                            _loss_update(c, xs, ys, cfg_x, cfg_y, reset, viol)
                        wc[c] = wc_key(xs[c], ys[c])
                    if edf[c] and not (count_misses and late_c):
                        edf_bias[c] += step[c]
                    used[c] += 1
                won[c] += 1
                if ring is not None:
                    ring[s][t] = c

        self._x[...] = x
        self._y[...] = y
        self._edf_bias[...] = bias
        self._wins[...] = wins
        self._missed[...] = missed
        self._violations[...] = violations
        self._window_resets[...] = resets
        self._serviced += consumed
        self.control.advance_decision_cycles(
            n_cycles, self.config.sort_passes, self.config.update_cycles
        )
        return [
            PeriodicRunResult(
                n_streams=int(self._loaded[s].sum()),
                decision_cycles=n_cycles,
                wins=self._wins[s].copy(),
                misses=self._missed[s].copy(),
                serviced=self._serviced[s].copy(),
                frames_scheduled=int(self._serviced[s].sum()),
                winners=(
                    np.asarray(ring[s], dtype=np.int64)
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
        return self.config.sort_passes + self.config.update_cycles

    @property
    def fast_forwarded(self) -> int:
        """Idle decision cycles skipped in bulk (campaign-wide)."""
        return self._fast_forwarded

    def _slot_counters(self, s: int, i: int) -> SlotCounters:
        return SlotCounters(
            wins=int(self._wins[s, i]),
            serviced=int(self._serviced[s, i]),
            missed_deadlines=int(self._missed[s, i]),
            violations=int(self._violations[s, i]),
            window_resets=int(self._window_resets[s, i]),
            loads=self._loads[s][i],
        )

    def counters(self, scenario: int) -> dict[int, SlotCounters]:
        """Per-stream performance counters for one scenario."""
        return {
            i: self._slot_counters(scenario, i)
            for i in range(self._n)
            if self._configs[scenario][i] is not None
        }

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
        return self._engine.slot(0, sid)

    @property
    def active_slots(self) -> list[TensorSlotView]:
        """All populated stream-slots, in slot order."""
        return [view for view in self._engine._views[0] if view is not None]

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
