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

Idle-cycle fast-forward: when *no* scenario in the campaign has a
pending head, :meth:`CampaignEngine.run_periodic` jumps ``now``
directly to the next release boundary and accounts the skipped
SCHEDULE/PRIORITY_UPDATE pairs in bulk, so sparse workloads (the
isolation experiments are mostly idle) cost array ops only on the
cycles where a decision can actually differ from "nothing happened".

:class:`TensorScheduler` is the S=1 adapter: a drop-in for
:class:`~repro.core.scheduler.ShareStreamsScheduler`
(``make_scheduler(..., engine="tensor")``) backed by a one-row
campaign, cross-validated cycle-by-cycle by
:mod:`repro.core.differential`.

Each decision pays only for the part of the Table 2 order it uses.
:func:`table2_rank_order` reads the packed window-constraint key from a
256×256 table indexed by ``(x', y')``.  WR decisions (and max-first
periodic cycles) need only each row's head: on rows shorter than
:data:`HEAD_SCAN_MIN_SLOTS` that is column 0 of one
:func:`numpy.lexsort`, on longer rows an O(N) masked-minimum scan.  BA
decisions need the whole emitted block: a complete Batcher network
sorts, so bitonic emission *is* the rank order, and the paper's
``log2(N)`` recirculation is replayed on ranks (min/max on the pair
lanes) with one final gather back to slot ids.

:meth:`CampaignEngine.run_periodic` picks its kernel by shape: at or
below :data:`DRIVER_MAX_CELLS` scenario-slots it runs the scalar
whole-run driver :func:`repro.core.jit.run_cycles` (compiled by numba
when numba is importable), above it the NumPy loop.  Both sides are
byte-identical; both constants sit at crossovers measured by
``benchmarks/test_bench_jit.py``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core import jit
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
)
from repro.core.scheduler import DecisionOutcome
from repro.observability.hooks import resolve_observer

__all__ = [
    "DRIVER_MAX_CELLS",
    "HEAD_SCAN_MIN_SLOTS",
    "CampaignEngine",
    "PeriodicRunResult",
    "TensorScheduler",
    "TensorSlotView",
    "table2_rank_order",
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
_EDF = _MODE_CODE[SchedulingMode.EDF]

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

#: int64 sentinel larger than any release boundary (idle fast-forward).
_FAR_FUTURE = 2**62

#: Key value of masked-out slots in the head scan.
_INT64_MAX = np.iinfo(np.int64).max

#: Largest S×N (scenarios × slots) whose :meth:`CampaignEngine.run_periodic`
#: runs the scalar whole-run driver instead of the NumPy loop.  Placed at
#: the measured crossover of the plain-Python driver, which runs at
#: 1.96–2.59× the NumPy loop at S×N=4, 0.97–1.31× at 8 and 0.44–0.70× at
#: 16 (``benchmarks/test_bench_jit.py``).
DRIVER_MAX_CELLS = 8

#: Shortest row (slot count N) on which :func:`table2_rank_order` finds
#: each row's head with the O(N) masked-minimum scan instead of column 0
#: of the lexsort.  The lexsort's cost follows the keys as well as the
#: shape, so the constant is placed on head-only calls captured from
#: the two feeds that rank heads on long or many rows
#: (``benchmarks/test_bench_jit.py``).  On the aggregation tier's keys
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
    """Read/inspect adapter for one (scenario, slot) register block."""

    __slots__ = ("_engine", "_scenario", "_sid")

    def __init__(self, engine: "CampaignEngine", scenario: int, sid: int):
        self._engine = engine
        self._scenario = scenario
        self._sid = sid

    @property
    def config(self) -> StreamConfig:
        return self._engine._configs[self._scenario][self._sid]

    @property
    def head(self) -> PendingPacket | None:
        """The request currently latched in the registers, if any."""
        e, s, i = self._engine, self._scenario, self._sid
        if not e._has_head[s, i]:
            return None
        return PendingPacket(
            deadline=int(e._head_deadline[s, i]),
            arrival=int(e._head_arrival[s, i]),
            length=int(e._head_length[s, i]),
        )

    @property
    def backlog(self) -> int:
        """Requests waiting behind the latched head."""
        return len(self._engine._queues[self._scenario][self._sid])

    @property
    def pending(self) -> list[PendingPacket]:
        """Waiting requests as packets (inspection only)."""
        return [
            PendingPacket(deadline=d, arrival=a, length=ln)
            for d, a, ln in self._engine._queues[self._scenario][self._sid]
        ]

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
    trace_timeline:
        Record the (shared, lockstep) control FSM timeline.
    profile_phases:
        Accumulate per-phase wall time and call counts (SCHEDULE,
        PRIORITY_UPDATE, idle fast-forward) for span tracing — read back
        via :meth:`phase_report`.  Disabled (default) the per-cycle cost
        is a single ``is not None`` check per phase boundary, matching
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
        profile_phases: bool = False,
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
        self._loaded = np.zeros(shape, dtype=bool)
        self._has_head = np.zeros(shape, dtype=bool)
        self._attr_deadline = np.zeros(shape, dtype=i64)
        self._attr_arrival = np.zeros(shape, dtype=i64)
        self._x = np.zeros(shape, dtype=i64)
        self._y = np.zeros(shape, dtype=i64)
        self._cfg_x = np.zeros(shape, dtype=i64)
        self._cfg_y = np.zeros(shape, dtype=i64)
        self._head_deadline = np.zeros(shape, dtype=i64)
        self._head_arrival = np.zeros(shape, dtype=i64)
        self._head_length = np.zeros(shape, dtype=i64)
        self._edf_bias = np.zeros(shape, dtype=i64)
        self._period = np.ones(shape, dtype=i64)
        self._init_deadline = np.zeros(shape, dtype=i64)
        self._mode = np.full(shape, _MODE_CODE[SchedulingMode.DWCS], dtype=i64)
        self._dwcs_like = np.zeros(shape, dtype=bool)
        self._iota = np.arange(n, dtype=i64)

        # -- performance counters --
        self._wins = np.zeros(shape, dtype=i64)
        self._serviced = np.zeros(shape, dtype=i64)
        self._missed = np.zeros(shape, dtype=i64)
        self._violations = np.zeros(shape, dtype=i64)
        self._window_resets = np.zeros(shape, dtype=i64)
        self._loads = np.zeros(shape, dtype=i64)
        self._fast_forwarded = 0  # idle decision cycles skipped in bulk
        #: phase -> [calls, wall seconds]; None = accounting disabled.
        self._phase_profile: dict[str, list] | None = (
            {
                "schedule": [0, 0.0],
                "priority_update": [0, 0.0],
                "fast_forward": [0, 0.0],
            }
            if profile_phases
            else None
        )

        # -- pending-request queues: (deadline, arrival, length) --
        self._queues: list[list[deque]] = [
            [deque() for _ in range(n)] for _ in range(s_count)
        ]

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
        self._scratch_valid = np.empty(shape, dtype=bool)
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
        self._mode[s, i] = _MODE_CODE[stream.mode]
        self._dwcs_like[s, i] = _MODE_CODE[stream.mode] in _DWCS_LIKE
        return TensorSlotView(self, s, i)

    def slot(self, scenario: int, sid: int) -> TensorSlotView:
        """View of the slot bound to stream ``sid`` in one scenario."""
        if (
            not (0 <= scenario < self.n_scenarios)
            or not (0 <= sid < self._n)
            or self._configs[scenario][sid] is None
        ):
            raise KeyError(
                f"no stream loaded in scenario {scenario} slot {sid}"
            )
        return TensorSlotView(self, scenario, sid)

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
        self._queues[scenario][sid].append((deadline, arrival, length))
        if not self._has_head[scenario, sid]:
            self._latch_next(scenario, sid)

    # ------------------------------------------------------------------
    # Register Base block update mirror (scalar, one scenario-slot)
    # ------------------------------------------------------------------

    def _latch_next(self, s: int, i: int) -> None:
        q = self._queues[s][i]
        if not q:
            self._has_head[s, i] = False
            return
        deadline, arrival, length = q.popleft()
        self._head_deadline[s, i] = deadline
        self._head_arrival[s, i] = arrival
        self._head_length[s, i] = length
        attr_dl = deadline
        if self._mode[s, i] == _EDF:
            attr_dl += int(self._edf_bias[s, i])
        if self._wrap:
            self._attr_deadline[s, i] = attr_dl & _DL_MASK
            self._attr_arrival[s, i] = arrival & _ARR_MASK
        else:
            self._attr_deadline[s, i] = attr_dl
            self._attr_arrival[s, i] = arrival
        self._has_head[s, i] = True
        self._loads[s, i] += 1

    def _head_is_late(self, s: int, i: int, now: int) -> bool:
        if not self._has_head[s, i]:
            return False
        d = int(self._head_deadline[s, i])
        if self._wrap:
            diff = (d - now) & _DL_MASK
            return diff >= _DL_HALF
        return d < now

    def _reset_window(self, s: int, i: int) -> None:
        self._x[s, i] = self._cfg_x[s, i]
        self._y[s, i] = self._cfg_y[s, i]
        self._window_resets[s, i] += 1

    def _apply_win_update(self, s: int, i: int) -> None:
        if self._y[s, i] > 0:
            self._y[s, i] -= 1
        if self._y[s, i] == 0 or self._y[s, i] <= self._x[s, i]:
            self._reset_window(s, i)

    def _apply_loss_update(self, s: int, i: int) -> None:
        if self._x[s, i] > 0:
            self._x[s, i] -= 1
            if self._y[s, i] > 0:
                self._y[s, i] -= 1
            if self._y[s, i] == 0 or self._x[s, i] == self._y[s, i]:
                self._reset_window(s, i)
        else:
            self._violations[s, i] += 1
            self._y[s, i] = min(int(self._y[s, i]) + 1, _Y_MAX)

    def _record_miss(self, s: int, i: int, now: int) -> bool:
        if not self._head_is_late(s, i, now):
            return False
        self._missed[s, i] += 1
        if self._mode[s, i] in _DWCS_LIKE:
            self._apply_loss_update(s, i)
        return True

    def _service(
        self, s: int, i: int, now: int, *, as_winner: bool | None = None
    ) -> tuple[int, int, int] | None:
        if not self._has_head[s, i]:
            return None
        self._serviced[s, i] += 1
        mode = int(self._mode[s, i])
        if mode in _DWCS_LIKE:
            if as_winner is None:
                if self._head_is_late(s, i, now):
                    self._apply_loss_update(s, i)
                else:
                    self._apply_win_update(s, i)
            elif as_winner:
                self._apply_win_update(s, i)
        elif mode == _EDF and as_winner is not False:
            self._edf_bias[s, i] += self._period[s, i]
        packet = (
            int(self._head_deadline[s, i]),
            int(self._head_arrival[s, i]),
            int(self._head_length[s, i]),
        )
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

    # ------------------------------------------------------------------
    # batched miss registration and window updates
    # ------------------------------------------------------------------

    def _register_misses(self, late: np.ndarray) -> None:
        """Vectorized miss path over all late heads in all scenarios."""
        self._missed = np.where(late, self._missed + 1, self._missed)
        dwcs = late & self._dwcs_like
        if not dwcs.any():
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

    def _win_update_mask(self, sel: np.ndarray) -> None:
        """Batched win update at the ``(S, N)`` mask's set positions.

        Callers select at most one winner per scenario row (a one-hot
        row mask), mirroring the reference engine's per-slot update.
        """
        x, y = self._x, self._y
        y = np.where(sel & (y > 0), y - 1, y)
        reset = sel & ((y == 0) | (y <= x))
        self._x = np.where(reset, self._cfg_x, x)
        self._y = np.where(reset, self._cfg_y, y)
        self._window_resets = np.where(
            reset, self._window_resets + 1, self._window_resets
        )

    def _loss_update_mask(self, sel: np.ndarray) -> None:
        """Batched loss update at the ``(S, N)`` mask's set positions."""
        x, y = self._x, self._y
        has_loss = sel & (x > 0)
        nx = np.where(has_loss, x - 1, x)
        ny = np.where(has_loss & (y > 0), y - 1, y)
        reset = has_loss & ((ny == 0) | (nx == ny))
        violated = sel & ~has_loss
        ny = np.where(violated, np.minimum(ny + 1, _Y_MAX), ny)
        self._x = np.where(reset, self._cfg_x, nx)
        self._y = np.where(reset, self._cfg_y, ny)
        self._window_resets = np.where(
            reset, self._window_resets + 1, self._window_resets
        )
        self._violations = np.where(
            violated, self._violations + 1, self._violations
        )

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
        """
        profile = self._phase_profile
        if profile is not None:
            _t0 = time.perf_counter()
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

        # Reused per-cycle accumulators (hoisted to __init__): clearing
        # in place avoids rebuilding S lists on every decision cycle.
        dropped = self._cycle_dropped
        misses = self._cycle_misses
        for row in dropped:
            row.clear()
        for row in misses:
            row.clear()
        for s in range(s_count):
            if not drop_s[s]:
                continue
            for i, cfg in enumerate(self._configs[s]):
                if cfg is None:
                    continue
                while True:
                    if count_s[s] and self._head_is_late(s, i, now):
                        self._record_miss(s, i, now)
                    if not self._head_is_late(s, i, now):
                        break
                    d, a, ln = (
                        int(self._head_deadline[s, i]),
                        int(self._head_arrival[s, i]),
                        int(self._head_length[s, i]),
                    )
                    self._latch_next(s, i)
                    dropped[s].append(
                        (i, PendingPacket(deadline=d, arrival=a, length=ln))
                    )

        # SCHEDULE: one rank + one network replay for all scenarios.
        valid = np.logical_and(
            self._has_head, self._loaded, out=self._scratch_valid
        )
        # WR emits only the winner, so it ranks only each row's head.
        winner_only = self.config.winner_only
        ranked = self._rank(
            now, valid, self._attr_deadline, self._attr_arrival,
            self._x, self._y, head_only=winner_only,
        )
        if winner_only:
            head_valid = valid[self._rows[:, 0], ranked]
            orders = [
                [w] if ok else []
                for w, ok in zip(ranked.tolist(), head_valid.tolist())
            ]
        else:
            emitted = self._emit_positions(ranked)
            emitted_valid = valid[self._rows, emitted]
            orders = [
                emitted[s][emitted_valid[s]].tolist() for s in range(s_count)
            ]
        passes = self.config.sort_passes
        tracing = self.control.trace
        self.control.schedule(passes, detail=f"t={now}" if tracing else "")
        if profile is not None:
            _t1 = time.perf_counter()
            acc = profile["schedule"]
            acc[0] += 1
            acc[1] += _t1 - _t0

        # Miss registration, batched over the scenarios that count them.
        if any(count_s):
            late = self._scratch_late
            if self._wrap:
                diff = (self._head_deadline - now) & _DL_MASK
                np.greater_equal(diff, _DL_HALF, out=late)
            else:
                np.less(self._head_deadline, now, out=late)
            np.logical_and(late, valid, out=late)
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

        # PRIORITY_UPDATE: per-scenario circulate/consume (queue-backed,
        # so the service path stays scalar).
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
                        serviced.append((circulated, PendingPacket(*packet)))
                elif policy == "block":
                    consume_order = (
                        order if max_first else list(reversed(order))
                    )
                    for sid in consume_order:
                        packet = self._service(
                            s, sid, now, as_winner=(sid == update_sid)
                        )
                        if packet is not None:
                            serviced.append((sid, PendingPacket(*packet)))
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
            detail=f"circulate={any_circulated}" if tracing else "",
        )
        if profile is not None:
            acc = profile["priority_update"]
            acc[0] += 1
            acc[1] += time.perf_counter() - _t1
        if self.observers is not None:
            for s, observer in enumerate(self.observers):
                if observer is not None:
                    observer.on_decision(outcomes[s])
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
        profile = self._phase_profile
        if profile is not None:
            _t0 = time.perf_counter()
        self.control.advance_decision_cycles(
            count,
            self.config.sort_passes,
            self.config.update_cycles,
            detail="idle fast-forward",
        )
        self._fast_forwarded += count
        if profile is not None:
            acc = profile["fast_forward"]
            acc[0] += 1
            acc[1] += time.perf_counter() - _t0

    @property
    def has_pending(self) -> bool:
        """True when any scenario has a latched head."""
        return bool((self._has_head & self._loaded).any())

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
    # self-advancing periodic workloads, tensorized whole-campaign runs
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
    ) -> list[PeriodicRunResult]:
        """Run a periodic feed through *every* scenario in lockstep.

        Each loaded slot ``i`` emits one request per release interval:
        request ``k`` becomes available at cycle ``k * stride[i]`` (the
        default stride of 1 is the dense one-request-per-cycle feed)
        with deadline ``offsets[i] + k * step[i]`` and arrival-time key
        ``k`` — the Table 3 workload family, generalized over slot
        count, offsets, steps, release strides, routing, block mode and
        discipline.  ``offsets`` defaults to each stream's initial
        deadline and ``step`` to its period; ``offsets``/``step``/
        ``stride`` broadcast over ``(S, N)``.  Heads never touch the
        Python pending queues: availability is
        ``consumed * stride <= t`` and consumption is counter
        arithmetic.  Per decision cycle, ranking, the winner selection,
        miss registration and the DWCS window updates each run as one
        ``(S, N)`` array op, so the whole campaign advances per cycle
        at (amortized) the Python cost of a single scenario.  Requires
        ideal arithmetic (``wrap=False``) — these runs exceed the
        16-bit horizon by construction — so negative offsets and steps
        are rejected like negative deadlines at ``enqueue``.

        Scenarios whose slots are all idle at ``t`` sit out that cycle;
        when the *entire campaign* is idle, ``now`` jumps to the next
        release boundary and the skipped SCHEDULE/PRIORITY_UPDATE pairs
        are accounted in bulk.  ``fast_forward=False`` keeps the
        cycle-by-cycle idle path; both produce identical results.

        Returns one :class:`PeriodicRunResult` per scenario.  Each
        equals the per-cycle loop that enqueues request ``k`` of slot
        ``i`` at cycle ``k * stride[i]`` and runs one
        :meth:`decision_cycle_all` per cycle *when every EDF stream's
        ``step`` equals its ``period``*: this path advances a winner's
        EDF bias by ``step``, the per-cycle path by the stream's
        ``period``.  The default ``step`` (the period) always meets
        that condition.

        Campaigns of at most :data:`DRIVER_MAX_CELLS` scenario-slots
        run the whole K-cycle loop in the scalar driver
        :func:`repro.core.jit.run_cycles` instead, unless
        ``trace_timeline`` is on; both sides produce identical results.
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
        s_count, n = self.n_scenarios, self._n
        shape = (s_count, n)
        loaded = self._loaded
        if offsets is None:
            offs = np.where(loaded, self._init_deadline, 0)
        else:
            offs = np.ascontiguousarray(
                np.broadcast_to(np.asarray(offsets, dtype=np.int64), shape)
            )
        if step is None:
            steps = self._period
        else:
            steps = np.ascontiguousarray(
                np.broadcast_to(np.asarray(step, dtype=np.int64), shape)
            )
        if (offs < 0).any():
            raise ValueError("offsets must be >= 0 (wrap=False)")
        if (steps < 0).any():
            raise ValueError("step must be >= 0 (wrap=False)")
        if stride is None:
            strides = None
        else:
            strides = np.ascontiguousarray(
                np.broadcast_to(np.asarray(stride, dtype=np.int64), shape)
            )
            if (strides < 1).any():
                raise ValueError("stride must be >= 1")

        if s_count * n <= DRIVER_MAX_CELLS and not self.trace_timeline:
            # Small shapes: the whole K-cycle loop runs in the scalar
            # driver.  Timeline tracing needs per-cycle control-FSM
            # entries, so traced runs keep the NumPy loop.
            return self._run_periodic_driver(
                n_cycles, offs, steps, strides,
                consume=consume, count_misses=count_misses,
                collect_winners=collect_winners, fast_forward=fast_forward,
            )

        consumed = np.zeros(shape, dtype=np.int64)
        edf = self._mode == _EDF
        max_first = self.config.block_mode is BlockMode.MAX_FIRST
        winner_only = self.config.winner_only
        winners = (
            np.full((s_count, n_cycles), -1, dtype=np.int64)
            if collect_winners
            else None
        )
        update_cycles = self.config.update_cycles
        passes = self.config.sort_passes
        tracing = self.control.trace
        iota = self._iota
        rows = self._rows
        row_ids = rows[:, 0]
        have_streams = bool(loaded.any())
        # WR and max-first circulate the block head; only min-first BA
        # needs the emitted block to find its tail.
        head_only = winner_only or max_first

        t = 0
        while t < n_cycles:
            avail = consumed if strides is None else consumed * strides
            valid = loaded & (avail <= t)
            active = valid.any(axis=-1)
            if not active.any():
                if fast_forward:
                    nxt = (
                        int(np.where(loaded, avail, _FAR_FUTURE).min())
                        if have_streams
                        else n_cycles
                    )
                    nxt = min(max(nxt, t + 1), n_cycles)
                    self.advance_idle(nxt - t)
                    t = nxt
                else:
                    self.control.schedule(
                        passes, detail=f"t={t}" if tracing else ""
                    )
                    self.control.priority_update(
                        update_cycles,
                        detail="circulate=None" if tracing else "",
                    )
                    t += 1
                continue
            real_dl = offs + consumed * steps
            attr_dl = real_dl + np.where(edf, self._edf_bias, 0)
            ranked = self._rank(
                t, valid, attr_dl, consumed, self._x, self._y,
                head_only=head_only,
            )
            late = valid & (real_dl < t)
            if count_misses and late.any():
                self._register_misses(late)
            # Emitted block head / tail selection, one per scenario.
            if head_only:
                w = circulated = ranked
            else:
                w = ranked[:, 0]
                emitted = self._emit_positions(ranked)
                emitted_valid = valid[rows, emitted]
                # Last valid network position per scenario (block tail).
                last = (n - 1) - np.argmax(emitted_valid[:, ::-1], axis=-1)
                circulated = emitted[row_ids, last]
            # One-hot circulated-winner mask over active scenarios; all
            # per-cycle updates below are full-array masked rebinds.
            onehot = iota[None, :] == circulated[:, None]
            sel = active[:, None] & onehot
            if consume == "winner":
                late_c = late[row_ids, circulated] & active
                dw = self._dwcs_like[row_ids, circulated] & active
                edf_c = edf[row_ids, circulated] & active
                if count_misses:
                    # Late winners already took the miss-path loss
                    # update; only on-time winners get the win update.
                    win_mask = dw & ~late_c
                    loss_mask = None
                    edf_mask = edf_c & ~late_c
                else:
                    win_mask = dw & ~late_c
                    loss_mask = dw & late_c
                    edf_mask = edf_c
                if win_mask.any():
                    self._win_update_mask(win_mask[:, None] & onehot)
                if loss_mask is not None and loss_mask.any():
                    self._loss_update_mask(loss_mask[:, None] & onehot)
                if edf_mask.any():
                    edf_sel = edf_mask[:, None] & onehot
                    self._edf_bias = np.where(
                        edf_sel, self._edf_bias + steps, self._edf_bias
                    )
                self._serviced = np.where(
                    sel, self._serviced + 1, self._serviced
                )
                consumed = np.where(sel, consumed + 1, consumed)
            else:  # block: every valid head consumed this cycle
                head_sel = active[:, None] & (iota[None, :] == w[:, None])
                dw_sel = head_sel & self._dwcs_like
                if dw_sel.any():
                    self._win_update_mask(dw_sel)
                edf_sel = head_sel & edf
                if edf_sel.any():
                    self._edf_bias = np.where(
                        edf_sel, self._edf_bias + steps, self._edf_bias
                    )
                self._serviced = np.where(
                    valid, self._serviced + 1, self._serviced
                )
                consumed = np.where(valid, consumed + 1, consumed)
            self._wins = np.where(sel, self._wins + 1, self._wins)
            if winners is not None:
                winners[active, t] = circulated[active]
            self.control.schedule(passes, detail=f"t={t}" if tracing else "")
            self.control.priority_update(
                update_cycles,
                detail="circulate=<campaign>" if tracing else "",
            )
            t += 1
        return self._periodic_results(n_cycles, winners)

    def _periodic_results(
        self, n_cycles: int, winners: np.ndarray | None
    ) -> list[PeriodicRunResult]:
        """Snapshot the per-scenario counters into run results."""
        return [
            PeriodicRunResult(
                n_streams=int(self._loaded[s].sum()),
                decision_cycles=n_cycles,
                wins=self._wins[s].copy(),
                misses=self._missed[s].copy(),
                serviced=self._serviced[s].copy(),
                frames_scheduled=int(self._serviced[s].sum()),
                winners=winners[s].copy() if winners is not None else None,
            )
            for s in range(self.n_scenarios)
        ]

    def _run_periodic_driver(
        self,
        n_cycles: int,
        offs: np.ndarray,
        steps: np.ndarray,
        strides: np.ndarray | None,
        *,
        consume: str,
        count_misses: bool,
        collect_winners: bool,
        fast_forward: bool,
    ) -> list[PeriodicRunResult]:
        """Drive :func:`repro.core.jit.run_cycles` and replay accounting.

        The driver mutates the engine's state/counter arrays in place;
        the decision ring comes back with one circulated sid per
        (scenario, cycle) and is drained into ``winners``.  Control
        accounting is replayed in bulk from the driver's cycle stats —
        with tracing off :class:`~repro.core.control.ControlUnit` is a
        pure counter, so the bulk replay is state-identical to the
        per-cycle calls the NumPy loop makes.
        """
        s_count = self.n_scenarios
        if strides is None:
            strides = np.ones((s_count, self._n), dtype=np.int64)
        ring = np.full(
            (s_count, n_cycles if collect_winners else 0),
            -1, dtype=np.int64,
        )
        stats = np.zeros(3, dtype=np.int64)
        jit.run_cycles(
            int(n_cycles),
            self._loaded,
            offs,
            steps,
            strides,
            self._dwcs_like,
            self._mode == _EDF,
            self._x, self._y, self._cfg_x, self._cfg_y, self._edf_bias,
            self._wins, self._serviced, self._missed,
            self._violations, self._window_resets,
            _WC_KEY,
            self._deadline_only,
            self.config.winner_only,
            self.config.block_mode is BlockMode.MAX_FIRST,
            self.config.schedule == "bitonic",
            self._log2n,
            consume == "block",
            bool(count_misses),
            bool(fast_forward),
            bool(self._loaded.any()),
            ring,
            stats,
        )
        nonff, ff_cycles, ff_gaps = (int(v) for v in stats)
        passes = self.config.sort_passes
        update_cycles = self.config.update_cycles
        profile = self._phase_profile
        if ff_cycles:
            if profile is not None:
                _t0 = time.perf_counter()
            self.control.advance_decision_cycles(
                ff_cycles, passes, update_cycles, detail="idle fast-forward"
            )
            self._fast_forwarded += ff_cycles
            if profile is not None:
                acc = profile["fast_forward"]
                acc[0] += ff_gaps
                acc[1] += time.perf_counter() - _t0
        if nonff:
            self.control.advance_decision_cycles(
                nonff, passes, update_cycles, detail="periodic driver"
            )
        return self._periodic_results(
            n_cycles, ring if collect_winners else None
        )

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
            loads=int(self._loads[s, i]),
        )

    def counters(self, scenario: int) -> dict[int, SlotCounters]:
        """Per-stream performance counters for one scenario."""
        return {
            i: self._slot_counters(scenario, i)
            for i in range(self._n)
            if self._configs[scenario][i] is not None
        }

    def phase_report(self) -> dict[str, tuple[int, float]]:
        """Accumulated ``phase -> (calls, wall_seconds)`` in fixed order.

        Empty unless the engine was built with ``profile_phases=True``.
        Call counts are a pure function of the workload (they feed
        canonical span tags); wall time is an execution detail.
        """
        if self._phase_profile is None:
            return {}
        return {
            name: (int(calls), float(wall))
            for name, (calls, wall) in self._phase_profile.items()
        }


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
        trace=None,
        observer=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.observer = resolve_observer(trace, observer)
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
        return [
            TensorSlotView(self._engine, 0, i)
            for i in range(self._engine._n)
            if self._engine._configs[0][i] is not None
        ]

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
        result = self._engine.run_periodic(n_cycles, **kwargs)[0]
        if self.observer is not None:
            summary_hook = getattr(self.observer, "on_run_summary", None)
            if summary_hook is not None:
                summary_hook(result)
        return result

    @property
    def cycles_per_decision(self) -> int:
        """Hardware cycles one decision cycle consumes."""
        return self._engine.cycles_per_decision

    @property
    def fast_forwarded(self) -> int:
        """Idle decision cycles skipped in bulk by ``run_periodic``."""
        return self._engine.fast_forwarded

    def counters(self) -> dict[int, SlotCounters]:
        """Per-stream performance counters, keyed by stream ID."""
        return self._engine.counters(0)
