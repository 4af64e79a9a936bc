"""Scenario-tensorized campaign engine (the NumPy fastest path).

:class:`CampaignEngine` generalizes the slot-vectorized
:class:`~repro.core.batch_engine.BatchScheduler` by one axis: given S
*same-shape* scenarios — identical architecture configuration (slot
count, routing, block mode, sorting schedule, wrap/extended arithmetic)
but independent stream constraint sets and workloads — it holds every
per-slot attribute as an ``(S, N)`` array and executes rank
computation, the compare-exchange network replay, miss registration and
the DWCS window updates as batched array ops across the *whole
campaign* at once.  Per-cycle Python overhead is amortized over S
scenarios instead of paid S times, which composes multiplicatively with
the process-level sharding in :mod:`repro.runner`.

The same-shape bucketing contract (see ``docs/ENGINES.md``) is what
makes the leading axis sound: every scenario in a bucket shares one
``ArchConfig``, so the sort-key cascade, the network pass geometry and
the wrap rebasing are common subexpressions; per-stream attributes
(periods, window constraints, disciplines, deadlines) vary freely along
``(S, N)``.  Mixed campaigns are bucketed by
:func:`repro.core.differential.bucket_key` before they reach this
module.

Idle-cycle fast-forward: when *no* scenario in the campaign has a
pending head, :meth:`CampaignEngine.run_periodic` jumps ``now``
directly to the next release boundary and accounts the skipped
SCHEDULE/PRIORITY_UPDATE pairs in bulk, so sparse workloads (the
isolation experiments are mostly idle) cost array ops only on the
cycles where a decision can actually differ from "nothing happened".

:class:`TensorScheduler` is the S=1 adapter: a drop-in for
:class:`~repro.core.scheduler.ShareStreamsScheduler` /
:class:`BatchScheduler` (``make_scheduler(..., engine="tensor")``)
backed by a one-row campaign, cross-validated cycle-by-cycle by
:mod:`repro.core.differential` like every other engine.

The Table 2 rank cascade runs as :func:`table2_rank_order`, one
:func:`numpy.lexsort` over the ``(S, N)`` keys with the three window-
constraint keys packed into one order-exact integer word.

:meth:`CampaignEngine.run_periodic` picks its kernel by shape: at or
below :data:`DRIVER_MAX_CELLS` scenario-slots it runs the scalar
whole-run driver :func:`repro.core.jit.run_cycles` (compiled by numba
when numba is importable), above it the NumPy loop.  Both sides are
byte-identical; the constant sits at their measured crossover.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.core import jit
from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import (
    _ARR_HALF,
    _ARR_MASK,
    _ARR_MOD,
    _DL_HALF,
    _DL_MASK,
    _DL_MOD,
    _DWCS_LIKE,
    _MODE_CODE,
    _Y_MAX,
    PeriodicRunResult,
    build_bitonic_passes,
    build_shuffle_permutation,
)
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.control import ControlUnit
from repro.core.register_block import PendingPacket, SlotCounters
from repro.core.scheduler import DecisionOutcome
from repro.observability.hooks import resolve_observer

__all__ = [
    "DRIVER_MAX_CELLS",
    "CampaignEngine",
    "TensorScheduler",
    "TensorSlotView",
    "table2_rank_order",
]

_EDF = _MODE_CODE[SchedulingMode.EDF]

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

#: Largest S×N (scenarios × slots) whose :meth:`CampaignEngine.run_periodic`
#: runs the scalar whole-run driver instead of the NumPy loop.  Placed at
#: the measured crossover of the plain-Python driver, which runs at
#: 3.5–4.7× the NumPy loop at S×N=4, 0.93–1.30× at 16 and 0.36–0.70× at
#: 32 (``benchmarks/test_bench_jit.py``).
DRIVER_MAX_CELLS = 16


def table2_rank_order(
    *,
    invalid,
    dl,
    arr,
    x=None,
    y=None,
    deadline_only: bool = False,
) -> np.ndarray:
    """Table 2 rank cascade over the last axis: one stable lexsort.

    Produces the exact permutation of::

        np.lexsort((sid, arr, num_key, den_key, wc, dl, invalid))

    (or ``np.lexsort((sid, arr, dl, invalid))`` when ``deadline_only``),
    where ``wc = x / y`` is the float loss-constraint ratio.  The three
    bounded window-constraint keys (ratio, denominator, numerator —
    8-bit fields) pack into one order-exact integer word, and the
    ``sid`` key is implicit because ``lexsort`` is stable.

    All operands are ``(S, N)`` arrays: ``invalid`` bool (sorts
    loaded-and-pending slots first), ``dl``/``arr`` rebased int64
    deadline/arrival keys, ``x``/``y`` the live window-constraint
    counters (ignored when ``deadline_only``).
    """
    if deadline_only:
        return np.lexsort((arr, dl, invalid), axis=-1)
    zero_wc = (x == 0) | (y == 0)
    wc_key = np.where(zero_wc, 0, (x << _WC_SHIFT) // np.where(y == 0, 1, y))
    # den key is -y for zero-ratio slots, else 0; shift by +255 so it
    # packs as an unsigned 8-bit lane (order is translation-invariant).
    # num key is x for live-ratio slots, else 0.
    den_key = np.where(zero_wc, 255 - y, 255)
    num_key = np.where(zero_wc, 0, x)
    packed = (wc_key << 16) | (den_key << 8) | num_key
    return np.lexsort((arr, packed, dl, invalid), axis=-1)


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
        # -- per-(scenario, slot) state, mirroring BatchScheduler --
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

        # -- network geometry (memoized, shared across engines) --
        self._shuffle = build_shuffle_permutation(n)
        self._log2n = n.bit_length() - 1
        self._bitonic_passes = build_bitonic_passes(n)
        # Per-position replay vectors, one row per bitonic pass: the
        # pass geometry re-expressed as full-width gathers.
        # ``_pass_partner[p, j]`` is j's compare partner in pass p;
        # ``_pass_gt[p, j]`` is True where j takes the partner's value on
        # ``rank[j] > rank[partner]`` (ascending lane member), False
        # where the condition is ``<`` — i.e. ``asc == (j is the pair's
        # low index)``.  The NumPy replay walks the rows; the periodic
        # driver takes the dense arrays whole.
        p_count = len(self._bitonic_passes)
        self._pass_partner = np.empty((p_count, n), dtype=i64)
        self._pass_gt = np.empty((p_count, n), dtype=bool)
        for p, (idx, partner, asc) in enumerate(self._bitonic_passes):
            self._pass_partner[p, idx] = partner
            self._pass_partner[p, partner] = idx
            self._pass_gt[p, idx] = asc
            self._pass_gt[p, partner] = ~asc

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

    def _rank(self, now: int, valid, attr_dl, attr_arr, x, y) -> np.ndarray:
        """``(S, N)`` slot orders, highest-priority-first per scenario.

        One :func:`table2_rank_order` lexsort over the Table 2 key
        cascade ranks *every scenario in the campaign* in a single call
        — the keys are ``(S, N)`` and the sort runs along the last axis.
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
        )

    def _emit_positions(self, order: np.ndarray) -> np.ndarray:
        """``(S, N)`` slot IDs in emitted network-position order.

        Replays the compare-exchange network on the per-scenario rank
        arrays; each pass's per-position partner/direction geometry
        broadcasts across the scenario axis, so S networks advance per
        array op.
        """
        s_count, n = order.shape
        # order is a permutation per row, so its argsort IS the inverse
        # permutation: rank[sid] = network position of that slot.
        rank = np.argsort(order, axis=-1)
        state = np.broadcast_to(self._iota, (s_count, n))
        if self.config.schedule == "bitonic":
            for partner, gt in zip(self._pass_partner, self._pass_gt):
                st_p = state[:, partner]
                r_s = np.take_along_axis(rank, state, axis=-1)
                r_p = np.take_along_axis(rank, st_p, axis=-1)
                take = np.where(gt, r_s > r_p, r_s < r_p)
                state = np.where(take, st_p, state)
        else:
            for _ in range(self._log2n):
                state = state[:, self._shuffle]
                r = np.take_along_axis(rank, state, axis=-1)
                a = state[:, 0::2]
                b = state[:, 1::2]
                swap = r[:, 0::2] > r[:, 1::2]
                lo = np.where(swap, b, a)
                hi = np.where(swap, a, b)
                # lo0, hi0, lo1, hi1, ...: the exchange writeback.
                state = np.stack((lo, hi), axis=-1).reshape(s_count, n)
        return state

    @property
    def _schedule_passes(self) -> int:
        if self.config.schedule == "bitonic" and not self.config.winner_only:
            return len(self._bitonic_passes)
        return self._log2n

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
        rank_order = self._rank(
            now, valid, self._attr_deadline, self._attr_arrival,
            self._x, self._y,
        )
        if self.config.winner_only:
            orders = [
                [int(w)] if valid[s, w] else []
                for s, w in enumerate(rank_order[:, 0])
            ]
        else:
            emitted = self._emit_positions(rank_order)
            emitted_valid = np.take_along_axis(valid, emitted, axis=-1)
            orders = [
                emitted[s][emitted_valid[s]].tolist() for s in range(s_count)
            ]
        passes = self._schedule_passes
        self.control.schedule(passes, detail=f"t={now}")
        if profile is not None:
            _t1 = time.perf_counter()
            acc = profile["schedule"]
            acc[0] += 1
            acc[1] += _t1 - _t0

        # Miss registration, batched over the scenarios that count them.
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
                misses[int(s)].extend(np.nonzero(counted_late[s])[0].tolist())
            self._register_misses(counted_late)

        # PRIORITY_UPDATE: per-scenario circulate/consume (queue-backed,
        # so the service path stays scalar like the batch engine's).
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
                    if self.config.routing is Routing.WR:
                        raise ValueError(
                            "block consumption requires BA routing "
                            "(WR emits only the winner)"
                        )
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
            update_cycles, detail=f"circulate={any_circulated}"
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
        control accounting in O(1).
        """
        if count <= 0:
            return
        profile = self._phase_profile
        if profile is not None:
            _t0 = time.perf_counter()
        self.control.advance_decision_cycles(
            count,
            self._schedule_passes,
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
            hw_cycles=self._schedule_passes + self.config.update_cycles,
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

        The tensorized twin of
        :meth:`~repro.core.batch_engine.BatchScheduler.run_periodic`:
        per decision cycle, ranking, the winner selection, miss
        registration and the DWCS window updates each run as one
        ``(S, N)`` array op, so the whole campaign advances per cycle
        at (amortized) the Python cost of a single scenario.  Scenarios
        whose slots are all idle at ``t`` simply sit out that cycle;
        when the *entire campaign* is idle, ``now`` fast-forwards to
        the next release boundary with bulk control accounting.

        ``offsets``/``step``/``stride`` broadcast over ``(S, N)``.
        Returns one :class:`PeriodicRunResult` per scenario, each
        identical to the per-scenario ``BatchScheduler`` run.

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
        iota = self._iota
        have_streams = bool(loaded.any())

        def gather_col(array2d, cols):
            """Per-scenario column gather: ``array2d[s, cols[s]]``."""
            return np.take_along_axis(array2d, cols[:, None], axis=-1)[:, 0]

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
                        self._schedule_passes, detail=f"t={t}"
                    )
                    self.control.priority_update(
                        update_cycles, detail="circulate=None"
                    )
                    t += 1
                continue
            real_dl = offs + consumed * steps
            attr_dl = real_dl + np.where(edf, self._edf_bias, 0)
            order = self._rank(t, valid, attr_dl, consumed, self._x, self._y)
            late = valid & (real_dl < t)
            if count_misses and late.any():
                self._register_misses(late)
            # Emitted block head / tail selection, one per scenario.
            w = order[:, 0]
            if winner_only or max_first:
                circulated = w
            else:
                emitted = self._emit_positions(order)
                emitted_valid = np.take_along_axis(valid, emitted, axis=-1)
                # Last valid network position per scenario (block tail).
                last = (n - 1) - np.argmax(emitted_valid[:, ::-1], axis=-1)
                circulated = gather_col(emitted, last)
            # One-hot circulated-winner mask over active scenarios; all
            # per-cycle updates below are full-array masked rebinds.
            onehot = iota[None, :] == circulated[:, None]
            sel = active[:, None] & onehot
            if consume == "winner":
                late_c = gather_col(late, circulated) & active
                dw = gather_col(self._dwcs_like, circulated) & active
                edf_c = gather_col(edf, circulated) & active
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
            self.control.schedule(self._schedule_passes, detail=f"t={t}")
            self.control.priority_update(
                update_cycles, detail="circulate=<campaign>"
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
            self._deadline_only,
            self.config.winner_only,
            self.config.block_mode is BlockMode.MAX_FIRST,
            self.config.schedule == "bitonic",
            self._pass_partner, self._pass_gt, self._shuffle,
            self._log2n,
            consume == "block",
            bool(count_misses),
            bool(fast_forward),
            bool(self._loaded.any()),
            ring,
            stats,
        )
        nonff, ff_cycles, ff_gaps = (int(v) for v in stats)
        passes = self._schedule_passes
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

    Drop-in for the reference and batch engines
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
