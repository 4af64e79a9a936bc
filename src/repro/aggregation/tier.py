"""Two-tier hierarchical scheduler: aggregates on slots, streams in PIFOs.

The tier multiplexes an unbounded population of lightweight streams
onto ``n_aggregates`` scheduler slots of one existing engine:

* **Inter-aggregate** — each aggregate occupies one stream-slot of a
  ``deadline_only`` (simple-comparator) engine in the Section 4.3
  service-tag configuration.  The slot's deposited tag is a weighted
  start-time-fair rank over the aggregate's *member-weight sum*
  (``rank = max(agg_finish, vtime)``,
  ``agg_finish = rank + length // agg_weight``), which realizes the
  hierarchical weighted max-min round-robin of Luangsomboon &
  Liebeherr (arXiv:2108.09864) at aggregate granularity: backlogged
  aggregates share the link in proportion to their member weights.
* **Intra-aggregate** — packets inside an aggregate are ordered by a
  software PIFO heap whose rank comes from any registered programmable
  rank function (``pifo:<name>``, :mod:`repro.disciplines.pifo`);
  default ``pifo:sfq``.  Only the aggregate's head-of-line packet ever
  enters the engine slot, so the engine state is O(aggregates)
  regardless of the stream population.

Churn semantics
---------------
``join``/``leave`` are O(1): membership is pure hash-bucket arithmetic
(:func:`hash_bucket`) plus per-aggregate member/weight counters — the
engine's ``(S, N)`` tensor state is never re-bucketed or resized.  A
leaving stream's already-queued packets still drain (its weight leaves
the aggregate immediately; service of queued packets completes).  A
stream whose backlog drains re-enters start-time-fair competition at
the aggregate's current virtual time — per-stream rank state (finish
tag, service credits) exists *only while the stream is backlogged*, so
hot-path memory is O(aggregates + queued packets), independent of the
total joined population.

``strict=True`` (default) additionally keeps a per-stream membership
map for validation (duplicate joins rejected, per-stream weights
remembered across leave); ``strict=False`` drops that map for
O(aggregates) control-plane memory at million-stream scale and trusts
the caller to pass matching weights to :meth:`AggregationTier.leave`.
"""

from __future__ import annotations

import heapq
import struct
from array import array
from dataclasses import dataclass

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.register_block import nonpositive_length_error
from repro.disciplines.pifo import RankFunction, rank_function

__all__ = [
    "hash_bucket",
    "AggregateStats",
    "AggregationTier",
    "AggregationCampaign",
    "ServiceLog",
    "aggregate_share_slos",
]

_MASK64 = (1 << 64) - 1

#: One service-log row as raw bytes in the machine order ``array("q")`` uses.
_LOG_ROW = struct.Struct("=4q")


def hash_bucket(sid: int, n_aggregates: int, *, salt: int = 0) -> int:
    """Deterministic stable bucket for stream ``sid`` (splitmix64 mix).

    Pure integer arithmetic — identical across processes, platforms
    and Python hash randomization, so scenario replay and the on-disk
    result cache can key on it.
    """
    x = (sid + 0x9E3779B97F4A7C15 * (salt + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x % n_aggregates


def _resolve_rank_function(discipline: str | RankFunction) -> RankFunction:
    if isinstance(discipline, RankFunction):
        return discipline
    name = discipline.removeprefix("pifo:")
    return rank_function(name)


def _tier_arch(n_aggregates: int) -> ArchConfig:
    """Service-tag engine configuration, one slot per aggregate."""
    return ArchConfig(
        n_slots=n_aggregates,
        routing=Routing.WR,
        deadline_only=True,
        wrap=False,
        extended=n_aggregates > 32,
    )


def _tier_streams(n_aggregates: int) -> list[StreamConfig]:
    return [
        StreamConfig(
            sid=a,
            period=0,
            mode=SchedulingMode.SERVICE_TAG,
            extended=n_aggregates > 32,
        )
        for a in range(n_aggregates)
    ]


class ServiceLog:
    """Append-only log of ``(cycle, stream, aggregate, intra_rank)`` rows.

    Rows are stored as int64 in one flat :class:`array.array`: about
    32 bytes per serviced packet, where a list of tuples costs about
    200.  The log keeps the list surface its readers use — ``len``,
    indexing (negative indices included), slicing, iteration, ``==``,
    :meth:`append` and :meth:`clear`.  Rows come back as tuples and a
    slice is a list of tuples, so ``json.dumps`` of a slice writes the
    same bytes as it would for a list.  A row that is not four int64
    values (one outside int64, say) raises :class:`ValueError` and
    leaves the log unchanged.
    """

    __slots__ = ("_flat",)

    def __init__(self, rows=()) -> None:
        self._flat = array("q")
        for row in rows:
            self.append(row)

    def append(self, row: tuple[int, int, int, int]) -> None:
        """Append one ``(cycle, stream, aggregate, intra_rank)`` row."""
        try:
            packed = _LOG_ROW.pack(*row)
        except struct.error as exc:
            raise ValueError(
                f"a service row is four int64 values, got {row!r}"
            ) from exc
        self._flat.frombytes(packed)

    def clear(self) -> None:
        """Drop every row."""
        del self._flat[:]

    def __len__(self) -> int:
        return len(self._flat) // 4

    def __iter__(self):
        it = iter(self._flat)
        return zip(it, it, it, it)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step == 1:
                it = iter(self._flat[4 * start : 4 * max(start, stop)])
                return list(zip(it, it, it, it))
            return [self[i] for i in range(start, stop, step)]
        n = len(self)
        i = key + n if key < 0 else key
        if not 0 <= i < n:
            raise IndexError("service log index out of range")
        return tuple(self._flat[4 * i : 4 * i + 4])

    def __eq__(self, other) -> bool:
        if isinstance(other, ServiceLog):
            return self._flat == other._flat
        if isinstance(other, list):
            return self[:] == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ServiceLog({self[:]!r})"


@dataclass(frozen=True, slots=True)
class AggregateStats:
    """Read-only snapshot of one aggregate's rollup state."""

    aggregate: int
    members: int
    weight: int
    enqueued: int
    serviced: int
    backlog: int


class _TierCore:
    """Engine-agnostic tier state machine.

    Owns everything except the scheduler engine itself and the service
    log: membership counters, the per-aggregate PIFO heaps and the
    inter-aggregate start-time-fair tags.  Engine wrappers
    (:class:`AggregationTier`, :class:`AggregationCampaign`) feed the
    returned refill operations ``(aggregate, rank, arrival, length)``
    into their engine and deliver decision outcomes back via
    :meth:`service`.  Keeping this split lets the single-engine tier
    and the tensorized campaign share one behavior definition, which
    is what makes three-way byte-identity hold by construction.
    """

    __slots__ = (
        "n_aggregates",
        "fn",
        "strict",
        "salt",
        "default_weight",
        "default_priority",
        "joined",
        "left",
        "enqueued",
        "serviced",
        "last_service_cycle",
        "_members",
        "_weights",
        "_agg_enqueued",
        "_agg_serviced",
        "_heaps",
        "_inflight",
        "_agg_finish",
        "_vtime",
        "_intra_vtime",
        "_pending",
        "_finish",
        "_credits",
        "_stream_info",
        "_arrival_seq",
        "_refill_seq",
        "_rank_fn",
        "_finish_fn",
        "_vclock_served",
    )

    def __init__(
        self,
        n_aggregates: int,
        fn: RankFunction,
        *,
        strict: bool = True,
        salt: int = 0,
        default_weight: int = 1,
        default_priority: int = 0,
    ) -> None:
        if n_aggregates < 2 or n_aggregates & (n_aggregates - 1):
            raise ValueError("n_aggregates must be a power of two >= 2")
        if default_weight <= 0:
            raise ValueError("default_weight must be a positive integer")
        self.n_aggregates = n_aggregates
        self.fn = fn
        self.strict = strict
        self.salt = salt
        self.default_weight = default_weight
        self.default_priority = default_priority
        self.joined = 0
        self.left = 0
        self.enqueued = 0
        self.serviced = 0
        self.last_service_cycle = -1
        # O(aggregates) hot-path state.
        self._members = [0] * n_aggregates
        self._weights = [0] * n_aggregates
        self._agg_enqueued = [0] * n_aggregates
        self._agg_serviced = [0] * n_aggregates
        # (rank, arrival, sid, deadline, length) min-heaps per aggregate.
        self._heaps: list[list[tuple[int, int, int, int, int]]] = [
            [] for _ in range(n_aggregates)
        ]
        # In-flight head per aggregate: (sid, intra_rank) or None.
        self._inflight: list[tuple[int, int] | None] = [None] * n_aggregates
        self._agg_finish = [0] * n_aggregates
        self._vtime = 0
        self._intra_vtime = [0] * n_aggregates
        # Per-stream state, kept only while the stream is backlogged.
        self._pending: dict[int, int] = {}
        self._finish: dict[int, int] = {}
        self._credits: dict[int, int] = {}
        # strict-mode membership map: sid -> (weight, priority).
        self._stream_info: dict[int, tuple[int, int]] = {}
        self._arrival_seq = 0
        self._refill_seq = 0
        self._rank_fn = fn.compile_reference()
        self._finish_fn = fn.compile_finish(vectorized=False)
        self._vclock_served = fn.vclock == "served_rank"

    # -- membership (control plane, O(1) per op) -----------------------

    def bucket(self, sid: int) -> int:
        """The aggregate stream ``sid`` maps to (stable hash bucket)."""
        return hash_bucket(sid, self.n_aggregates, salt=self.salt)

    def join(
        self, sid: int, *, weight: int | None = None, priority: int | None = None
    ) -> int:
        """Admit one stream; returns its aggregate.  O(1)."""
        w = self.default_weight if weight is None else int(weight)
        p = self.default_priority if priority is None else int(priority)
        if w <= 0:
            raise ValueError("stream weight must be a positive integer")
        if self.strict:
            if sid in self._stream_info:
                raise ValueError(f"stream {sid} already joined")
            self._stream_info[sid] = (w, p)
        a = self.bucket(sid)
        self._members[a] += 1
        self._weights[a] += w
        self.joined += 1
        return a

    def leave(self, sid: int, *, weight: int | None = None) -> int:
        """Remove one stream; queued packets still drain.  O(1)."""
        if self.strict:
            try:
                w, _ = self._stream_info.pop(sid)
            except KeyError:
                raise KeyError(f"stream {sid} is not a member") from None
        else:
            w = self.default_weight if weight is None else int(weight)
        a = self.bucket(sid)
        if self._members[a] <= 0 or self._weights[a] < w:
            raise ValueError(
                f"aggregate {a} membership underflow leaving stream {sid}"
            )
        self._members[a] -= 1
        self._weights[a] -= w
        self.left += 1
        return a

    def _stream_weight_priority(self, sid: int) -> tuple[int, int]:
        if self.strict:
            try:
                return self._stream_info[sid]
            except KeyError:
                raise KeyError(f"stream {sid} is not a member") from None
        return self.default_weight, self.default_priority

    # -- data plane ----------------------------------------------------

    def _intra_rank(
        self, sid: int, a: int, deadline: int, arrival: int, length: int
    ) -> int:
        weight, priority = self._stream_weight_priority(sid)
        env = {
            "deadline": deadline,
            "arrival": arrival,
            "length": length,
            "sid": sid,
            "weight": weight,
            "priority": priority,
            "finish": self._finish.get(sid, 0),
            "credits": self._credits.get(sid, 0),
            "vtime": self._intra_vtime[a],
        }
        rank = self._rank_fn(env)
        if self._finish_fn is not None:
            env["rank"] = rank
            self._finish[sid] = int(self._finish_fn(env))
        return rank

    def _refill(self, a: int):
        """Move the aggregate's PIFO head into its engine slot.

        Returns the engine enqueue operation
        ``(aggregate, agg_rank, refill_seq, length)`` or ``None`` when
        the aggregate has no backlog.  The aggregate-level start tag is
        computed here (start-time fair queueing over member-weight
        sums), so inter-aggregate fairness tracks membership churn
        immediately.
        """
        heap = self._heaps[a]
        if not heap or self._inflight[a] is not None:
            return None
        intra_rank, _arrival, sid, _deadline, length = heapq.heappop(heap)
        agg_rank = max(self._agg_finish[a], self._vtime)
        self._agg_finish[a] = agg_rank + length // max(1, self._weights[a])
        self._inflight[a] = (sid, intra_rank)
        seq = self._refill_seq
        self._refill_seq += 1
        return (a, agg_rank, seq, length)

    def submit(self, sid: int, deadline: int, length: int = 1500):
        """Deposit one packet for stream ``sid``.

        Returns the engine enqueue op when this packet becomes the
        aggregate's in-flight head, else ``None``.
        """
        if length <= 0:
            raise nonpositive_length_error(length)
        a = self.bucket(sid)
        arrival = self._arrival_seq
        self._arrival_seq += 1
        rank = self._intra_rank(sid, a, deadline, arrival, length)
        heapq.heappush(self._heaps[a], (rank, arrival, sid, deadline, length))
        self._pending[sid] = self._pending.get(sid, 0) + 1
        self.enqueued += 1
        self._agg_enqueued[a] += 1
        return self._refill(a)

    def service(self, a: int, agg_rank: int, now: int):
        """Account one engine service of aggregate ``a``.

        ``agg_rank`` is the serviced packet's deposited tag (the
        engine outcome's deadline field).  Returns
        ``(stream_sid, intra_rank, refill_op | None)``.
        """
        inflight = self._inflight[a]
        if inflight is None:
            raise RuntimeError(f"aggregate {a} serviced with nothing in flight")
        sid, intra_rank = inflight
        self._inflight[a] = None
        self._vtime = max(self._vtime, agg_rank)
        if self._vclock_served:
            self._intra_vtime[a] = max(self._intra_vtime[a], intra_rank)
        self.serviced += 1
        self.last_service_cycle = now
        self._agg_serviced[a] += 1
        self._credits[sid] = self._credits.get(sid, 0) + 1
        remaining = self._pending[sid] - 1
        if remaining:
            self._pending[sid] = remaining
        else:
            # Backlog drained: the stream re-enters at the aggregate's
            # current virtual time on its next packet, so its rank
            # state can be dropped — hot-path memory stays
            # O(aggregates + queued packets).
            del self._pending[sid]
            self._finish.pop(sid, None)
            del self._credits[sid]
        return sid, intra_rank, self._refill(a)

    # -- introspection -------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Packets accepted but not yet serviced."""
        return self.enqueued - self.serviced

    @property
    def active_members(self) -> int:
        """Streams currently joined (joins minus leaves)."""
        return self.joined - self.left

    def aggregate_stats(self, a: int) -> AggregateStats:
        backlog = len(self._heaps[a]) + (self._inflight[a] is not None)
        return AggregateStats(
            aggregate=a,
            members=self._members[a],
            weight=self._weights[a],
            enqueued=self._agg_enqueued[a],
            serviced=self._agg_serviced[a],
            backlog=backlog,
        )

    def stats(self) -> list[AggregateStats]:
        return [self.aggregate_stats(a) for a in range(self.n_aggregates)]


class AggregationTier:
    """Hierarchical aggregation tier over one scheduler engine.

    Parameters
    ----------
    n_aggregates:
        Scheduler slots (= aggregates); a power of two >= 2.
    engine:
        ``"reference"`` (the oracle) or ``"tensor"`` (the array
        engine, default) — built via
        :func:`repro.core.batch_engine.make_scheduler`, so the tier
        rides the cross-validated engines rather than forking a
        third.
    discipline:
        Intra-aggregate ordering: any registered programmable rank
        function, as ``"pifo:<name>"`` (or a bare name /
        :class:`~repro.disciplines.pifo.RankFunction`).  Default
        ``pifo:sfq``.
    observer:
        Telemetry hook receiving every engine decision outcome —
        stream ids at this level are *aggregate* ids, so a
        :class:`~repro.observability.ConformanceMonitor` attached here
        produces per-aggregate SLO rollups (see
        :func:`aggregate_share_slos`).
    strict:
        Keep the per-stream membership map (validation + per-stream
        weights).  ``strict=False`` drops it for O(aggregates)
        control-plane memory at million-stream scale.
    salt:
        Bucketing salt (varies the stream->aggregate mapping).
    """

    def __init__(
        self,
        n_aggregates: int,
        *,
        engine: str = "tensor",
        discipline: str | RankFunction = "pifo:sfq",
        observer=None,
        strict: bool = True,
        salt: int = 0,
        default_weight: int = 1,
        default_priority: int = 0,
    ) -> None:
        from repro.core.batch_engine import make_scheduler

        self.core = _TierCore(
            n_aggregates,
            _resolve_rank_function(discipline),
            strict=strict,
            salt=salt,
            default_weight=default_weight,
            default_priority=default_priority,
        )
        self.engine_name = engine
        self.scheduler = make_scheduler(
            _tier_arch(n_aggregates),
            _tier_streams(n_aggregates),
            engine=engine,
            observer=observer,
        )
        self.services = ServiceLog()
        self.now = 0

    # -- delegated control plane ---------------------------------------

    @property
    def n_aggregates(self) -> int:
        return self.core.n_aggregates

    def bucket(self, sid: int) -> int:
        return self.core.bucket(sid)

    def join(self, sid: int, *, weight=None, priority=None) -> int:
        return self.core.join(sid, weight=weight, priority=priority)

    def leave(self, sid: int, *, weight=None) -> int:
        return self.core.leave(sid, weight=weight)

    # -- data plane ----------------------------------------------------

    def submit(self, sid: int, deadline: int, length: int = 1500) -> None:
        op = self.core.submit(sid, deadline, length)
        if op is not None:
            a, rank, seq, ln = op
            self.scheduler.enqueue(a, deadline=rank, arrival=seq, length=ln)

    def decision_cycle(self, now: int | None = None):
        """Run one engine decision cycle; service at most one packet.

        Returns ``(stream_sid, aggregate)`` for the serviced packet, or
        ``None`` on an idle cycle.
        """
        t = self.now if now is None else now
        outcome = self.scheduler.decision_cycle(
            t, consume="winner", count_misses=False
        )
        self.now = t + 1
        a = outcome.circulated_sid
        if a is None:
            return None
        _, packet = outcome.serviced[0]
        sid, intra_rank, op = self.core.service(a, packet.deadline, t)
        if op is not None:
            ra, rank, seq, ln = op
            self.scheduler.enqueue(ra, deadline=rank, arrival=seq, length=ln)
        self.services.append((t, sid, a, intra_rank))
        return (sid, a)

    def drain(self, max_cycles: int | None = None) -> int:
        """Cycle until every accepted packet is serviced; returns cycles."""
        budget = (
            self.core.outstanding + 8 if max_cycles is None else max_cycles
        )
        ran = 0
        while self.core.outstanding and ran < budget:
            self.decision_cycle()
            ran += 1
        if self.core.outstanding:
            raise RuntimeError(
                f"tier failed to drain: {self.core.outstanding} packets "
                f"outstanding after {ran} cycles"
            )
        return ran

    # -- rollups -------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self.core.outstanding

    @property
    def active_members(self) -> int:
        return self.core.active_members

    def stats(self) -> list[AggregateStats]:
        return self.core.stats()

    def counters(self):
        """Per-aggregate engine performance counters."""
        return self.scheduler.counters()


class AggregationCampaign:
    """S same-shape aggregation tiers on one tensorized campaign engine.

    Every row holds its own :class:`_TierCore` (membership, heaps,
    fair tags) while all rows share a single
    :class:`~repro.core.tensor_engine.CampaignEngine` — the
    aggregation-aware analogue of
    :class:`~repro.disciplines.pifo.PifoCampaignFrontend`.  Row
    behavior is cycle-for-cycle identical to a standalone
    :class:`AggregationTier`, which the differential harness asserts
    byte-for-byte.
    """

    def __init__(
        self,
        n_aggregates: int,
        n_rows: int,
        *,
        discipline: str | RankFunction = "pifo:sfq",
        strict: bool = True,
        salt: int = 0,
        observers=None,
    ) -> None:
        from repro.core.tensor_engine import CampaignEngine

        if n_rows < 1:
            raise ValueError("need at least one campaign row")
        fn = _resolve_rank_function(discipline)
        self.cores = [
            _TierCore(n_aggregates, fn, strict=strict, salt=salt)
            for _ in range(n_rows)
        ]
        self.engine = CampaignEngine(
            _tier_arch(n_aggregates),
            [_tier_streams(n_aggregates) for _ in range(n_rows)],
            observers=list(observers) if observers is not None else None,
        )
        self.services = [ServiceLog() for _ in range(n_rows)]
        self.now = 0

    def submit(self, row: int, sid: int, deadline: int, length: int = 1500):
        op = self.cores[row].submit(sid, deadline, length)
        if op is not None:
            a, rank, seq, ln = op
            self.engine.enqueue(row, a, deadline=rank, arrival=seq, length=ln)

    def decision_cycle(self, now: int | None = None) -> None:
        """Advance every row by one lockstep decision cycle."""
        t = self.now if now is None else now
        outcomes = self.engine.decision_cycle_all(
            t, consume="winner", count_misses=False
        )
        self.now = t + 1
        for row, outcome in enumerate(outcomes):
            if outcome.circulated_sid is None:
                continue
            a = outcome.circulated_sid
            _, packet = outcome.serviced[0]
            sid, intra_rank, op = self.cores[row].service(a, packet.deadline, t)
            if op is not None:
                ra, rank, seq, ln = op
                self.engine.enqueue(
                    row, ra, deadline=rank, arrival=seq, length=ln
                )
            self.services[row].append((t, sid, a, intra_rank))

    @property
    def outstanding(self) -> int:
        return sum(core.outstanding for core in self.cores)

    def drain(self, max_cycles: int | None = None) -> int:
        budget = self.outstanding + 8 if max_cycles is None else max_cycles
        ran = 0
        while self.outstanding and ran < budget:
            self.decision_cycle()
            ran += 1
        if self.outstanding:
            raise RuntimeError(
                f"campaign failed to drain: {self.outstanding} packets "
                f"outstanding after {ran} cycles"
            )
        return ran

    def counters(self, row: int):
        return self.engine.counters(row)


def aggregate_share_slos(tier: AggregationTier, *, tolerance: float = 0.25):
    """Per-aggregate share-band SLOs from current member-weight sums.

    Maps the tier's inter-aggregate weighted-fair contract onto the
    PR-3 conformance machinery: each non-empty aggregate's expected
    service share is its member-weight sum over the total, banded by
    ``tolerance`` exactly like the Figure 8/10 objectives
    (:func:`repro.observability.monitor.slos_from_shares`).  Attach the
    resulting :class:`~repro.observability.ConformanceMonitor` as the
    tier's ``observer=`` for live per-aggregate rollups.
    """
    from repro.observability.monitor import slos_from_shares

    shares = {
        stat.aggregate: float(stat.weight)
        for stat in tier.stats()
        if stat.weight > 0
    }
    if not shares:
        return []
    return slos_from_shares(shares, tolerance=tolerance)
