"""Programmable PIFO rank-function disciplines over the unified core.

Sivaraman et al. (*Programmable Packet Scheduling at Line Rate*,
arXiv:1602.06045) observe that a large family of scheduling disciplines
decomposes into "compute a rank at enqueue, insert into a Push-In
First-Out queue".  The ShareStreams core has exactly the dual shape:
decide a winner per cycle from per-stream attributes.  This module is
the bridge: a :class:`RankFunction` is a small integer expression over
packet/stream attributes which is *compiled three ways* —

* an interpreted reference evaluator (plain Python ints) driving the
  cycle-level :class:`~repro.core.scheduler.ShareStreamsScheduler`,
* a vectorized ``(N,)`` NumPy evaluator driving
  :class:`~repro.core.batch_engine.BatchScheduler`, and
* a tensorized ``(S, N)`` evaluator driving
  :class:`~repro.core.tensor_engine.CampaignEngine` across whole
  scenario buckets at once —

and deposited into the engines through the Section 4.3 service-tag
mapping (:mod:`repro.core.tag_mapping`): the rank travels in the
16-bit-deadline attribute, the engines run their ``deadline_only=True``
simple-comparator configuration with ``wrap=False`` ideal arithmetic,
and the PRIORITY_UPDATE cycle is bypassed
(``SchedulingMode.SERVICE_TAG``).  Tie-breaks are therefore *exactly*
the engines' existing lexsort/bitonic order: smallest rank first, then
earliest arrival sequence, then lowest stream id.

Realizability condition
-----------------------
The engines serve each stream's slot queue FIFO (only head-of-line
packets compete), while an idealized PIFO could reorder within a
stream.  The two coincide iff every stream's ranks are non-decreasing
in enqueue order — the *per-stream monotonicity* condition.  All rank
functions shipped here satisfy it structurally (FCFS/SFQ) or under the
workload contract enforced by :func:`generate_pifo_scenario`
(non-decreasing per-stream deadlines for EDF-like ranks).

Expressions use only integer arithmetic (``+ - * //``, ``emax``,
``emin``): Python ints and ``np.int64`` implement identical floored
division, so the three evaluators are bit-equivalent by construction
and :func:`repro.core.differential.validate_rank_function` checks the
resulting run summaries byte-for-byte.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import CampaignEngine
from repro.disciplines.base import Discipline, Packet, SwStream

__all__ = [
    "ATTRIBUTES",
    "Expr",
    "Attr",
    "Const",
    "attr",
    "emax",
    "emin",
    "RankFunction",
    "PIFO_RANK_FUNCTIONS",
    "register_rank_function",
    "rank_function",
    "PifoStream",
    "PifoScenario",
    "generate_pifo_scenario",
    "PifoFrontend",
    "PifoCampaignFrontend",
    "run_pifo",
    "run_pifo_bucket",
    "PifoDiscipline",
]

#: Attribute names a rank expression may reference.  Per-packet:
#: ``deadline`` (workload-assigned absolute deadline), ``arrival``
#: (global arrival sequence number), ``length`` (bytes).  Per-stream:
#: ``sid``, ``weight``, ``priority``, ``finish`` (running service tag),
#: ``credits`` (packets serviced so far).  Global: ``vtime`` (virtual
#: clock).  Finish-update expressions may additionally reference
#: ``rank``, the value just computed for the arriving packet.
ATTRIBUTES = (
    "deadline",
    "arrival",
    "length",
    "sid",
    "weight",
    "priority",
    "finish",
    "credits",
    "vtime",
)


# ----------------------------------------------------------------------
# expression AST
# ----------------------------------------------------------------------


class Expr:
    """Integer rank expression; build with operators and :func:`attr`."""

    def _coerce(self, other) -> Expr:
        if isinstance(other, Expr):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Const(other)
        raise TypeError(
            f"rank expressions are integer-only; got {other!r}"
        )

    def __add__(self, other):
        return BinOp("+", self, self._coerce(other))

    def __radd__(self, other):
        return BinOp("+", self._coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, self._coerce(other))

    def __rsub__(self, other):
        return BinOp("-", self._coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, self._coerce(other))

    def __rmul__(self, other):
        return BinOp("*", self._coerce(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, self._coerce(other))

    def __rfloordiv__(self, other):
        return BinOp("//", self._coerce(other), self)

    def __neg__(self):
        return BinOp("-", Const(0), self)

    def attributes(self) -> frozenset[str]:
        """Names of all attributes the expression reads."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering (used by docs and the CLI)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """Integer literal."""

    value: int

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def describe(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Attr(Expr):
    """Reference to one named attribute (see :data:`ATTRIBUTES`)."""

    name: str

    def attributes(self) -> frozenset[str]:
        return frozenset((self.name,))

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary integer operation: ``+ - * //``."""

    op: str
    lhs: Expr
    rhs: Expr

    def attributes(self) -> frozenset[str]:
        return self.lhs.attributes() | self.rhs.attributes()

    def describe(self) -> str:
        return f"({self.lhs.describe()} {self.op} {self.rhs.describe()})"


@dataclass(frozen=True)
class Extremum(Expr):
    """Elementwise max/min of two subexpressions."""

    kind: str  # "max" | "min"
    lhs: Expr
    rhs: Expr

    def attributes(self) -> frozenset[str]:
        return self.lhs.attributes() | self.rhs.attributes()

    def describe(self) -> str:
        return f"{self.kind}({self.lhs.describe()}, {self.rhs.describe()})"


def attr(name: str) -> Attr:
    """Reference a named attribute in a rank expression."""
    return Attr(name)


def emax(a, b) -> Extremum:
    """Elementwise maximum of two rank subexpressions."""
    probe = Const(0)
    return Extremum("max", probe._coerce(a), probe._coerce(b))


def emin(a, b) -> Extremum:
    """Elementwise minimum of two rank subexpressions."""
    probe = Const(0)
    return Extremum("min", probe._coerce(a), probe._coerce(b))


_SCALAR_OPS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
}
_NUMPY_EXTREMA = {"max": np.maximum, "min": np.minimum}
_SCALAR_EXTREMA = {"max": max, "min": min}


def _compile_expr(expr: Expr, *, vectorized: bool) -> Callable[[dict], object]:
    """Lower an AST once into a closure chain (no per-call tree walk)."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Attr):
        name = expr.name
        return lambda env: env[name]
    if isinstance(expr, BinOp):
        lhs = _compile_expr(expr.lhs, vectorized=vectorized)
        rhs = _compile_expr(expr.rhs, vectorized=vectorized)
        op = _SCALAR_OPS[expr.op]
        return lambda env: op(lhs(env), rhs(env))
    if isinstance(expr, Extremum):
        lhs = _compile_expr(expr.lhs, vectorized=vectorized)
        rhs = _compile_expr(expr.rhs, vectorized=vectorized)
        ext = (_NUMPY_EXTREMA if vectorized else _SCALAR_EXTREMA)[expr.kind]
        return lambda env: ext(lhs(env), rhs(env))
    raise TypeError(f"not a rank expression: {expr!r}")


# ----------------------------------------------------------------------
# rank functions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RankFunction:
    """One discipline expressed as a rank computation at enqueue.

    Parameters
    ----------
    name:
        Registry name (addressed as ``pifo:<name>``).
    rank:
        Integer expression evaluated per arriving packet; *smaller
        rank wins*, ties broken by (arrival sequence, stream id) — the
        engines' native lexsort order.
    finish:
        Optional per-stream state update run after ranking: the
        stream's ``finish`` attribute is set to this expression's
        value.  May reference ``rank`` (the value just computed).
    vclock:
        Virtual-clock policy: ``"none"`` or ``"served_rank"``
        (``vtime = max(vtime, rank-of-serviced-packet)``, SFQ-style).
    description:
        One-line summary for docs/CLI.
    equivalent_to:
        Name of the handwritten discipline in
        :data:`repro.disciplines.registry.DISCIPLINES` this rank
        function re-expresses, if any;
        :func:`repro.core.differential.validate_rank_function` replays
        the same workload through it and checks the service order.
    """

    name: str
    rank: Expr
    finish: Expr | None = None
    vclock: str = "none"
    description: str = ""
    equivalent_to: str | None = None

    def __post_init__(self) -> None:
        if self.vclock not in ("none", "served_rank"):
            raise ValueError(f"unknown vclock policy {self.vclock!r}")
        bad = self.rank.attributes() - set(ATTRIBUTES)
        if bad:
            raise ValueError(f"unknown rank attributes: {sorted(bad)}")
        if self.finish is not None:
            bad = self.finish.attributes() - set(ATTRIBUTES) - {"rank"}
            if bad:
                raise ValueError(
                    f"unknown finish attributes: {sorted(bad)}"
                )

    # -- the three compilers -------------------------------------------

    def compile_reference(self) -> Callable[[dict[str, int]], int]:
        """Interpreted scalar evaluator: dict of Python ints -> int."""
        fn = _compile_expr(self.rank, vectorized=False)
        return lambda env: int(fn(env))

    def compile_batch(self):
        """Vectorized evaluator: dict of ``(N,)`` int64 arrays -> array."""
        fn = _compile_expr(self.rank, vectorized=True)

        def evaluate(env: dict[str, np.ndarray]) -> np.ndarray:
            out = np.asarray(fn(env), dtype=np.int64)
            if out.ndim != 1:
                raise ValueError("batch evaluator expects (N,) inputs")
            return out

        return evaluate

    def compile_tensor(self):
        """Tensorized evaluator: dict of ``(S, N)`` int64 arrays -> array."""
        fn = _compile_expr(self.rank, vectorized=True)

        def evaluate(env: dict[str, np.ndarray]) -> np.ndarray:
            out = np.asarray(fn(env), dtype=np.int64)
            if out.ndim != 2:
                raise ValueError("tensor evaluator expects (S, N) inputs")
            return out

        return evaluate

    def compile_finish(self, *, vectorized: bool):
        """Evaluator for the finish-tag update (``None`` if absent)."""
        if self.finish is None:
            return None
        return _compile_expr(self.finish, vectorized=vectorized)


#: name -> registered rank function (addressed as ``pifo:<name>``).
PIFO_RANK_FUNCTIONS: dict[str, RankFunction] = {}


def register_rank_function(fn: RankFunction) -> RankFunction:
    """Add a rank function to the ``pifo:`` registry."""
    if fn.name in PIFO_RANK_FUNCTIONS:
        raise ValueError(f"rank function {fn.name!r} already registered")
    PIFO_RANK_FUNCTIONS[fn.name] = fn
    return fn


def rank_function(name: str) -> RankFunction:
    """Look up a registered rank function by bare name."""
    try:
        return PIFO_RANK_FUNCTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown rank function {name!r}; "
            f"known: {sorted(PIFO_RANK_FUNCTIONS)}"
        ) from None


# The four handwritten disciplines re-expressed as one expression each,
# plus one brand-new hybrid that exists *only* as a rank function.

register_rank_function(
    RankFunction(
        name="fcfs",
        rank=attr("arrival"),
        description="global FIFO: rank is the arrival sequence number",
        equivalent_to="fcfs",
    )
)

register_rank_function(
    RankFunction(
        name="edf",
        rank=attr("deadline"),
        description="earliest absolute deadline first",
        equivalent_to="edf",
    )
)

register_rank_function(
    RankFunction(
        name="prio",
        # The handwritten StaticPriority scans per-stream queues in
        # (priority, stream id) order, so equal priorities tie-break by
        # sid *before* arrival; fold sid into the rank to match.
        rank=attr("priority") * 256 + attr("sid"),
        description="static priority, sid-ordered within a class",
        equivalent_to="static_priority",
    )
)

register_rank_function(
    RankFunction(
        name="sfq",
        rank=emax(attr("finish"), attr("vtime")),
        finish=attr("rank") + attr("length") // attr("weight"),
        vclock="served_rank",
        description="start-time fair queuing via integer service tags",
        equivalent_to="sfq",
    )
)

register_rank_function(
    RankFunction(
        name="prio_edf",
        rank=attr("priority") * (1 << 20) + attr("deadline"),
        description="deadline-over-priority hybrid: EDF within a class",
    )
)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PifoStream:
    """One stream in a PIFO workload.

    ``weight`` is a positive integer dividing the packet length so the
    integer tag ``length // weight`` equals the handwritten SFQ float
    tag exactly; ``priority`` is a small static class (lower = more
    urgent).
    """

    sid: int
    weight: int = 1
    priority: int = 0


@dataclass(frozen=True)
class PifoScenario:
    """A deterministic seeded workload for the PIFO frontends.

    ``arrivals[t]`` lists the cycle's arriving packets as
    ``(sid, seq, deadline, length)`` tuples in ascending-sid order;
    ``seq`` is the globally unique arrival sequence number (so the
    lexsort never reaches the sid tie-break), and per-stream deadlines
    are non-decreasing (the PIFO realizability condition).
    """

    seed: int
    n_slots: int
    n_cycles: int
    streams: tuple[PifoStream, ...]
    arrivals: tuple[tuple[tuple[int, int, int, int], ...], ...]

    @property
    def total_arrivals(self) -> int:
        return sum(len(cycle) for cycle in self.arrivals)


#: Positive divisors of the 1500-byte packet length used for weights:
#: they make ``length / weight`` an exact integer-valued float, so the
#: handwritten float-tag SFQ and the integer PIFO tags agree exactly.
_WEIGHT_CHOICES = (1, 2, 3, 4, 5, 6, 10, 12)


def generate_pifo_scenario(
    seed: int,
    *,
    n_slots: int = 8,
    n_cycles: int = 200,
    p_arrival: float = 0.45,
    packet_length: int = 1500,
    max_lead: int = 48,
) -> PifoScenario:
    """Derive a deterministic PIFO workload from an integer seed.

    Per cycle, each stream receives at most one packet (Bernoulli
    ``p_arrival``), which keeps the vectorized per-cycle rank
    evaluation order-independent; deadlines are clamped per stream to
    be non-decreasing so EDF-like ranks satisfy the per-stream
    monotonicity condition.
    """
    if n_slots & (n_slots - 1) or n_slots < 2:
        raise ValueError("n_slots must be a power of two >= 2")
    rng = random.Random(seed ^ 0x91F0)
    streams = tuple(
        PifoStream(
            sid=sid,
            weight=rng.choice(_WEIGHT_CHOICES),
            priority=rng.randrange(4),
        )
        for sid in range(n_slots)
    )
    arrivals: list[tuple[tuple[int, int, int, int], ...]] = []
    last_deadline = [0] * n_slots
    seq = itertools.count(1)
    for t in range(n_cycles):
        cycle: list[tuple[int, int, int, int]] = []
        for sid in range(n_slots):
            if rng.random() < p_arrival:
                deadline = max(
                    last_deadline[sid], t + rng.randrange(1, max_lead)
                )
                last_deadline[sid] = deadline
                cycle.append((sid, next(seq), deadline, packet_length))
        arrivals.append(tuple(cycle))
    return PifoScenario(
        seed=seed,
        n_slots=n_slots,
        n_cycles=n_cycles,
        streams=streams,
        arrivals=tuple(arrivals),
    )


# ----------------------------------------------------------------------
# engine frontends
# ----------------------------------------------------------------------


def _pifo_arch(n_slots: int) -> ArchConfig:
    """The Section 4.3 service-tag configuration with ideal arithmetic."""
    return ArchConfig(
        n_slots=n_slots,
        routing=Routing.WR,
        deadline_only=True,
        wrap=False,
    )


def _service_tag_streams(n_slots: int) -> list[StreamConfig]:
    return [
        StreamConfig(sid=sid, period=0, mode=SchedulingMode.SERVICE_TAG)
        for sid in range(n_slots)
    ]


class _StreamTable:
    """Mutable per-stream rank state shared by all frontends."""

    __slots__ = ("weight", "priority", "finish", "credits", "vtime")

    def __init__(self, streams: Sequence[PifoStream], n_slots: int) -> None:
        self.weight = np.ones(n_slots, dtype=np.int64)
        self.priority = np.zeros(n_slots, dtype=np.int64)
        for s in streams:
            if s.weight <= 0 or s.weight != int(s.weight):
                raise ValueError("weight must be a positive integer")
            self.weight[s.sid] = s.weight
            self.priority[s.sid] = s.priority
        self.finish = np.zeros(n_slots, dtype=np.int64)
        self.credits = np.zeros(n_slots, dtype=np.int64)
        self.vtime = 0


class PifoFrontend:
    """Rank-function frontend for the reference and batch engines.

    The engine runs the ``deadline_only`` simple-comparator
    configuration; this frontend computes ranks (interpreted per packet
    for ``engine="reference"``, one vectorized ``(N,)`` evaluation per
    cycle for ``engine="batch"``), deposits them into the deadline
    field, and applies the virtual-clock/credit updates on service.
    """

    def __init__(
        self,
        fn: RankFunction,
        scenario: PifoScenario,
        *,
        engine: str = "reference",
    ) -> None:
        if engine not in ("reference", "batch"):
            raise ValueError(f"unknown pifo engine {engine!r}")
        self.fn = fn
        self.scenario = scenario
        self.engine = engine
        n = scenario.n_slots
        config = _pifo_arch(n)
        streams = _service_tag_streams(n)
        if engine == "reference":
            self.scheduler = ShareStreamsScheduler(config, streams)
        else:
            from repro.core.batch_engine import BatchScheduler

            self.scheduler = BatchScheduler(config, streams)
        self.table = _StreamTable(scenario.streams, n)
        self._sid_axis = np.arange(n, dtype=np.int64)
        if engine == "reference":
            self._rank_fn = fn.compile_reference()
            self._finish_fn = fn.compile_finish(vectorized=False)
        else:
            self._rank_fn = fn.compile_batch()
            self._finish_fn = fn.compile_finish(vectorized=True)
        self.services: list[tuple[int, int, int, int]] = []
        self.enqueued = 0

    # -- enqueue-side rank computation ---------------------------------

    def _rank_cycle_reference(
        self, cycle: Sequence[tuple[int, int, int, int]]
    ) -> list[int]:
        table = self.table
        ranks: list[int] = []
        for sid, seq, deadline, length in cycle:
            env = {
                "deadline": deadline,
                "arrival": seq,
                "length": length,
                "sid": sid,
                "weight": int(table.weight[sid]),
                "priority": int(table.priority[sid]),
                "finish": int(table.finish[sid]),
                "credits": int(table.credits[sid]),
                "vtime": table.vtime,
            }
            rank = self._rank_fn(env)
            if self._finish_fn is not None:
                env["rank"] = rank
                table.finish[sid] = int(self._finish_fn(env))
            ranks.append(rank)
        return ranks

    def _rank_cycle_batch(
        self, cycle: Sequence[tuple[int, int, int, int]]
    ) -> list[int]:
        table = self.table
        n = self.scenario.n_slots
        deadline = np.zeros(n, dtype=np.int64)
        arrival = np.zeros(n, dtype=np.int64)
        length = np.ones(n, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        for sid, seq, dl, ln in cycle:
            mask[sid] = True
            deadline[sid] = dl
            arrival[sid] = seq
            length[sid] = ln
        env = {
            "deadline": deadline,
            "arrival": arrival,
            "length": length,
            "sid": self._sid_axis,
            "weight": table.weight,
            "priority": table.priority,
            "finish": table.finish,
            "credits": table.credits,
            "vtime": np.full(n, table.vtime, dtype=np.int64),
        }
        ranks = self._rank_fn(env)
        if self._finish_fn is not None:
            env["rank"] = ranks
            updated = np.asarray(self._finish_fn(env), dtype=np.int64)
            table.finish = np.where(mask, updated, table.finish)
        return [int(ranks[sid]) for sid, _seq, _dl, _ln in cycle]

    # -- one decision cycle --------------------------------------------

    def step(self, t: int, cycle: Sequence[tuple[int, int, int, int]]) -> None:
        """Enqueue the cycle's arrivals, then run one decision."""
        if cycle:
            if self.engine == "reference":
                ranks = self._rank_cycle_reference(cycle)
            else:
                ranks = self._rank_cycle_batch(cycle)
            for (sid, seq, _deadline, length), rank in zip(cycle, ranks):
                self.scheduler.enqueue(
                    sid, deadline=rank, arrival=seq, length=length
                )
                self.enqueued += 1
        outcome = self.scheduler.decision_cycle(
            t, consume="winner", count_misses=False
        )
        if outcome.circulated_sid is not None:
            sid = outcome.circulated_sid
            _, packet = outcome.serviced[0]
            self.services.append((t, sid, packet.arrival, packet.deadline))
            self.table.credits[sid] += 1
            if self.fn.vclock == "served_rank":
                self.table.vtime = max(self.table.vtime, packet.deadline)

    def run(self) -> dict:
        """Play the whole scenario (arrival phase + drain) and summarize."""
        t = 0
        for t, cycle in enumerate(self.scenario.arrivals):
            self.step(t, cycle)
        t = self.scenario.n_cycles
        while len(self.services) < self.enqueued:
            self.step(t, ())
            t += 1
        return _summarize(self.fn, self.scenario, self)


class PifoCampaignFrontend:
    """Tensorized rank-function frontend: S same-shape scenarios at once.

    One ``(S, N)`` rank evaluation per cycle feeds a single
    :class:`CampaignEngine` holding every scenario's slot state; the
    per-scenario virtual clocks and credit counters advance from the
    lockstep decision outcomes.
    """

    def __init__(
        self, fn: RankFunction, scenarios: Sequence[PifoScenario]
    ) -> None:
        if not scenarios:
            raise ValueError("need at least one scenario")
        shapes = {(s.n_slots, s.n_cycles) for s in scenarios}
        if len(shapes) > 1:
            raise ValueError(
                f"scenarios must share (n_slots, n_cycles); got {shapes}"
            )
        self.fn = fn
        self.scenarios = list(scenarios)
        s_count = len(self.scenarios)
        n = self.scenarios[0].n_slots
        self._s = s_count
        self._n = n
        self.engine = CampaignEngine(
            _pifo_arch(n),
            [_service_tag_streams(n) for _ in range(s_count)],
        )
        self._rank_fn = fn.compile_tensor()
        self._finish_fn = fn.compile_finish(vectorized=True)
        shape = (s_count, n)
        self._weight = np.ones(shape, dtype=np.int64)
        self._priority = np.zeros(shape, dtype=np.int64)
        for s, scenario in enumerate(self.scenarios):
            for stream in scenario.streams:
                if stream.weight <= 0 or stream.weight != int(stream.weight):
                    raise ValueError("weight must be a positive integer")
                self._weight[s, stream.sid] = stream.weight
                self._priority[s, stream.sid] = stream.priority
        self._finish = np.zeros(shape, dtype=np.int64)
        self._credits = np.zeros(shape, dtype=np.int64)
        self._vtime = np.zeros(s_count, dtype=np.int64)
        self._sid2d = np.broadcast_to(np.arange(n, dtype=np.int64), shape)
        self.services: list[list[tuple[int, int, int, int]]] = [
            [] for _ in range(s_count)
        ]
        self.enqueued = [0] * s_count

    def _step(self, t: int) -> None:
        s_count, n = self._s, self._n
        shape = (s_count, n)
        deadline = np.zeros(shape, dtype=np.int64)
        arrival = np.zeros(shape, dtype=np.int64)
        length = np.ones(shape, dtype=np.int64)
        mask = np.zeros(shape, dtype=bool)
        any_arrival = False
        for s, scenario in enumerate(self.scenarios):
            if t >= scenario.n_cycles:
                continue
            for sid, seq, dl, ln in scenario.arrivals[t]:
                mask[s, sid] = True
                deadline[s, sid] = dl
                arrival[s, sid] = seq
                length[s, sid] = ln
                any_arrival = True
        if any_arrival:
            env = {
                "deadline": deadline,
                "arrival": arrival,
                "length": length,
                "sid": self._sid2d,
                "weight": self._weight,
                "priority": self._priority,
                "finish": self._finish,
                "credits": self._credits,
                "vtime": np.broadcast_to(
                    self._vtime[:, None], shape
                ).astype(np.int64),
            }
            ranks = self._rank_fn(env)
            if self._finish_fn is not None:
                env["rank"] = ranks
                updated = np.asarray(self._finish_fn(env), dtype=np.int64)
                self._finish = np.where(mask, updated, self._finish)
            for s, scenario in enumerate(self.scenarios):
                if t >= scenario.n_cycles:
                    continue
                for sid, seq, _dl, ln in scenario.arrivals[t]:
                    self.engine.enqueue(
                        s,
                        sid,
                        deadline=int(ranks[s, sid]),
                        arrival=seq,
                        length=ln,
                    )
                    self.enqueued[s] += 1
        outcomes = self.engine.decision_cycle_all(
            t, consume="winner", count_misses=False
        )
        for s, outcome in enumerate(outcomes):
            if outcome.circulated_sid is None:
                continue
            sid = outcome.circulated_sid
            _, packet = outcome.serviced[0]
            self.services[s].append((t, sid, packet.arrival, packet.deadline))
            self._credits[s, sid] += 1
            if self.fn.vclock == "served_rank":
                self._vtime[s] = max(
                    int(self._vtime[s]), packet.deadline
                )

    def run(self) -> list[dict]:
        """Run all scenarios in lockstep; one summary per scenario."""
        n_cycles = self.scenarios[0].n_cycles
        t = 0
        for t in range(n_cycles):
            self._step(t)
        t = n_cycles
        while any(
            len(self.services[s]) < self.enqueued[s] for s in range(self._s)
        ):
            self._step(t)
            t += 1
        return [
            _summarize(self.fn, scenario, _CampaignView(self, s))
            for s, scenario in enumerate(self.scenarios)
        ]


class _CampaignView:
    """Adapts one campaign row to the summary contract of PifoFrontend."""

    def __init__(self, frontend: PifoCampaignFrontend, s: int) -> None:
        self.services = frontend.services[s]
        self.enqueued = frontend.enqueued[s]
        self._frontend = frontend
        self._s = s

    def counters(self):
        return self._frontend.engine.counters(self._s)

    @property
    def vtime(self) -> int:
        return int(self._frontend._vtime[self._s])


def _summarize(fn: RankFunction, scenario: PifoScenario, state) -> dict:
    """Canonical engine-independent run summary (byte-compared)."""
    if isinstance(state, PifoFrontend):
        counters = state.scheduler.counters()
        vtime = state.table.vtime
    else:
        counters = state.counters()
        vtime = state.vtime
    per_stream: dict[str, int] = {}
    for _t, sid, _seq, _rank in state.services:
        key = str(sid)
        per_stream[key] = per_stream.get(key, 0) + 1
    return {
        "format": 1,
        "discipline": fn.name,
        "seed": scenario.seed,
        "n_slots": scenario.n_slots,
        "n_cycles": scenario.n_cycles,
        "enqueued": state.enqueued,
        "services": [list(evt) for evt in state.services],
        "per_stream": per_stream,
        "final_vtime": int(vtime),
        "wins": [counters[sid].wins for sid in range(scenario.n_slots)],
        "serviced": [
            counters[sid].serviced for sid in range(scenario.n_slots)
        ],
    }


def run_pifo(
    fn: RankFunction | str, scenario: PifoScenario, *, engine: str = "reference"
) -> dict:
    """Run one rank function over one scenario on one engine.

    Returns the canonical summary dict; byte-identical across the
    three engines for any well-formed rank function.
    """
    if isinstance(fn, str):
        fn = rank_function(fn)
    if engine in ("reference", "batch"):
        return PifoFrontend(fn, scenario, engine=engine).run()
    if engine == "tensor":
        return PifoCampaignFrontend(fn, [scenario]).run()[0]
    raise ValueError(f"unknown pifo engine {engine!r}")


def run_pifo_bucket(
    fn: RankFunction | str, scenarios: Sequence[PifoScenario]
) -> list[dict]:
    """Tensorized bucket run: all same-shape scenarios in one engine."""
    if isinstance(fn, str):
        fn = rank_function(fn)
    return PifoCampaignFrontend(fn, scenarios).run()


# ----------------------------------------------------------------------
# software PIFO (registry-facing Discipline)
# ----------------------------------------------------------------------


class PifoDiscipline(Discipline):
    """A software PIFO driven by a rank function.

    A single priority queue ordered by ``(rank, arrival, seq)``; the
    interpreted evaluator computes the rank at enqueue.  Exists so rank
    functions are first-class citizens of
    :mod:`repro.disciplines.registry` (``create("pifo:<name>")``) next
    to their handwritten counterparts.
    """

    name = "pifo"

    def __init__(self, fn: RankFunction | str) -> None:
        super().__init__()
        if isinstance(fn, str):
            fn = rank_function(fn)
        self.fn = fn
        self.name = f"pifo:{fn.name}"
        self._rank_fn = fn.compile_reference()
        self._finish_fn = fn.compile_finish(vectorized=False)
        self._heap: list[tuple[int, float, int, Packet]] = []
        self._seq = itertools.count()
        self._finish: dict[int, int] = {}
        self._credits: dict[int, int] = {}
        self.virtual_time = 0

    def _on_stream_added(self, stream: SwStream) -> None:
        if stream.weight != int(stream.weight) or stream.weight <= 0:
            raise ValueError(
                "pifo disciplines need positive integer weights"
            )
        self._finish[stream.stream_id] = 0
        self._credits[stream.stream_id] = 0

    def enqueue(self, packet: Packet) -> None:
        stream = self.streams[packet.stream_id]
        sid = packet.stream_id
        env = {
            "deadline": int(packet.deadline or 0),
            "arrival": int(packet.arrival),
            "length": packet.length,
            "sid": sid,
            "weight": int(stream.weight),
            "priority": stream.priority,
            "finish": self._finish[sid],
            "credits": self._credits[sid],
            "vtime": self.virtual_time,
        }
        rank = self._rank_fn(env)
        if self._finish_fn is not None:
            env["rank"] = rank
            self._finish[sid] = int(self._finish_fn(env))
        packet.tag = float(rank)
        heapq.heappush(
            self._heap, (rank, packet.arrival, next(self._seq), packet)
        )
        self._note_enqueued()

    def dequeue(self, now: float) -> Packet | None:
        if not self._heap:
            return None
        rank, _arrival, _seq, packet = heapq.heappop(self._heap)
        self._credits[packet.stream_id] += 1
        if self.fn.vclock == "served_rank":
            self.virtual_time = max(self.virtual_time, rank)
        self._note_dequeued()
        return packet
