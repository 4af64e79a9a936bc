"""Programmable PIFO rank-function disciplines over the unified core.

Sivaraman et al. (*Programmable Packet Scheduling at Line Rate*,
arXiv:1602.06045) observe that a large family of scheduling disciplines
decomposes into "compute a rank at enqueue, insert into a Push-In
First-Out queue".  The ShareStreams core has exactly the dual shape:
decide a winner per cycle from per-stream attributes.  This module is
the bridge: a :class:`RankFunction` is a small integer expression over
packet/stream attributes which is *compiled two ways* —

* an interpreted reference evaluator (plain Python ints) driving the
  cycle-level :class:`~repro.core.scheduler.ShareStreamsScheduler`, and
* a tensorized ``(S, N)`` NumPy evaluator driving
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
division, so the two evaluators are bit-equivalent by construction,
and ``campaign(seeds, kind=RankKind(...))``
(:func:`repro.core.differential.campaign`, :class:`RankKind`) checks
the resulting run summaries byte-for-byte.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, Routing
from repro.core.differential import Divergence, Kind, compare_summaries
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
    "RankKind",
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
        function re-expresses, if any; a :class:`RankKind` campaign
        replays the same workload through it and checks the service
        order.
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

    # -- the compilers -------------------------------------------------

    def compile_reference(self) -> Callable[[dict[str, int]], int]:
        """Interpreted scalar evaluator: dict of Python ints -> int."""
        fn = _compile_expr(self.rank, vectorized=False)
        return lambda env: int(fn(env))

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

    def describe(self) -> str:
        return (
            f"seed={self.seed} n_slots={self.n_slots} "
            f"cycles={self.n_cycles} arrivals={self.total_arrivals}"
        )


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


class PifoFrontend:
    """Rank-function frontend for the reference engine.

    The engine runs the ``deadline_only`` simple-comparator
    configuration; this frontend computes ranks (interpreted per
    packet), deposits them into the deadline field, and applies the
    virtual-clock/credit updates on service.
    """

    def __init__(self, fn: RankFunction, scenario: PifoScenario) -> None:
        self.fn = fn
        self.scenario = scenario
        n = scenario.n_slots
        self.scheduler = ShareStreamsScheduler(
            _pifo_arch(n), _service_tag_streams(n)
        )
        self._weight = [1] * n
        self._priority = [0] * n
        for stream in scenario.streams:
            if stream.weight <= 0 or stream.weight != int(stream.weight):
                raise ValueError("weight must be a positive integer")
            self._weight[stream.sid] = stream.weight
            self._priority[stream.sid] = stream.priority
        self._finish = [0] * n
        self._credits = [0] * n
        self.vtime = 0
        self._rank_fn = fn.compile_reference()
        self._finish_fn = fn.compile_finish(vectorized=False)
        self.services: list[tuple[int, int, int, int]] = []
        self.enqueued = 0

    # -- enqueue-side rank computation ---------------------------------

    def _rank_cycle_reference(
        self, cycle: Sequence[tuple[int, int, int, int]]
    ) -> list[int]:
        ranks: list[int] = []
        for sid, seq, deadline, length in cycle:
            env = {
                "deadline": deadline,
                "arrival": seq,
                "length": length,
                "sid": sid,
                "weight": self._weight[sid],
                "priority": self._priority[sid],
                "finish": self._finish[sid],
                "credits": self._credits[sid],
                "vtime": self.vtime,
            }
            rank = self._rank_fn(env)
            if self._finish_fn is not None:
                env["rank"] = rank
                self._finish[sid] = self._finish_fn(env)
            ranks.append(rank)
        return ranks

    # -- one decision cycle --------------------------------------------

    def step(self, t: int, cycle: Sequence[tuple[int, int, int, int]]) -> None:
        """Enqueue the cycle's arrivals, then run one decision."""
        if cycle:
            ranks = self._rank_cycle_reference(cycle)
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
            self._credits[sid] += 1
            if self.fn.vclock == "served_rank":
                self.vtime = max(self.vtime, packet.deadline)

    def run(self) -> dict:
        """Play the whole scenario (arrival phase + drain) and summarize."""
        t = 0
        for t, cycle in enumerate(self.scenario.arrivals):
            self.step(t, cycle)
        t = self.scenario.n_cycles
        while len(self.services) < self.enqueued:
            self.step(t, ())
            t += 1
        return _summarize(
            self.fn, self.scenario, self.services, self.enqueued,
            self.scheduler.counters(), self.vtime,
        )


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
            _summarize(
                self.fn, scenario, self.services[s], self.enqueued[s],
                self.engine.counters(s), int(self._vtime[s]),
            )
            for s, scenario in enumerate(self.scenarios)
        ]


def _summarize(
    fn: RankFunction, scenario: PifoScenario, services, enqueued: int,
    counters, vtime: int,
) -> dict:
    """Canonical engine-independent run summary (byte-compared)."""
    per_stream: dict[str, int] = {}
    for _t, sid, _seq, _rank in services:
        key = str(sid)
        per_stream[key] = per_stream.get(key, 0) + 1
    return {
        "format": 1,
        "discipline": fn.name,
        "seed": scenario.seed,
        "n_slots": scenario.n_slots,
        "n_cycles": scenario.n_cycles,
        "enqueued": enqueued,
        "services": [list(evt) for evt in services],
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
    two engines for any well-formed rank function.
    """
    if isinstance(fn, str):
        fn = rank_function(fn)
    if engine == "reference":
        return PifoFrontend(fn, scenario).run()
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
# validation campaign kind
# ----------------------------------------------------------------------


def _software_service_order(fn: RankFunction, scenario: PifoScenario):
    """Replay a PIFO workload through the handwritten counterpart.

    Returns the ``(sid, seq)`` service order of
    ``registry.create(fn.equivalent_to)`` under the same arrivals: one
    batch of enqueues then at most one dequeue per cycle, followed by a
    work-conserving drain — the exact regime the engine frontends run.
    """
    from repro.disciplines import registry

    discipline = registry.create(fn.equivalent_to)
    for s in scenario.streams:
        discipline.add_stream(
            SwStream(stream_id=s.sid, weight=s.weight, priority=s.priority)
        )
    order: list[tuple[int, int]] = []
    enqueued = now = 0
    while now < scenario.n_cycles or len(order) < enqueued:
        for sid, seq, deadline, length in (
            scenario.arrivals[now] if now < scenario.n_cycles else ()
        ):
            discipline.enqueue(
                Packet(sid, seq, arrival=seq, length=length, deadline=deadline)
            )
            enqueued += 1
        packet = discipline.dequeue(now)
        if packet is not None:
            order.append((packet.stream_id, packet.seq))
        elif now >= scenario.n_cycles:
            raise AssertionError(
                f"{discipline.name} stalled with backlog during drain"
            )
        now += 1
    return order


@dataclass(frozen=True)
class RankKind(Kind):
    """Validation campaign kind for PIFO rank functions.

    Each seed's :func:`generate_pifo_scenario` workload runs through
    every one of ``functions`` on the reference and (one bucket for all
    seeds) tensorized frontends; the run summaries must be
    byte-identical.  Invariant: a function with ``equivalent_to``
    serves packets in that handwritten discipline's order.  Fields name
    the function (``pifo:sfq.services``, ``pifo:sfq.service_order``)::

        campaign(range(20), kind=RankKind((my_rank_fn,)), n_cycles=200)
    """

    functions: tuple[RankFunction, ...]
    n_slots: int = 8

    name: ClassVar[str] = "rank"
    axes: ClassVar[tuple[str, ...]] = ("rank_functions", "equivalent_to")

    def __post_init__(self) -> None:
        if not self.functions or not all(
            isinstance(fn, RankFunction) for fn in self.functions
        ):
            raise ValueError("RankKind needs a non-empty tuple of RankFunction")

    def generate(self, seed: int, n_cycles: int) -> PifoScenario:
        return generate_pifo_scenario(seed, n_slots=self.n_slots, n_cycles=n_cycles)

    def bucket_key(self, scenario: PifoScenario) -> tuple:
        return (scenario.n_slots, scenario.n_cycles)

    def cache_payload(self, scenario: PifoScenario) -> dict:
        """The workload and each function's whole definition (its
        expression trees too), so an edited function never hits an
        entry cached under its name."""
        return {
            "mode": "outcome",
            "engines": ["reference", "tensor"],
            "rank_functions": [asdict(fn) for fn in self.functions],
            "scenario": {
                "seed": scenario.seed,
                "n_slots": scenario.n_slots,
                "n_cycles": scenario.n_cycles,
                "streams": [asdict(s) for s in scenario.streams],
            },
        }

    def coverage(self, scenario: PifoScenario) -> dict[str, tuple[str, ...]]:
        return {
            "rank_functions": tuple(f"pifo:{fn.name}" for fn in self.functions),
            "equivalent_to": tuple(
                fn.equivalent_to for fn in self.functions if fn.equivalent_to
            ),
        }

    def run_oracle(self, scenario: PifoScenario) -> list[dict]:
        return [run_pifo(fn, scenario) for fn in self.functions]

    def run_array(self, scenarios: list, *, stats, tracer) -> list:
        return list(zip(*(run_pifo_bucket(fn, scenarios) for fn in self.functions)))

    def compare(self, scenario: PifoScenario, oracle, array) -> Divergence | None:
        for fn, reference, tensor in zip(self.functions, oracle, array):
            divergence = compare_summaries(
                scenario, reference, tensor, label=f"pifo:{fn.name}."
            )
            if divergence is not None:
                return divergence
        return None

    def invariants(self, scenario: PifoScenario, oracle) -> Divergence | None:
        for fn, summary in zip(self.functions, oracle):
            if fn.equivalent_to is None:
                continue
            served = [(sid, seq) for _t, sid, seq, _rank in summary["services"]]
            expected = _software_service_order(fn, scenario)
            if served == expected:
                continue
            first = next(
                i
                for i, pair in enumerate(zip(served + [None], expected + [None]))
                if pair[0] != pair[1]
            )
            return Divergence(
                scenario,
                summary["services"][first][0] if first < len(served) else None,
                f"pifo:{fn.name}.service_order",
                served[first:first + 3],
                {fn.equivalent_to: expected[first:first + 3]},
                invariant=True,
            )
        return None


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
