"""Both sides of the per-cycle shape rule, against each other and the oracle.

:meth:`~repro.core.tensor_engine.CampaignEngine.decision_cycle_all`
ranks each row in plain Python at or below ``DRIVER_MAX_CELLS``
scenario-slots, and with :func:`~repro.core.tensor_engine.table2_rank_order`
over ``(S, N)`` arrays above it.  Each test here forces one side by
pinning the constant and drives both through the same random
enqueue/decide sequence, over the per-cycle flag matrix: routing, block
mode, sorting schedule, ``deadline_only``, ``wrap``, the three consume
policies, miss counting and drop-late.  The two sides must agree on
every :class:`~repro.core.scheduler.DecisionOutcome` (packets
included), the counters, the control accounting and the recorded
phase spans' canonical tags (their call counts), and each row must
equal its own :class:`~repro.core.scheduler.ShareStreamsScheduler`
replay.  The side is fixed when the engine is built, so a pinned engine
keeps its side after the pin is lifted: :class:`TestRowStateAcrossTheSurface`
drives both sides and the oracle rows in lockstep through the calls
that meet the per-slot state from outside a decision cycle.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tensor_engine
from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.differential import _arrival_schedule, build_engine
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import CampaignEngine
from repro.observability import SpanTracer
from tests.strategies import differential_scenarios

#: ``DRIVER_MAX_CELLS`` values that force each side at any test shape.
SIDES = {"numpy": 0, "python": 1 << 30}

MODES = (
    SchedulingMode.DWCS,
    SchedulingMode.FAIR_SHARE,
    SchedulingMode.EDF,
    SchedulingMode.STATIC_PRIORITY,
)


def _streams(rng: random.Random, n: int) -> list[StreamConfig]:
    """A random subset of loaded slots (at least one) with random modes."""
    sids = sorted(rng.sample(range(n), rng.randint(1, n)))
    streams = []
    for sid in sids:
        mode = rng.choice(MODES)
        y = rng.randint(0, 5)
        streams.append(
            StreamConfig(
                sid=sid,
                period=rng.randint(1, 4),
                loss_numerator=rng.randint(0, y),
                loss_denominator=y,
                mode=mode,
            )
        )
    return streams


def _script(rng, rows, times, enqueue_p):
    """Per cycle: ``(now, enqueues per row, drop_late per row)``.

    Deadlines sit a few units either side of ``now``, so heads go late
    while queued; arrivals are the enqueue time.  Under ``wrap`` every
    live time stays well inside half the 16-bit horizon of ``now``.
    """
    script = []
    for now in times:
        enqueues = []
        for streams in rows:
            row = []
            for stream in streams:
                while rng.random() < enqueue_p:
                    row.append((
                        stream.sid,
                        max(now + rng.randint(-2, 10), 0),
                        now,
                        rng.choice((64, 1500)),
                    ))
            enqueues.append(row)
        drops = [rng.random() < 0.2 for _ in rows]
        script.append((now, enqueues, drops))
    return script


def _run_side(side, arch, rows, script, policies):
    consume, count_misses = policies
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_engine, "DRIVER_MAX_CELLS", SIDES[side])
        engine = CampaignEngine(arch, rows, tracer=SpanTracer(side))
        outcomes = []
        for now, enqueues, drops in script:
            for s, row in enumerate(enqueues):
                for sid, deadline, arrival, length in row:
                    engine.enqueue(s, sid, deadline, arrival, length)
            outcomes.append(
                engine.decision_cycle_all(
                    now,
                    consume=consume,
                    count_misses=count_misses,
                    drop_late=drops,
                )
            )
    return engine, outcomes


def _oracle_row(arch, streams, script, s, consume, count_misses):
    oracle = ShareStreamsScheduler(arch, streams)
    outcomes = []
    for now, enqueues, drops in script:
        for sid, deadline, arrival, length in enqueues[s]:
            oracle.enqueue(sid, deadline, arrival, length)
        outcomes.append(
            oracle.decision_cycle(
                now,
                consume=consume,
                count_misses=count_misses,
                drop_late=drops[s],
            )
        )
    return oracle, outcomes


def _check_sides_and_oracle(arch, rows, script, policies):
    engines = {}
    outcomes = {}
    for side in SIDES:
        engines[side], outcomes[side] = _run_side(
            side, arch, rows, script, policies
        )
    py, np_ = engines["python"], engines["numpy"]
    assert outcomes["python"] == outcomes["numpy"]
    for s in range(len(rows)):
        assert py.counters(s) == np_.counters(s)
    assert py.control.hw_cycle == np_.control.hw_cycle
    assert py.control.decision_cycles == np_.control.decision_cycles
    calls = {}
    for side, engine in engines.items():
        engine.record_phases()
        calls[side] = [
            (r.name, r.tags) for r in engine.tracer.records() if r.kind == "phase"
        ]
    assert calls["python"] == calls["numpy"]
    assert calls["python"] == [
        ("schedule", {"calls": len(script)}),
        ("priority_update", {"calls": len(script)}),
        ("fast_forward", {"calls": 0, "cycles": 0}),
    ]

    consume, count_misses = policies
    for s, streams in enumerate(rows):
        oracle, expected = _oracle_row(
            arch, streams, script, s, consume[s], count_misses[s]
        )
        assert [cycle[s] for cycle in outcomes["python"]] == expected
        assert py.counters(s) == oracle.counters()
        for stream in streams:
            view, block = py.slot(s, stream.sid), oracle.slot(stream.sid)
            assert view.head == block.head
            assert view.pending == list(block.pending)
    return outcomes["python"]


class TestDecisionDispatch:
    """The Python rank == the NumPy rank == the oracle, per cycle."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s_count=st.sampled_from([1, 2]),
        n=st.sampled_from([2, 4, 8]),
        routing=st.sampled_from(list(Routing)),
        block_mode=st.sampled_from(list(BlockMode)),
        schedule=st.sampled_from(["paper", "bitonic"]),
        deadline_only=st.booleans(),
        wrap=st.booleans(),
    )
    def test_sides_agree_with_each_other_and_the_oracle(
        self, seed, s_count, n, routing, block_mode, schedule,
        deadline_only, wrap,
    ):
        rng = random.Random(seed)
        arch = ArchConfig(
            n_slots=n,
            routing=routing,
            block_mode=block_mode,
            schedule=schedule,
            deadline_only=deadline_only,
            wrap=wrap,
        )
        rows = [_streams(rng, n) for _ in range(s_count)]
        # Wrapped runs start just below 2^15 or 2^16 and cross it.
        start = rng.choice((2**15 - 60, 2**16 - 60)) if wrap else 0
        cycles = 120
        script = _script(
            rng, rows, range(start, start + cycles),
            enqueue_p=rng.choice((0.2, 0.45)),
        )
        legal = ("winner", "none") if arch.winner_only else (
            "winner", "block", "none"
        )
        policies = (
            [rng.choice(legal) for _ in rows],
            [rng.choice((True, False)) for _ in rows],
        )
        _check_sides_and_oracle(arch, rows, script, policies)

    def test_wrapped_run_crosses_both_serial_boundaries(self):
        """One ``wrap=True`` run whose ``now`` steps past 2^15 and 2^16.

        ``now`` advances 331 units a cycle over 200 cycles.  Drop-late
        sheds every stale head each cycle, so the live heads are the
        ones enqueued at ``now`` and serial order stays well defined.
        """
        rng = random.Random(7)
        arch = ArchConfig(
            n_slots=4, routing=Routing.BA, block_mode=BlockMode.MIN_FIRST,
            wrap=True,
        )
        rows = [_streams(random.Random(s), 4) for s in (1, 2)]
        times = [100 + 331 * k for k in range(200)]
        assert times[0] < 2**15 < times[-1] and 2**16 < times[-1] < 2**17
        script = [
            (now, enqueues, [True, True])
            for now, enqueues, _ in _script(rng, rows, times, 0.4)
        ]
        outcomes = _check_sides_and_oracle(
            arch, rows, script, (["block", "winner"], [True, True])
        )
        served = sum(
            len(outcome.serviced) for cycle in outcomes for outcome in cycle
        )
        dropped = sum(
            len(outcome.dropped) for cycle in outcomes for outcome in cycle
        )
        assert served and dropped


_SERIAL = 1 << 16


def _shifted_run(scenario, engine: str, shift: int):
    """Replay ``scenario`` with every time moved ``shift`` units later.

    ``now``, deadlines, arrivals and each stream's ``initial_deadline``
    all move; the observables come back with their times taken
    ``- shift`` mod 2^16, so a run that serial arithmetic handles right
    returns the unshifted run's observables.
    """
    streams = tuple(
        replace(s, initial_deadline=(s.initial_deadline + shift) % _SERIAL)
        for s in scenario.streams
    )
    sched = build_engine(replace(scenario, streams=streams), engine)

    def time(value: int) -> int:
        return (value - shift) % _SERIAL

    records = []
    for t, (arrivals, drop) in enumerate(_arrival_schedule(scenario)):
        for sid, deadline, arrival in arrivals:
            sched.enqueue(sid, deadline + shift, arrival + shift)
        outcome = sched.decision_cycle(
            t + shift,
            consume=scenario.consume,
            count_misses=scenario.count_misses,
            drop_late=drop,
        )
        records.append(
            (
                time(outcome.now),
                outcome.block,
                outcome.circulated_sid,
                [
                    (sid, time(p.deadline), time(p.arrival), p.length)
                    for sid, p in outcome.serviced
                ],
                outcome.misses,
                outcome.hw_cycles,
                [
                    (sid, time(p.deadline), time(p.arrival))
                    for sid, p in outcome.dropped
                ],
            )
        )
    return records, sched.counters()


class TestSerialWrapAgainstIdealTime:
    """A ``wrap=True`` run that crosses 2^15 or 2^16 must equal the same
    run far from any boundary, where serial order is plain integer
    order — not just agree across the two engines."""

    @pytest.mark.parametrize("engine", ["reference", "tensor"])
    @settings(max_examples=15, deadline=None)
    @given(scenario=differential_scenarios(n_cycles=300, max_slots=16))
    def test_shift_across_serial_boundaries_is_invisible(self, engine, scenario):
        scenario = replace(scenario, wrap=True)
        base = _shifted_run(scenario, engine, 0)
        assert base[0][-1][0] < 2**15
        for boundary in (2**15, 2**16):
            shift = boundary - scenario.n_cycles // 2
            assert _shifted_run(scenario, engine, shift) == base, (
                f"seed {scenario.seed} shifted across {boundary}"
            )


class TestShapeDispatch:
    """Which side runs: S×N against ``DRIVER_MAX_CELLS``."""

    @pytest.fixture()
    def rank_calls(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        real = tensor_engine.table2_rank_order

        def spy(**operands):
            calls.append(operands["invalid"].shape)
            return real(**operands)

        monkeypatch.setattr(tensor_engine, "table2_rank_order", spy)
        return calls

    @pytest.mark.parametrize("routing", list(Routing))
    def test_constant_splits_the_shapes(self, rank_calls, routing):
        limit = tensor_engine.DRIVER_MAX_CELLS
        extended = limit > 32
        arch = ArchConfig(
            n_slots=limit, routing=routing, wrap=False, extended=extended
        )
        streams = [
            StreamConfig(sid=i, period=1, extended=extended)
            for i in range(limit)
        ]
        for s_count in (1, 2):
            engine = CampaignEngine(arch, [streams] * s_count)
            for s in range(s_count):
                engine.enqueue(s, 0, deadline=3, arrival=0)
            engine.decision_cycle_all(0)
        assert rank_calls == [(2, limit)]

    def test_side_is_fixed_at_construction(self, rank_calls):
        """Moving the bound after construction moves no engine."""
        arch = ArchConfig(n_slots=4, wrap=False)
        streams = [StreamConfig(sid=i, period=1) for i in range(4)]
        engines = {side: _pinned(side, arch, [streams]) for side in SIDES}
        for side, engine in engines.items():
            assert engine.cycle_side == side
            engine.enqueue(0, 0, deadline=3, arrival=0)
            engine.decision_cycle_all(0)
        assert rank_calls == [(1, 4)]


def _pinned(side: str, arch, rows, **kwargs) -> CampaignEngine:
    """A campaign built with ``side`` forced; it keeps that side."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_engine, "DRIVER_MAX_CELLS", SIDES[side])
        return CampaignEngine(arch, rows, **kwargs)


class _Lockstep:
    """Both sides of one campaign and each row's oracle, driven
    together; every call checks that they agree."""

    def __init__(self, arch, rows):
        self.engines = {
            side: _pinned(side, arch, rows, tracer=SpanTracer(side))
            for side in SIDES
        }
        self.oracles = [ShareStreamsScheduler(arch, streams) for streams in rows]
        self.rows = [list(streams) for streams in rows]
        self.cycles = 0
        self.idle_calls = 0
        self.idle_cycles = 0

    @property
    def has_pending(self) -> bool:
        pending = {side: e.has_pending for side, e in self.engines.items()}
        assert pending["python"] == pending["numpy"]
        return pending["python"]

    def load(self, s: int, stream: StreamConfig) -> None:
        for engine in self.engines.values():
            engine.load_stream(s, stream)
        self.oracles[s].load_stream(stream)
        self.rows[s].append(stream)

    def enqueue(self, s, sid, deadline, arrival, length) -> None:
        for engine in self.engines.values():
            engine.enqueue(s, sid, deadline, arrival, length)
        self.oracles[s].enqueue(sid, deadline, arrival, length)

    def decide(self, now, consume, count_misses, drop_late) -> None:
        expected = [
            oracle.decision_cycle(
                now,
                consume=consume[s],
                count_misses=count_misses[s],
                drop_late=drop_late[s],
            )
            for s, oracle in enumerate(self.oracles)
        ]
        for side, engine in self.engines.items():
            outcomes = engine.decision_cycle_all(
                now,
                consume=consume,
                count_misses=count_misses,
                drop_late=drop_late,
            )
            assert outcomes == expected, f"{side} side at now={now}"
        self.cycles += 1

    def advance_idle(self, now: int, count: int) -> None:
        """The engines skip ``count`` idle cycles in bulk; each oracle
        decides them one by one."""
        assert not self.has_pending
        for engine in self.engines.values():
            engine.advance_idle(count)
            idle = [engine.idle_outcome(now + k) for k in range(count)]
        for oracle in self.oracles:
            assert [oracle.decision_cycle(now + k) for k in range(count)] == idle
        self.idle_calls += 1
        self.idle_cycles += count

    def check_state(self) -> None:
        """Counters, slot views and control accounting, read mid-run."""
        for s, oracle in enumerate(self.oracles):
            expected = oracle.counters()
            for side, engine in self.engines.items():
                assert engine.counters(s) == expected, f"{side} row {s}"
                for sid, counters in expected.items():
                    view, block = engine.slot(s, sid), oracle.slot(sid)
                    assert view.counters == counters
                    assert view.head == block.head
                    assert view.pending == list(block.pending)
                assert engine.control.hw_cycle == oracle.control.hw_cycle
                assert (
                    engine.control.decision_cycles
                    == oracle.control.decision_cycles
                )

    def run_periodic(self, n_cycles: int, consume: str, count_misses: bool):
        """``run_periodic`` on both sides after the per-cycle run; each
        oracle replays the feed per cycle from its own state."""
        results = {
            side: engine.run_periodic(
                n_cycles, consume=consume, count_misses=count_misses,
                collect_winners=True,
            )
            for side, engine in self.engines.items()
        }
        for s, oracle in enumerate(self.oracles):
            streams = sorted(self.rows[s], key=lambda stream: stream.sid)
            winners = []
            for t in range(n_cycles):
                for stream in streams:
                    oracle.enqueue(
                        stream.sid,
                        deadline=stream.initial_deadline + t * stream.period,
                        arrival=t,
                    )
                outcome = oracle.decision_cycle(
                    t, consume=consume, count_misses=count_misses
                )
                winners.append(outcome.circulated_sid)
            # The periodic feed latches nothing, so ``loads`` stays put.
            expected = {
                sid: replace(counters, loads=0)
                for sid, counters in oracle.counters().items()
            }
            for side, engine in self.engines.items():
                result = results[side][s]
                assert result.winners.tolist() == winners, f"{side} row {s}"
                assert {
                    sid: replace(counters, loads=0)
                    for sid, counters in engine.counters(s).items()
                } == expected
                for sid, counters in expected.items():
                    assert result.wins[sid] == counters.wins
                    assert result.misses[sid] == counters.missed_deadlines
                    assert result.serviced[sid] == counters.serviced

    def check_phases(self) -> None:
        """Both sides record the same phase spans, with one schedule and
        one priority_update call per decision cycle."""
        calls = {}
        for side, engine in self.engines.items():
            engine.record_phases()
            calls[side] = [
                (r.name, r.tags)
                for r in engine.tracer.records()
                if r.kind == "phase"
            ]
        assert calls["python"] == calls["numpy"] == [
            ("schedule", {"calls": self.cycles}),
            ("priority_update", {"calls": self.cycles}),
            ("fast_forward", {"calls": self.idle_calls, "cycles": self.idle_cycles}),
        ]


class TestRowStateAcrossTheSurface:
    """The per-slot state is row lists on the Python side and ``(S, N)``
    arrays on the NumPy side.  One run reaches it from every call that
    meets it outside a decision cycle: ``load_stream`` after decision
    cycles, ``counters()`` and ``slot(i).counters`` read after every
    cycle, ``advance_idle`` between decisions, ``run_periodic`` after
    drained per-cycle decisions, all under a tracer.  Both sides must
    match each row's oracle at every step."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        s_count=st.sampled_from([1, 2]),
        n=st.sampled_from([4, 8]),
        routing=st.sampled_from(list(Routing)),
        block_mode=st.sampled_from(list(BlockMode)),
        schedule=st.sampled_from(["paper", "bitonic"]),
        deadline_only=st.booleans(),
    )
    def test_lifecycle(
        self, seed, s_count, n, routing, block_mode, schedule, deadline_only
    ):
        rng = random.Random(seed)
        arch = ArchConfig(
            n_slots=n,
            routing=routing,
            block_mode=block_mode,
            schedule=schedule,
            deadline_only=deadline_only,
            wrap=False,
        )
        full = [_streams(rng, n) for _ in range(s_count)]
        # Each row holds one stream back, to load after decision cycles.
        held = [streams.pop(rng.randrange(len(streams))) for streams in full]
        rows = [streams or [held[s]] for s, streams in enumerate(full)]
        run = _Lockstep(arch, rows)
        legal = ("winner", "none") if arch.winner_only else (
            "winner", "block", "none"
        )
        policies = (
            [rng.choice(legal) for _ in rows],
            [rng.choice((True, False)) for _ in rows],
        )

        def play(times):
            for now, enqueues, drops in _script(rng, run.rows, times, 0.3):
                for s, row in enumerate(enqueues):
                    for request in row:
                        run.enqueue(s, *request)
                run.decide(now, *policies, drops)
                run.check_state()

        def drain(now):
            while run.has_pending:
                run.decide(now, ["winner"] * s_count, policies[1], [False] * s_count)
                run.check_state()
                now += 1
            return now

        play(range(0, 40))
        for s, stream in enumerate(held):
            if stream not in run.rows[s]:
                run.load(s, stream)
        play(range(40, 80))
        now = drain(80)
        run.advance_idle(now, rng.randint(1, 5))
        run.check_state()
        play(range(now + 10, now + 30))
        now = drain(now + 30)
        run.advance_idle(now, rng.randint(1, 5))
        run.check_phases()
        run.run_periodic(
            60,
            "winner" if arch.winner_only else rng.choice(("winner", "block")),
            rng.choice((True, False)),
        )
