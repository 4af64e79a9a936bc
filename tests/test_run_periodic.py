"""The ``run_periodic`` driver against the oracle's per-cycle replay.

:meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic` runs every
periodic feed in one plain-Python whole-run driver.  Each test here
runs it and the oracle's per-cycle replay of the same feed
(:func:`tests.strategies.oracle_periodic`) and compares them over the
periodic flag matrix: winner and block consumption, offsets, steps,
miss counting, the deadline-only comparator and the min-first block
tail, on many rows, on long rows, and on the traced control timeline.
Inputs the feed cannot honour raise a ``ValueError`` before any state
changes.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.tensor_engine import CampaignEngine
from tests.strategies import (
    arch_streams,
    oracle_periodic,
    random_arch_streams,
    stream_configs,
    timeline_entries,
)


def _row_observables(engine, result, s: int) -> dict:
    """One row's result and window counters, in oracle_periodic's form."""
    counters = engine.counters(s)
    n = engine.config.n_slots
    return {
        "winners": result.winners.tolist(),
        "wins": result.wins.tolist(),
        "misses": result.misses.tolist(),
        "serviced": result.serviced.tolist(),
        "violations": [
            counters[i].violations if i in counters else 0 for i in range(n)
        ],
        "window_resets": [
            counters[i].window_resets if i in counters else 0
            for i in range(n)
        ],
    }


def _periodic_against_oracle(arch, streams, n_cycles, **kwargs):
    """One-row ``run_periodic`` vs :func:`oracle_periodic`."""
    engine = CampaignEngine(arch, [streams])
    result = engine.run_periodic(n_cycles, collect_winners=True, **kwargs)[0]
    return (
        _row_observables(engine, result, 0),
        oracle_periodic(arch, streams, n_cycles, **kwargs),
    )


def _campaign_against_oracle(arch, stream_lists, n_cycles, **kwargs):
    """Every row of one campaign vs its own oracle replay."""
    engine = CampaignEngine(arch, stream_lists)
    results = engine.run_periodic(n_cycles, collect_winners=True, **kwargs)
    for s, (streams, result) in enumerate(zip(stream_lists, results)):
        expected = oracle_periodic(arch, streams, n_cycles, **kwargs)
        assert _row_observables(engine, result, s) == expected, f"row {s}"
        assert result.frames_scheduled == sum(expected["serviced"])
    return engine


class TestOraclePeriodic:
    """The driver equals the oracle's per-cycle loop over the periodic
    flag matrix.  Steps equal the streams' periods: the condition under
    which the periodic path and the per-cycle loop advance the EDF
    winner bias alike."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16 - 1),
        n=st.sampled_from([2, 4, 8, 16]),
    )
    def test_periodic_flag_matrix_matches_oracle(self, seed, n):
        rng = random.Random(seed)
        arch, streams = random_arch_streams(seed, n)
        kwargs = dict(
            offsets=(
                np.asarray([rng.randint(0, 6) for _ in range(n)])
                if rng.random() < 0.5
                else None
            ),
            step=(
                np.asarray([s.period for s in streams])
                if rng.random() < 0.5
                else None
            ),
            consume=rng.choice(
                ["winner"] if arch.winner_only else ["winner", "block"]
            ),
            count_misses=rng.choice([True, False]),
        )
        # The deadline-only comparator drops the window keys.
        arch = dataclasses.replace(arch, deadline_only=rng.random() < 0.25)
        got, expected = _periodic_against_oracle(arch, streams, 120, **kwargs)
        assert got == expected


class TestBlockTail:
    """Min-first BA circulates the block tail, the last valid emitted
    slot.  The driver does not replay the bitonic network (the sort
    order is its emission) and replays the paper schedule on ranks; the
    oracle runs every compare-exchange pass of the network, so it is
    the reference here."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("consume", ["winner", "block"])
    @pytest.mark.parametrize("schedule", ["paper", "bitonic"])
    def test_min_first_tail_matches_network_replay(self, schedule, consume, seed):
        arch, streams = random_arch_streams(seed, 8)
        arch = dataclasses.replace(
            arch,
            routing=Routing.BA,
            block_mode=BlockMode.MIN_FIRST,
            schedule=schedule,
        )
        # Unloaded slots leave holes in the network, so the tail is
        # often not the last slot of the order.
        streams = [s for s in streams if (3 * s.sid + seed) % 4 != 0]
        got, expected = _periodic_against_oracle(
            arch, streams, 150, consume=consume
        )
        assert got["winners"] == expected["winners"]
        assert got["serviced"] == expected["serviced"]


class TestShapes:
    """Campaign shapes past the ones Table 3 runs: many rows, one long
    row."""

    def test_sixteen_rows_of_four_match_the_oracle(self):
        arch, _ = random_arch_streams(11, 4)
        stream_lists = [random_arch_streams(100 + s, 4)[1] for s in range(16)]
        consume = "winner" if arch.winner_only else "block"
        _campaign_against_oracle(arch, stream_lists, 80, consume=consume)

    @pytest.mark.parametrize("routing", [Routing.WR, Routing.BA])
    def test_one_row_of_128_slots_matches_the_oracle(self, routing):
        arch = ArchConfig(
            n_slots=128,
            routing=routing,
            block_mode=BlockMode.MIN_FIRST,
            wrap=False,
            extended=True,
        )
        streams = [
            dataclasses.replace(s, sid=s.sid + 32 * part, extended=True)
            for part in range(4)
            for s in random_arch_streams(7 + part, 32)[1]
        ]
        _campaign_against_oracle(arch, [streams], 40)


class TestTracedTimeline:
    """A traced run records one SCHEDULE/PRIORITY_UPDATE pair per cycle
    on the control timeline, exactly as the oracle's per-cycle replay
    does (the free-text ``detail`` aside)."""

    @pytest.mark.parametrize(
        "routing,block_mode,consume",
        [
            (Routing.WR, BlockMode.MAX_FIRST, "winner"),
            (Routing.BA, BlockMode.MIN_FIRST, "block"),
            (Routing.BA, BlockMode.MAX_FIRST, "winner"),
        ],
        ids=["wr-max-first", "ba-min-first-block", "ba-max-first-winner"],
    )
    def test_timeline_matches_the_oracle(self, routing, block_mode, consume):
        arch = ArchConfig(
            n_slots=4, routing=routing, block_mode=block_mode, wrap=False
        )
        streams = [
            StreamConfig(
                sid=i, period=1, initial_deadline=i + 1,
                mode=SchedulingMode.EDF,
            )
            for i in range(4)
        ]
        engine = CampaignEngine(arch, [streams], trace_timeline=True)
        result = engine.run_periodic(50, consume=consume, collect_winners=True)[0]
        expected = oracle_periodic(
            arch, streams, 50, consume=consume, trace_timeline=True
        )
        timeline = timeline_entries(engine.control)
        assert len(timeline) == 1 + 2 * 50
        assert timeline == expected.pop("timeline")
        assert _row_observables(engine, result, 0) == expected


def _table3_engine() -> CampaignEngine:
    """The Table 3 max-finding arch: four EDF streams, WR, one row."""
    arch = ArchConfig(
        n_slots=4,
        routing=Routing.WR,
        block_mode=BlockMode.MAX_FIRST,
        wrap=False,
    )
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
        for i in range(4)
    ]
    return CampaignEngine(arch, [streams])


def _state(engine: CampaignEngine) -> tuple:
    """Everything a rejected call must leave as it found it.

    The window counters and EDF bias are per-scenario rows: lists on the
    Python side, array row views on the NumPy side.
    """
    return (
        [engine.counters(s) for s in range(engine.n_scenarios)],
        engine.control.hw_cycle,
        engine.control.decision_cycles,
        np.array(engine._x).tolist(),
        np.array(engine._y).tolist(),
        np.array(engine._edf_bias).tolist(),
    )


class TestInputChecks:
    """Inputs the periodic feed cannot honour raise a ``ValueError``
    naming the input, before any state changes."""

    def test_negative_cycle_count_rejected(self):
        engine = _table3_engine()
        before = _state(engine)
        with pytest.raises(ValueError, match="n_cycles"):
            engine.run_periodic(-1)
        assert _state(engine) == before

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(offsets=[-5, 0, 0, 0]), "offsets must be >= 0"),
            (dict(step=-3), "step must be >= 0"),
        ],
        ids=["offsets", "step"],
    )
    def test_negative_offsets_and_steps_rejected(self, kwargs, message):
        """Ideal arithmetic has no negative deadlines: ``enqueue``
        rejects them, and so does the periodic feed."""
        engine = _table3_engine()
        before = _state(engine)
        with pytest.raises(ValueError, match=message):
            engine.run_periodic(10, **kwargs)
        assert _state(engine) == before

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(offsets=np.arange(1, 5) + 0.9), "offsets must be integers"),
            (dict(step=1.7), "step must be integers"),
        ],
        ids=["offsets", "step"],
    )
    def test_non_integer_offsets_and_steps_rejected(self, kwargs, message):
        """Fractional deadlines would be truncated to the integer feed."""
        engine = _table3_engine()
        before = _state(engine)
        with pytest.raises(ValueError, match=message):
            engine.run_periodic(100, **kwargs)
        assert _state(engine) == before

    def test_non_integer_cycle_count_rejected(self):
        """10.5 cycles would run 11 and report 10.5; ``True`` would run
        one."""
        engine = _table3_engine()
        before = _state(engine)
        for n_cycles in (10.5, True):
            with pytest.raises(ValueError, match="n_cycles must be an integer"):
                engine.run_periodic(n_cycles)
            assert _state(engine) == before

    @pytest.mark.parametrize("flag", ["count_misses", "collect_winners"])
    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_non_bool_flags_rejected(self, flag, value):
        """``count_misses="no"`` used to count misses ([98, 99, 99, 99]
        over 100 cycles here) and ``collect_winners="no"`` to collect
        winners; any value but a ``bool`` raises, naming the flag."""
        engine = _table3_engine()
        before = _state(engine)
        with pytest.raises(ValueError, match=f"{flag} must be a bool"):
            engine.run_periodic(100, **{flag: value})
        assert _state(engine) == before

    def test_queued_packets_rejected(self):
        """The feed makes its own requests, so a packet queued with
        ``enqueue`` would sit latched and unserved through the run."""
        engine = _table3_engine()
        engine.enqueue(0, 0, deadline=0, arrival=0)
        before = _state(engine)
        with pytest.raises(ValueError, match="queued with enqueue"):
            engine.run_periodic(10)
        assert _state(engine) == before
        assert engine.slot(0, 0).head is not None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzzed_inputs_raise_or_match_the_oracle(self, data):
        """Drawn feeds, bad values included, either raise a
        ``ValueError`` with the state untouched or equal the oracle's
        replay on every row."""
        n = data.draw(st.sampled_from([2, 4, 8, 16]), label="n_slots")
        arch, first = data.draw(arch_streams(st.just(n)), label="arch")
        rows = data.draw(st.integers(1, 16), label="rows")
        stream_lists = [first] + [
            data.draw(stream_configs(n), label=f"streams[{s}]")
            for s in range(1, rows)
        ]
        shape = (rows, n)

        def feed_input(label):
            """None, or a drawn value: a scalar, one row or every row,
            integer or not, possibly negative, possibly misshapen."""
            kind = data.draw(
                st.sampled_from(["default", "scalar", "row", "rows", "bad-shape"]),
                label=f"{label} kind",
            )
            if kind == "default":
                return None, False
            dims = {
                "scalar": (),
                "row": (n,),
                "rows": shape,
                "bad-shape": (n + 1,),
            }[kind]
            integral = data.draw(st.booleans(), label=f"{label} integral")
            elements = st.integers(-2, 6) if integral else st.floats(-2, 6)
            size = int(np.prod(dims, dtype=np.int64))
            flat = data.draw(
                st.lists(elements, min_size=size, max_size=size),
                label=label,
            )
            value = np.asarray(
                flat, dtype=np.int64 if integral else np.float64
            ).reshape(dims)
            bad = kind == "bad-shape" or not integral or (value < 0).any()
            return value, bad

        n_cycles = data.draw(
            st.one_of(st.integers(-3, 40), st.floats(-3, 40)),
            label="n_cycles",
        )
        offsets, bad_offsets = feed_input("offsets")
        step, bad_step = feed_input("step")
        consume = data.draw(st.sampled_from(["winner", "block"]), label="consume")
        count_misses = data.draw(st.booleans(), label="count_misses")
        bad = (
            not isinstance(n_cycles, int)
            or n_cycles < 0
            or bad_offsets
            or bad_step
            or (consume == "block" and arch.winner_only)
        )

        engine = CampaignEngine(arch, stream_lists)
        kwargs = dict(
            offsets=offsets, step=step, consume=consume,
            count_misses=count_misses,
        )
        if bad:
            before = _state(engine)
            with pytest.raises(ValueError):
                engine.run_periodic(n_cycles, **kwargs)
            assert _state(engine) == before
            return
        results = engine.run_periodic(n_cycles, collect_winners=True, **kwargs)

        def row_of(value, s):
            if value is None:
                return None
            return np.broadcast_to(value, shape)[s]

        for s, (streams, result) in enumerate(zip(stream_lists, results)):
            expected = oracle_periodic(
                arch, streams, n_cycles,
                offsets=row_of(offsets, s), step=row_of(step, s),
                consume=consume, count_misses=count_misses,
            )
            assert _row_observables(engine, result, s) == expected, f"row {s}"
