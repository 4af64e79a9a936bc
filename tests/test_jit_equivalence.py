"""Byte-identity of the two ``run_periodic`` sides, and the shape dispatch.

:meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic` runs a
plain-Python whole-run driver on campaigns of at most
``PERIODIC_MAX_ROWS`` rows and ``PERIODIC_MAX_CELLS`` scenario-slots and
the NumPy loop otherwise.  Each test here forces one side by pinning
both bounds and byte-compares the two on the same inputs, over the full
periodic flag matrix: winner and block consumption, offsets, steps,
strides, miss counting, idle fast-forward, and the lockstep control
counters.  Both sides are also checked against the oracle's per-cycle
replay of the same feed (:func:`tests.strategies.oracle_periodic`).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tensor_engine
from repro.core.attributes import StreamConfig
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.tensor_engine import CampaignEngine
from tests.strategies import oracle_periodic, random_arch_streams

#: ``PERIODIC_MAX_ROWS`` and ``PERIODIC_MAX_CELLS`` values that force
#: each side at any test shape.
SIDES = {"numpy": 0, "driver": 1 << 30}


def _forced(monkeypatch, side: str) -> None:
    monkeypatch.setattr(tensor_engine, "PERIODIC_MAX_ROWS", SIDES[side])
    monkeypatch.setattr(tensor_engine, "PERIODIC_MAX_CELLS", SIDES[side])


class TestKernelByteIdentity:
    """The periodic driver == the NumPy loop over the flag matrix."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    def test_periodic_runs_identical(self, seed):
        rng = random.Random(seed)
        n = rng.choice([4, 8])
        arch, streams_a = random_arch_streams(seed, n)
        streams_b = random_arch_streams(seed + 1, n)[1]
        offsets = np.asarray(
            [rng.randint(0, 4) for _ in range(n)], dtype=np.int64
        )
        kwargs = dict(
            offsets=offsets if rng.random() < 0.5 else None,
            step=rng.choice([None, 1, 2, 3]),
            stride=rng.choice([None, 1, 2, 3]),
            # Block consumption requires BA routing (WR emits only the
            # winner); the drawn arch decides which policies are legal.
            consume=rng.choice(
                ["winner", "block"] if not arch.winner_only else ["winner"]
            ),
            count_misses=rng.choice([True, False]),
            fast_forward=rng.choice([True, False]),
            collect_winners=True,
        )
        # The deadline-only comparator drops the window keys.
        arch = dataclasses.replace(arch, deadline_only=rng.random() < 0.25)

        def run(side):
            with pytest.MonkeyPatch.context() as mp:
                _forced(mp, side)
                engine = CampaignEngine(arch, [streams_a, streams_b])
                results = engine.run_periodic(120, **kwargs)
            return engine, results

        ref_engine, ref = run("numpy")
        drv_engine, got = run("driver")
        assert len(ref) == len(got)
        for s, (r, g) in enumerate(zip(ref, got)):
            np.testing.assert_array_equal(r.wins, g.wins)
            np.testing.assert_array_equal(r.misses, g.misses)
            np.testing.assert_array_equal(r.serviced, g.serviced)
            np.testing.assert_array_equal(r.winners, g.winners)
            assert r.frames_scheduled == g.frames_scheduled
            assert ref_engine.counters(s) == drv_engine.counters(s)
        for name in ("_x", "_y", "_edf_bias"):
            np.testing.assert_array_equal(
                getattr(ref_engine, name), getattr(drv_engine, name)
            )
        assert ref_engine.control.hw_cycle == drv_engine.control.hw_cycle
        assert (
            ref_engine.control.decision_cycles
            == drv_engine.control.decision_cycles
        )
        assert ref_engine.fast_forwarded == drv_engine.fast_forwarded


def _periodic_against_oracle(
    arch, streams, n_cycles, side, fast_forward=True, **kwargs
):
    """``run_periodic`` on one forced side vs :func:`oracle_periodic`."""
    with pytest.MonkeyPatch.context() as mp:
        _forced(mp, side)
        engine = CampaignEngine(arch, [streams])
        result = engine.run_periodic(
            n_cycles, collect_winners=True, fast_forward=fast_forward, **kwargs
        )[0]
    counters = engine.counters(0)
    n = arch.n_slots
    got = {
        "winners": result.winners.tolist(),
        "wins": result.wins.tolist(),
        "misses": result.misses.tolist(),
        "serviced": result.serviced.tolist(),
        "violations": [counters[i].violations for i in range(n)],
        "window_resets": [counters[i].window_resets for i in range(n)],
    }
    return got, oracle_periodic(arch, streams, n_cycles, **kwargs)


class TestOraclePeriodic:
    """Both ``run_periodic`` sides equal the oracle's per-cycle loop
    over the periodic flag matrix.  Steps equal the streams' periods: the
    condition under which the periodic path and the per-cycle loop
    advance the EDF winner bias alike."""

    @pytest.mark.parametrize("side", sorted(SIDES))
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16 - 1),
        n=st.sampled_from([2, 4, 8, 16]),
    )
    def test_periodic_flag_matrix_matches_oracle(self, side, seed, n):
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
            stride=rng.choice(
                [None, 1, 2, np.asarray([rng.randint(1, 4) for _ in range(n)])]
            ),
            consume=rng.choice(
                ["winner"] if arch.winner_only else ["winner", "block"]
            ),
            count_misses=rng.choice([True, False]),
        )
        fast_forward = rng.choice([True, False])
        # The deadline-only comparator drops the window keys.
        arch = dataclasses.replace(arch, deadline_only=rng.random() < 0.25)
        got, expected = _periodic_against_oracle(
            arch, streams, 120, side, fast_forward=fast_forward, **kwargs
        )
        assert got == expected


class TestBlockTail:
    """Min-first BA circulates the block tail, the last valid emitted
    slot.  Neither ``run_periodic`` side replays the bitonic network
    (the sort order is its emission) and both replay the paper schedule
    on ranks; the oracle runs every compare-exchange pass of the
    network, so it is the reference here."""

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
        # Strides above 1 leave slots idle, so the tail is often not
        # the last slot of the order.
        stride = np.asarray([1 + (3 * i + seed) % 3 for i in range(8)])
        for side in SIDES:
            got, expected = _periodic_against_oracle(
                arch, streams, 150, side, stride=stride, consume=consume
            )
            assert got["winners"] == expected["winners"]
            assert got["serviced"] == expected["serviced"]


class TestShapeDispatch:
    """Which side runs: rows and S×N against the bounds, and tracing."""

    @pytest.fixture()
    def driver_calls(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        real = CampaignEngine._run_periodic_driver

        def spy(engine, *args, **kwargs):
            calls.append((engine.n_scenarios, engine.config.n_slots))
            return real(engine, *args, **kwargs)

        monkeypatch.setattr(CampaignEngine, "_run_periodic_driver", spy)
        return calls

    def _engine(self, s_count, n, **kwargs):
        # Rows past the single-chip slot cap need extended arithmetic.
        extended = n > 32
        arch = ArchConfig(n_slots=n, wrap=False, extended=extended)
        streams = [
            StreamConfig(sid=i, period=1 + i % 3, extended=extended)
            for i in range(n)
        ]
        return CampaignEngine(arch, [streams] * s_count, **kwargs)

    def test_constant_splits_the_shapes(self, driver_calls):
        """One shape on each side of each bound: the cell bound on one
        row, the row bound on short rows."""
        rows = tensor_engine.PERIODIC_MAX_ROWS
        cells = tensor_engine.PERIODIC_MAX_CELLS
        shapes = [(1, cells), (2, cells), (rows, 2), (rows + 1, 2)]
        assert 2 * (rows + 1) <= cells
        sides = []
        for s_count, n in shapes:
            engine = self._engine(s_count, n)
            sides.append(engine.periodic_side)
            engine.run_periodic(10)
        assert sides == ["python", "numpy", "python", "numpy"]
        assert driver_calls == [(1, cells), (rows, 2)]

    def test_traced_runs_keep_the_numpy_loop(self, driver_calls):
        engine = self._engine(1, 4, trace_timeline=True)
        assert engine.periodic_side == "numpy"
        engine.run_periodic(10)
        assert driver_calls == []
        assert engine.control.timeline

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_negative_cycle_count_rejected(self, monkeypatch, side):
        _forced(monkeypatch, side)
        with pytest.raises(ValueError, match="n_cycles"):
            self._engine(1, 4).run_periodic(-1)

    @pytest.mark.parametrize("side", sorted(SIDES))
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(offsets=[-5, 0, 0, 0]), "offsets must be >= 0"),
            (dict(step=-3), "step must be >= 0"),
        ],
        ids=["offsets", "step"],
    )
    def test_negative_offsets_and_steps_rejected(
        self, monkeypatch, side, kwargs, message
    ):
        """Ideal arithmetic has no negative deadlines: ``enqueue``
        rejects them, and so does the periodic feed, before any state
        changes."""
        _forced(monkeypatch, side)
        engine = self._engine(1, 4)
        before = engine.counters(0)
        with pytest.raises(ValueError, match=message):
            engine.run_periodic(10, **kwargs)
        assert engine.counters(0) == before
        assert engine.control.decision_cycles == 0


def test_resolve_backend_names_the_driver_compiler():
    """The host-fingerprint query: the periodic driver runs on NumPy
    state copied to plain Python, with no compiler."""
    from repro.core.backend import resolve_backend

    assert resolve_backend("numba").name == "numpy"
    with pytest.raises(ValueError, match="torch"):
        resolve_backend("torch")
