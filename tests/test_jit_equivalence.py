"""Byte-identity of the two ``run_periodic`` sides, and the shape dispatch.

:meth:`~repro.core.tensor_engine.CampaignEngine.run_periodic` runs the
scalar whole-run driver :func:`repro.core.jit.run_cycles` at or below
``DRIVER_MAX_CELLS`` scenario-slots and the NumPy loop above it.  Each
test here forces one side by pinning the constant and byte-compares the
two on the same inputs, over the full periodic flag matrix: winner and
block consumption, offsets, steps, strides, miss counting, idle
fast-forward, and the lockstep control counters.  The driver runs
compiled when numba is importable and as plain Python otherwise; the
suite holds either way.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tensor_engine
from repro.core.batch_engine import BatchScheduler
from repro.core.config import BlockMode, Routing
from repro.core.tensor_engine import CampaignEngine
from tests.strategies import random_arch_streams

#: ``DRIVER_MAX_CELLS`` values that force each side at any test shape.
SIDES = {"numpy": 0, "driver": 1 << 30}


def _forced(monkeypatch, side: str) -> None:
    monkeypatch.setattr(tensor_engine, "DRIVER_MAX_CELLS", SIDES[side])


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


class TestBlockTail:
    """Min-first BA circulates the block tail, the last valid emitted
    slot.  Neither ``run_periodic`` side replays the bitonic network
    (the sort order is its emission) and both replay the paper schedule
    on ranks; ``BatchScheduler`` still replays every pass, so it is the
    reference here."""

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
        kwargs = dict(stride=stride, consume=consume, collect_winners=True)
        expected = BatchScheduler(arch, streams).run_periodic(150, **kwargs)
        for side in SIDES:
            with pytest.MonkeyPatch.context() as mp:
                _forced(mp, side)
                engine = CampaignEngine(arch, [streams])
                got = engine.run_periodic(150, **kwargs)[0]
            np.testing.assert_array_equal(got.winners, expected.winners)
            np.testing.assert_array_equal(got.serviced, expected.serviced)


class TestShapeDispatch:
    """Which side runs: S×N against the constant, and tracing."""

    @pytest.fixture()
    def driver_calls(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        real = tensor_engine.jit.run_cycles

        def spy(n_cycles, loaded, *args):
            calls.append(loaded.shape)
            return real(n_cycles, loaded, *args)

        monkeypatch.setattr(tensor_engine.jit, "run_cycles", spy)
        return calls

    def _engine(self, s_count, n, **kwargs):
        arch, streams = random_arch_streams(5, n)
        return CampaignEngine(arch, [streams] * s_count, **kwargs)

    def test_constant_splits_the_shapes(self, driver_calls):
        limit = tensor_engine.DRIVER_MAX_CELLS
        self._engine(1, limit).run_periodic(10)
        self._engine(2, limit).run_periodic(10)
        assert driver_calls == [(1, limit)]

    def test_traced_runs_keep_the_numpy_loop(self, driver_calls):
        engine = self._engine(1, 4, trace_timeline=True)
        engine.run_periodic(10)
        assert driver_calls == []
        assert engine.control.timeline

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_negative_cycle_count_rejected(self, monkeypatch, side):
        _forced(monkeypatch, side)
        with pytest.raises(ValueError, match="n_cycles"):
            self._engine(1, 4).run_periodic(-1)

    def test_batch_engine_rejects_negative_cycle_count(self):
        arch, streams = random_arch_streams(5, 4)
        with pytest.raises(ValueError, match="n_cycles"):
            BatchScheduler(arch, streams).run_periodic(-1)


def test_resolve_backend_names_the_driver_compiler():
    """The host-fingerprint query: numba when importable, else numpy."""
    from repro.core.backend import resolve_backend

    expected = "numba" if tensor_engine.jit.NUMBA_AVAILABLE else "numpy"
    assert resolve_backend("numba").name == expected
    with pytest.raises(ValueError, match="torch"):
        resolve_backend("torch")
