"""Tensor engine differential tests: campaign batching + fast-forward.

Three properties are pinned here:

* **Three-way agreement** — reference (object model), the
  single-scenario tensor adapter and bucketed campaign rows produce
  identical cycle records and final counters on >= 100 randomized
  scenarios grouped into same-shape buckets (the bucketing contract in
  ``docs/ENGINES.md``).
* **Idle-cycle fast-forward is invisible** — skipping globally-idle
  decision cycles in bulk never changes any observable: periodic runs
  with ``fast_forward`` on and off match array-for-array (including
  the traced hardware timeline), and bucketed runs over sparse
  workloads still match the per-cycle oracle record-for-record.
  (The golden decision trace in ``tests/test_trace_replay.py`` is
  replayed through the tensor adapter there, byte-for-byte.)
* **Campaign plumbing** — the bucketed ``campaign()`` serializes
  byte-identically to the sequential seed-by-seed path, under any
  worker count, with a pinned result-cache namespace and merged
  telemetry.
"""

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, BlockMode, Routing
from repro.core.differential import (
    _scenario_cache_payload,
    campaign,
    cross_validate,
    cross_validate_bucket,
    generate_scenario,
    run_bucket,
    run_engine,
)
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.shuffle import _bitonic_stages
from repro.core.tensor_engine import CampaignEngine, TensorScheduler
from tests.strategies import (
    bucketed as _bucketed,
    oracle_periodic as _oracle_periodic,
    periodic_observables as _periodic_observables,
    random_arch_streams as _random_arch_streams,
)

# ----------------------------------------------------------------------


class TestThreeWayDifferential:
    def test_hundred_randomized_bucketed_scenarios(self):
        """The tensor acceptance campaign: >= 100 seeded scenarios,
        bucketed by shape, each bucket row compared cycle-for-cycle and
        counter-for-counter against BOTH the object model and the
        scenario's own single-row tensor adapter run."""
        scenarios = [
            generate_scenario(seed, n_cycles=150) for seed in range(110)
        ]
        buckets = _bucketed(scenarios)
        assert len(scenarios) >= 100
        # The bucketing must actually batch: some bucket holds S > 1.
        assert max(len(m) for m in buckets.values()) > 1
        assert {s.routing for s in scenarios} == {Routing.BA, Routing.WR}
        assert {s.block_mode for s in scenarios} == {
            BlockMode.MAX_FIRST, BlockMode.MIN_FIRST,
        }
        for members in buckets.values():
            tensor_traces = run_bucket(members)
            for scenario, tensor in zip(members, tensor_traces):
                ref = run_engine(scenario, "reference")
                single = run_engine(scenario, "tensor")
                context = f"\nreproduce with seed {scenario.seed}"
                assert single.records == ref.records, context
                assert tensor.records == ref.records, context
                assert single.counters == ref.counters, context
                assert tensor.counters == ref.counters, context

    def test_trace_mode_buckets_byte_identical_telemetry(self):
        """Structured telemetry event streams from bucketed runs match
        the oracle's, for buckets that genuinely batch (S > 1)."""
        scenarios = [
            generate_scenario(seed, n_cycles=120, max_slots=16)
            for seed in range(60)
        ]
        checked = 0
        for members in _bucketed(scenarios).values():
            if len(members) < 2:
                continue
            divergences = cross_validate_bucket(members, mode="trace")
            assert divergences == [None] * len(members)
            checked += 1
            if checked == 3:
                break
        assert checked == 3

    def test_mixed_shape_bucket_rejected(self):
        a = generate_scenario(0, n_cycles=100)
        b = dataclasses.replace(a, n_cycles=101)
        try:
            run_bucket([a, b])
        except ValueError as exc:
            assert "shape" in str(exc)
        else:  # pragma: no cover - failure path
            raise AssertionError("mixed-shape bucket was accepted")


class TestIdleFastForward:
    @given(
        seed=st.integers(0, 10_000),
        stride=st.integers(2, 9),
        n_slots=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_periodic_fast_forward_is_invisible(self, seed, stride, n_slots):
        """``run_periodic`` with idle-cycle fast-forward produces the
        identical observables — winner sequence, counters, hardware
        cycle count AND the traced FSM timeline — as stepping every
        idle cycle individually."""
        arch, streams = _random_arch_streams(seed, n_slots)
        observed = {}
        for fast_forward in (True, False):
            scheduler = TensorScheduler(arch, streams, trace_timeline=True)
            result = scheduler.run_periodic(
                60,
                stride=stride,
                consume="winner",
                collect_winners=True,
                fast_forward=fast_forward,
            )
            observed[fast_forward] = _periodic_observables(scheduler, result)
            if fast_forward:
                fast_forwarded = scheduler.fast_forwarded
        assert observed[True] == observed[False]
        if stride > n_slots:
            # Winner-only service: at most n_slots consumptions become
            # available per stride window, so idle gaps are guaranteed.
            assert fast_forwarded > 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_sparse_bucket_matches_oracle_per_cycle(self, seed):
        """Bucketed runs over sparse workloads (arrivals in ~5% of
        cycles, so campaign-wide idle gaps dominate) still produce the
        oracle's decision trace record-for-record."""
        scenario = dataclasses.replace(
            generate_scenario(seed, n_cycles=120, max_slots=16),
            arrival_prob=0.05,
        )
        stats: dict = {}
        (divergence,) = cross_validate_bucket([scenario], stats=stats)
        assert divergence is None, f"\n{divergence}"
        assert stats["cycles"] == 120

    def test_sparse_bucket_actually_fast_forwards(self):
        """Same-shape sparse siblings ride one engine and the idle gaps
        are provably skipped (the telemetry counter is non-zero)."""
        base = generate_scenario(7, n_cycles=200, max_slots=16)
        members = [
            dataclasses.replace(base, seed=seed, arrival_prob=0.03)
            for seed in (7, 1007, 2007)
        ]
        stats: dict = {}
        divergences = cross_validate_bucket(members, stats=stats)
        assert divergences == [None, None, None]
        assert stats["fast_forwarded"] > 0
        assert stats["cycles"] == 3 * 200

    def test_tensor_run_periodic_matches_oracle_per_scenario(self):
        """The tensorized periodic path (with fast-forward) equals S
        independent per-cycle oracle runs of the same feeds, winners
        array included."""
        for case in range(10):
            rng = random.Random(9000 + case)
            n_slots = rng.choice((2, 4, 8))
            arch, _ = _random_arch_streams(9000 + case, n_slots)
            s_count = rng.randint(2, 5)
            stream_lists = [
                _random_arch_streams(13 * case + s, n_slots)[1]
                for s in range(s_count)
            ]
            stride = np.array(
                [[rng.randint(1, 6) for _ in range(n_slots)]
                 for _ in range(s_count)],
                dtype=np.int64,
            )
            consume = rng.choice(
                ("winner",) if arch.routing is Routing.WR
                else ("winner", "block")
            )
            engine = CampaignEngine(arch, stream_lists)
            tensor_results = engine.run_periodic(
                80, stride=stride, consume=consume, collect_winners=True
            )
            for s in range(s_count):
                expected = _oracle_periodic(
                    arch, stream_lists[s], 80, stride=stride[s], consume=consume
                )
                got = tensor_results[s]
                counters = engine.counters(s)
                context = f"case {case} scenario {s}"
                assert got.wins.tolist() == expected["wins"], context
                assert got.misses.tolist() == expected["misses"], context
                assert got.serviced.tolist() == expected["serviced"], context
                assert got.winners.tolist() == expected["winners"], context
                assert got.frames_scheduled == sum(expected["serviced"])
                assert [
                    counters[i].window_resets for i in range(n_slots)
                ] == expected["window_resets"], context


class TestCampaignTensorPath:
    def test_summary_byte_identical_to_sequential(self):
        """Bucketed rows and the seed-by-seed single-row adapter path
        (``stop_on_divergence``) fold to the same summary bytes."""
        sequential = campaign(range(40), n_cycles=120, stop_on_divergence=True)
        tensor = campaign(range(40), n_cycles=120)
        assert tensor.passed
        assert tensor.summary_json() == sequential.summary_json()

    def test_worker_count_invisible(self):
        solo = campaign(range(30), n_cycles=100)
        pooled = campaign(range(30), n_cycles=100, workers=3)
        assert pooled.summary_json() == solo.summary_json()

    def test_cache_namespace_and_payload_pinned(self, tmp_path):
        """Warm caches written before the campaign had one engine stay
        valid: entries live in the ``differential-<mode>-tensor``
        namespace and the key payload names the reference/tensor pair.
        A second run is served entirely from cache."""
        seeds = range(20)
        cold = campaign(seeds, n_cycles=100, cache_dir=tmp_path)
        assert cold.cached == 0 and cold.executed == 20
        assert [p.name for p in tmp_path.iterdir()] == [
            "differential-outcome-tensor"
        ]
        payload = _scenario_cache_payload(3, 100, "outcome")
        assert payload["engines"] == ["reference", "tensor"]
        assert payload["mode"] == "outcome"
        warm = campaign(seeds, n_cycles=100, cache_dir=tmp_path)
        assert warm.cached == 20 and warm.executed == 0
        assert warm.summary_json() == cold.summary_json()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign engine"):
            campaign(range(2), n_cycles=20, engine="reference")

    def test_telemetry_merged_across_buckets(self):
        result = campaign(range(25), n_cycles=100)
        assert result.telemetry is not None
        samples = result.telemetry["differential_bucket_scenarios_total"][
            "samples"
        ]
        assert sum(samples.values()) == 25
        assert "differential_fast_forwarded_cycles_total" in result.telemetry
        # Telemetry is an execution fact: it must stay out of the
        # canonical summary so engines serialize identically.
        assert "telemetry" not in result.summary()

    def test_single_seed_validator_tensor_engine(self):
        for seed in range(12):
            scenario = generate_scenario(seed, n_cycles=150)
            divergence = cross_validate(scenario)
            assert divergence is None, f"\n{divergence}"


class TestTensorAdapterSurface:
    def test_single_scenario_adapter_matches_reference(self):
        """TensorScheduler (S=1 slice) walks the same interactive
        surface as the object model with identical outcomes."""
        arch, streams = _random_arch_streams(42, 4)
        tensor = TensorScheduler(arch, streams)
        oracle = ShareStreamsScheduler(arch, streams)
        for t in range(50):
            for sid in range(4):
                if (t + sid) % 3 == 0:
                    tensor.enqueue(sid, deadline=t + sid + 1, arrival=t)
                    oracle.enqueue(sid, deadline=t + sid + 1, arrival=t)
            a = tensor.decision_cycle(t, consume="winner", count_misses=True)
            b = oracle.decision_cycle(t, consume="winner", count_misses=True)
            assert a.circulated_sid == b.circulated_sid
            assert a.block == b.block
            assert a.misses == b.misses
            assert a.hw_cycles == b.hw_cycles
        for sid in range(4):
            ts, rs = tensor.slot(sid), oracle.slot(sid)
            assert ts.backlog == rs.backlog
            assert (ts.head is None) == (rs.head is None)
        assert tensor.counters() == oracle.counters()
        assert tensor.cycles_per_decision == oracle.cycles_per_decision

    def test_bitonic_pass_schedules_shared_across_engines(self):
        """The oracle's bitonic pass tables are memoized per slot count:
        every network of the same width shares one tuple object.  The
        campaign engine emits the rank order without replaying the
        passes, yet charges the same pass count per decision."""
        passes = _bitonic_stages(8)
        assert _bitonic_stages(8) is passes
        arch, streams = _random_arch_streams(1, 8)
        arch = dataclasses.replace(
            arch, schedule="bitonic", routing=Routing.BA
        )
        a = ShareStreamsScheduler(arch, streams)
        b = ShareStreamsScheduler(arch, streams)
        assert a.network._bitonic is passes
        assert b.network._bitonic is passes
        engine = CampaignEngine(arch, [streams, streams])
        assert engine.idle_outcome(0).hw_cycles == (
            len(passes) + arch.update_cycles
        )
        assert a.decision_cycle(0).hw_cycles == engine.idle_outcome(0).hw_cycles


@pytest.mark.parametrize("index", [-1, 4])
@pytest.mark.parametrize("target", ["reference", "tensor", "scenario"])
def test_out_of_range_ids_fail_loudly(target, index):
    """A sid (or campaign scenario index) outside the engine raises
    instead of wrapping around to the last slot or scenario."""
    arch, streams = _random_arch_streams(3, 4)
    if target == "scenario":
        engine = CampaignEngine(arch, [streams] * 4)
        message = f"scenario {index} out of range for 4-scenario campaign"
        with pytest.raises(ValueError, match=re.escape(message)):
            engine.enqueue(index, 0, deadline=5, arrival=0)
        assert not engine.has_pending
    else:
        sched = make_scheduler(arch, streams, engine=target)
        message = f"sid {index} out of range for 4-slot scheduler"
        with pytest.raises(ValueError, match=re.escape(message)):
            sched.enqueue(index, deadline=5, arrival=0)
        assert all(sched.slot(sid).head is None for sid in range(4))


def test_advance_idle_rejects_negative_count():
    """A negative idle count raises like the control unit it feeds;
    zero is a no-op."""
    arch, streams = _random_arch_streams(3, 4)
    engine = CampaignEngine(arch, [streams] * 2)
    before = (engine.control.hw_cycle, engine.control.decision_cycles)
    with pytest.raises(ValueError, match="cycle count must be non-negative"):
        engine.advance_idle(-1)
    engine.advance_idle(0)
    assert (engine.control.hw_cycle, engine.control.decision_cycles) == before
    assert engine.fast_forwarded == 0


@pytest.mark.parametrize("target", ["reference", "tensor"])
def test_wr_block_consume_rejected_before_state_change(target):
    """WR emits only the winner, so block consumption is refused before
    the SCHEDULE passes are charged or any miss is registered."""
    arch = ArchConfig(n_slots=4, routing=Routing.WR, wrap=False)
    streams = [
        StreamConfig(sid=i, period=1, loss_numerator=1, loss_denominator=2)
        for i in range(4)
    ]
    sched = make_scheduler(arch, streams, engine=target)
    sched.enqueue(0, deadline=1, arrival=0)  # late at now=5
    sched.enqueue(1, deadline=9, arrival=0)

    def snapshot():
        return (
            sched.control.hw_cycle,
            sched.control.decision_cycles,
            sched.counters(),
            [sched.slot(sid).head for sid in range(4)],
        )

    before = snapshot()
    with pytest.raises(ValueError, match="block consumption requires BA"):
        sched.decision_cycle(5, consume="block", count_misses=True)
    assert snapshot() == before


@pytest.mark.parametrize("deadline,arrival", [(-5, 3), (4, -1)])
@pytest.mark.parametrize("target", ["reference", "tensor"])
def test_negative_times_rejected_at_enqueue(target, deadline, arrival):
    """In ideal arithmetic (``wrap=False``) a negative deadline or
    arrival raises at ``enqueue`` with nothing queued, on every engine;
    with ``wrap=True`` the 16-bit registers mask it and it is served."""
    streams = [StreamConfig(sid=i, period=1) for i in range(4)]
    sched = make_scheduler(
        ArchConfig(n_slots=4, wrap=False), streams, engine=target
    )
    sched.enqueue(0, deadline=9, arrival=0)
    message = (
        "deadline and arrival must be non-negative, got "
        f"deadline={deadline}, arrival={arrival}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        sched.enqueue(0, deadline=deadline, arrival=arrival)
    with pytest.raises(ValueError, match=re.escape(message)):
        sched.enqueue(1, deadline=deadline, arrival=arrival)
    assert sched.slot(0).backlog == 0
    assert sched.slot(1).head is None
    served = [
        sid
        for t in range(3)
        for sid, _packet in sched.decision_cycle(t).serviced
    ]
    assert served == [0]

    wrapped = make_scheduler(
        ArchConfig(n_slots=4, wrap=True), streams, engine=target
    )
    wrapped.enqueue(1, deadline=deadline, arrival=arrival)
    outcome = wrapped.decision_cycle(0)
    assert [(sid, p.deadline, p.arrival) for sid, p in outcome.serviced] == [
        (1, deadline, arrival)
    ]
