"""Tensor engine differential tests: campaign batching + fast-forward.

Three properties are pinned here:

* **Three-way agreement** — reference (object model), the
  single-scenario tensor adapter and bucketed campaign rows produce
  identical cycle records and final counters on >= 100 randomized
  scenarios grouped into same-shape buckets (the bucketing contract in
  ``docs/ENGINES.md``).
* **Idle-cycle fast-forward is invisible** — skipping globally-idle
  decision cycles in bulk never changes any observable: bucketed runs
  over sparse workloads still match the per-cycle oracle
  record-for-record.  (The golden decision trace in
  ``tests/test_trace_replay.py`` is replayed through the tensor adapter
  there, byte-for-byte.)
* **Campaign plumbing** — the bucketed ``campaign()`` serializes
  byte-identically to per-seed ``cross_validate`` folds, under any
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
    CampaignResult,
    SchedulerKind,
    SeedOutcome,
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
        """A multi-row periodic run with per-row offsets equals S
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
            offsets = np.array(
                [[rng.randint(0, 6) for _ in range(n_slots)]
                 for _ in range(s_count)],
                dtype=np.int64,
            )
            consume = rng.choice(
                ("winner",) if arch.routing is Routing.WR
                else ("winner", "block")
            )
            engine = CampaignEngine(arch, stream_lists)
            tensor_results = engine.run_periodic(
                80, offsets=offsets, consume=consume, collect_winners=True
            )
            for s in range(s_count):
                expected = _oracle_periodic(
                    arch, stream_lists[s], 80, offsets=offsets[s],
                    consume=consume,
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
        """Bucketed rows and per-seed ``cross_validate`` on the
        single-row adapter fold to the same summary bytes."""
        kind = SchedulerKind()
        sequential = CampaignResult(n_cycles=120)
        for seed in range(40):
            scenario = generate_scenario(seed, n_cycles=120)
            sequential.fold(
                SeedOutcome(
                    seed, kind.coverage(scenario), cross_validate(scenario)
                )
            )
        tensor = campaign(range(40), n_cycles=120)
        assert tensor.passed
        assert tensor.summary_json() == sequential.summary_json()

    def test_worker_count_invisible(self):
        solo = campaign(range(30), n_cycles=100)
        pooled = campaign(range(30), n_cycles=100, workers=3)
        assert pooled.summary_json() == solo.summary_json()

    def test_cache_namespace_and_payload_pinned(self, tmp_path):
        """Warm caches written before the campaign had one engine stay
        valid: entries live in the ``differential-outcome-tensor``
        namespace and the key payload names the reference/tensor pair.
        A second run is served entirely from cache."""
        seeds = range(20)
        cold = campaign(seeds, n_cycles=100, cache_dir=tmp_path)
        assert cold.cached == 0 and cold.executed == 20
        assert [p.name for p in tmp_path.iterdir()] == [
            "differential-outcome-tensor"
        ]
        payload = _scenario_cache_payload(3, 100)
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
        surface as the object model with identical outcomes, and slot
        inspection (head, pending, backlog, counters) agrees exactly
        after runs that miss, drop and block-consume."""
        arch, streams = _random_arch_streams(42, 4)
        arch = dataclasses.replace(arch, routing=Routing.BA)
        tensor = TensorScheduler(arch, streams)
        oracle = ShareStreamsScheduler(arch, streams)

        def inspect(sched):
            return [
                (
                    sched.slot(sid).head,
                    list(sched.slot(sid).pending),
                    sched.slot(sid).backlog,
                    sched.slot(sid).counters,
                )
                for sid in range(4)
            ]

        phases = [
            dict(consume="winner", count_misses=True),
            dict(consume="winner", count_misses=True, drop_late=True),
            dict(consume="block", count_misses=False),
        ]
        t = 0
        dropped = 0
        queued = 0
        for kwargs in phases:
            for _ in range(40):
                for sid in range(4):
                    if (t + sid) % 3 == 0:
                        for k in range(1 + sid % 2):
                            packet = dict(
                                deadline=t + sid + k, arrival=t,
                                length=100 * (sid + 1) + k,
                            )
                            tensor.enqueue(sid, **packet)
                            oracle.enqueue(sid, **packet)
                a = tensor.decision_cycle(t, **kwargs)
                assert a == oracle.decision_cycle(t, **kwargs)
                dropped += len(a.dropped)
                t += 1
            state = inspect(tensor)
            assert state == inspect(oracle)
            queued += sum(len(pending) for _, pending, _, _ in state)
        counters = tensor.counters()
        assert counters == oracle.counters()
        assert sum(c.missed_deadlines for c in counters.values()) > 0
        assert dropped > 0 and queued > 0
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


class _SummarySpy:
    """Observer that keeps every whole-run summary it receives."""

    def __init__(self):
        self.summaries = []

    def on_decision(self, outcome):
        raise AssertionError("run_periodic emits no per-cycle outcomes")

    def on_run_summary(self, result):
        self.summaries.append(result)


def test_run_periodic_feeds_each_row_observer():
    """A multi-row campaign hands each observer its own row's result;
    the one-row adapter's observer gets its single summary through the
    same path."""
    arch = ArchConfig(n_slots=4, routing=Routing.WR, wrap=False)
    rows = [
        [StreamConfig(sid=i, period=1 + (i + s) % 3) for i in range(4)]
        for s in range(2)
    ]
    spies = [_SummarySpy(), _SummarySpy()]
    engine = CampaignEngine(arch, rows, observers=spies)
    results = engine.run_periodic(50)
    for spy, result in zip(spies, results):
        assert len(spy.summaries) == 1 and spy.summaries[0] is result
    assert results[0].wins.tolist() != results[1].wins.tolist()

    spy = _SummarySpy()
    result = TensorScheduler(arch, rows[0], observer=spy).run_periodic(50)
    assert len(spy.summaries) == 1 and spy.summaries[0] is result


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


@pytest.mark.parametrize("count", [2.5, True, "3"])
def test_advance_idle_rejects_non_integer_counts(count):
    """An idle count that is not an integer raises like the control unit
    it feeds, before the control unit, the fast-forward counter or the
    phase timer move (``advance_idle(2.5)`` used to account 2.5 cycles,
    and ``True`` one)."""
    from repro.observability import SpanTracer

    arch, streams = _random_arch_streams(3, 4)
    engine = CampaignEngine(arch, [streams] * 2, tracer=SpanTracer("idle"))

    def state():
        control = engine.control
        return (
            control.hw_cycle, control.decision_cycles, control.state,
            engine.fast_forwarded,
            [engine.counters(s) for s in range(engine.n_scenarios)],
        )

    before = state()
    with pytest.raises(ValueError, match="cycle count must be an integer"):
        engine.advance_idle(count)
    assert state() == before
    engine.record_phases()
    fast_forward = [
        r for r in engine.tracer.records() if r.name == "fast_forward"
    ]
    assert fast_forward[0].tags == {"calls": 0, "cycles": 0}


def _late_head_arch(target: str):
    """A WR scheduler with a head late at now=5 and one on time, and a
    snapshot of everything a rejected decision must leave untouched."""
    arch = ArchConfig(n_slots=4, routing=Routing.WR, wrap=False)
    streams = [
        StreamConfig(sid=i, period=1, loss_numerator=1, loss_denominator=2)
        for i in range(4)
    ]
    sched = make_scheduler(arch, streams, engine=target)
    sched.enqueue(0, deadline=1, arrival=0)
    sched.enqueue(1, deadline=9, arrival=0)

    def snapshot():
        return (
            sched.control.hw_cycle,
            sched.control.decision_cycles,
            sched.counters(),
            [sched.slot(sid).head for sid in range(4)],
        )

    return sched, snapshot


@pytest.mark.parametrize("target", ["reference", "tensor"])
def test_wr_block_consume_rejected_before_state_change(target):
    """WR emits only the winner, so block consumption is refused before
    the SCHEDULE passes are charged or any miss is registered."""
    sched, snapshot = _late_head_arch(target)
    before = snapshot()
    with pytest.raises(ValueError, match="block consumption requires BA"):
        sched.decision_cycle(5, consume="block", count_misses=True)
    assert snapshot() == before


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(False)])
@pytest.mark.parametrize("flag", ["count_misses", "drop_late"])
@pytest.mark.parametrize("target", ["reference", "tensor"])
def test_decision_cycle_rejects_non_bool_flags(target, flag, value):
    """``decision_cycle``'s ``count_misses`` and ``drop_late`` are
    switches: anything but a ``bool`` raises the same named
    ``ValueError`` on both engines before any state changes
    (``count_misses="no"`` used to count the miss)."""
    sched, snapshot = _late_head_arch(target)
    before = snapshot()
    message = f"{flag} must be a bool, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sched.decision_cycle(5, **{flag: value})
    assert snapshot() == before


@pytest.mark.parametrize("side", ["python", "numpy"])
@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(count_misses="no"), "count_misses must be a bool, got 'no'"),
        (dict(count_misses=[True, 0]), "count_misses must be a bool, got 0"),
        (dict(drop_late=[False, "yes"]), "drop_late must be a bool, got 'yes'"),
        (dict(drop_late=1), "drop_late must be a bool, got 1"),
    ],
    ids=["count-scalar", "count-row", "drop-row", "drop-scalar"],
)
def test_decision_cycle_all_rejects_non_bool_flags(
    monkeypatch, side, kwargs, message
):
    """``decision_cycle_all`` takes each flag as one ``bool`` or one per
    scenario; any entry that is not a ``bool`` raises, naming the flag,
    before any row changes (``count_misses="no"`` used to count the
    miss)."""
    from repro.core import tensor_engine

    monkeypatch.setattr(
        tensor_engine, "DRIVER_MAX_CELLS", 1 << 30 if side == "python" else 0
    )
    arch = ArchConfig(n_slots=4, routing=Routing.WR, wrap=False)
    streams = [
        StreamConfig(sid=i, period=1, loss_numerator=1, loss_denominator=2)
        for i in range(4)
    ]
    engine = CampaignEngine(arch, [streams, streams])
    assert engine.cycle_side == side
    for s in range(2):
        engine.enqueue(s, 0, deadline=1, arrival=0)  # late at now=5

    def snapshot():
        return (
            engine.control.hw_cycle,
            engine.control.decision_cycles,
            [engine.counters(s) for s in range(2)],
            [engine.slot(s, 0).head for s in range(2)],
        )

    before = snapshot()
    with pytest.raises(ValueError, match=re.escape(message)):
        engine.decision_cycle_all(5, **kwargs)
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


@pytest.mark.parametrize("length", [0, -1500])
@pytest.mark.parametrize(
    "target", ["reference", "tensor", "tier-submit", "tier-campaign-submit"]
)
def test_nonpositive_length_rejected(target, length):
    """A packet of ``length <= 0`` raises one named ``ValueError`` at
    the engines' ``enqueue`` and at both aggregation-tier ``submit``
    entry points, with nothing queued and no counter moved (the tier
    used to accept it and then serve 399:1 instead of 200:200)."""
    from repro.aggregation import AggregationCampaign, AggregationTier

    message = re.escape(f"packet length must be positive, got length={length}")
    if target in ("reference", "tensor"):
        streams = [StreamConfig(sid=i, period=1) for i in range(4)]
        sched = make_scheduler(ArchConfig(n_slots=4), streams, engine=target)
        sched.enqueue(0, deadline=9, arrival=0)
        with pytest.raises(ValueError, match=message):
            sched.enqueue(0, deadline=9, arrival=1, length=length)
        with pytest.raises(ValueError, match=message):
            sched.enqueue(1, deadline=9, arrival=1, length=length)
        assert sched.slot(0).backlog == 0
        assert sched.slot(1).head is None
        served = [
            sid
            for t in range(3)
            for sid, _packet in sched.decision_cycle(t).serviced
        ]
        assert served == [0]
        return
    if target == "tier-submit":
        tier = AggregationTier(2, engine="reference")
        core, submit = tier.core, tier.submit
    else:
        tier = AggregationCampaign(2, 1)
        core = tier.cores[0]

        def submit(sid, deadline, length=1500):
            tier.submit(0, sid, deadline, length)

    core.join(0, weight=1)
    submit(0, 5)
    with pytest.raises(ValueError, match=message):
        submit(0, 6, length)
    assert (core.enqueued, core.outstanding) == (1, 1)
    assert [s.enqueued for s in core.stats()] == [
        int(a == core.bucket(0)) for a in range(2)
    ]
    tier.drain()
    assert (core.enqueued, core.serviced) == (1, 1)


@pytest.mark.parametrize("target", ["reference", "tensor"])
def test_engines_take_no_legacy_trace_keyword(target):
    """Decisions reach telemetry only through ``observer=``: the engines
    and the factory refuse the removed ``trace=`` log, and the
    aggregation tier refuses a span ``tracer=``."""
    from repro.aggregation import AggregationTier

    arch, streams = _random_arch_streams(3, 4)
    with pytest.raises(TypeError):
        make_scheduler(arch, streams, engine=target, trace=object())
    sched = make_scheduler(arch, streams, engine=target)
    assert not hasattr(sched, "trace")
    with pytest.raises(TypeError):
        AggregationTier(4, engine=target, tracer=object())
