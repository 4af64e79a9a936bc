"""Property-based invariants of the observability layer.

Hypothesis drives seeds through :func:`generate_scenario`, so every
property is checked across both routings, both block modes, wrapped
and ideal arithmetic, and all four update disciplines.  The invariants
under test are the accounting identities that make the telemetry
trustworthy:

* a serviced slot appears at most once per decision cycle (the
  hardware consumes one head per slot per cycle);
* per-stream serviced counters sum to the total serviced count, and
  the decision counter equals the number of cycles;
* every histogram's observation count equals the matching counter
  (slack samples are per serviced packet);
* an observer is handed exactly the outcomes a run returns, cycle by
  cycle, on both engines and through a bucketed run's idle
  fast-forward;
* attaching telemetry never changes scheduling decisions — outcomes
  are identical with and without an observer;
* a disabled (``observer=None``) run records nothing anywhere;
* histogram and gap-sketch observations land in the same buckets as
  the linear scan they replaced (kept here as the reference), NaN and
  infinities included, through export and ``merge_snapshots``.
"""

import json
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differential import (
    _cycle_record,
    generate_scenario,
    run_bucket,
    run_engine,
)
from repro.observability import (
    GapSketch,
    MetricsRegistry,
    Observability,
    merge_snapshots,
)
from repro.observability.metrics import _fmt, _label_suffix

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Every engine that drives ``decision_cycle`` per cycle through
#: ``differential.run_engine``.
ENGINES = st.sampled_from(["reference", "tensor"])
#: The engines under ``run_engine``, plus ``run_bucket`` over sparse
#: same-shape siblings, whose idle fast-forward synthesizes outcomes.
RUNS = st.sampled_from(["reference", "tensor", "bucket"])


def _scenario(seed: int):
    return generate_scenario(seed, n_cycles=60, max_slots=16)


class _Tap:
    """Observer that keeps every outcome it is handed, then forwards it."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def on_decision(self, outcome):
        self.seen.append(outcome)
        self.inner.on_decision(outcome)


def _observed_runs(seed: int, run: str):
    """``(trace, tap)`` per scenario; each tap feeds an Observability."""
    scenario = _scenario(seed)
    if run != "bucket":
        tap = _Tap(Observability(profile=False))
        return [(run_engine(scenario, run, observer=tap), tap)]
    # Sparse arrivals, drained one packet per cycle: the bucket goes
    # idle between arrivals and run_bucket fast-forwards the gaps.
    members = [
        replace(scenario, seed=scenario.seed + k, arrival_prob=0.02, consume="winner")
        for k in range(3)
    ]
    taps = [_Tap(Observability(profile=False)) for _ in members]
    stats: dict = {}
    traces = run_bucket(members, observers=taps, stats=stats)
    assert stats["fast_forwarded"] > 0
    return list(zip(traces, taps))


def _label_total(registry, name: str) -> float:
    counter = registry.counter(name, "")
    return sum(counter.value(**dict(labels)) for labels in counter.label_sets())


class TestAccountingIdentities:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, engine=ENGINES)
    def test_serviced_slot_at_most_once_per_cycle(self, seed, engine):
        trace = run_engine(_scenario(seed), engine)
        for record in trace.records:
            sids = [sid for sid, *_ in record.serviced]
            assert len(sids) == len(set(sids)), (
                f"slot serviced twice in cycle {record.now}: {sids}"
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, engine=ENGINES)
    def test_counters_sum_to_totals(self, seed, engine):
        obs = Observability(profile=False)
        trace = run_engine(_scenario(seed), engine, observer=obs)
        m = obs.metrics
        n_cycles = len(trace.records)
        total_serviced = sum(len(r.serviced) for r in trace.records)
        total_misses = sum(len(r.misses) for r in trace.records)
        total_drops = sum(len(r.dropped) for r in trace.records)
        decisions = m.counter("sharestreams_decisions_total", "").value()
        idle = m.counter("sharestreams_idle_cycles_total", "").value()
        assert decisions == n_cycles
        assert idle == sum(1 for r in trace.records if r.circulated is None)
        assert _label_total(m, "sharestreams_serviced_total") == total_serviced
        assert _label_total(m, "sharestreams_misses_total") == total_misses
        assert _label_total(m, "sharestreams_drops_total") == total_drops
        # Per-stream serviced counters agree with the engine's own.
        serviced_counter = m.counter("sharestreams_serviced_total", "")
        for sid, counters in trace.counters.items():
            assert serviced_counter.value(stream=sid) == counters[1]

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, engine=ENGINES)
    def test_histogram_counts_match_counters(self, seed, engine):
        obs = Observability(profile=False)
        run_engine(_scenario(seed), engine, observer=obs)
        m = obs.metrics
        slack = m.histogram("sharestreams_deadline_slack", "")
        assert slack.total_count() == _label_total(
            m, "sharestreams_serviced_total"
        )
        serviced_counter = m.counter("sharestreams_serviced_total", "")
        for labels in slack.label_sets():
            kwargs = dict(labels)
            assert slack.count(**kwargs) == serviced_counter.value(**kwargs)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, run=RUNS)
    def test_trace_events_match_outcome_stream(self, seed, run):
        for trace, tap in _observed_runs(seed, run):
            # Every sink reads the outcome the run returns, so equal
            # cycle records imply equal telemetry.
            assert [_cycle_record(o) for o in tap.seen] == list(trace.records)
            events = list(tap.inner.recorder.events())
            assert len(events) == sum(
                1 + len(r.misses) + len(r.dropped) for r in trace.records
            )
            assert [e.seq for e in events] == list(range(len(events)))


class TestTelemetryIsPassive:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, engine=ENGINES)
    def test_observer_never_changes_outcomes(self, seed, engine):
        scenario = _scenario(seed)
        plain = run_engine(scenario, engine)
        observed = run_engine(scenario, engine, observer=Observability())
        assert plain.records == observed.records
        assert plain.counters == observed.counters

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, engine=ENGINES)
    def test_disabled_run_records_nothing(self, seed, engine):
        # The engine saw observer=None; a bystander Observability must
        # stay empty (telemetry state is per-instance, never global).
        # Metric *families* are declared eagerly; no *samples* may
        # exist.
        bystander = Observability()
        run_engine(_scenario(seed), engine)
        assert bystander.recorder.recorded == 0
        snapshot = bystander.metrics.snapshot()
        assert all(not family["samples"] for family in snapshot.values())
        assert not bystander.tracer.records()


# ----------------------------------------------------------------------
# bucket filing: bisection vs the linear scan it replaced
# ----------------------------------------------------------------------


class _LinearHistogram:
    """The linear-scan histogram the bisected one replaced (reference)."""

    def __init__(self, name, buckets):
        self.name = name
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._counts = {}
        self._sums = {}
        self._totals = {}

    def observe(self, value, **labels):
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)
        self._totals[key] = self._totals.get(key, 0) + 1

    def sample_lines(self):
        lines = []
        for key in sorted(self._counts):
            for bound, c in zip(self.buckets, self._counts[key]):
                suffix = _label_suffix(key + (("le", _fmt(bound)),))
                lines.append((f"{self.name}_bucket", suffix, float(c)))
            suffix = _label_suffix(key + (("le", "+Inf"),))
            lines.append((f"{self.name}_bucket", suffix, float(self._totals[key])))
            lines.append((f"{self.name}_sum", _label_suffix(key), self._sums[key]))
            lines.append(
                (f"{self.name}_count", _label_suffix(key), float(self._totals[key]))
            )
        return lines

    def snapshot(self):
        samples = {name + suffix: v for name, suffix, v in self.sample_lines()}
        return {self.name: {"type": "histogram", "samples": samples}}


class _LinearGapSketch:
    """The linear-scan gap sketch the bisected one replaced (reference)."""

    def __init__(self, bounds):
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.max = 0.0
        self.sum = 0.0

    def observe(self, value):
        value = float(value)
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1


def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN (canonical JSON)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


_BOUNDS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@st.composite
def _filing_case(draw, *, unique_bounds: bool):
    bounds = draw(st.lists(_BOUNDS, min_size=1, max_size=12, unique=unique_bounds))
    value = st.one_of(
        st.sampled_from(bounds),  # exactly on a bucket bound
        _SPECIALS,
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(2**60), max_value=2**60),
    )
    values = draw(st.lists(st.tuples(value, st.sampled_from([0, 1])), max_size=40))
    return bounds, values


class TestBucketFiling:
    @settings(max_examples=200, deadline=None)
    @given(first=_filing_case(unique_bounds=True), data=st.data())
    def test_histogram_matches_linear_scan(self, first, data):
        bounds, values = first
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=bounds)
        ref = _LinearHistogram("h", bounds)
        for value, stream in values:
            hist.observe(value, stream=stream)
            ref.observe(value, stream=stream)
        assert _same(hist.sample_lines(), ref.sample_lines())
        assert _same(registry.snapshot(), ref.snapshot())

        # A second batch through the linear scan, merged at snapshot
        # level with either the registry's or the reference's first one.
        more = data.draw(st.lists(st.tuples(st.floats(), st.sampled_from([0, 2]))))
        ref_more = _LinearHistogram("h", bounds)
        for value, stream in more:
            ref_more.observe(value, stream=stream)
        merged = merge_snapshots([ref.snapshot(), ref_more.snapshot()])
        assert _same(
            merge_snapshots([registry.snapshot(), ref_more.snapshot()]), merged
        )

    @settings(max_examples=200, deadline=None)
    @given(case=_filing_case(unique_bounds=False))
    def test_gap_sketch_matches_linear_scan(self, case):
        bounds, values = case
        sketch = GapSketch(bounds)
        ref = _LinearGapSketch(bounds)
        for value, _stream in values:
            sketch.observe(value)
            ref.observe(value)
        assert sketch.counts == ref.counts
        assert sketch.overflow == ref.overflow
        assert sketch.total == ref.total
        assert _same([sketch.max, sketch.sum], [ref.max, ref.sum])
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            expected = GapSketch(bounds)
            expected.counts, expected.overflow = ref.counts, ref.overflow
            expected.total, expected.max = ref.total, ref.max
            assert _same(sketch.quantile(q), expected.quantile(q))
