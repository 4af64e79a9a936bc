"""Span-merge determinism across the process pool.

The acceptance criterion the tentpole pins: one traced sharded campaign
produces one merged span tree whose *canonical* serialization is
byte-identical for any worker count — worker spans are recorded in the
workers, shipped back with the shard payloads and absorbed by the parent
tracer, and nothing about process layout may leak into canonical bytes.
The second half of the contract: attaching (or omitting) a tracer never
changes the campaign result itself.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.differential import campaign
from repro.observability.spans import SpanTracer

WORKER_COUNTS = (1, 2, 4)

seed_lists = st.lists(
    st.integers(min_value=0, max_value=50),
    min_size=1,
    max_size=4,
    unique=True,
)

relaxed = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _traced_campaign(seeds, workers):
    tracer = SpanTracer("merge-test")
    result = campaign(
        seeds,
        n_cycles=40,
        workers=workers,
        use_cache=False,
        tracer=tracer,
    )
    return result, tracer


@relaxed
@given(seeds=seed_lists)
def test_tensor_campaign_span_tree_worker_invariant(seeds):
    trees = {}
    summaries = {}
    for workers in WORKER_COUNTS:
        result, tracer = _traced_campaign(seeds, workers)
        assert result.passed
        trees[workers] = tracer.canonical_bytes()
        summaries[workers] = result.summary_json()
    assert trees[1] == trees[2] == trees[4]
    assert summaries[1] == summaries[2] == summaries[4]
    assert trees[1]  # non-empty: the campaign really was traced


def test_cache_hits_keep_span_tree_invariant(tmp_path):
    """Warm-cache runs resolve every seed in the bucket pre-pass, whose
    span reports the hits, so cached and executed runs agree on the
    spans they share and warm trees are worker invariant."""
    seeds = [3, 7, 11, 19]
    cache_dir = tmp_path / "cache"

    def run(workers):
        tracer = SpanTracer("cache-test")
        result = campaign(
            seeds,
            n_cycles=40,
            workers=workers,
            cache_dir=cache_dir,
            tracer=tracer,
        )
        return result, tracer

    cold, cold_tracer = run(1)
    assert cold.cached == 0
    warm1, warm1_tracer = run(1)
    warm4, warm4_tracer = run(4)
    assert warm1.cached == len(seeds) == warm4.cached
    assert warm1_tracer.canonical_bytes() == warm4_tracer.canonical_bytes()

    def named(tracer, name):
        return [r for r in tracer.records() if r.canonical and r.name == name]

    (prepass,) = named(warm1_tracer, "bucket_prepass")
    assert prepass.tags["cached"] == len(seeds)
    assert prepass.tags["pending"] == prepass.tags["buckets"] == 0
    # Cache state changes execution depth (hits skip the bucket
    # subtree), not identity: the campaign and pre-pass spans keep the
    # same paths and span ids across cold and warm runs.
    assert named(cold_tracer, "bucket") and not named(warm1_tracer, "bucket")

    def shared_spans(tracer):
        return {
            r.path: r.span_id
            for r in tracer.records()
            if r.canonical and r.name in ("campaign", "bucket_prepass")
        }

    assert shared_spans(cold_tracer) == shared_spans(warm1_tracer)


def test_disabled_tracer_leaves_campaign_summary_untouched():
    """tracer=None (the seed baseline) and a traced run produce
    byte-identical campaign summaries."""
    seeds = range(6)
    baseline = campaign(seeds, n_cycles=40, workers=2, use_cache=False)
    traced, _ = _traced_campaign(seeds, 2)
    assert baseline.summary_json() == traced.summary_json()
