"""Unit tests for the sharded runner: pool, cache and snapshot merge.

The load-bearing property throughout is *worker-count independence*:
``run_sharded`` must merge per-item results into output identical to
a sequential run, for any worker count, with failures isolated to
exactly the items they took down.  Campaign buckets ship their metric
snapshots back as plain results, folded by ``merge_snapshots``.
"""

import json
import os

import pytest

from repro.observability import MetricsRegistry, merge_snapshots
from repro.runner import (
    CacheStats,
    PoolResult,
    ResultCache,
    ShardFailure,
    available_parallelism,
    resolve_workers,
    run_sharded,
    start_method,
)


# ---------------------------------------------------------------------------
# Module-level tasks (the pool contract: picklable callables).


def square(x):
    return x * x


def square_scaled(x, factor):
    return x * x * factor


def raise_on_odd(x):
    if x % 2:
        raise ValueError(f"odd item {x}")
    return x * x


def die_on(x, victim):
    if x == victim:
        os._exit(3)
    return x * x


class TestWorkerResolution:
    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1

    def test_resolve_workers(self):
        assert resolve_workers(5) == 5
        assert resolve_workers(1) == 1
        assert resolve_workers(0) == available_parallelism()
        assert resolve_workers(None) == available_parallelism()

    def test_start_method_known(self):
        assert start_method() in ("fork", "spawn", "forkserver", None)


class TestRunSharded:
    ITEMS = [7, 3, 11, 0, 5, 2, 9, 4]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_input_order_for_any_worker_count(self, workers):
        pool = run_sharded(square, self.ITEMS, workers=workers)
        assert pool.ok
        assert pool.results == [x * x for x in self.ITEMS]
        assert pool.executed == len(self.ITEMS)
        assert pool.cached == 0

    def test_task_args_forwarded(self):
        pool = run_sharded(
            square_scaled, [1, 2, 3], workers=2, task_args=(10,)
        )
        assert pool.results == [10, 40, 90]

    def test_workers_capped_at_item_count(self):
        pool = run_sharded(square, [1, 2], workers=16)
        assert pool.workers <= 2
        assert pool.results == [1, 4]

    def test_empty_items(self):
        pool = run_sharded(square, [], workers=4)
        assert pool.results == [] and pool.ok

    @pytest.mark.parametrize("workers", [1, 3])
    def test_raising_item_is_isolated(self, workers):
        pool = run_sharded(raise_on_odd, [2, 3, 4, 5, 6], workers=workers)
        assert not pool.ok
        assert pool.results == [4, None, 16, None, 36]
        assert sorted(pool.failed_items()) == [3, 5]
        for failure in pool.failures:
            assert "ValueError" in failure.error
            assert failure.describe()

    @pytest.mark.skipif(
        start_method() is None, reason="no multiprocessing start method"
    )
    def test_dead_shard_reports_its_items_and_spares_the_rest(self):
        items = [0, 1, 2, 3, 4, 5]
        pool = run_sharded(die_on, items, workers=2, task_args=(2,))
        assert not pool.ok
        # Round-robin sharding: shard 0 held the even items, shard 1 the
        # odd ones; only the dying shard's items are lost.
        lost = pool.failed_items()
        assert 2 in lost
        assert set(lost) == {0, 2, 4}
        assert pool.results[1::2] == [1, 9, 25]
        assert all(r is None for r in pool.results[0::2])
        (failure,) = pool.failures
        assert failure.exitcode == 3
        assert "exitcode 3" in failure.describe()

    def test_pool_result_helpers(self):
        pool = PoolResult(results=[1], failures=[], workers=1)
        assert pool.ok and pool.failed_items() == []
        failure = ShardFailure(shard=0, items=(4, 6), error="boom")
        pool = PoolResult(results=[None], failures=[failure], workers=1)
        assert not pool.ok and pool.failed_items() == [4, 6]


class TestResultCache:
    def test_key_is_canonical(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t", version="v")
        a = cache.key({"x": 1, "y": 2})
        b = cache.key({"y": 2, "x": 1})
        assert a == b and len(a) == 64

    def test_key_varies_with_inputs(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t", version="v")
        base = cache.key({"x": 1})
        assert cache.key({"x": 2}) != base
        assert ResultCache(tmp_path, namespace="u", version="v").key(
            {"x": 1}
        ) != base
        assert ResultCache(tmp_path, namespace="t", version="w").key(
            {"x": 1}
        ) != base

    def test_default_version_tracks_package(self, tmp_path):
        import repro

        cache = ResultCache(tmp_path)
        assert repro.__version__ in cache.version

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        key = cache.key({"seed": 1})
        assert cache.get(key) == (False, None)
        cache.put(key, {"passed": True})
        assert cache.get(key) == (True, {"passed": True})
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "writes": 1, "errors": 0,
        }

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        key = cache.key({"seed": 1})
        cache.put(key, 42)
        path = cache._path(key)
        path.write_text("{ not json")
        assert cache.get(key) == (False, None)
        assert not path.exists()
        assert cache.stats.errors == 1

    def test_entry_layout_is_sharded_json(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="ns")
        key = cache.key({"seed": 9})
        cache.put(key, [1, 2])
        path = tmp_path / "ns" / key[:2] / f"{key}.json"
        assert path.exists()
        assert json.loads(path.read_text())["value"] == [1, 2]

    def test_stats_dataclass(self):
        stats = CacheStats(hits=1, misses=2, writes=3, errors=4)
        assert stats.as_dict() == {
            "hits": 1, "misses": 2, "writes": 3, "errors": 4,
        }


class TestShardedCaching:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_rerun_executes_nothing(self, tmp_path, workers):
        items = [3, 1, 4, 1, 5]
        cache = ResultCache(tmp_path, namespace="sq", version="v")
        kwargs = dict(
            workers=workers, cache=cache, cache_key=lambda x: {"x": x}
        )
        cold = run_sharded(square, items, **kwargs)
        assert cold.cached == 0 and cold.executed == len(items)
        warm = run_sharded(square, items, **kwargs)
        assert warm.cached == len(items) and warm.executed == 0
        assert warm.results == cold.results == [x * x for x in items]

    def test_cache_if_gates_writes(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="sq", version="v")
        kwargs = dict(
            cache=cache,
            cache_key=lambda x: {"x": x},
            cache_if=lambda item, result: item % 2 == 0,
        )
        run_sharded(square, [1, 2, 3, 4], **kwargs)
        again = run_sharded(square, [1, 2, 3, 4], **kwargs)
        assert again.cached == 2  # only the even items were stored
        assert again.results == [1, 4, 9, 16]

    def test_failed_items_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="odd", version="v")
        kwargs = dict(cache=cache, cache_key=lambda x: {"x": x})
        first = run_sharded(raise_on_odd, [2, 3], **kwargs)
        assert not first.ok
        second = run_sharded(raise_on_odd, [2, 3], **kwargs)
        assert second.cached == 1  # the passing item only
        assert second.executed == 1  # the failing item revalidates

    def test_encode_decode_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="enc", version="v")
        kwargs = dict(
            cache=cache,
            cache_key=lambda x: {"x": x},
            cache_encode=lambda result: {"v": result},
            cache_decode=lambda value: value["v"],
        )
        cold = run_sharded(square, [2, 3], **kwargs)
        warm = run_sharded(square, [2, 3], **kwargs)
        assert warm.results == cold.results == [4, 9]

    def test_cache_requires_key_fn(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="cache_key"):
            run_sharded(square, [1], cache=cache)


def _fill(registry, *, runs):
    """Deterministic metric traffic: ``runs`` repetitions of one shape."""
    counter = registry.counter("t_decisions_total", "decisions")
    gauge = registry.gauge("t_backlog", "backlog")
    hist = registry.histogram("t_gap", "gaps", buckets=(1.0, 5.0))
    for _ in range(runs):
        counter.inc(3, stream=0)
        counter.inc(1, stream=1)
        # Gauges merge last-write-wins, so the fill must leave the same
        # final level whether it ran as one whole or as merged halves.
        gauge.set(42, stream=0)
        hist.observe(0.5)
        hist.observe(2.0)
        hist.observe(7.0)


class TestMetricsMerge:
    def test_merged_parts_equal_the_whole(self):
        whole = MetricsRegistry()
        _fill(whole, runs=4)
        parts = []
        for runs in (1, 3):
            part = MetricsRegistry()
            _fill(part, runs=runs)
            parts.append(part.snapshot())
        assert merge_snapshots(parts) == whole.snapshot()

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("t_g").set(1.0)
        b.gauge("t_g").set(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["t_g"]["samples"]["t_g"] == 2.0

    def test_type_conflict_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("t_x").inc()
        b.gauge("t_x").set(1.0)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])
