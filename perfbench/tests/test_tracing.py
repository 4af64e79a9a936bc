"""Self-time and accounting arithmetic of the traced run."""

import sys
import types

import numpy as np
import pytest

from tracing import BENCH, LAYER, ROOT, Layer, SpanRecorder, Tracer, self_times, span_summary, unattributed_share


def test_self_time_nested_and_repeated_spans():
    # root(10) -> a(4) -> g(1); root -> a(3) again; root -> b(2)
    parent = np.array([-1, 0, 1, 0, 0])
    duration = np.array([10.0, 4.0, 1.0, 3.0, 2.0])
    assert self_times(parent, duration).tolist() == [1.0, 3.0, 1.0, 3.0, 2.0]


def test_self_times_sum_to_root_durations():
    parent = np.array([-1, 0, 1, 1, -1, 4])
    duration = np.array([8.0, 5.0, 1.0, 2.0, 6.0, 6.0])
    own = self_times(parent, duration)
    assert own.sum() == pytest.approx(duration[parent == -1].sum())
    assert own[4] == 0.0  # fully covered by its child


def test_span_summary_groups_repeated_names():
    rec = SpanRecorder()
    for name, par, start, end in (
        ("pass", -1, 0.0, 10.0),
        ("layer.a", 0, 1.0, 3.0),
        ("layer.a", 0, 4.0, 8.0),
        ("layer.b", 2, 5.0, 6.0),
    ):
        idx = rec.open(name)
        rec.parent[idx] = par
        rec.start[idx], rec.end[idx] = start, end
    rec._open.clear()
    summary = span_summary(rec)
    assert summary["layer.a"]["calls"] == 2
    assert summary["layer.a"]["self_s"] == pytest.approx(5.0)
    assert summary["layer.b"]["self_s"] == pytest.approx(1.0)
    assert summary["pass"]["self_s"] == pytest.approx(4.0)


def test_unattributed_share_excludes_benchmark_driver_time():
    # root(10) -> bench driver(2) -> layer(1); root -> layer(5)
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 2.0, 1.0, 5.0])
    kind = np.array([ROOT, BENCH, LAYER, LAYER])
    # root self 3; driver self 1 is the benchmark's, not the program's
    assert unattributed_share(parent, duration, kind) == pytest.approx(3.0 / 9.0)


def test_unattributed_share_is_zero_without_passes():
    assert unattributed_share(np.array([-1]), np.array([1.0]), np.array([LAYER])) == 0.0


@pytest.fixture
def toy_module():
    mod = types.ModuleType("perfbench_toy")

    def inner(x):
        return x + 1

    def outer(n):
        return sum(mod.inner(i) for i in range(n))

    class Thing:
        def work(self, n):
            return mod.outer(n)

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_wraps_and_restores(toy_module):
    original = toy_module.outer
    tracer = Tracer(
        [
            Layer("perfbench_toy:outer", "toy.outer"),
            Layer("perfbench_toy:inner", "toy.inner"),
            Layer("perfbench_toy:Thing.work", "toy.work"),
        ]
    )
    with tracer.installed():
        with tracer.span("bench.pass.x"):
            assert toy_module.Thing().work(5) == 15
            assert toy_module.outer(3) == 6
    assert toy_module.outer is original
    assert "work" in vars(toy_module.Thing)
    summary = span_summary(tracer.recorder)
    assert summary["toy.inner"]["calls"] == 8
    assert summary["toy.outer"]["calls"] == 2
    assert summary["toy.work"]["calls"] == 1
    total = sum(s["self_s"] for s in summary.values())
    assert total == pytest.approx(summary["bench.pass.x"]["durations"].sum())
