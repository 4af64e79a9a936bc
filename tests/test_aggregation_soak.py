"""Minutes-scale churn soak of the million-stream aggregation tier.

Excluded from tier-1 (the ``soak`` marker is deselected by default via
``addopts``); run explicitly with::

    PYTHONPATH=src python -m pytest -m soak tests/test_aggregation_soak.py -s

Sustains a 1M-stream population under continuous churn + traffic for
``SOAK_SECONDS`` (default 60) wall-clock seconds and asserts the
steady-state invariants: membership accounting stays exact, every
accepted packet is serviced, per-stream hot-path state drains back to
empty, and RSS does not creep across the run (leak detection — the
bound is absolute, so per-operation leaks of even a few bytes fail it
at soak volumes).

Environment knobs: ``SOAK_SECONDS`` (duration), ``SOAK_STREAMS``
(population, default 1,000,000).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.aggregation import AggregationTier

SOAK_SECONDS = float(os.environ.get("SOAK_SECONDS", 60))
SOAK_STREAMS = int(os.environ.get("SOAK_STREAMS", 1_000_000))

#: RSS creep allowed across the soak (absolute; catches per-op leaks).
SOAK_RSS_BOUND_MB = 96.0


def _rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found")


@pytest.mark.soak
def test_million_stream_churn_soak():
    tier = AggregationTier(1024, engine="tensor", strict=False)
    for sid in range(SOAK_STREAMS):
        tier.join(sid)
    rss_start = _rss_bytes()

    deadline = 1 << 30
    next_sid = SOAK_STREAMS
    rotation = min(250_000, SOAK_STREAMS // 2)
    churned = submitted = iterations = 0
    started = time.perf_counter()
    while time.perf_counter() - started < SOAK_SECONDS:
        # One soak beat: a churn burst (fresh joins displace old
        # members), a traffic burst across the new arrivals plus a
        # rotating slice of the standing population, then a service
        # burst that drains everything just queued.
        for _ in range(500):
            tier.join(next_sid)
            tier.leave(next_sid - SOAK_STREAMS, weight=1)
            next_sid += 1
            churned += 1
        base = next_sid - 500
        for i in range(500):
            tier.submit(base + i, deadline)
            tier.submit(base - rotation + i, deadline)
            submitted += 2
        drained = tier.drain()
        assert drained == 1000
        assert tier.active_members == SOAK_STREAMS
        assert tier.core._pending == {}
        assert tier.core._finish == {}
        # The service log is a replay/debug aid, not hot-path state —
        # dropping it each beat keeps the soak's RSS check about the
        # tier itself.
        tier.services.clear()
        iterations += 1

    rss_creep = _rss_bytes() - rss_start
    elapsed = time.perf_counter() - started
    assert tier.core.serviced == tier.core.enqueued == submitted
    assert rss_creep <= SOAK_RSS_BOUND_MB * 1e6, (
        f"RSS crept {rss_creep / 1e6:.1f} MB over {elapsed:.0f}s of churn "
        f"(bound {SOAK_RSS_BOUND_MB} MB) — the tier leaks per-operation state"
    )
    print(
        f"\nsoak: {elapsed:.0f}s, {iterations} beats, {churned:,} churn ops, "
        f"{submitted:,} packets serviced, RSS creep "
        f"{rss_creep / 1e6:+.1f} MB (bound {SOAK_RSS_BOUND_MB} MB)"
    )
