"""Per-flow isolation: ShareStreams vs the Section 5.2 line-card peers.

Section 5.2's qualitative claims:

* the Cisco GSR 12000 line-card does DRR + RED with **8 queues per
  port**, while "ShareStreams can support 32 queues ... with more
  sophisticated DWCS scheduling to meet QoS guarantees required by a
  mix of real-time streams and best-effort streams.  ShareStreams can
  provide per-flow queuing";
* the Teracross chip "supports only four service-classes without any
  per-flow queuing".

This experiment makes those claims measurable: a mix of heterogeneous
real-time flows (distinct periods → distinct deadlines) plus bursty
best-effort flows runs through three systems —

1. **ShareStreams** — per-flow stream-slots, deadline scheduling
   (DWCS with zero window-constraints = pure EDF ordering);
2. **GSR-style** — flows hashed onto 8 DRR queues fronted by RED,
   FIFO within a queue;
3. **Teracross-style** — 4 static-priority classes, FIFO within class.

Metrics: the fraction of real-time packets that leave after their
deadline (or are dropped), and the p99 queueing delay of the
*tightest-period* flows.  Per-flow queuing with deadline scheduling
meets every deadline and keeps the urgent flows' delay flat; class
FIFOs let urgent packets wait behind loose ones; hashed DRR queues add
cross-flow interference and RED losses on top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, Routing
from repro.disciplines.base import Packet
from repro.disciplines.red import REDQueue

__all__ = ["IsolationResult", "run_isolation"]


@dataclass(frozen=True, slots=True)
class IsolationResult:
    """One system's real-time QoS outcome."""

    system: str
    queues: int
    rt_packets: int
    rt_late_or_dropped: int
    be_packets_served: int
    tight_flow_p99_delay: float

    @property
    def rt_miss_rate(self) -> float:
        """Fraction of real-time packets late or lost."""
        return (
            self.rt_late_or_dropped / self.rt_packets if self.rt_packets else 0.0
        )


def _workload(
    horizon: int, rt_periods: list[int], n_be: int, seed: int
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """(rt arrivals, be arrivals) in packet-time units.

    rt: ``(t, flow, deadline)`` — flow ``i`` emits every ``periods[i]``
    with deadline one period out.  be: ``(t, flow)`` bursty arrivals.
    """
    rt = []
    for i, period in enumerate(rt_periods):
        for t in range(0, horizon, period):
            rt.append((t, i, t + period))
    rng = np.random.default_rng(seed)
    be = []
    for j in range(n_be):
        t = int(rng.integers(0, 20))
        while t < horizon:
            # Bursts of 4-12 back-to-back packets, then a gap.
            for b in range(int(rng.integers(4, 12))):
                if t + b < horizon:
                    be.append((t + b, j))
            t += int(rng.integers(30, 90))
    rt.sort()
    be.sort()
    return rt, be


def _p99(delays: list[float]) -> float:
    if not delays:
        return 0.0
    return float(np.percentile(np.asarray(delays), 99))


def _run_sharestreams(
    horizon: int, rt, be, periods, n_be: int, engine: str = "reference",
    observer=None,
) -> IsolationResult:
    """Per-flow slots: deadline ordering via DWCS(0,0) attributes."""
    n_rt = len(periods)
    tight = min(periods)
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.DWCS)
        for i in range(n_rt + n_be)
    ]
    arch = ArchConfig(n_slots=32, routing=Routing.WR, wrap=False)
    scheduler = make_scheduler(arch, streams, engine=engine, observer=observer)
    rt_iter, be_iter = 0, 0
    late = 0
    be_served = 0
    tight_delays: list[float] = []
    for t in range(horizon):
        while rt_iter < len(rt) and rt[rt_iter][0] == t:
            _, flow, deadline = rt[rt_iter]
            scheduler.enqueue(flow, deadline=deadline, arrival=t)
            rt_iter += 1
        while be_iter < len(be) and be[be_iter][0] == t:
            _, flow = be[be_iter]
            # Best-effort: deadlines far beyond the horizon.
            scheduler.enqueue(n_rt + flow, deadline=horizon * 4, arrival=t)
            be_iter += 1
        outcome = scheduler.decision_cycle(
            t, consume="winner", count_misses=False
        )
        for sid, packet in outcome.serviced:
            if sid < n_rt:
                if t > packet.deadline:
                    late += 1
                if periods[sid] == tight:
                    tight_delays.append(t - packet.arrival)
            else:
                be_served += 1
    finalize = getattr(observer, "finalize", None)
    if finalize is not None:
        finalize()  # flush the conformance monitor's partial window
    # Unserved rt packets past their deadline at the horizon count too.
    for sid in range(n_rt):
        slot = scheduler.slot(sid)
        pending = list(slot.pending)
        if slot.head is not None:
            pending.insert(0, slot.head)
        late += sum(1 for p in pending if p.deadline < horizon)
    return IsolationResult(
        system="ShareStreams (32 per-flow slots, DWCS deadlines)",
        queues=32,
        rt_packets=len(rt),
        rt_late_or_dropped=late,
        be_packets_served=be_served,
        tight_flow_p99_delay=_p99(tight_delays),
    )


def _run_gsr(horizon: int, rt, be, periods, n_be: int, seed: int) -> IsolationResult:
    """8 DRR queues + RED, flows hashed to queues, FIFO within."""
    n_queues = 8
    tight = min(periods)
    rt_queues = [
        REDQueue(min_th=8, max_th=24, capacity=64, rng=seed + q)
        for q in range(4)
    ]
    be_queues = [
        REDQueue(min_th=4, max_th=12, capacity=32, rng=seed + 10 + q)
        for q in range(4)
    ]
    queues = rt_queues + be_queues
    # Real-time queues get 6x the best-effort weight (~86% of the link
    # when everything is backlogged) — comfortably above the rt load.
    weights = [6.0] * 4 + [1.0] * 4
    deficit = [0.0] * n_queues
    granted = [False] * n_queues
    cursor = 0
    rt_iter, be_iter = 0, 0
    late = 0
    dropped_rt = 0
    be_served = 0
    tight_delays: list[float] = []
    for t in range(horizon):
        while rt_iter < len(rt) and rt[rt_iter][0] == t:
            _, flow, deadline = rt[rt_iter]
            packet = Packet(
                stream_id=flow, seq=rt_iter, arrival=float(t),
                deadline=float(deadline), length=1,
            )
            if not rt_queues[flow % 4].enqueue(packet, now=float(t)):
                dropped_rt += 1
                if periods[flow] == tight:
                    tight_delays.append(float(periods[flow] * 4))
            rt_iter += 1
        while be_iter < len(be) and be[be_iter][0] == t:
            _, flow = be[be_iter]
            be_queues[flow % 4].enqueue(
                Packet(stream_id=flow, seq=be_iter, arrival=float(t), length=1),
                now=float(t),
            )
            be_iter += 1
        # One DRR service per packet-time; the round-robin state
        # (cursor, per-visit grant, remaining deficit) persists across
        # packet-times so each queue spends its quantum before the
        # rotation moves on.
        for _ in range(4 * n_queues):
            q = cursor % n_queues
            if len(queues[q]) == 0:
                deficit[q] = 0.0
                granted[q] = False
                cursor += 1
                continue
            if not granted[q]:
                deficit[q] += weights[q]
                granted[q] = True
            if deficit[q] < 1.0:
                granted[q] = False
                cursor += 1
                continue
            packet = queues[q].dequeue(now=float(t))
            deficit[q] -= 1.0
            if deficit[q] < 1.0 or len(queues[q]) == 0:
                granted[q] = False
                cursor += 1  # turn over after the quantum is spent
            if q < 4:
                if packet.deadline is not None and t > packet.deadline:
                    late += 1
                if periods[packet.stream_id] == tight:
                    tight_delays.append(t - packet.arrival)
            else:
                be_served += 1
            break
    # Residual late rt packets at the horizon.
    for q in rt_queues:
        while True:
            packet = q.dequeue(now=float(horizon))
            if packet is None:
                break
            if packet.deadline is not None and packet.deadline < horizon:
                late += 1
    return IsolationResult(
        system="GSR-style (8 queues, DRR + RED)",
        queues=8,
        rt_packets=len(rt),
        rt_late_or_dropped=late + dropped_rt,
        be_packets_served=be_served,
        tight_flow_p99_delay=_p99(tight_delays),
    )


def _run_teracross(horizon: int, rt, be, periods, n_be: int) -> IsolationResult:
    """4 static-priority classes, FIFO within class, no per-flow state."""
    tight = min(periods)
    classes: list[deque] = [deque() for _ in range(4)]
    rt_iter, be_iter = 0, 0
    late = 0
    be_served = 0
    tight_delays: list[float] = []
    for t in range(horizon):
        while rt_iter < len(rt) and rt[rt_iter][0] == t:
            _, flow, deadline = rt[rt_iter]
            # Two rt classes, flows split between them by id — no
            # per-flow or per-deadline differentiation inside a class.
            classes[flow % 2].append((t, deadline, flow))
            rt_iter += 1
        while be_iter < len(be) and be[be_iter][0] == t:
            _, flow = be[be_iter]
            classes[2 + flow % 2].append((t, None, flow))
            be_iter += 1
        for cls in classes:
            if cls:
                arrival, deadline, flow = cls.popleft()
                if deadline is None:
                    be_served += 1
                else:
                    if t > deadline:
                        late += 1
                    if periods[flow] == tight:
                        tight_delays.append(float(t - arrival))
                break
    for cls in classes[:2]:
        late += sum(1 for _, d, _f in cls if d is not None and d < horizon)
    return IsolationResult(
        system="Teracross-style (4 classes, no per-flow queuing)",
        queues=4,
        rt_packets=len(rt),
        rt_late_or_dropped=late,
        be_packets_served=be_served,
        tight_flow_p99_delay=_p99(tight_delays),
    )


def run_isolation(
    *,
    horizon: int = 4000,
    rt_periods: tuple[int, ...] = (8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 32, 32),
    n_be: int = 12,
    seed: int = 11,
    engine: str = "reference",
    observer=None,
) -> list[IsolationResult]:
    """Run all three systems on the same workload.

    ``engine`` selects the ShareStreams scheduler implementation
    (``"reference"`` object model or ``"tensor"`` array engine);
    the peer systems are unaffected.  ``observer`` is the telemetry
    hook, attached to the ShareStreams scheduler only.
    """
    periods = list(rt_periods)
    rt, be = _workload(horizon, periods, n_be, seed)
    return [
        _run_sharestreams(horizon, rt, be, periods, n_be, engine, observer),
        _run_gsr(horizon, rt, be, periods, n_be, seed),
        _run_teracross(horizon, rt, be, periods, n_be),
    ]
