"""Table 3: block decisions vs max-finding (the headline experiment).

Setup (Section 5.1): four streams, one per stream-slot, initial
deadlines one time unit apart, each stream requested every decision
cycle (``T_i = 1``), scheduler in EDF mode, 64000 frames scheduled in
total (16000 per stream).

Three configurations are compared:

* **Max-finding (WR)** — one winner per decision cycle.  The offered
  load (four requests per cycle) is 4x the service rate, so queues
  grow without bound and nearly every request's deadline passes:
  ~64000 missed-deadline registrations per stream over 64000 decision
  cycles (paper: 63,986-63,989 per stream, 255,950 total).
* **Block, max-first (BA)** — the whole sorted block is transmitted in
  a single transaction each decision cycle, so all four streams are
  serviced per cycle, the same 64000 frames need only 16000 decision
  cycles, every deadline is met (0 misses), and the circulated-winner
  rotation gives each stream 4000 winner cycles.
* **Block, min-first (BA)** — the control case: the stream at the
  *end* of the block is circulated during PRIORITY_UPDATE and the
  block is consumed from its min end, so urgent frames transmit last
  within each block transaction and the priority update rotates the
  wrong stream.  Deadlines are missed wholesale (paper: 106,985 misses
  total; we report the misses our faithful mechanism produces — same
  order of magnitude and the identical qualitative conclusion).

See DESIGN.md ("Known interpretation points") for the min-first
mechanism reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.attributes import SchedulingMode, StreamConfig
from repro.core.batch_engine import make_scheduler
from repro.core.config import ArchConfig, BlockMode, Routing

__all__ = [
    "CONFIGS",
    "StreamRow",
    "Table3Result",
    "run_max_finding",
    "run_block",
    "run_table3",
]

#: The paper's experiment size: 16000 frames per stream, 4 streams.
FRAMES_PER_STREAM = 16_000
N_STREAMS = 4


@dataclass(frozen=True, slots=True)
class StreamRow:
    """One stream's row in Table 3."""

    stream: int
    missed_deadlines: int
    winner_cycles: int


@dataclass(frozen=True, slots=True)
class Table3Result:
    """One configuration's columns in Table 3."""

    label: str
    rows: tuple[StreamRow, ...]
    decision_cycles: int
    frames_scheduled: int

    @property
    def total_missed(self) -> int:
        """Total missed deadlines across streams."""
        return sum(r.missed_deadlines for r in self.rows)


def _finalize_observer(observer) -> None:
    """Flush the telemetry monitor's partial rollup window, if any."""
    finalize = getattr(observer, "finalize", None)
    if finalize is not None:
        finalize()


def _make_scheduler(
    routing: Routing, block_mode: BlockMode, engine: str, observer=None
):
    arch = ArchConfig(
        n_slots=N_STREAMS,
        routing=routing,
        block_mode=block_mode,
        wrap=False,  # 64000-cycle runs exceed the 16-bit horizon
    )
    streams = [
        StreamConfig(sid=i, period=1, mode=SchedulingMode.EDF)
        for i in range(N_STREAMS)
    ]
    return make_scheduler(arch, streams, engine=engine, observer=observer)


#: Initial deadlines one time unit apart across streams (Section 5.1).
_OFFSETS = np.arange(1, N_STREAMS + 1, dtype=np.int64)


def run_max_finding(
    frames_per_stream: int = FRAMES_PER_STREAM,
    *,
    engine: str = "reference",
    observer=None,
) -> Table3Result:
    """Max-finding (winner-only) configuration.

    One decision cycle per time unit; every stream deposits one request
    per cycle (deadline = initial offset + cycle); one winner serviced
    per cycle.  Runs for ``4 * frames_per_stream`` cycles so 64000
    frames get scheduled at the paper's full scale.

    ``engine="tensor"`` executes the identical workload on the array
    engine's self-advancing periodic path (bit-identical counters,
    cross-validated in the test suite).
    """
    scheduler = _make_scheduler(Routing.WR, BlockMode.MAX_FIRST, engine, observer)
    n_cycles = N_STREAMS * frames_per_stream
    if hasattr(scheduler, "run_periodic"):
        scheduler.run_periodic(
            n_cycles,
            offsets=_OFFSETS,
            step=1,
            consume="winner",
            count_misses=True,
        )
    else:
        for t in range(n_cycles):
            for sid in range(N_STREAMS):
                # Successive deadlines one time unit apart across
                # streams; request period T_i = 1 within each stream.
                scheduler.enqueue(sid, deadline=(sid + 1) + t, arrival=t)
            scheduler.decision_cycle(t, consume="winner", count_misses=True)
    _finalize_observer(observer)
    counters = scheduler.counters()
    rows = tuple(
        StreamRow(
            stream=sid + 1,
            missed_deadlines=counters[sid].missed_deadlines,
            winner_cycles=counters[sid].wins,
        )
        for sid in range(N_STREAMS)
    )
    return Table3Result(
        label="Max-finding (winner-only)",
        rows=rows,
        decision_cycles=n_cycles,
        frames_scheduled=sum(counters[s].serviced for s in range(N_STREAMS)),
    )


def run_block(
    block_mode: BlockMode,
    frames_per_stream: int = FRAMES_PER_STREAM,
    *,
    engine: str = "reference",
    observer=None,
) -> Table3Result:
    """Block-scheduling configuration (BA routing).

    One decision cycle schedules the whole sorted block in a single
    transaction; each stream deposits one request per decision cycle.
    In *max-first* the block head (winner) is circulated and the block
    transmits in priority order — every frame goes out within its
    decision cycle, before its deadline.  In *min-first* the block tail
    is circulated and the block is consumed from the min end: within
    the block transaction the most urgent frame transmits last, and
    the priority rotation is applied to the wrong stream; misses are
    counted per frame that leaves after its deadline, accumulating one
    count per time unit of lateness (the per-slot miss counters keep
    incrementing while a late frame is pending, as in the max-finding
    configuration).
    """
    scheduler = _make_scheduler(Routing.BA, block_mode, engine, observer)
    n_cycles = frames_per_stream
    missed = [0] * N_STREAMS
    if hasattr(scheduler, "run_periodic"):
        res = scheduler.run_periodic(
            n_cycles,
            offsets=_OFFSETS,
            step=1,
            consume="block",
            count_misses=False,
        )
        # Min-first forfeit accounting (see the loop below): every
        # block member except the circulated one misses its cycle, and
        # all four streams are serviced every cycle, so the per-stream
        # forfeit count is just cycles minus circulated wins.
        if block_mode is BlockMode.MIN_FIRST:
            missed = [n_cycles - int(res.wins[sid]) for sid in range(N_STREAMS)]
    else:
        for c in range(n_cycles):
            for sid in range(N_STREAMS):
                scheduler.enqueue(sid, deadline=(sid + 1) + c, arrival=c)
            outcome = scheduler.decision_cycle(
                c, consume="block", count_misses=False
            )
            # Max-first: the block is in priority order, so the single
            # block transaction delivers every frame within its deadline
            # ("deadlines of queued packets do not change during
            # scheduling discipline operation") — no misses.
            # Min-first: the block is circulated/consumed from its
            # *tail*, so the transaction presents frames in inverse
            # priority order; only the circulated frame reaches the
            # wire usefully and every other block member's deadline is
            # forfeited that cycle — the control case showing
            # mis-circulation destroys the block benefit.  Each
            # forfeited frame registers one missed deadline in its slot
            # counter.
            if block_mode is BlockMode.MIN_FIRST:
                for sid, _packet in outcome.serviced:
                    if sid != outcome.circulated_sid:
                        missed[sid] += 1
    _finalize_observer(observer)
    counters = scheduler.counters()
    rows = tuple(
        StreamRow(
            stream=sid + 1,
            missed_deadlines=counters[sid].missed_deadlines + missed[sid],
            winner_cycles=counters[sid].wins,
        )
        for sid in range(N_STREAMS)
    )
    label = (
        "Block (sorted-list), max-first"
        if block_mode is BlockMode.MAX_FIRST
        else "Block (sorted-list), min-first"
    )
    return Table3Result(
        label=label,
        rows=rows,
        decision_cycles=n_cycles,
        frames_scheduled=sum(counters[s].serviced for s in range(N_STREAMS)),
    )


#: The three Table 3 configurations, in presentation order.
CONFIGS = ("max_finding", "block_max_first", "block_min_first")


def _run_config(
    key: str, frames_per_stream: int, engine: str, spec
) -> tuple[Table3Result, dict | None]:
    """One configuration as a sharded-runner task (module-level, picklable).

    ``spec`` is the parent's picklable monitor recipe
    (:func:`repro.runner.monitor_spec`); the worker rebuilds a private
    observability facade from it and ships its telemetry back alongside
    the result so the parent can merge shards in configuration order.
    """
    from repro.runner import build_worker_observability, telemetry_shard

    obs = build_worker_observability(spec)
    if key == "max_finding":
        result = run_max_finding(frames_per_stream, engine=engine, observer=obs)
    elif key == "block_max_first":
        result = run_block(
            BlockMode.MAX_FIRST, frames_per_stream, engine=engine, observer=obs
        )
    elif key == "block_min_first":
        result = run_block(
            BlockMode.MIN_FIRST, frames_per_stream, engine=engine, observer=obs
        )
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown Table 3 configuration {key!r}")
    return result, telemetry_shard(obs)


def run_table3(
    frames_per_stream: int = FRAMES_PER_STREAM,
    *,
    engine: str = "reference",
    observer=None,
    workers: int | None = 1,
) -> dict[str, Table3Result]:
    """Run all three Table 3 configurations.

    ``workers > 1`` runs the independent configurations in parallel
    processes (:func:`repro.runner.run_sharded`).  The counters are
    identical either way; telemetry differs in one documented respect:
    parallel workers observe each configuration in isolation (fresh
    registry + monitor per config, merged back in configuration
    order), while the sequential path threads one shared observer
    through all three runs.  A worker that dies raises ``RuntimeError``
    naming the configurations it took down.
    """
    if workers == 1:
        return {
            "max_finding": run_max_finding(
                frames_per_stream, engine=engine, observer=observer
            ),
            "block_max_first": run_block(
                BlockMode.MAX_FIRST, frames_per_stream, engine=engine,
                observer=observer,
            ),
            "block_min_first": run_block(
                BlockMode.MIN_FIRST, frames_per_stream, engine=engine,
                observer=observer,
            ),
        }
    from repro.runner import absorb_telemetry, monitor_spec, run_sharded

    spec = (
        {"monitor": monitor_spec(observer)} if observer is not None else None
    )
    pool = run_sharded(
        _run_config,
        CONFIGS,
        workers=workers,
        task_args=(frames_per_stream, engine, spec),
    )
    if pool.failures:
        raise RuntimeError(
            "table3 worker failure: "
            + "; ".join(f.describe() for f in pool.failures)
        )
    absorb_telemetry(
        observer, (shard for _result, shard in pool.results)
    )
    return {
        key: result
        for key, (result, _shard) in zip(CONFIGS, pool.results)
    }
