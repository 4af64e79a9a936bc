"""The four benchmark workloads.

Each workload builds its inputs in :meth:`setup` (from the seed where
the inputs are seeded) and runs one *round* per call of :meth:`run`: a
pass on every role (``oracle``, ``array``, ``observed``), timed one by
one, plus the correctness checks on the round's simulated outputs.  A
round is a fixed amount of work, so rounds are repeated until the run's
time is up and each rate is the median over rounds.

Units per workload: decision cycles (``table3``), frames (``endsystem``),
scenarios validated (``campaign``) and packets serviced
(``aggregation``).  All times are host seconds, normalized to a
reference host speed (:class:`Clock`); simulated quantities only feed
the checks.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Check", "Clock", "Round", "digest", "make_workloads", "slo_stack"]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Round:
    """What one round measured and checked.

    ``seconds`` holds host-speed-normalized pass times (see
    :class:`Clock`), ``raw_seconds`` the measured ones.
    """

    units: float
    seconds: dict[str, float] = field(default_factory=dict)
    raw_seconds: dict[str, float] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    paper: dict[str, Any] = field(default_factory=dict)
    violations: int = 0

    def check(self, name: str, ok: bool, detail: Any = "") -> None:
        self.checks.append(Check(name, bool(ok), str(detail) if not ok else ""))

    def add(self, role: str, raw: float, normalized: float) -> None:
        self.raw_seconds[role] = self.raw_seconds.get(role, 0.0) + raw
        self.seconds[role] = self.seconds.get(role, 0.0) + normalized

    def combine(self, role: str, *parts: str) -> None:
        """Record ``role`` as the sum of already timed ``parts``."""
        self.add(
            role,
            sum(self.raw_seconds[p] for p in parts),
            sum(self.seconds[p] for p in parts),
        )


#: Iterations of the host-speed probe loop (about 1 ms of interpreter work).
PROBE_ITERATIONS = 1_600

#: The probe's duration on the reference host (2 vCPU Xeon at 2.1 GHz,
#: quiet sibling); normalized times are seconds of that host.
PROBE_NOMINAL_S = 0.001

_PROBE_KEYS = np.arange(8)


def probe() -> float:
    """Seconds a fixed mix of interpreter and small-NumPy work takes now.

    The mix (dict and tuple churn, method calls, tiny array ops) is the
    kind of work the engines do per decision cycle, so host slowdowns
    hit it the way they hit the passes it brackets.  It is the
    benchmark's own code: no change to the package can speed it up.
    """
    t0 = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    keys = _PROBE_KEYS
    for i in range(PROBE_ITERATIONS):
        table[i & 63] = (i, i + 1)
        acc += len(table[i & 63]) + (i % 7)
        if i & 15 == 0:
            acc += int(np.argsort(keys ^ (i & 7))[0])
    return time.perf_counter() - t0


class Clock:
    """Times passes, normalized to the host's current speed.

    Shared hosts change speed by up to 2x within seconds (another
    tenant on the sibling hyperthread).  Each pass is bracketed by two
    runs of a fixed probe loop; its time is scaled by
    ``PROBE_NOMINAL_S / mean(probe)``, i.e. expressed in seconds of a
    host running the probe at its nominal speed.  Passes are kept short
    (well under a second) so the host rarely changes speed mid-pass.
    Under tracing each pass is also a root span.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: Seconds spent in probes so far (excluded from every pass time).
        self.probe_s = 0.0

    def _probe(self) -> float:
        with self.driver():
            seconds = probe()
        self.probe_s += seconds
        return seconds

    def measure(self, rnd: Round, role: str, fn: Callable, *args, **kwargs) -> Any:
        """Time ``fn(*args, **kwargs)`` into ``rnd`` under ``role``."""
        before = self._probe()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            speed = PROBE_NOMINAL_S / (0.5 * (before + self._probe()))
            rnd.add(role, raw, raw * speed)

    def root(self, role: str):
        """Root span for a whole pass (no-op untraced)."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(f"bench.pass.{role}")

    def time(self, rnd: Round, role: str, fn: Callable[[], Any]) -> Any:
        """One timed pass."""
        with self.root(role):
            return self.measure(rnd, role, fn)

    def driver(self):
        """Span for benchmark-side driver code inside a pass."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("bench.driver")


def slo_stack(slos, obs=None):
    """What the CLI's ``--slo`` builds: Observability plus a conformance monitor.

    ``obs`` attaches the monitor to an existing facade instead (an
    aggregation tier's SLOs can only be derived once it is populated).
    """
    from repro.observability import ConformanceMonitor, Observability

    obs = Observability() if obs is None else obs
    obs.monitor = ConformanceMonitor(slos, window_cycles=256, registry=obs.metrics)
    return obs


def digest(stats: Any) -> str:
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _within(value: float, target: float, band: float) -> bool:
    return abs(value - target) <= band * abs(target)


def _rel_error(sim: float, paper: float) -> float | None:
    return None if paper == 0 else sim / paper - 1.0


#: Relative band for the Figure 8/10 share checks.
SHARE_BAND = 0.10


# ----------------------------------------------------------------------
# table3
# ----------------------------------------------------------------------


class Table3:
    """Paper Table 3 on the oracle, the array engine and the --slo stack.

    A round runs all three configurations at ``FRAMES`` frames per
    stream (1/40 of the paper's 16,000).  Every expected total is exact
    and linear in the frame count ``F``: max-finding misses ``16F - 18``,
    block max-first 0, block min-first ``3F``, ``F`` block winner
    cycles; at ``F = 16000`` these are the paper-scale gates 255,982 /
    0 / 48,000 / 16,000.  The inputs are the paper's, so the seed does
    not change them.
    """

    name = "table3"
    unit = "decision cycles"
    seeded = False
    FRAMES = 400
    PAPER = {"max_finding": 255_950, "block_max_first": 0, "block_min_first": 106_985}

    def __init__(self, engines: dict[str, str | None]) -> None:
        self.engines = engines

    @staticmethod
    def expected(frames: int) -> dict[str, int]:
        return {
            "max_finding": 16 * frames - 18,
            "block_max_first": 0,
            "block_min_first": 3 * frames,
            "block_winner_cycles": frames,
        }

    def setup(self, seed: int) -> dict:
        from repro.core.attributes import StreamConfig
        from repro.core.batch_engine import make_scheduler
        from repro.core.config import ArchConfig, BlockMode, Routing
        from repro.observability import StreamSlo

        # Engine build for every role, as each pass does it.
        for engine in (self.engines["oracle"], self.engines["array"]):
            for mode in (BlockMode.MAX_FIRST, BlockMode.MIN_FIRST):
                make_scheduler(
                    ArchConfig(n_slots=4, routing=Routing.BA, block_mode=mode, wrap=False),
                    [StreamConfig(sid=i, period=1) for i in range(4)],
                    engine=engine,
                )
        return {"slos": [StreamSlo(sid=i, miss_budget=0) for i in range(4)]}

    def _pass(self, engine: str, observer=None):
        from repro.experiments import table3

        return table3.run_table3(self.FRAMES, engine=engine, observer=observer, workers=1)

    @staticmethod
    def counters(results) -> dict:
        return {
            key: [[r.missed_deadlines, r.winner_cycles] for r in res.rows]
            + [res.decision_cycles, res.frames_scheduled]
            for key, res in results.items()
        }

    def run(self, state: dict, index: int, clock: Clock) -> Round:
        frames = self.FRAMES
        rnd = Round(units=6 * frames)
        oracle = clock.time(rnd, "oracle", lambda: self._pass(self.engines["oracle"]))
        array = clock.time(rnd, "array", lambda: self._pass(self.engines["array"]))
        obs = slo_stack(state["slos"])
        observed = clock.time(
            rnd, "observed", lambda: self._pass(self.engines["oracle"], obs)
        )
        t0 = time.perf_counter()
        same = self.counters(oracle) == self.counters(array)
        spent = time.perf_counter() - t0
        rnd.add("compare", spent, spent)
        rnd.combine("validate", "oracle", "array", "compare")
        rnd.check("oracle == array counters", same)
        rnd.check(
            "observed == oracle counters",
            self.counters(observed) == self.counters(oracle),
        )
        want = self.expected(frames)
        for key in ("max_finding", "block_max_first", "block_min_first"):
            for label, res in (("oracle", oracle), ("array", array)):
                got = res[key].total_missed
                rnd.check(f"{label} {key} total", got == want[key], f"{got} != {want[key]}")
        got = oracle["block_max_first"].decision_cycles
        rnd.check("block winner cycles", got == want["block_winner_cycles"], got)
        wins = sum(r.winner_cycles for r in oracle["block_max_first"].rows)
        rnd.check("block winner cycles per stream", wins == frames, wins)
        rnd.violations = len(obs.monitor.violations)
        rnd.stats = self.counters(oracle)
        scale = frames / 16_000
        rnd.paper = {
            key: {
                "simulated": oracle[key].total_missed,
                "paper_scaled": self.PAPER[key] * scale,
                "rel_error": _rel_error(oracle[key].total_missed, self.PAPER[key] * scale),
            }
            for key in self.PAPER
        }
        return rnd

    def baseline(self, state: dict, engine: str) -> float:
        rnd = Round(units=6 * self.FRAMES)
        Clock().measure(rnd, "batch", self._pass, engine)
        return rnd.units / rnd.seconds["batch"]


# ----------------------------------------------------------------------
# endsystem
# ----------------------------------------------------------------------


class Endsystem:
    """Figure 10 over Figure 8's 1:1:2:4 endsystem pipeline.

    A round runs ``FRAMES`` frames per stream (2,000 frames, 1/32 of the
    paper's 64,000) with 100 streamlets per slot on the oracle, the
    array engine and the oracle under the --slo stack with the Figure 8
    share SLOs.  Shares are rates, so the Figure 8/10 bands hold at any
    frame count.  The inputs are the paper's; the seed does not change
    them.
    """

    name = "endsystem"
    unit = "frames"
    seeded = False
    FRAMES = 500
    RATIOS = (1, 1, 2, 4)
    PAPER_SLOT_MBPS = (2.0, 2.0, 4.0, 8.0)
    PAPER_STREAMLET_MBPS = {"slot1/set1": 0.02, "slot2/set1": 0.02, "slot3/set1": 0.04}

    def __init__(self, engines: dict[str, str | None]) -> None:
        self.engines = engines

    def setup(self, seed: int) -> dict:
        from repro.endsystem.host import EndsystemConfig, EndsystemRouter
        from repro.observability import slos_from_shares
        from repro.traffic.specs import ratio_workload

        specs = ratio_workload(self.RATIOS, frames_per_stream=self.FRAMES)
        for engine in (self.engines["oracle"], self.engines["array"]):
            EndsystemRouter(specs, EndsystemConfig(engine=engine))
        return {"slos": slos_from_shares({i: float(r) for i, r in enumerate(self.RATIOS)})}

    def _pass(self, engine: str, observer=None):
        from repro.experiments import figure10

        return figure10.run_figure10(self.FRAMES, engine=engine, observer=observer)

    @staticmethod
    def slot_mbps(result) -> dict[int, float]:
        """Figure 8's steady per-slot MBps: mean over the saturated first quarter."""
        run = result.run
        horizon = run.elapsed_us / 4
        window = min(100_000.0, horizon / 4)
        bw = run.te.bandwidth
        out = {}
        for sid in bw.stream_ids:
            series = bw.series(sid, window, t_end=run.elapsed_us)
            mask = series.times_us <= horizon
            out[sid] = float(series.mbps[mask].mean())
        return out

    @staticmethod
    def outputs(result) -> dict:
        run = result.run
        bw = run.te.bandwidth
        return {
            "frames_sent": run.frames_sent,
            "bytes_sent": run.bytes_sent,
            "elapsed_us": repr(run.elapsed_us),
            "slot_bytes": [bw.total_bytes(sid) for sid in bw.stream_ids],
            "streamlets": sorted(
                [list(k), n]
                for slot in result.aggregators.values()
                for k, n in slot.service_counts().items()
            ),
        }

    def run(self, state: dict, index: int, clock: Clock) -> Round:
        frames = self.FRAMES
        rnd = Round(units=len(self.RATIOS) * frames)
        oracle = clock.time(rnd, "oracle", lambda: self._pass(self.engines["oracle"]))
        array = clock.time(rnd, "array", lambda: self._pass(self.engines["array"]))
        obs = slo_stack(state["slos"])
        observed = clock.time(
            rnd, "observed", lambda: self._pass(self.engines["oracle"], obs)
        )
        t0 = time.perf_counter()
        ref = self.outputs(oracle)
        same = ref == self.outputs(array) and oracle.streamlet_mbps() == array.streamlet_mbps()
        spent = time.perf_counter() - t0
        rnd.add("compare", spent, spent)
        rnd.combine("validate", "oracle", "array", "compare")
        rnd.check("oracle == array bandwidth series", same)
        rnd.check("observed == oracle bandwidth series", self.outputs(observed) == ref)
        rnd.check("frames sent", ref["frames_sent"] == rnd.units, ref["frames_sent"])
        slots = self.slot_mbps(oracle)
        base = min(slots.values())
        for sid, ratio in enumerate(self.RATIOS):
            rnd.check(
                f"slot {sid + 1} share",
                _within(slots[sid] / base, ratio, SHARE_BAND),
                slots,
            )
            rnd.check(
                f"slot {sid + 1} MBps",
                _within(slots[sid], self.PAPER_SLOT_MBPS[sid], SHARE_BAND),
                slots,
            )
        rep = oracle.representative_mbps()
        for group, mbps in self.PAPER_STREAMLET_MBPS.items():
            rnd.check(f"{group} MBps", _within(rep[group], mbps, SHARE_BAND), rep)
        rnd.check(
            "slot4 set1 = 2 x set2",
            _within(rep["slot4/set1"] / rep["slot4/set2"], 2.0, SHARE_BAND),
            rep,
        )
        rnd.violations = len(obs.monitor.violations)
        rnd.stats = ref
        rnd.paper = {
            "figure8_slot_mbps": {
                f"slot{sid + 1}": {
                    "simulated": slots[sid],
                    "paper": self.PAPER_SLOT_MBPS[sid],
                    "rel_error": _rel_error(slots[sid], self.PAPER_SLOT_MBPS[sid]),
                }
                for sid in range(len(self.RATIOS))
            },
            "figure10_streamlet_mbps": {
                group: {
                    "simulated": rep[group],
                    "paper": mbps,
                    "rel_error": _rel_error(rep[group], mbps),
                }
                for group, mbps in self.PAPER_STREAMLET_MBPS.items()
            },
        }
        return rnd

    def baseline(self, state: dict, engine: str) -> float:
        rnd = Round(units=len(self.RATIOS) * self.FRAMES)
        Clock().measure(rnd, "batch", self._pass, engine)
        return rnd.units / rnd.seconds["batch"]


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


def _scenario_class(scenario) -> tuple:
    """Shape class a campaign seed is matched on: engine shape + load."""
    from repro.core import differential

    return (
        differential.bucket_key(scenario),
        scenario.consume,
        min(3, 4 * (len(scenario.streams) - 1) // scenario.n_slots),
        scenario.arrival_prob >= 0.5,
    )


class Campaign:
    """The 50-seed differential campaign, 1000 cycles, array engine.

    The seed picks the campaign's scenario seeds.  Scenario *n* of every
    campaign has the shape class of scenario seed *n* of the canonical
    ``range(50)`` campaign (same engine shape, consume policy, stream
    count quartile and arrival-rate half), so campaigns from different
    seeds form the same buckets and cost about the same while their
    streams and arrivals differ.  Seed 0 is the canonical campaign.

    ``validate`` times the whole ``campaign()`` call with a fresh empty
    cache directory; ``oracle`` and ``array`` are the summed times of
    its oracle runs and bucket runs (two coarse timers, 91 calls per
    campaign); ``observed`` replays the first half of the scenarios on
    the oracle under the --slo stack (miss-budget SLOs from the
    scenarios' window constraints) and scales the campaign's oracle time
    by the replays' time over the same scenarios' plain oracle runs.
    """

    name = "campaign"
    unit = "scenarios"
    seeded = True
    SCENARIOS = 50
    CYCLES = 1000
    OBSERVED = 25

    def __init__(self, engines: dict[str, str | None], scratch: Path) -> None:
        self.engines = engines
        self.scratch = scratch

    def seeds(self, seed: int) -> list[int]:
        from repro.core import differential

        if seed == 0:
            return list(range(self.SCENARIOS))
        templates = [
            _scenario_class(differential.generate_scenario(s, n_cycles=self.CYCLES))
            for s in range(self.SCENARIOS)
        ]
        need: dict[tuple, list[int]] = {}
        for i, key in enumerate(templates):
            need.setdefault(key, []).append(i)
        chosen = [0] * self.SCENARIOS
        used: set[int] = set()
        rng = random.Random(seed)
        while need:
            cand = rng.getrandbits(31)
            if cand < self.SCENARIOS or cand in used:
                continue
            key = _scenario_class(differential.generate_scenario(cand, n_cycles=self.CYCLES))
            slots = need.get(key)
            if slots:
                chosen[slots.pop()] = cand
                used.add(cand)
                if not slots:
                    del need[key]
        return chosen

    def setup(self, seed: int) -> dict:
        from repro.core import differential
        from repro.observability import slos_from_streams

        seeds = self.seeds(seed)
        scenarios = [
            differential.generate_scenario(s, n_cycles=self.CYCLES)
            for s in seeds[: self.OBSERVED]
        ]
        slos = [slos_from_streams(s.streams, window_cycles=256) for s in scenarios]
        for scenario in scenarios:
            differential.build_engine(scenario, self.engines["oracle"])
        return {"seeds": seeds, "scenarios": scenarios, "slos": slos}

    def _campaign(self, seeds, engine: str, cache: bool):
        from repro.core import differential

        self.scratch.mkdir(parents=True, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch) if cache else None
        try:
            return differential.campaign(
                seeds,
                n_cycles=self.CYCLES,
                engine=engine,
                workers=1,
                cache_dir=cache_dir,
            )
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)

    def run(self, state: dict, index: int, clock: Clock) -> Round:
        from repro.core import differential

        rnd = Round(units=self.SCENARIOS)
        inner = Round(units=0)
        oracle_by_seed: dict[int, Round] = {}
        oracle = self.engines["oracle"]
        run_engine, run_bucket = differential.run_engine, differential.run_bucket

        def timed_engine(scenario, engine, *args, **kwargs):
            if engine != oracle:
                return run_engine(scenario, engine, *args, **kwargs)
            own = oracle_by_seed[scenario.seed] = Round(units=1)
            return clock.measure(own, "oracle", run_engine, scenario, engine, *args, **kwargs)

        def timed_bucket(*args, **kwargs):
            return clock.measure(inner, "array", run_bucket, *args, **kwargs)

        probes = clock.probe_s
        t0 = time.perf_counter()
        differential.run_engine, differential.run_bucket = timed_engine, timed_bucket
        try:
            with clock.root("validate"):
                result = self._campaign(state["seeds"], self.engines["array"], True)
        finally:
            differential.run_engine, differential.run_bucket = run_engine, run_bucket
        wall = time.perf_counter() - t0 - (clock.probe_s - probes)
        for own in oracle_by_seed.values():
            inner.add("oracle", own.raw_seconds["oracle"], own.seconds["oracle"])
        sub_raw = sum(inner.raw_seconds.values())
        sub_norm = sum(inner.seconds.values())
        rnd.add("validate", wall, sub_norm + (wall - sub_raw) * sub_norm / sub_raw)
        for role in ("oracle", "array"):
            rnd.add(role, inner.raw_seconds[role], inner.seconds[role])

        # The --slo stack's cost is measured on the first half of the
        # scenarios against their own oracle runs above (a paired ratio,
        # so the half's mix does not matter) and applied to the whole
        # campaign's oracle time.
        observed = Round(units=self.OBSERVED)
        for scenario, slos in zip(state["scenarios"], state["slos"]):
            obs = slo_stack(slos)
            clock.time(
                observed,
                "observed",
                lambda: differential.run_engine(scenario, oracle, observer=obs),
            )
            obs.finalize()
            observed.add(
                "plain",
                oracle_by_seed[scenario.seed].raw_seconds["oracle"],
                oracle_by_seed[scenario.seed].seconds["oracle"],
            )
            decides = obs.recorder.kinds().get("decide", 0)
            rnd.check(
                f"observed seed {scenario.seed}: one decision event per cycle",
                decides == self.CYCLES,
                decides,
            )
            rnd.violations += len(obs.monitor.violations)
        rnd.add(
            "observed",
            rnd.raw_seconds["oracle"]
            * observed.raw_seconds["observed"] / observed.raw_seconds["plain"],
            rnd.seconds["oracle"] * observed.seconds["observed"] / observed.seconds["plain"],
        )
        rnd.check("campaign passed", result.passed)
        rnd.check("no divergences", not result.divergences, len(result.divergences))
        rnd.check("no lost shards", not result.failures, len(result.failures))
        rnd.check("all scenarios ran", result.scenarios == self.SCENARIOS, result.scenarios)
        rnd.check(
            "fresh cache: nothing cached",
            result.cached == 0 and result.executed == self.SCENARIOS,
            (result.cached, result.executed),
        )
        rnd.stats = json.loads(result.summary_json())
        return rnd

    def baseline(self, state: dict, engine: str) -> float:
        # The batch engine validates seed by seed; half the campaign
        # (the observed scenarios) keeps the traced run short.
        rnd = Round(units=self.OBSERVED)
        seeds = state["seeds"][: self.OBSERVED]
        Clock().measure(rnd, "batch", self._campaign, seeds, engine, False)
        return rnd.units / rnd.seconds["batch"]


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


class ChurnScript:
    """Seeded join/leave/submit script over a joined population.

    Sids ``0 .. population-1`` are joined at set-up; the script then
    joins fresh sids, leaves random live ones and submits packets to
    random live ones.  All weights are 1 (the non-strict tier's
    default), so leaves never need a weight lookup.
    """

    LENGTHS = (300, 600, 900, 1500)
    JOIN_RATE = 0.15
    LEAVE_RATE = 0.1

    def __init__(self, seed: int, population: int, *, max_arrivals: int = 3):
        self.rng = random.Random(seed)
        self.next_sid = population
        self.left: set[int] = set()
        self.max_arrivals = max_arrivals
        self.t = 0

    def _live(self) -> int:
        while True:
            sid = self.rng.randrange(self.next_sid)
            if sid not in self.left:
                return sid

    def segment(self, cycles: int) -> list[tuple[list, list, list]]:
        rng = self.rng
        out = []
        for _ in range(cycles):
            joins, leaves, arrivals = [], [], []
            if rng.random() < self.JOIN_RATE:
                joins.append(self.next_sid)
                self.next_sid += 1
            if rng.random() < self.LEAVE_RATE:
                sid = self._live()
                self.left.add(sid)
                leaves.append(sid)
            for _ in range(rng.randint(0, self.max_arrivals)):
                arrivals.append(
                    (self._live(), self.t + rng.randint(1, 50), rng.choice(self.LENGTHS))
                )
            out.append((joins, leaves, arrivals))
            self.t += 1
        return out


class Aggregation:
    """The million-stream tier: 1M streams over 1024 aggregates, strict=False.

    ``array`` replays a segment of a seeded churn script (joins, leaves
    and submits interleaved with decision cycles) on the 1M-stream tier
    and drains it.  The reference engine serves about 60 packets/s at
    1024 slots, so ``oracle``, ``observed`` (oracle under the --slo
    stack with per-aggregate share SLOs) and the array engine's
    validation copy replay a shorter script on 1024 aggregates over
    16,384 streams and must emit identical service streams; the tier's
    per-packet work does not depend on the population.  A round is two
    1,000-cycle segments on the 1M tier and an 8-cycle segment on the
    validation tiers.
    """

    name = "aggregation"
    unit = "packets"
    seeded = True
    AGGREGATES = 1024
    STREAMS = 1_000_000
    SMALL = 16_384
    SEGMENT = 1000
    #: 1M-tier segments per round: the array pass is the shortest, so it
    #: gets two samples for every validation replay.
    ARRAY_SEGMENTS = 2
    SMALL_SEGMENT = 8

    def __init__(self, engines: dict[str, str | None]) -> None:
        self.engines = engines

    def _tier(self, engine: str, population: int, observer=None):
        from repro.aggregation import AggregationTier

        tier = AggregationTier(self.AGGREGATES, engine=engine, strict=False, observer=observer)
        for sid in range(population):
            tier.join(sid)
        return tier

    def setup(self, seed: int) -> dict:
        from repro.aggregation import aggregate_share_slos

        rss0 = _rss_mb()
        big = self._tier(self.engines["array"], self.STREAMS)
        rss_delta = _rss_mb() - rss0
        from repro.observability import Observability

        obs = Observability()
        small = {
            "oracle": self._tier(self.engines["oracle"], self.SMALL),
            "array": self._tier(self.engines["array"], self.SMALL),
            "observed": self._tier(self.engines["oracle"], self.SMALL, observer=obs),
        }
        slo_stack(aggregate_share_slos(small["observed"]), obs)
        return {
            "seed": seed,
            "big": big,
            "script": ChurnScript(seed, self.STREAMS),
            "small": small,
            # Denser arrivals keep the slow validation tiers backlogged,
            # so their per-packet time is not diluted by idle cycles.
            "small_script": ChurnScript(seed + 1, self.SMALL, max_arrivals=6),
            "obs": obs,
            "rss_delta_mb": rss_delta,
            "batch": None,
            "batch_script": None,
        }

    @staticmethod
    def replay(tier, segment, rnd: Round | None, label: str) -> int:
        """Apply a script segment cycle by cycle, then drain; packets serviced."""
        core = tier.core
        start = core.serviced
        idle_ok = True
        for joins, leaves, arrivals in segment:
            for sid in joins:
                tier.join(sid)
            for sid in leaves:
                tier.leave(sid)
            for sid, deadline, length in arrivals:
                tier.submit(sid, deadline, length)
            backlogged = core.outstanding > 0
            served = tier.decision_cycle()
            idle_ok &= (served is not None) == backlogged
        outstanding = core.outstanding
        cycles = tier.drain()
        if rnd is not None:
            rnd.check(f"{label}: one packet per cycle while backlogged", idle_ok)
            rnd.check(f"{label}: drain is work-conserving", cycles == outstanding, (cycles, outstanding))
            rnd.check(
                f"{label}: serviced == submitted",
                core.serviced == core.enqueued,
                (core.serviced, core.enqueued),
            )
        return core.serviced - start

    def run(self, state: dict, index: int, clock: Clock) -> Round:
        small_segment = state["small_script"].segment(self.SMALL_SEGMENT)
        small = state["small"]
        rnd = Round(units=0)
        marks = {role: len(tier.services) for role, tier in small.items()}
        big_mark = len(state["big"].services)

        def replay(tier, seg, label):
            with clock.driver():
                return self.replay(tier, seg, rnd, label)

        served = 0
        for _ in range(self.ARRAY_SEGMENTS):
            segment = state["script"].segment(self.SEGMENT)
            served += clock.time(rnd, "array", lambda: replay(state["big"], segment, "array"))
        rnd.units = served
        small_served = clock.time(
            rnd, "oracle", lambda: replay(small["oracle"], small_segment, "oracle")
        )
        clock.time(rnd, "array_check", lambda: replay(small["array"], small_segment, "array check"))
        clock.time(
            rnd, "observed", lambda: replay(small["observed"], small_segment, "observed")
        )
        t0 = time.perf_counter()
        streams = {role: tier.services[marks[role]:] for role, tier in small.items()}
        same = streams["oracle"] == streams["array"]
        spent = time.perf_counter() - t0
        rnd.add("compare", spent, spent)
        rnd.check("oracle == array service stream", same)
        rnd.check("observed == oracle service stream", streams["observed"] == streams["oracle"])
        # The validation tiers serve fewer packets than the 1M tier; rates
        # are per packet, so rescale their times to the round's units.
        scale = served / max(1, small_served)
        for times in (rnd.seconds, rnd.raw_seconds):
            for role in ("oracle", "array_check", "observed", "compare"):
                times[role] *= scale
        rnd.combine("validate", "oracle", "array_check", "compare")
        rnd.violations = len(state["obs"].monitor.violations)
        rnd.stats = {
            "services": digest(state["big"].services[big_mark:]),
            "small_services": digest(streams["oracle"]),
            "serviced": state["big"].core.serviced,
            "joined": state["big"].core.joined,
            "left": state["big"].core.left,
        }
        return rnd

    def baseline(self, state: dict, engine: str) -> float:
        if state["batch"] is None:
            state["batch"] = self._tier(engine, self.STREAMS)
            state["batch_script"] = ChurnScript(state["seed"], self.STREAMS)
        segment = state["batch_script"].segment(self.SEGMENT)
        rnd = Round(units=0)
        served = Clock().measure(rnd, "batch", self.replay, state["batch"], segment, None, "batch")
        return served / rnd.seconds["batch"]


def _rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def make_workloads(engines: dict[str, str | None], scratch: Path) -> dict[str, Any]:
    """Workload name -> workload object."""
    return {
        "table3": Table3(engines),
        "endsystem": Endsystem(engines),
        "campaign": Campaign(engines, scratch / "campaign"),
        "aggregation": Aggregation(engines),
    }
