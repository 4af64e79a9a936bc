"""Parameter sweeps over the figure experiments and isolation seeds.

The figure drivers answer "does the paper's effect reproduce at the
paper's scale"; the sweeps here answer "does it *keep* reproducing as
the workload scales and the random seed varies" — each sweep point is
an independent run, which makes the sweep exactly the shape of
workload :func:`repro.runner.run_sharded` exists for:

* ``sweep_figures("figure8", sizes)`` — frames-per-stream scaling of
  the fair-share ratios (Figure 8), burst-size scaling of the queuing
  delays (Figure 9), frames-per-stream scaling of the streamlet
  aggregation (Figure 10);
* ``sweep_isolation(seeds)`` — the Section 5.2 isolation comparison
  re-run under different best-effort arrival seeds.

Points merge in parameter order regardless of worker count, so
:meth:`SweepResult.summary` is a pure function of the sweep inputs —
byte-identical for ``workers=1`` and ``workers=N``.  With a
``cache_dir``, completed points are served from the on-disk result
cache (see ``docs/RUNNER.md``) keyed on the canonical
(experiment, parameters, engine, package-version) hash.

Every sweep accepts ``engine="reference"`` or ``"tensor"`` (the engine
name rides the cache key, so switching engines never serves a stale
point); the figure drivers forward it to
:func:`repro.core.batch_engine.make_scheduler` unchanged.

CLI::

    python -m repro figure8 --sweep 2000,4000,8000 --workers 4
    python -m repro isolation --sweep 1,2,3,4 --cache-dir .sweepcache
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "SWEEPABLE",
    "SweepPoint",
    "SweepResult",
    "sweep_figures",
    "sweep_isolation",
    "sweep_point",
]

#: Experiments the ``--sweep`` CLI flag accepts.
SWEEPABLE = ("figure8", "figure9", "figure10", "isolation")

#: What the sweep parameter means per experiment.
PARAM_NAMES = {
    "figure8": "frames_per_stream",
    "figure9": "burst_size",
    "figure10": "frames_per_stream",
    "isolation": "seed",
}


def sweep_point(
    param: int, experiment: str, engine: str, horizon: int
) -> dict:
    """Run one sweep point; the sharded runner's unit of work.

    Returns a compact JSON-safe summary (string keys, plain floats) so
    the value survives the result cache's JSON round-trip unchanged —
    a cache hit and a fresh execution are indistinguishable downstream.
    ``horizon`` only applies to ``isolation`` (the figure drivers get
    their size from ``param``).
    """
    if experiment == "figure8":
        from repro.experiments.figure8 import run_figure8

        result = run_figure8(param, engine=engine)
        return {
            "steady_mbps": {
                str(sid): mbps
                for sid, mbps in sorted(result.steady_mbps.items())
            },
            "ratios": {
                str(sid): ratio
                for sid, ratio in sorted(result.ratios.items())
            },
        }
    if experiment == "figure9":
        from repro.experiments.figure9 import run_figure9

        result = run_figure9(burst_size=param, engine=engine)
        delays = result.mean_delays_us()
        return {
            "mean_delay_us": {
                str(sid): delay for sid, delay in sorted(delays.items())
            },
            "zigzag": {
                str(sid): result.zigzag_score(sid, param)
                for sid in sorted(delays)
            },
        }
    if experiment == "figure10":
        from repro.experiments.figure10 import run_figure10

        result = run_figure10(param, engine=engine)
        return {"representative_mbps": dict(result.representative_mbps())}
    if experiment == "isolation":
        from repro.experiments.isolation import run_isolation

        rows = run_isolation(horizon=horizon, seed=param, engine=engine)
        return {
            "systems": [
                {
                    "system": r.system,
                    "queues": r.queues,
                    "rt_miss_rate": r.rt_miss_rate,
                    "tight_flow_p99_delay": r.tight_flow_p99_delay,
                }
                for r in rows
            ]
        }
    raise ValueError(f"unknown sweep experiment {experiment!r}")


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One parameter value's summarized outcome."""

    param: int
    summary: dict


@dataclass(slots=True)
class SweepResult:
    """A completed sweep: points in parameter order plus run facts."""

    experiment: str
    engine: str
    horizon: int
    points: list[SweepPoint] = field(default_factory=list)
    #: :class:`repro.runner.ShardFailure` entries for points that died.
    failures: list = field(default_factory=list)
    cached: int = 0
    executed: int = 0
    workers: int = 1

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        """Canonical merged summary (worker-count independent).

        Execution facts (worker count, cache hits) deliberately stay
        out so any two runs of the same sweep serialize identically.
        """
        return {
            "experiment": self.experiment,
            "engine": self.engine,
            "param": PARAM_NAMES[self.experiment],
            "passed": self.passed,
            "points": [
                {"param": p.param, **p.summary} for p in self.points
            ],
            "failures": [
                {
                    "shard": f.shard,
                    "params": list(f.items),
                    "error": (
                        f.error.strip().splitlines()[-1]
                        if f.error.strip()
                        else ""
                    ),
                }
                for f in self.failures
            ],
        }

    def summary_json(self) -> str:
        """The :meth:`summary` as canonical JSON text."""
        return json.dumps(self.summary(), sort_keys=True, indent=1) + "\n"


def _sweep(
    experiment: str,
    params,
    *,
    engine: str,
    horizon: int,
    workers: int | None,
    cache_dir,
    use_cache: bool,
    _task=None,
) -> SweepResult:
    from repro.runner import ResultCache, run_sharded

    params = [int(p) for p in params]
    cache = None
    if cache_dir is not None and use_cache:
        cache = ResultCache(cache_dir, namespace=f"sweep-{experiment}")
    pool = run_sharded(
        _task if _task is not None else sweep_point,
        params,
        workers=workers,
        task_args=(experiment, engine, horizon),
        cache=cache,
        cache_key=(
            (
                lambda param: {
                    "experiment": experiment,
                    "engine": engine,
                    "horizon": horizon if experiment == "isolation" else None,
                    PARAM_NAMES[experiment]: param,
                }
            )
            if cache is not None
            else None
        ),
    )
    result = SweepResult(
        experiment=experiment,
        engine=engine,
        horizon=horizon,
        failures=list(pool.failures),
        cached=pool.cached,
        executed=pool.executed,
        workers=pool.workers,
    )
    for param, summary in zip(params, pool.results):
        if summary is not None:
            result.points.append(SweepPoint(param=param, summary=summary))
    return result


def sweep_figures(
    experiment: str,
    sizes,
    *,
    engine: str = "reference",
    workers: int | None = 1,
    cache_dir=None,
    use_cache: bool = True,
    _task=None,
) -> SweepResult:
    """Sweep a figure experiment over workload sizes.

    ``experiment`` is ``figure8``/``figure10`` (sizes are frames per
    stream) or ``figure9`` (sizes are burst sizes).
    """
    if experiment not in ("figure8", "figure9", "figure10"):
        raise ValueError(f"not a sweepable figure: {experiment!r}")
    return _sweep(
        experiment,
        sizes,
        engine=engine,
        horizon=0,
        workers=workers,
        cache_dir=cache_dir,
        use_cache=use_cache,
        _task=_task,
    )


def sweep_isolation(
    seeds,
    *,
    horizon: int = 4000,
    engine: str = "reference",
    workers: int | None = 1,
    cache_dir=None,
    use_cache: bool = True,
    _task=None,
) -> SweepResult:
    """Re-run the isolation comparison across best-effort seeds."""
    return _sweep(
        "isolation",
        seeds,
        engine=engine,
        horizon=horizon,
        workers=workers,
        cache_dir=cache_dir,
        use_cache=use_cache,
        _task=_task,
    )
