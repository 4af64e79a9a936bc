"""Figure 8: fair bandwidth allocation of four streams at 1:1:2:4.

Endsystem run: four fully-backlogged streams (the paper transfers
64000 16-bit arrival times per queue before starting the clock), DWCS
fair-share constraints set for a 1:1:2:4 split, output bandwidth
reported per stream over time windows.  Expected: ~2/2/4/8 MBps while
all streams are backlogged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.endsystem.host import EndsystemConfig, EndsystemResult, EndsystemRouter
from repro.metrics.bandwidth import BandwidthSeries
from repro.traffic.specs import ratio_workload

__all__ = ["Figure8Result", "run_figure8"]

#: The paper's ratio and per-stream frame count.
RATIOS = (1, 1, 2, 4)
FRAMES_PER_STREAM = 64_000


@dataclass
class Figure8Result:
    """Per-stream bandwidth series and summary ratios."""

    run: EndsystemResult
    series: dict[int, BandwidthSeries]
    steady_mbps: dict[int, float]

    @property
    def ratios(self) -> dict[int, float]:
        """Measured steady-state shares relative to the smallest."""
        base = min(v for v in self.steady_mbps.values() if v > 0)
        return {sid: v / base for sid, v in self.steady_mbps.items()}


def run_figure8(
    frames_per_stream: int = FRAMES_PER_STREAM,
    *,
    window_us: float | None = None,
    engine: str = "reference",
    observer=None,
) -> Figure8Result:
    """Run the Figure 8 workload and reduce to bandwidth series.

    ``steady_mbps`` averages each stream's bandwidth over the
    saturated phase (the first quarter of the run, before any stream
    drains), which is what the figure's flat segments show.  The
    window defaults to 100 ms, shrunk as needed so reduced-scale runs
    still land whole windows inside the saturated phase.
    """
    specs = ratio_workload(RATIOS, frames_per_stream=frames_per_stream)
    router = EndsystemRouter(
        specs, EndsystemConfig(engine=engine), observer=observer
    )
    run = router.run(preload=True)
    # Saturated phase: until the highest-share stream drains;
    # conservatively the first quarter of the run.
    horizon = run.elapsed_us / 4
    if window_us is None:
        window_us = min(100_000.0, horizon / 4)
    bw = run.te.bandwidth
    series = {
        sid: bw.series(sid, window_us, t_end=run.elapsed_us)
        for sid in bw.stream_ids
    }
    steady = {}
    for sid, s in series.items():
        mask = s.times_us <= horizon
        steady[sid] = float(s.mbps[mask].mean()) if mask.any() else 0.0
    return Figure8Result(run=run, series=series, steady_mbps=steady)
