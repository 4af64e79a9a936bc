"""Per-stream bandwidth measurement (Figures 8 and 10).

Records ``(time, bytes)`` departure samples per stream and reduces them
to windowed MBps series with vectorized NumPy binning — the experiment
runs produce hundreds of thousands of samples, so the reduction stays
out of Python loops (see the HPC guide: vectorize the hot path, keep
the recording path trivial).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = ["BandwidthSeries", "BandwidthMeter"]


@dataclass(frozen=True, slots=True)
class BandwidthSeries:
    """Windowed bandwidth of one stream.

    ``times_us`` holds window-end times; ``mbps`` the mean bandwidth in
    megabytes/second over each window.
    """

    stream_id: int
    times_us: np.ndarray
    mbps: np.ndarray

    @property
    def mean_mbps(self) -> float:
        """Average bandwidth across all windows."""
        return float(self.mbps.mean()) if len(self.mbps) else 0.0


class BandwidthMeter:
    """Accumulates departure samples and bins them into MBps windows."""

    def __init__(self) -> None:
        self._times: dict[int, list[float]] = {}
        self._bytes: dict[int, list[int]] = {}

    def record(self, stream_id: int, time_us: float, length_bytes: int) -> None:
        """Record one frame departure."""
        self._times.setdefault(stream_id, []).append(time_us)
        self._bytes.setdefault(stream_id, []).append(length_bytes)

    @property
    def stream_ids(self) -> list[int]:
        """Streams with at least one sample."""
        return sorted(self._times)

    def total_bytes(self, stream_id: int) -> int:
        """Total bytes departed for one stream."""
        return sum(self._bytes.get(stream_id, ()))

    def series(
        self,
        stream_id: int,
        window_us: float,
        *,
        t_end: float | None = None,
    ) -> BandwidthSeries:
        """Windowed MBps series for one stream.

        Bytes are binned into consecutive ``window_us`` windows from
        t=0; empty trailing windows are kept up to ``t_end`` so
        co-plotted streams share an axis.
        """
        if window_us <= 0:
            raise ValueError("window must be positive")
        times = np.asarray(self._times.get(stream_id, ()), dtype=np.float64)
        sizes = np.asarray(self._bytes.get(stream_id, ()), dtype=np.float64)
        horizon = t_end if t_end is not None else (times.max() if len(times) else 0.0)
        n_windows = max(1, int(np.ceil(horizon / window_us)))
        edges = np.arange(n_windows + 1) * window_us
        binned, _ = np.histogram(times, bins=edges, weights=sizes)
        mbps = binned / window_us  # bytes/us == MB/s
        return BandwidthSeries(
            stream_id=stream_id,
            times_us=edges[1:],
            mbps=mbps,
        )

    def window_mbps(self, window_us: float) -> dict[int, float]:
        """Every stream's MBps over the first window ``[0, window_us]``.

        For each stream with a sample, the value
        ``series(sid, window_us, t_end=window_us).mbps[0]`` reads,
        reduced for all streams in one masked pass instead of one
        histogram each.  Recorded lengths are whole bytes, so both ways
        sum exactly and agree bit for bit.
        """
        ids = self.stream_ids
        if not ids:
            return {}
        if window_us <= 0:
            raise ValueError("window must be positive")
        counts = [len(self._times[sid]) for sid in ids]
        total = sum(counts)
        times = np.fromiter(
            chain.from_iterable(self._times[sid] for sid in ids),
            dtype=np.float64,
            count=total,
        )
        sizes = np.fromiter(
            chain.from_iterable(self._bytes[sid] for sid in ids),
            dtype=np.float64,
            count=total,
        )
        owner = np.repeat(np.arange(len(ids)), counts)
        inside = (times >= 0.0) & (times <= window_us)
        totals = np.bincount(
            owner[inside], weights=sizes[inside], minlength=len(ids)
        )
        return dict(zip(ids, (totals / window_us).tolist()))

    def mean_mbps(self, stream_id: int, *, t_end: float) -> float:
        """Mean bandwidth over [0, t_end] for one stream."""
        if t_end <= 0:
            return 0.0
        return self.total_bytes(stream_id) / t_end

    def ratios(self, *, t_end: float, reference: int | None = None) -> dict[int, float]:
        """Bandwidth of each stream relative to the smallest (or a
        chosen reference stream) — the 1:1:2:4 check of Figure 8."""
        means = {
            sid: self.mean_mbps(sid, t_end=t_end) for sid in self.stream_ids
        }
        if not means:
            return {}
        if reference is None:
            base = min(v for v in means.values() if v > 0)
        else:
            base = means[reference]
        return {sid: v / base for sid, v in means.items()}

    def jain_index(
        self, *, t_end: float, weights: dict[int, float] | None = None
    ) -> float:
        """Jain's fairness index over (optionally weight-normalized)
        stream bandwidths: 1.0 = perfectly fair, 1/n = one stream hogs.

        With ``weights``, each stream's bandwidth is divided by its
        configured share first, so 1.0 means the weighted allocation
        (e.g. 1:1:2:4) was achieved exactly.
        """
        values = []
        for sid in self.stream_ids:
            x = self.mean_mbps(sid, t_end=t_end)
            if weights is not None:
                w = weights.get(sid, 1.0)
                if w <= 0:
                    raise ValueError("weights must be positive")
                x /= w
            values.append(x)
        if not values or not any(values):
            return 0.0
        arr = np.asarray(values)
        return float(arr.sum() ** 2 / (len(arr) * (arr**2).sum()))
