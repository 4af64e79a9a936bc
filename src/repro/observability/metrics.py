"""Metrics registry: counters, gauges, histograms + exporters.

A minimal, dependency-free metrics layer shaped after the Prometheus
data model: named metrics with label sets, exported either as the
Prometheus text exposition format or as JSON.  The endsystem host, the
line-card and the experiment drivers all feed one
:class:`MetricsRegistry`; :class:`repro.observability.hooks.MetricsObserver`
derives the per-stream scheduling metrics (service counts, misses,
drops, deadline slack, inter-service jitter) from the engines' decision
outcomes.

Round-tripping is first-class: :func:`parse_prometheus_text` parses the
text exposition back into the same canonical ``{metric: {type, samples}}``
shape :meth:`MetricsRegistry.snapshot` produces, so tests can assert
``parse(export(registry)) == registry.snapshot()`` exactly.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Any, Iterable, Sequence

__all__ = [
    "Counter",
    "CounterSeries",
    "Gauge",
    "GaugeSeries",
    "Histogram",
    "HistogramSeries",
    "MetricsRegistry",
    "merge_snapshots",
    "parse_prometheus_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_suffix(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


def _fmt(value: float) -> str:
    """Exposition-format number: integral values render without '.0'."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared name/help/type plumbing and the label-set -> series map.

    A *series* is the metric's state for one label set.  :meth:`labels`
    resolves a label set to its series once; the returned handle then
    updates that series directly, without sorting and stringifying the
    labels again (the pattern of the Prometheus client's ``labels()``).
    The keyword update methods (``inc(**labels)``, ``observe(**labels)``
    ...) resolve through the same :meth:`labels` on every call.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._series: dict[LabelKey, Any] = {}

    def _new_series(self) -> Any:
        raise NotImplementedError

    def _series_for(self, key: LabelKey) -> Any:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._new_series()
        return series

    def labels(self, **labels: Any) -> Any:
        """The series handle of one label set, created on first use.

        Label values render with ``str``, so ``stream=1`` and
        ``stream="1"`` name one series while ``stream=True`` and
        ``stream=1.0`` name the series ``"True"`` and ``"1.0"``.  The
        series exists (and exports, at zero) from its first resolution
        on; every call with the same label set returns the same handle.
        """
        return self._series_for(_label_key(labels))

    def label_sets(self) -> list[dict[str, str]]:
        """Every label set this metric has seen."""
        return [dict(key) for key in sorted(self._series)]

    def sample_lines(self) -> list[tuple[str, str, float]]:
        """``(sample_name, label_suffix, value)`` rows for export."""
        raise NotImplementedError


class CounterSeries:
    """One counter series: :meth:`Counter.labels` returns it."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount``; anything but a number >= 0 (NaN too) raises."""
        if not amount >= 0:
            raise ValueError(f"counters cannot decrease (increment {amount!r})")
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing value, optionally per label set."""

    kind = "counter"

    def _new_series(self) -> CounterSeries:
        return CounterSeries()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if not amount >= 0:
            # before resolving, so a rejected increment creates no series
            raise ValueError(f"counters cannot decrease (increment {amount!r})")
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        """Current value of the labeled series (0 if never touched)."""
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series.value

    def total(self) -> float:
        """Sum over all label sets."""
        return sum(series.value for series in self._series.values())

    def sample_lines(self) -> list[tuple[str, str, float]]:
        return [
            (self.name, _label_suffix(key), self._series[key].value)
            for key in sorted(self._series)
        ]


class GaugeSeries:
    """One gauge series: :meth:`Gauge.labels` returns it."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the series to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the series by ``amount`` (may be negative)."""
        self.value += amount


class Gauge(_Metric):
    """Last-write-wins value, optionally per label set."""

    kind = "gauge"

    def _new_series(self) -> GaugeSeries:
        return GaugeSeries()

    def set(self, value: float, **labels: Any) -> None:
        """Set the labeled series to ``value``."""
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Adjust the labeled series by ``amount`` (may be negative)."""
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        """Current value of the labeled series (0 if never set)."""
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series.value

    def sample_lines(self) -> list[tuple[str, str, float]]:
        return [
            (self.name, _label_suffix(key), self._series[key].value)
            for key in sorted(self._series)
        ]


#: Default histogram buckets: powers of two, good for slack/jitter in
#: scheduler time units.
DEFAULT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class HistogramSeries:
    """One histogram series: :meth:`Histogram.labels` returns it.

    ``cells[i]`` counts the observations whose first covering bound is
    ``bounds[i]``; the last cell (overflow) counts those above every
    bound, and NaN.  The exporters cumulate the cells into Prometheus
    buckets, so ``+Inf`` is the sum of all cells.
    """

    __slots__ = ("bounds", "cells", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.cells = [0] * (len(bounds) + 1)
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """File one observation (one bisection)."""
        if value != value:  # NaN is below no bound: +Inf bucket only
            self.cells[-1] += 1
        else:
            self.cells[bisect_left(self.bounds, value)] += 1
        self.sum += float(value)

    @property
    def count(self) -> int:
        """Observations filed into the series."""
        return sum(self.cells)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` files the value into every bucket whose upper bound is
    >= the value, plus the implicit ``+Inf`` bucket; ``_sum``/``_count``
    series are kept per label set.  The invariant the property tests
    assert: ``count == +Inf bucket`` and, when fed from the decision
    hook, ``count == the matching counter total``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(math.isnan(b) for b in bounds):
            raise ValueError("histogram bucket bounds must not be NaN")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket bounds")
        self.buckets = bounds

    def _new_series(self) -> HistogramSeries:
        return HistogramSeries(self.buckets)

    def observe(self, value: float, **labels: Any) -> None:
        """File one observation into the labeled series."""
        self.labels(**labels).observe(value)

    def count(self, **labels: Any) -> int:
        """Observations filed under the labeled series."""
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series.count

    def total_count(self) -> int:
        """Observations filed across all label sets."""
        return sum(series.count for series in self._series.values())

    def sum(self, **labels: Any) -> float:
        """Sum of observed values under the labeled series."""
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series.sum

    def sample_lines(self) -> list[tuple[str, str, float]]:
        lines: list[tuple[str, str, float]] = []
        bucket = f"{self.name}_bucket"
        for key in sorted(self._series):
            series = self._series[key]
            cumulative = 0
            for bound, cell in zip(self.buckets, series.cells):
                cumulative += cell
                lines.append(
                    (
                        bucket,
                        _label_suffix(key + (("le", _fmt(bound)),)),
                        float(cumulative),
                    )
                )
            total = float(cumulative + series.cells[-1])
            lines.append((bucket, _label_suffix(key + (("le", "+Inf"),)), total))
            lines.append((f"{self.name}_sum", _label_suffix(key), series.sum))
            lines.append((f"{self.name}_count", _label_suffix(key), total))
        return lines


class MetricsRegistry:
    """Named metric store with get-or-create accessors and exporters."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- get-or-create accessors --------------------------------------

    def _get(self, name: str, cls, **kwargs) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the named histogram."""
        return self._get(name, Histogram, help=help, buckets=buckets)

    # -- introspection -------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        """The named metric, or None."""
        return self._metrics.get(name)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Canonical export-equivalent view.

        ``{metric_name: {"type": kind, "samples": {sample_key: value}}}``
        where ``sample_key`` is ``sample_name + label_suffix`` exactly
        as the text exposition renders it.  This is the shape
        :func:`parse_prometheus_text` reconstructs, making round-trip
        comparison an equality check.
        """
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples = {
                sample_name + suffix: value
                for sample_name, suffix, value in metric.sample_lines()
            }
            out[name] = {"type": metric.kind, "samples": samples}
        return out

    # -- exporters -----------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, suffix, value in metric.sample_lines():
                lines.append(f"{sample_name}{suffix} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        """JSON exporter: the :meth:`snapshot` shape, pretty-printed."""
        return json.dumps(self.snapshot(), indent=1, sort_keys=True) + "\n"

    def clear(self) -> None:
        """Drop every sample; the registered metrics stay.

        Holders of a metric (the SLO monitor's violation counter and
        burn gauge, say) keep exporting through it after a clear.
        Series handles from :meth:`_Metric.labels` are dropped with
        their samples: resolve them again.
        """
        for metric in self._metrics.values():
            metric._series.clear()


def merge_snapshots(
    snapshots: Iterable[dict[str, dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Merge :meth:`MetricsRegistry.snapshot` dicts, in order.

    Pure snapshot-level merge (no registry reconstruction): counter and
    histogram samples add, gauge samples keep the *last* snapshot's
    value — so merging per-shard snapshots in input order matches the
    sequential observation order.  The result is itself snapshot-shaped
    and compares equal (``==`` / canonical JSON) to the registry a
    single pass would produce.
    """
    out: dict[str, dict[str, Any]] = {}
    for snap in snapshots:
        for name, data in snap.items():
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"type": data["type"], "samples": {}}
            elif entry["type"] != data["type"]:
                raise ValueError(
                    f"metric {name!r}: type conflict "
                    f"{entry['type']!r} vs {data['type']!r}"
                )
            merged = entry["samples"]
            if data["type"] == "gauge":
                merged.update(data["samples"])
            else:
                for key, value in data["samples"].items():
                    merged[key] = merged.get(key, 0.0) + value
    return {
        name: {
            "type": out[name]["type"],
            "samples": dict(sorted(out[name]["samples"].items())),
        }
        for name in sorted(out)
    }


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)$"
)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _base_name(sample_name: str, kind: str) -> str:
    if kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                return sample_name[: -len(suffix)]
    return sample_name


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Parse the text exposition back into the :meth:`~MetricsRegistry.snapshot` shape.

    Strict enough for round-trip testing: unknown lines, samples
    without a preceding ``# TYPE``, and malformed sample lines raise
    ``ValueError``.
    """
    out: dict[str, dict[str, Any]] = {}
    types: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line {raw!r}")
            _, _, name, kind = parts
            types[name] = kind
            out[name] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample line {raw!r}")
        sample_name = m.group("name")
        owner = None
        for name, kind in types.items():
            if _base_name(sample_name, kind) == name:
                owner = name
                break
        if owner is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its TYPE line"
            )
        key = sample_name + (m.group("labels") or "")
        out[owner]["samples"][key] = _parse_value(m.group("value"))
    return out
