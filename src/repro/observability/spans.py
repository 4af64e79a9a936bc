"""Hierarchical span tracing: the package's one way to see where time went.

The observer layer sees *inside* one engine run (decision traces,
metrics, SLO rollups).  This module observes *across* the layers
that dominate campaign runtime: the ``run_sharded`` worker pool, the
differential bucket pre-pass, ``ResultCache`` hits and the array
engine's phases; :class:`PhaseTimer` also times the drivers' phases
behind :meth:`repro.observability.Observability.phase`.  It records a
tree of spans::

    campaign -> (shard) -> bucket -> engine_run -> phase

with three hard guarantees:

**Deterministic identity.**  A span's identity is its *path* — a
``name[ordinal]`` chain from the trace root, with ordinals assigned
per-parent per-name (or pinned explicitly, e.g. to an item's original
input index).  ``span_id = sha256(trace_id + ":" + path)[:16]``, so the
same logical work always produces the same ID no matter where or when it
executed.

**Worker-count invariance.**  Spans recorded in pool workers are shipped
back with the shard result payload and absorbed by the parent tracer.
Canonical output (`canonical_bytes`) contains only worker-count-invariant
facts: path, identity, kind and deterministic tags.  Wall-clock timing
lives in the non-canonical fields (``start_us``/``dur_us``/``measures``),
and spans whose *existence* depends on execution layout (one per shard)
are flagged ``canonical=False`` and excluded entirely — mirroring how
``CampaignResult.summary()`` excludes ``workers``/``cached``.  The result:
byte-identical canonical span trees for any worker count.

**Near-zero disabled path.**  Every instrumentation site guards on a
single ``tracer is not None`` (the observer contract); hot loops time
their phases with a :class:`PhaseTimer` and emit one aggregated span
per phase.

Exporters: canonical JSONL, full JSONL (timing included) and the Chrome
trace-event format (load ``trace.json`` in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "SPAN_SCHEMA",
    "PhaseTimer",
    "SpanRecord",
    "SpanTracer",
    "activate_tracer",
    "canonical_span_bytes",
    "chrome_trace",
    "critical_path",
    "current_tracer",
    "deterministic_span_id",
    "load_spans_jsonl",
    "spans_jsonl_bytes",
    "summarize_spans",
]

SPAN_SCHEMA = 1

#: Tag value types that serialize deterministically; anything else is str()'d.
_TAG_SCALARS = (bool, int, float, str)


def deterministic_span_id(trace_id: str, path: str) -> str:
    """Content-addressed span ID: stable across runs, machines, workers."""
    return hashlib.sha256(f"{trace_id}:{path}".encode()).hexdigest()[:16]


def _clean_tags(tags: dict[str, Any] | None) -> dict[str, Any]:
    if not tags:
        return {}
    return {
        str(k): (v if isinstance(v, _TAG_SCALARS) or v is None else str(v))
        for k, v in tags.items()
    }


@dataclass(slots=True)
class SpanRecord:
    """One node of the span tree.

    Canonical fields (``canonical_dict``): name, kind, path, span_id,
    parent_id, tags.  Non-canonical: the ``canonical`` flag itself plus
    all wall-clock facts — ``start_us`` (epoch microseconds, coherent
    across processes), ``dur_us`` and free-form numeric ``measures``.
    """

    name: str
    kind: str
    path: str
    span_id: str
    parent_id: str | None
    tags: dict[str, Any] = field(default_factory=dict)
    canonical: bool = True
    start_us: int = 0
    dur_us: int = 0
    measures: dict[str, Any] = field(default_factory=dict)

    def tag(self, **tags: Any) -> "SpanRecord":
        """Attach deterministic key/value facts (part of canonical output)."""
        self.tags.update(_clean_tags(tags))
        return self

    def measure(self, **measures: Any) -> "SpanRecord":
        """Attach wall-clock/layout facts (excluded from canonical output)."""
        self.measures.update(measures)
        return self

    def canonical_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "parent_id": self.parent_id,
            "path": self.path,
            "span_id": self.span_id,
            "tags": dict(sorted(self.tags.items())),
        }

    def to_dict(self) -> dict[str, Any]:
        d = self.canonical_dict()
        d["canonical"] = self.canonical
        d["start_us"] = self.start_us
        d["dur_us"] = self.dur_us
        d["measures"] = dict(sorted(self.measures.items()))
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SpanRecord":
        return cls(
            name=d["name"],
            kind=d["kind"],
            path=d["path"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            tags=dict(d.get("tags", {})),
            canonical=bool(d.get("canonical", True)),
            start_us=int(d.get("start_us", 0)),
            dur_us=int(d.get("dur_us", 0)),
            measures=dict(d.get("measures", {})),
        )


def _path_key(path: str) -> tuple[tuple[str, int], ...]:
    """Total order on span paths: segment-wise (name, ordinal)."""
    key = []
    for segment in path.split("/"):
        name, _, ordinal = segment.rpartition("[")
        key.append((name, int(ordinal[:-1])))
    return tuple(key)


class SpanTracer:
    """Records a deterministic span tree for one trace.

    A tracer is either a *root* tracer (``SpanTracer("trace-id")``) or a
    *worker* tracer reconstructed from a propagated context
    (``SpanTracer.from_context(ctx)``) whose spans attach under the
    parent's current span.  ``span()`` opens a timed span as a context
    manager; ``record_span()`` appends a pre-aggregated completed span
    (the shape :class:`PhaseTimer` flushes).
    """

    __slots__ = (
        "trace_id",
        "_clock",
        "_wall",
        "_records",
        "_stack",
        "_root_path",
        "_root_id",
        "_root_ordinals",
    )

    def __init__(
        self,
        trace_id: str = "trace",
        *,
        clock: Callable[[], float] = time.perf_counter,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self.trace_id = trace_id
        self._clock = clock
        self._wall = wall
        self._records: list[SpanRecord] = []
        # (record, per-child ordinal counters, clock at open)
        self._stack: list[tuple[SpanRecord, dict[str, int], float]] = []
        self._root_path = ""
        self._root_id: str | None = None
        self._root_ordinals: dict[str, int] = {}

    # -- trace-context propagation (picklable, crosses the process pool) --

    def context(self) -> dict[str, Any]:
        """Picklable context naming the current span (or the trace root)."""
        if self._stack:
            record = self._stack[-1][0]
            return {
                "trace_id": self.trace_id,
                "path": record.path,
                "span_id": record.span_id,
            }
        return {
            "trace_id": self.trace_id,
            "path": self._root_path,
            "span_id": self._root_id,
        }

    @classmethod
    def from_context(cls, ctx: dict[str, Any]) -> "SpanTracer":
        tracer = cls(ctx["trace_id"])
        tracer._root_path = ctx.get("path") or ""
        tracer._root_id = ctx.get("span_id")
        return tracer

    def export_records(self) -> list[dict[str, Any]]:
        """All records as plain dicts (the shard-payload wire format)."""
        return [r.to_dict() for r in self._records]

    def absorb(self, records: Iterable[dict[str, Any] | SpanRecord]) -> None:
        """Merge records shipped back from a worker tracer."""
        for r in records:
            self._records.append(
                r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r)
            )

    # -- recording --

    @property
    def current(self) -> SpanRecord | None:
        return self._stack[-1][0] if self._stack else None

    def _open(
        self,
        name: str,
        kind: str,
        ordinal: int | None,
        canonical: bool,
        tags: dict[str, Any] | None,
    ) -> SpanRecord:
        if self._stack:
            parent, counters, _ = self._stack[-1]
            parent_path, parent_id = parent.path, parent.span_id
        else:
            counters = self._root_ordinals
            parent_path, parent_id = self._root_path, self._root_id
        if ordinal is None:
            ordinal = counters.get(name, 0)
            counters[name] = ordinal + 1
        segment = f"{name}[{ordinal}]"
        path = f"{parent_path}/{segment}" if parent_path else segment
        record = SpanRecord(
            name=name,
            kind=kind,
            path=path,
            span_id=deterministic_span_id(self.trace_id, path),
            parent_id=parent_id,
            tags=_clean_tags(tags),
            canonical=canonical,
            start_us=int(self._wall() * 1e6),
        )
        self._records.append(record)
        return record

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        *,
        ordinal: int | None = None,
        canonical: bool = True,
        **tags: Any,
    ) -> Iterator[SpanRecord]:
        """Open a timed span.  ``ordinal`` pins the path segment (use the
        item's original input index so worker layout never shifts paths);
        by default ordinals count up per parent per name."""
        record = self._open(name, kind, ordinal, canonical, tags)
        self._stack.append((record, {}, self._clock()))
        try:
            yield record
        finally:
            _, _, t0 = self._stack.pop()
            record.dur_us = int((self._clock() - t0) * 1e6)

    def record_span(
        self,
        name: str,
        kind: str = "span",
        *,
        ordinal: int | None = None,
        canonical: bool = True,
        tags: dict[str, Any] | None = None,
        measures: dict[str, Any] | None = None,
        dur_us: int = 0,
    ) -> SpanRecord:
        """Append an already-completed span (aggregated phase/op rollups)."""
        record = self._open(name, kind, ordinal, canonical, tags)
        record.dur_us = int(dur_us)
        if measures:
            record.measures.update(measures)
        return record

    # -- views / exporters --

    def records(self) -> list[SpanRecord]:
        return list(self._records)

    def canonical_bytes(self) -> bytes:
        return canonical_span_bytes(self._records)

    def chrome_trace(self) -> dict[str, Any]:
        return chrome_trace(self._records, trace_id=self.trace_id)


class PhaseTimer:
    """Calls and wall time of one named phase, flushed as one span.

    The one phase timer of the package: a hot loop wraps each pass
    through a phase in ``with timer:`` and, once the work is done,
    :meth:`flush` records everything accumulated as a single
    ``kind="phase"`` span — the call count as a canonical ``calls`` tag
    (workload-derived), the wall time as a ``wall_us`` measure (an
    execution detail).  A timer is not reentrant: it keeps one start
    time.
    """

    __slots__ = ("name", "calls", "wall_s", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.wall_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "PhaseTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._t0
        self.calls += 1

    def flush(self, tracer: SpanTracer, **tags: Any) -> SpanRecord:
        """Record the accumulated phase on ``tracer`` and reset."""
        record = tracer.record_span(
            self.name,
            kind="phase",
            tags={"calls": self.calls, **tags},
            measures={"wall_us": int(self.wall_s * 1e6)},
        )
        self.calls = 0
        self.wall_s = 0.0
        return record


# -- the current-tracer contextvar: lets deeply nested task code --
# -- (the campaign's validate_bucket, running inside pool workers) --
# -- attach spans without threading a tracer through every signature --

_ACTIVE: contextvars.ContextVar[SpanTracer | None] = contextvars.ContextVar(
    "repro_active_span_tracer", default=None
)


def current_tracer() -> SpanTracer | None:
    """The tracer activated for the current execution context, if any."""
    return _ACTIVE.get()


@contextmanager
def activate_tracer(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Make ``tracer`` visible to ``current_tracer()`` within the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


# -- record-list exporters (work on tracer output or loaded JSONL) --


def _as_records(records: Iterable[SpanRecord | dict[str, Any]]) -> list[SpanRecord]:
    return [
        r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r) for r in records
    ]


def canonical_span_bytes(records: Iterable[SpanRecord | dict[str, Any]]) -> bytes:
    """Canonical JSONL: worker-count-invariant spans only, path-sorted,
    timing excluded.  Byte-identical for any worker count."""
    rows = sorted(
        (r for r in _as_records(records) if r.canonical),
        key=lambda r: _path_key(r.path),
    )
    out = []
    for r in rows:
        out.append(
            json.dumps(
                r.canonical_dict(), sort_keys=True, separators=(",", ":")
            ).encode()
        )
        out.append(b"\n")
    return b"".join(out)


def spans_jsonl_bytes(records: Iterable[SpanRecord | dict[str, Any]]) -> bytes:
    """Full JSONL (timing + measures included), path-sorted."""
    rows = sorted(_as_records(records), key=lambda r: _path_key(r.path))
    out = []
    for r in rows:
        out.append(
            json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        )
        out.append(b"\n")
    return b"".join(out)


def load_spans_jsonl(path: str | Path) -> list[SpanRecord]:
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(SpanRecord.from_dict(json.loads(line)))
    return records


def chrome_trace(
    records: Iterable[SpanRecord | dict[str, Any]], *, trace_id: str = "trace"
) -> dict[str, Any]:
    """Chrome trace-event export (open in Perfetto or chrome://tracing).

    Every span becomes one complete event (``ph: "X"``).  Spans carry an
    optional ``lane`` measure (0 = coordinator, N = pool shard N) used as
    the thread ID so concurrent shards render as parallel tracks.
    """
    rows = _as_records(records)
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"sharestreams-repro:{trace_id}"},
        }
    ]
    lanes = sorted({int(r.measures.get("lane", 0)) for r in rows})
    for lane in lanes:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": lane,
                "args": {"name": "coordinator" if lane == 0 else f"shard-{lane}"},
            }
        )
    for r in sorted(rows, key=lambda r: (r.start_us, _path_key(r.path))):
        args: dict[str, Any] = {"path": r.path, "span_id": r.span_id}
        args.update(r.tags)
        args.update({k: v for k, v in r.measures.items() if k != "lane"})
        events.append(
            {
                "ph": "X",
                "name": r.name,
                "cat": r.kind,
                "ts": r.start_us,
                "dur": max(int(r.dur_us), 1),
                "pid": 0,
                "tid": int(r.measures.get("lane", 0)),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize_spans(
    records: Iterable[SpanRecord | dict[str, Any]],
) -> list[dict[str, Any]]:
    """Rollup per (kind, name): span count, total wall, numeric-tag sums
    and string-tag value counts (e.g. ``cache=hit`` occurrences)."""
    groups: dict[tuple[str, str], dict[str, Any]] = {}
    for r in _as_records(records):
        g = groups.setdefault(
            (r.kind, r.name),
            {
                "kind": r.kind,
                "name": r.name,
                "count": 0,
                "wall_us": 0,
                "tag_totals": {},
                "tag_counts": {},
            },
        )
        g["count"] += 1
        g["wall_us"] += int(r.dur_us)
        for k, v in r.tags.items():
            if isinstance(v, bool) or isinstance(v, str):
                key = f"{k}={v}"
                g["tag_counts"][key] = g["tag_counts"].get(key, 0) + 1
            elif isinstance(v, (int, float)):
                g["tag_totals"][k] = g["tag_totals"].get(k, 0) + v
        wall = r.measures.get("wall_us")
        if isinstance(wall, (int, float)):
            g["wall_us"] += int(wall)
    return sorted(
        groups.values(), key=lambda g: (-g["wall_us"], g["kind"], g["name"])
    )


def critical_path(
    records: Iterable[SpanRecord | dict[str, Any]],
) -> list[dict[str, Any]]:
    """Greedy longest chain: from the longest root span, descend into the
    longest child at each level.  Each entry reports the span's wall time,
    its share of the root, and its *self* time (wall minus children)."""
    rows = _as_records(records)
    if not rows:
        return []
    by_id = {r.span_id: r for r in rows}
    children: dict[str | None, list[SpanRecord]] = {}
    roots = []
    for r in rows:
        if r.parent_id in by_id:
            children.setdefault(r.parent_id, []).append(r)
        else:
            roots.append(r)

    def span_wall(r: SpanRecord) -> int:
        wall = r.measures.get("wall_us")
        return int(r.dur_us) or (int(wall) if isinstance(wall, (int, float)) else 0)

    root = max(roots, key=lambda r: (span_wall(r), _path_key(r.path)))
    root_wall = max(span_wall(root), 1)
    chain = []
    node: SpanRecord | None = root
    while node is not None:
        kids = children.get(node.span_id, [])
        child_wall = sum(span_wall(k) for k in kids)
        wall = span_wall(node)
        chain.append(
            {
                "path": node.path,
                "name": node.name,
                "kind": node.kind,
                "wall_us": wall,
                "self_us": max(wall - child_wall, 0),
                "fraction": round(wall / root_wall, 4),
                "tags": dict(sorted(node.tags.items())),
            }
        )
        node = (
            max(kids, key=lambda r: (span_wall(r), _path_key(r.path)))
            if kids
            else None
        )
    return chain
