"""Outside-in span tracing for the traced benchmark run.

The benchmark never edits the package under test.  Instead it wraps the
public entry points of each layer (functions, methods, constructors)
from here, records one span per call in flat in-memory arrays, and
derives per-layer figures when the run ends:

* a span's *self time* is its duration minus the time covered by its
  direct children (:func:`self_times`);
* the *unattributed share* of a traced pass is the part of the pass's
  wall time that no layer span claims as self time
  (:func:`unattributed_share`).

Wrappers are installed only for the duration of a traced pass and
removed afterwards (:meth:`Tracer.installed`), so untraced passes in the
same process run the original code.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "Layer",
    "SpanRecorder",
    "Tracer",
    "self_times",
    "span_summary",
    "unattributed_share",
    "ROOT",
    "BENCH",
    "LAYER",
]


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parent[i]`` is the index of span ``i``'s parent (``-1`` for a
    root).  Children of one parent never overlap (calls nest), so the
    time a span's children cover is the sum of their durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered[: len(duration)]


#: Span kinds for :func:`unattributed_share`.
ROOT, BENCH, LAYER = 0, 1, 2


def unattributed_share(
    parent: np.ndarray, duration: np.ndarray, kind: np.ndarray
) -> float:
    """Share of a traced pass's program time that no layer span claims.

    ``kind`` marks each span: ``ROOT`` spans stand for a whole benchmark
    pass, ``BENCH`` spans for the benchmark's own driver code inside a
    pass, ``LAYER`` spans for calls into the program.  The program's
    wall time is the roots' duration minus the benchmark's own self
    time; what no span below the roots covers is unattributed.
    """
    duration = np.asarray(duration, dtype=np.float64)
    kind = np.asarray(kind)
    own = self_times(parent, duration)
    wall = float(duration[kind == ROOT].sum() - own[kind == BENCH].sum())
    if wall <= 0.0:
        return 0.0
    return float(own[kind == ROOT].sum()) / wall


class SpanRecorder:
    """Flat, append-only span store (one row per span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as NumPy columns (``name_id``, ``parent``, ``start``, ``end``).

        The columns are views on the recorder's buffers: read them once
        recording has stopped.
        """
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every recorded span to ``path`` (NumPy ``.npz``).

        Times are stored as 100 ns ticks from the first span's start.
        """
        cols = self.arrays()
        t0 = cols["start"][0] if len(cols["start"]) else 0.0
        ticks = {
            key: np.round((cols[key] - t0) * 1e7).astype(np.uint32)
            for key in ("start", "end")
        }
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=cols["name_id"].astype(np.uint16),
            parent=cols["parent"].astype(np.int32),
            **ticks,
        )


def span_summary(recorder: SpanRecorder) -> dict[str, dict[str, Any]]:
    """Per span name: call count, summed self seconds and the durations."""
    cols = recorder.arrays()
    duration = cols["end"] - cols["start"]
    own = self_times(cols["parent"], duration)
    nid = cols["name_id"]
    n_names = len(recorder.names)
    calls = np.bincount(nid, minlength=n_names)
    own_sum = np.bincount(nid, weights=own, minlength=n_names)
    grouped = np.split(duration[np.argsort(nid, kind="stable")], np.cumsum(calls)[:-1])
    return {
        name: {"calls": int(calls[i]), "self_s": float(own_sum[i]), "durations": grouped[i]}
        for i, name in enumerate(recorder.names)
    }


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module:Owner.attr`` or ``module:function``.

    ``span`` names the span; it may instead be a callable receiving the
    call's ``(args, kwargs)`` and returning the name.  ``note`` (optional)
    receives ``(tracer, args, kwargs, result)`` after each call to keep a
    count the spans alone do not carry.  ``context`` marks a function
    returning a context manager: the span then covers the ``with`` block.
    """

    target: str
    span: str | Callable[[tuple, dict], str]
    note: Callable[..., None] | None = None
    context: bool = False


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _SpanContext:
    """Context-manager proxy whose span covers the ``with`` block."""

    __slots__ = ("_inner", "_recorder", "_name", "_idx")

    def __init__(self, inner, recorder: SpanRecorder, name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name
        self._idx = -1

    def __enter__(self):
        self._idx = self._recorder.open(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._recorder.close(self._idx)


class Tracer:
    """Installs :class:`Layer` wrappers and records their spans."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)
        self.recorder = SpanRecorder()
        self.notes: dict[str, float] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    def note(self, key: str, amount: float = 1) -> None:
        self.notes[key] = self.notes.get(key, 0) + amount

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        recorder = self.recorder
        span = layer.span
        note = layer.note
        tracer = self

        if layer.context:
            def wrapper(*args, **kwargs):
                name = span if isinstance(span, str) else span(args, kwargs)
                return _SpanContext(fn(*args, **kwargs), recorder, name)
        else:
            def wrapper(*args, **kwargs):
                name = span if isinstance(span, str) else span(args, kwargs)
                idx = recorder.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder.close(idx)
                if note is not None:
                    note(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for layer in self.layers:
            owner, attr = _resolve(layer.target)
            own = not isinstance(owner, type) or attr in owner.__dict__
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original if own else None))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. one whole pass)."""
        idx = self.recorder.open(name)
        try:
            yield
        finally:
            self.recorder.close(idx)
