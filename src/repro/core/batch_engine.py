"""Engine factory: build the oracle or the array engine by name.

The module keeps its historical name because the benchmark harness in
``perfbench/`` imports :func:`make_scheduler` from here; the engines
themselves live in :mod:`repro.core.scheduler` (the oracle) and
:mod:`repro.core.tensor_engine` (the array engine).
"""

from __future__ import annotations

from repro.core.attributes import StreamConfig
from repro.core.config import ArchConfig
from repro.core.scheduler import ShareStreamsScheduler
from repro.core.tensor_engine import TensorScheduler

__all__ = ["make_scheduler"]


def make_scheduler(
    config: ArchConfig,
    streams: list[StreamConfig] | None = None,
    *,
    engine: str = "reference",
    trace_timeline: bool = False,
    trace=None,
    observer=None,
):
    """Instantiate a scheduler engine by name.

    ``engine="reference"`` builds the cycle-level object model (the
    oracle); ``engine="tensor"`` builds a single-scenario slice of the
    scenario-tensorized
    :class:`~repro.core.tensor_engine.CampaignEngine`.  Both expose the
    same ``decision_cycle`` / ``enqueue`` / ``slot`` / ``counters``
    surface — including the ``observer`` telemetry hook — and are
    asserted behaviorally identical by :mod:`repro.core.differential`.
    Any other name raises :class:`ValueError`.
    """
    if engine == "reference":
        cls = ShareStreamsScheduler
    elif engine == "tensor":
        cls = TensorScheduler
    else:
        raise ValueError(
            f"unknown engine {engine!r} (expected 'reference' or 'tensor')"
        )
    return cls(
        config,
        streams,
        trace_timeline=trace_timeline,
        trace=trace,
        observer=observer,
    )
