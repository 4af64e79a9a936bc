"""Multi-core sharded campaign runner with on-disk result caching.

``repro.runner`` is the execution substrate under every seed-indexed
campaign in the harness — the differential cross-validation, the
figure sweeps, the isolation seeds, the SLO false-positive runs.  It
separates the *workload* (a task applied to an ordered item list) from
the *execution plan* (in-process, or sharded round-robin across worker
processes), with three guarantees:

1. **Determinism** — merged results are index-ordered and therefore
   bit-identical for any worker count (see ``docs/RUNNER.md``).
2. **Failure isolation** — a dying shard or raising item is reported
   with exactly the items it took down; everything else still merges.
3. **Idempotence** — an optional content-addressed
   :class:`~repro.runner.cache.ResultCache` skips items whose
   canonical (config, engine, code-version) hash already has a stored
   result.

Entry points: :func:`run_sharded` (generic),
:func:`~repro.core.differential.campaign` (``workers=`` /
``cache_dir=``), the sweep drivers in :mod:`repro.experiments.sweeps`,
and the ``--workers`` / ``--cache-dir`` / ``--no-cache`` CLI flags.

Only results and spans cross the process boundary.  A decision
observer (trace ring, metrics, SLO monitor) runs in the process that
makes the decisions, so a run with one attached runs on one worker.
"""

from repro.runner.cache import CACHE_SCHEMA, CacheStats, ResultCache
from repro.runner.pool import (
    PoolResult,
    ShardFailure,
    available_parallelism,
    resolve_workers,
    run_sharded,
    start_method,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "PoolResult",
    "ResultCache",
    "ShardFailure",
    "available_parallelism",
    "resolve_workers",
    "run_sharded",
    "start_method",
]
