"""Hierarchical million-stream aggregation tier (Section 4.3, scaled).

The paper's headline strategy is *aggregation*: many lightweight
streams multiplexed onto ``N`` hardware stream-slots.  This package
scales that idea to millions of concurrent streams on the existing
cross-validated engines:

* :func:`hash_bucket` deterministically buckets stream ids into
  aggregates (stable splitmix64 mixing — no salted process state);
* :class:`AggregationTier` runs one aggregate per scheduler slot on
  either engine (``reference`` / ``tensor``)
  with weighted start-time-fair queueing *across* aggregates and a
  registered programmable rank function (``pifo:<name>``,
  :mod:`repro.disciplines.pifo`) ordering packets *within* each
  aggregate;
* join/leave churn is O(1) per operation and never touches the
  engine's ``(S, N)`` tensor state — membership is pure bucket
  arithmetic plus per-aggregate counters;
* :mod:`repro.aggregation.scenario` derives seeded churn workloads and
  replays them byte-identically on both engines (the
  aggregation kind of the validation campaign,
  ``campaign(seeds, kind=AggregationKind(...))``).

See ``docs/AGGREGATION.md`` for the model and churn semantics.
"""

from repro.aggregation.scenario import (
    AggregationKind,
    AggregationScenario,
    generate_aggregation_scenario,
    run_aggregation,
    run_aggregation_bucket,
)
from repro.aggregation.tier import (
    AggregationCampaign,
    AggregationTier,
    aggregate_share_slos,
    hash_bucket,
)

__all__ = [
    "AggregationCampaign",
    "AggregationKind",
    "AggregationScenario",
    "AggregationTier",
    "aggregate_share_slos",
    "generate_aggregation_scenario",
    "hash_bucket",
    "run_aggregation",
    "run_aggregation_bucket",
]
