"""On-disk result cache for seed-indexed campaign workloads.

Repeated campaigns (the 200-scenario differential cross-validation,
the figure sweeps, the SLO false-positive runs) revalidate scenarios
whose inputs have not changed.  :class:`ResultCache` memoizes each
scenario's *merged-summary contribution* on disk, keyed by a canonical
hash of everything that determines the result:

* the fully-resolved scenario/config payload (not just the seed — a
  generator change that alters the derived scenario changes the key),
* the workload namespace (differential outcome vs trace mode, sweep
  kind, ...),
* a code-version token: the ``repro`` package version plus the cache
  schema version (:data:`CACHE_SCHEMA`).

Entries are single JSON files under ``root/<namespace>/<k[:2]>/<k>.json``
written atomically (temp file + ``os.replace``), so concurrent readers
never observe a torn entry and an interrupted run never corrupts the
cache.  Unreadable or malformed entries are treated as misses and
deleted.  The cache stores only *successful* results — callers gate
writes (e.g. the differential campaign never caches a divergent seed,
so failures are always revalidated).

In CI the cache directory itself is keyed by a hash of the source tree
(``actions/cache`` with ``hashFiles('src/**')``), which invalidates
every entry on any code change even when the package version string
does not move; see ``docs/RUNNER.md`` for the invalidation rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["CACHE_SCHEMA", "CacheStats", "ResultCache"]

#: Bump when the cached-entry layout or the summary semantics change.
#: 2: tensor-engine campaign paths landed; pre-tensor entries (which
#: predate the per-engine key payloads) are invalidated wholesale so
#: results from different engine pairs can never be conflated.
#: 3: aggregation-tier runs landed; keys must carry the aggregate
#: topology (aggregate count, bucketing salt, intra discipline), so
#: every pre-aggregation entry — which lacks those payload fields — is
#: invalidated wholesale and a cached non-aggregated campaign result
#: can never satisfy an aggregated lookup.
#: 4: differential scenario keys dropped their array-backend field.  A
#: schema-3 entry written before that field existed has exactly the
#: payload the current code computes, so the bump keeps such entries
#: from being served as hits.
CACHE_SCHEMA = 4


def _package_version() -> str:
    from repro import __version__

    return __version__


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/write accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }


@dataclass(slots=True)
class ResultCache:
    """Content-addressed JSON store for per-scenario results.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    namespace:
        Workload family; distinct namespaces never share entries.
    version:
        Code-version token folded into every key.  Defaults to
        ``"<repro version>/<CACHE_SCHEMA>"``.
    """

    root: Path
    namespace: str = "default"
    version: str | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.version is None:
            self.version = f"{_package_version()}/{CACHE_SCHEMA}"

    # -- keying --------------------------------------------------------

    def key(self, payload: Any) -> str:
        """Canonical hash of ``(namespace, version, payload)``.

        ``payload`` must be JSON-serializable; it should contain every
        input that determines the result (resolved scenario config,
        engine selection, workload parameters).
        """
        canonical = json.dumps(
            [self.namespace, self.version, payload],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / self.namespace / key[:2] / f"{key}.json"

    # -- lookup / store ------------------------------------------------

    def get(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)`` for ``key``; corrupt entries count as misses."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            value = entry["value"]
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except (OSError, ValueError, KeyError, TypeError):
            # Torn/malformed entry: drop it so it cannot mask results.
            self.stats.errors += 1
            self.stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` (JSON-serializable) under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"key": key, "value": value}, sort_keys=True, separators=(",", ":")
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            self.stats.errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
