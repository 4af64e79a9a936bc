"""Versioned benchmark records + the continuous perf trajectory.

Every ``benchmarks/test_bench_*.py`` writer historically hand-rolled its
own JSON shape, so the repo accumulated ``BENCH_*.json`` files with no
machine-checkable trend: nothing could say whether the 37x array-engine
crossover or the O(1) churn latency still hold.  This module defines

* **one record format** — ``{"name", "value", "unit", "metadata"}`` —
  wrapped in a versioned payload
  ``{"schema": 1, "bench": <slug>, "workload": ..., "records": [...]}``
  (written canonically: sorted keys, ``indent=1``, trailing newline);
* **a normalizer** that lifts any legacy hand-rolled ``BENCH_*.json``
  into that format (numeric leaves flattened to dotted record names,
  units inferred from name suffixes, ``metadata.legacy = True``);
* **the trajectory** — ``BENCH_TRAJECTORY.json`` holds an append-only
  sequence of labeled snapshots, one per ``repro bench trend`` run, each
  bundling every bench file's normalized payload.  Identical consecutive
  snapshots are coalesced, so regenerating from unchanged inputs is a
  no-op and the file stays deterministic;
* **a regression check** — records may declare
  ``metadata.direction`` (``"higher"``/``"lower"`` is better) and
  ``metadata.tolerance`` (relative, default 0.25); ``check_regressions``
  compares the last two snapshots and names every metric that moved the
  wrong way beyond tolerance.

``benchmarks/_schema.py`` re-exports the writer surface for the bench
suite; the ``repro bench trend`` CLI drives discovery/append/validate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "BENCH_SCHEMA",
    "TRAJECTORY_SCHEMA",
    "DEFAULT_TOLERANCE",
    "bench_record",
    "bench_payload",
    "write_bench",
    "validate_bench",
    "normalize_payload",
    "load_bench_file",
    "discover_bench_files",
    "build_snapshot",
    "append_snapshot",
    "load_trajectory",
    "write_trajectory",
    "validate_trajectory",
    "check_regressions",
]

BENCH_SCHEMA = 1
TRAJECTORY_SCHEMA = 1
DEFAULT_TOLERANCE = 0.25

#: Record-name suffix -> unit, for normalizing legacy payloads.
_UNIT_SUFFIXES = (
    ("_per_second", "per_second"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_ratio", "ratio"),
    ("_ops", "ops"),
    ("_bytes", "bytes"),
    ("_cycles", "cycles"),
)


def _canonical_text(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def bench_record(
    name: str, value: float, unit: str = "", **metadata: Any
) -> dict[str, Any]:
    """One measurement: a named numeric value with unit and context.

    ``metadata`` carries workload parameters (scenario counts, slot
    counts, bounds) plus the optional trend contract: ``direction``
    (``"higher"``/``"lower"`` is better) and ``tolerance`` (relative
    slack for :func:`check_regressions`).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"record {name!r}: value must be numeric, got {value!r}")
    return {
        "name": str(name),
        "value": value,
        "unit": str(unit),
        "metadata": dict(metadata),
    }


def bench_payload(
    bench: str,
    records: Iterable[dict[str, Any]],
    *,
    workload: str | None = None,
) -> dict[str, Any]:
    """Wrap records in the versioned envelope (records name-sorted)."""
    rows = sorted(
        records,
        key=lambda r: (
            r["name"],
            json.dumps(r.get("metadata", {}), sort_keys=True),
        ),
    )
    payload: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "bench": str(bench),
        "records": rows,
    }
    if workload is not None:
        payload["workload"] = str(workload)
    problems = validate_bench(payload)
    if problems:
        raise ValueError(f"invalid bench payload: {problems}")
    return payload


def write_bench(
    path: str | Path,
    bench: str,
    records: Iterable[dict[str, Any]],
    *,
    workload: str | None = None,
) -> dict[str, Any]:
    """Build, validate and canonically write one bench payload.

    Refuses to overwrite an artifact written by a *newer* schema: an
    old checkout (or a stale CI runner) silently downgrading a
    committed ``BENCH_*.json`` would corrupt the trajectory history,
    so that case raises instead of writing.  Unreadable or
    non-JSON existing files are overwritten freely — they were never
    valid artifacts.
    """
    target = Path(path)
    payload = bench_payload(bench, records, workload=workload)
    try:
        existing = json.loads(target.read_text())
    except (OSError, ValueError):
        existing = None
    if isinstance(existing, dict):
        old_schema = existing.get("schema")
        if isinstance(old_schema, int) and old_schema > BENCH_SCHEMA:
            raise ValueError(
                f"{target} holds a schema-{old_schema} bench artifact; "
                f"refusing to overwrite it with schema {BENCH_SCHEMA} "
                "(update this checkout instead of downgrading the file)"
            )
    target.write_text(_canonical_text(payload))
    return payload


def validate_bench(payload: Any) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("bench"), str) or not payload.get("bench"):
        problems.append("bench must be a non-empty string")
    if "workload" in payload and not isinstance(payload["workload"], str):
        problems.append("workload must be a string")
    records = payload.get("records")
    if not isinstance(records, list):
        return problems + ["records must be a list"]
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(rec.get("name"), str) or not rec.get("name"):
            problems.append(f"{where}.name must be a non-empty string")
        value = rec.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}.value must be numeric, got {value!r}")
        if not isinstance(rec.get("unit", ""), str):
            problems.append(f"{where}.unit must be a string")
        meta = rec.get("metadata", {})
        if not isinstance(meta, dict):
            problems.append(f"{where}.metadata must be an object")
        else:
            direction = meta.get("direction")
            if direction not in (None, "higher", "lower"):
                problems.append(
                    f"{where}.metadata.direction must be 'higher' or 'lower'"
                )
        unexpected = set(rec) - {"name", "value", "unit", "metadata"}
        if unexpected:
            problems.append(f"{where} has unexpected keys {sorted(unexpected)}")
    return problems


def _infer_unit(name: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return ""


def _flatten(prefix: str, node: Any, out: list[tuple[str, float]]) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out.append((prefix, node))
    elif isinstance(node, dict):
        for key in sorted(node):
            _flatten(f"{prefix}.{key}" if prefix else str(key), node[key], out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _flatten(f"{prefix}.{i}" if prefix else str(i), item, out)


def normalize_payload(payload: Any, *, bench: str) -> dict[str, Any]:
    """Lift any bench JSON into the schema-1 record format.

    Already-conforming payloads validate and pass through unchanged;
    legacy hand-rolled shapes are flattened (every numeric leaf becomes
    one record named by its dotted path, tagged ``legacy: True``), with
    a top-level ``unit``/``workload`` string honored when present.
    """
    if (
        isinstance(payload, dict)
        and payload.get("schema") == BENCH_SCHEMA
        and isinstance(payload.get("records"), list)
    ):
        problems = validate_bench(payload)
        if problems:
            raise ValueError(f"bench {bench!r}: invalid schema-1 payload: {problems}")
        return payload
    default_unit = ""
    workload = None
    node = payload
    if isinstance(payload, dict):
        node = dict(payload)
        if isinstance(node.get("unit"), str):
            default_unit = node.pop("unit")
        if isinstance(node.get("workload"), str):
            workload = node.pop("workload")
    leaves: list[tuple[str, float]] = []
    _flatten("", node, leaves)
    records = [
        bench_record(
            name, value, _infer_unit(name) or default_unit, legacy=True
        )
        for name, value in leaves
    ]
    return bench_payload(bench, records, workload=workload)


def bench_slug(path: str | Path) -> str:
    """``BENCH_CAMPAIGN.json -> campaign`` (the bench's trajectory key)."""
    stem = Path(path).stem
    if stem.upper().startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem.lower()


def load_bench_file(path: str | Path) -> dict[str, Any]:
    """Read one ``BENCH_*.json`` file, normalized to schema 1."""
    path = Path(path)
    return normalize_payload(
        json.loads(path.read_text()), bench=bench_slug(path)
    )


def discover_bench_files(root: str | Path) -> list[Path]:
    """Every ``BENCH_*.json`` under ``root`` (the trajectory excluded)."""
    return sorted(
        p
        for p in Path(root).glob("BENCH_*.json")
        if p.name != "BENCH_TRAJECTORY.json"
    )


# -- the trajectory ----------------------------------------------------


def build_snapshot(
    root: str | Path, *, label: str = ""
) -> dict[str, Any]:
    """Normalize every bench file under ``root`` into one snapshot."""
    benches = {}
    for path in discover_bench_files(root):
        payload = load_bench_file(path)
        benches[payload["bench"]] = payload
    return {"label": str(label), "benches": benches}


def load_trajectory(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA, "snapshots": []}
    trajectory = json.loads(path.read_text())
    problems = validate_trajectory(trajectory)
    if problems:
        raise ValueError(f"invalid trajectory {path}: {problems}")
    return trajectory


def write_trajectory(path: str | Path, trajectory: dict[str, Any]) -> None:
    Path(path).write_text(_canonical_text(trajectory))


def append_snapshot(
    trajectory: dict[str, Any], snapshot: dict[str, Any]
) -> bool:
    """Append a snapshot; returns False when it matches the last one.

    Coalescing identical consecutive snapshots keeps regeneration
    idempotent: re-running ``repro bench trend`` over unchanged bench
    files leaves the trajectory byte-identical.
    """
    snapshots = trajectory.setdefault("snapshots", [])
    if snapshots and snapshots[-1]["benches"] == snapshot["benches"]:
        return False
    sequence = snapshots[-1]["sequence"] + 1 if snapshots else 0
    snapshots.append(
        {
            "sequence": sequence,
            "label": snapshot.get("label", ""),
            "benches": snapshot["benches"],
        }
    )
    return True


def validate_trajectory(payload: Any) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"trajectory must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != TRAJECTORY_SCHEMA:
        problems.append(
            f"schema must be {TRAJECTORY_SCHEMA}, got {payload.get('schema')!r}"
        )
    snapshots = payload.get("snapshots")
    if not isinstance(snapshots, list):
        return problems + ["snapshots must be a list"]
    last_seq = -1
    for i, snap in enumerate(snapshots):
        where = f"snapshots[{i}]"
        if not isinstance(snap, dict):
            problems.append(f"{where} must be an object")
            continue
        seq = snap.get("sequence")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(f"{where}.sequence must be an int > {last_seq}")
        else:
            last_seq = seq
        if not isinstance(snap.get("label", ""), str):
            problems.append(f"{where}.label must be a string")
        benches = snap.get("benches")
        if not isinstance(benches, dict):
            problems.append(f"{where}.benches must be an object")
            continue
        for bench, bench_pay in benches.items():
            for problem in validate_bench(bench_pay):
                problems.append(f"{where}.benches[{bench}]: {problem}")
            if isinstance(bench_pay, dict) and bench_pay.get("bench") != bench:
                problems.append(
                    f"{where}.benches[{bench}] names itself "
                    f"{bench_pay.get('bench')!r}"
                )
    return problems


def _indexed_records(snapshot: dict[str, Any]) -> dict[tuple, dict[str, Any]]:
    out = {}
    for bench, payload in snapshot.get("benches", {}).items():
        for rec in payload.get("records", []):
            meta = {
                k: v
                for k, v in rec.get("metadata", {}).items()
                if k not in ("direction", "tolerance")
            }
            key = (bench, rec["name"], json.dumps(meta, sort_keys=True))
            out[key] = rec
    return out


def check_regressions(trajectory: dict[str, Any]) -> list[str]:
    """Compare the last two snapshots; report direction-aware regressions.

    Only records carrying ``metadata.direction`` participate; a record
    regresses when it moves against its direction by more than
    ``metadata.tolerance`` (relative, default ``0.25``).  Returns
    human-readable problem strings (empty = no regressions).
    """
    snapshots = trajectory.get("snapshots", [])
    if len(snapshots) < 2:
        return []
    prev, last = _indexed_records(snapshots[-2]), _indexed_records(snapshots[-1])
    problems = []
    for key, rec in sorted(last.items()):
        direction = rec.get("metadata", {}).get("direction")
        if direction not in ("higher", "lower") or key not in prev:
            continue
        old = prev[key]["value"]
        new = rec["value"]
        if old == 0:
            continue
        tolerance = rec.get("metadata", {}).get("tolerance", DEFAULT_TOLERANCE)
        ratio = new / old
        if direction == "higher" and ratio < 1.0 - tolerance:
            problems.append(
                f"{key[0]}:{rec['name']} fell {old} -> {new} "
                f"(x{ratio:.3f}, tolerance {tolerance})"
            )
        elif direction == "lower" and ratio > 1.0 + tolerance:
            problems.append(
                f"{key[0]}:{rec['name']} rose {old} -> {new} "
                f"(x{ratio:.3f}, tolerance {tolerance})"
            )
    return problems
