"""Engine roles: the one place that maps a role to an engine name.

Metric names use roles, not engine names, so renaming or deleting an
engine changes this table and nothing else:

* ``oracle`` - the cycle-level object model every other engine is
  checked against;
* ``array`` - the array engine the project keeps;
* ``batch`` - timed only as an ungated reference point while it exists.
"""

from __future__ import annotations

__all__ = ["ROLES", "REQUIRED", "available_engines", "resolve"]

ROLES = {"oracle": "reference", "array": "tensor", "batch": "batch"}

#: Roles whose engine must exist for the benchmark to run at all.
REQUIRED = ("oracle", "array")


def available_engines() -> set[str]:
    """Engine names ``make_scheduler`` accepts in this checkout."""
    from repro.core.attributes import StreamConfig
    from repro.core.batch_engine import make_scheduler
    from repro.core.config import ArchConfig

    found = set()
    for engine in sorted(set(ROLES.values())):
        try:
            make_scheduler(ArchConfig(n_slots=2), [StreamConfig(sid=0)], engine=engine)
        except ValueError:
            continue
        found.add(engine)
    return found


def resolve(role: str, available: set[str]) -> str | None:
    """Engine name for ``role``; ``None`` when an optional engine is gone.

    A missing required engine raises, so the benchmark fails loudly
    instead of silently measuring something else.
    """
    engine = ROLES[role]
    if engine in available:
        return engine
    if role in REQUIRED:
        raise RuntimeError(
            f"role {role!r} needs engine {engine!r}, which this checkout "
            f"does not provide (available: {sorted(available)})"
        )
    return None
