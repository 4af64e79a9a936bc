"""Host fingerprint stamped on every raw result."""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
import warnings

__all__ = ["fingerprint"]

#: Optional array backends: recorded, never timed here.
OPTIONAL_BACKENDS = ("numba", "torch", "cupy", "array_api_strict")


def _numba_status() -> str:
    """What ``engine_backend="numba"`` does on this host (warn-once degrade)."""
    from repro.core.backend import resolve_backend

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backend = resolve_backend("numba")
    if backend.name == "numba":
        return "compiled kernels available (not run by this benchmark)"
    if caught:
        return f"degrades to {backend.name}: {caught[0].message}"
    return f"degrades to {backend.name} (warning already issued in this process)"


def fingerprint(engines: dict[str, str | None], ran: list[str]) -> dict:
    """CPU count, interpreter and NumPy versions, engines and backends that ran."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "engines": {
            role: (engine if role in ran else "not run") if engine else "missing"
            for role, engine in engines.items()
        },
        "backends": {
            "numpy": "ran",
            **{
                name: "not run ("
                + ("installed" if importlib.util.find_spec(name) else "not installed")
                + ")"
                for name in OPTIONAL_BACKENDS
            },
        },
        "numba_backend": _numba_status(),
    }
