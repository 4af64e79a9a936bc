"""What the ``numba`` accelerator name resolves to, for host fingerprints.

The tensor engine (:mod:`repro.core.tensor_engine`) runs on NumPy, and
its small-shape sides run in plain Python; nothing is compiled.
:func:`resolve_backend` keeps answering the host-fingerprint query for
the ``numba`` name, which resolves to ``"numpy"`` on every host.
"""

from __future__ import annotations

from types import SimpleNamespace

__all__ = ["resolve_backend"]


def resolve_backend(name: str = "numba") -> SimpleNamespace:
    """What the ``numba`` accelerator resolves to: always ``"numpy"``."""
    if name != "numba":
        raise ValueError(f"unknown accelerator {name!r}; only 'numba' resolves")
    return SimpleNamespace(name="numpy")
