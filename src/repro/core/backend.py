"""Which compiler, if any, runs the whole-run periodic driver.

The tensor engine (:mod:`repro.core.tensor_engine`) runs on NumPy.  Its
one scalar kernel, the whole-run periodic driver
:func:`repro.core.jit.run_cycles`, is compiled by numba when numba is
importable and runs as plain Python otherwise; nothing selects between
the two.  :func:`resolve_backend` reports which of the two this host
gets, for host fingerprints.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.jit import NUMBA_AVAILABLE

__all__ = ["resolve_backend"]


def resolve_backend(name: str = "numba") -> SimpleNamespace:
    """What the ``numba`` accelerator resolves to on this host.

    The result's ``name`` is ``"numba"`` when numba is importable (the
    periodic driver is compiled) and ``"numpy"`` otherwise.
    """
    if name != "numba":
        raise ValueError(f"unknown accelerator {name!r}; only 'numba' resolves")
    return SimpleNamespace(name="numba" if NUMBA_AVAILABLE else "numpy")
