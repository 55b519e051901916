"""The five standard machine configs every cross-config test sweeps.

A plain module rather than part of ``conftest.py``: test modules need
the config names at import time (for ``parametrize``), and a root-level
run also loads ``benchmarks/conftest.py``, so ``from conftest import``
would resolve to whichever conftest pytest loaded last.  ``tests/`` is
on ``sys.path`` whenever ``tests/conftest.py`` is loaded, so test
modules import this as ``from machine_configs import machine_configs``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import ParallelTCUMachine, TCUMachine


def machine_configs(
    ell: float, *, scheduler: str = "lpt"
) -> dict[str, Callable[[], TCUMachine]]:
    """Name -> factory for a fresh machine, at latency ``ell``.

    ``scheduler`` is the parallel machines' scheduling policy.
    """
    return {
        "serial-numeric": lambda: TCUMachine(m=16, ell=ell),
        "serial-cost-only": lambda: TCUMachine(m=16, ell=ell, execute="cost-only"),
        "serial-max-rows": lambda: TCUMachine(m=16, ell=ell, max_rows=16),
        "parallel-3": lambda: ParallelTCUMachine(
            m=16, ell=ell, units=3, scheduler=scheduler
        ),
        "parallel-cost-only": lambda: ParallelTCUMachine(
            m=16, ell=ell, units=2, execute="cost-only", scheduler=scheduler
        ),
    }
