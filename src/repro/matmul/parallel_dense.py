"""Dense MM on parallel tensor units (extension of Theorem 2).

The Theorem 2 schedule's ``C_{i,j} = A_i B_{i,j}`` products are
pairwise independent, so on a p-unit machine (§6 open question) they
can be batched: expected model time

    T(n, p) ~ n^{3/2} / (p sqrt(m))  +  (n / (p m)) l

until the call count ``n/m`` drops below p, after which extra units are
idle.  The reduction ``C_j = sum_i C_{i,j}`` stays CPU work, exactly as
in the sequential schedule.

The batch is priced from the machine's *own* per-call costs
(:meth:`~repro.core.parallel.ParallelTCUMachine.mm_batch`'s rule), so
row-bounded, complex-cost, systolic and overflow-checked machines charge
(and compute) exactly what a serial loop of ``mm`` calls would — only
the clock advances by the scheduled makespan instead of the serial sum.
"""

from __future__ import annotations

import numpy as np

from ..core.parallel import ParallelTCUMachine
from .dense import matmul

__all__ = ["parallel_matmul", "predicted_parallel_time"]


def predicted_parallel_time(n: float, m: float, ell: float, p: int) -> float:
    """The parallel extension's cost shape (calls floor at 1 per unit)."""
    import math

    calls = max(n / m, 1.0)
    waves = max(calls / p, 1.0)
    per_call = math.sqrt(n) * math.sqrt(m) + ell
    return waves * per_call


def parallel_matmul(
    ptcu: ParallelTCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    *,
    charge_padding: bool = True,
) -> np.ndarray:
    """``C = A @ B`` with all Theorem 2 grid products issued as one batch:
    :func:`~repro.matmul.dense.matmul` with the planner's splitting off
    (``split=1``), so each product stays one call."""
    return matmul(ptcu, A, B, charge_padding=charge_padding, split=1)
