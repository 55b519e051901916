"""Theorem 12: simulating a (weak) TCU execution in external memory.

The proof of Theorem 12 converts a weak-TCU run of time ``T = T_t + T_o``
into an EM execution with ``M = 3m + O(1)``, ``B = 1``:

* each square tensor call loads its two ``sqrt(m) x sqrt(m)`` operands
  (2m words), computes internally for free, and writes the m output
  words back — Theta(m) I/Os against a Theta(m) model-time charge;
* every other CPU operation is simulated with O(1) words of internal
  memory and O(1) I/Os.

:func:`simulate_ledger_io` replays a recorded
:class:`~repro.core.ledger.CostLedger` under exactly that accounting,
so the bench can verify ``I/Os = Theta(model time)`` — the bridge that
turns EM lower bounds into weak-TCU time lower bounds.

The replay depends only on each call's ``(n, sqrt_m)`` shape, never on
call order, so all trace modes work: full traces are consumed through
the ledger's columnar :class:`~repro.core.ledger.CallTrace` (vectorised,
no per-call objects) and ``trace_calls="aggregate"`` ledgers replay
from their per-shape histogram in O(distinct shapes) work.  Planned
executions (:mod:`repro.core.program`) therefore replay through the
same entry point as directly issued calls; in the weak accounting a
call merged from block-aligned streams costs exactly the I/Os of the
calls it replaced (``ceil`` is additive on multiples of ``sqrt(m)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ledger import CostLedger

__all__ = ["simulate_ledger_io", "TCUSimulationIO"]


@dataclass(frozen=True)
class TCUSimulationIO:
    """I/O cost of the EM simulation of one TCU run."""

    tensor_ios: int
    cpu_ios: int
    tensor_calls: int
    model_time: float

    @property
    def total_ios(self) -> int:
        return self.tensor_ios + self.cpu_ios

    @property
    def io_per_time(self) -> float:
        """The Theta(1) ratio Theorem 12's argument relies on."""
        return self.total_ios / self.model_time if self.model_time else 0.0


def _call_ios(n: np.ndarray, s: np.ndarray, weak: bool) -> np.ndarray:
    m = s * s
    if weak:
        squares = -(-n // s)  # ceil
        return squares * 3 * m
    return 2 * n * s + m


def simulate_ledger_io(ledger: CostLedger, *, weak: bool = True) -> TCUSimulationIO:
    """Replay a traced ledger under the Theorem 12 I/O accounting.

    Parameters
    ----------
    ledger:
        A ledger recorded with ``trace_calls=True`` (full columnar
        trace) or ``trace_calls="aggregate"`` (per-shape histogram).
    weak:
        When true (the Theorem 12 setting) every tall call of ``n`` rows
        is first split into ``ceil(n / sqrt(m))`` square calls, each
        paying the full 3m transfer; when false, tall calls stream and
        pay ``2 n sqrt(m) + m`` words (operands + output, B resident).

    Returns the I/O breakdown; CPU work costs one I/O per model-time
    unit (O(1) internal memory for the scalar state).
    """
    if ledger.trace_calls is False:
        raise ValueError("ledger was created with trace_calls=False; nothing to replay")
    if ledger.trace_calls == "aggregate":
        tensor_ios = 0
        for (n, s), (count, _, _) in ledger.call_shape_totals().items():
            tensor_ios += count * int(
                _call_ios(np.int64(n), np.int64(s), weak)
            )
    else:
        # zero-copy views of the columnar trace: the replay reads the
        # ledger's buffers directly, so even million-call (or bulk
        # cost-only) traces replay in a few vectorised passes
        n, s, _, _ = ledger.calls.as_arrays()
        tensor_ios = int(_call_ios(n, s, weak).sum()) if n.size else 0
    cpu_ios = int(ledger.cpu_time)
    return TCUSimulationIO(
        tensor_ios=tensor_ios,
        cpu_ios=cpu_ios,
        tensor_calls=ledger.tensor_calls,
        model_time=ledger.total_time,
    )
