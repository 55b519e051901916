"""Parallel tensor units — the paper's first §6 open question.

Section 3.1 concedes that modelling a *single* tensor unit is the
model's major simplification (a Titan RTX carries >500 tensor cores).
:class:`ParallelTCUMachine` extends the (m, l)-TCU with ``p`` identical
units: *independent* tensor calls issued through :meth:`mm_batch` may
run concurrently, and the model time charged for the batch is the
**makespan** of a scheduled assignment of calls to units rather than
the serial sum.  Everything else — the CPU, memory, the cost of one
call — is unchanged, so every single-unit algorithm still runs and the
p = 1 machine is exactly the paper's model.

Two invariants pin the batch semantics to the scalar model:

* **True per-call costs.**  A batched call is priced exactly as the
  scalar :meth:`~repro.core.machine.TCUMachine.mm` path prices it —
  max-rows stream splitting, complex cost factors, overflow checking,
  the systolic backend and any subclass per-call semantics included.
  Machines whose calls are plain ``n*sqrt(m) + l`` products take a
  vectorised fast path; every other configuration routes each call
  through the machine's own primitive against a scratch ledger, so the
  numerics stay bit-correct and the measured costs *are* the serial
  costs.
* **Trace = hardware work, clock = wall time.**  The call trace records
  every hardware call at its true cost with a ``unit_id`` (so per-shape
  totals and the Theorem 12 I/O replay are identical to a serial run),
  while the ledger's time counters advance by the makespan — the wall
  clock of the p-unit machine.  CPU-side work captured during the batch
  (padding copies, the extra adds of a 4-product complex multiply,
  reassembly) stays serial: there is still one CPU.

Scheduling is delegated to :mod:`repro.core.scheduling`: the default
LPT policy is a classical (4/3 - 1/(3p))-approximation of the optimal
makespan; round-robin, greedy-online and an exact oracle are available
by name, and :attr:`ParallelTCUMachine.last_schedule` exposes the
per-unit timelines for utilisation reporting.

The obvious consequences the benches measure:

* a batch of k equal calls speeds up by ``min(p, k)``;
* latency does not parallelise away *within* a call, so
  latency-dominated workloads gain little;
* Theorem 2's schedule parallelises perfectly across its independent
  ``C_{i,j}`` products, giving ``~ n^{3/2}/(p sqrt(m))`` throughput time
  until the call count drops below p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .ledger import CostLedger
from .machine import TCUMachine, TensorShapeError, placeholder
from .scheduling import Schedule, SchedulerPolicy, get_scheduler, schedule_batch

__all__ = ["ParallelTCUMachine", "BatchStats"]


@dataclass(frozen=True)
class BatchStats:
    """Accounting record of one :meth:`ParallelTCUMachine.mm_batch`.

    Attributes
    ----------
    calls:
        Number of logical tensor calls in the batch (batch elements).
    serial_time:
        Sum of the individual true call costs — exactly what the serial
        ledger would charge for the same calls on a single unit.
    makespan:
        The batch's charged model time under the scheduled assignment.
    units_used:
        Distinct units that received at least one call.
    policy:
        Name of the scheduling policy that produced the assignment.
    hardware_calls:
        Tensor-unit invocations actually issued (max-rows splitting and
        complex cost factors make this exceed ``calls``).
    cpu_time:
        Serial CPU work charged alongside the batch (padding copies,
        complex-multiply adds, reassembly).
    utilization:
        Busy fraction of the whole pool, ``serial / (p * makespan)``.
    gap_bound:
        The policy's worst-case makespan / optimum ratio (``None`` when
        the policy carries no guarantee).
    """

    calls: int
    serial_time: float
    makespan: float
    units_used: int
    policy: str = ""
    hardware_calls: int = 0
    cpu_time: float = 0.0
    utilization: float = 1.0
    gap_bound: float | None = None

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 1.0


class ParallelTCUMachine(TCUMachine):
    """An (m, l)-TCU with ``units`` identical tensor units.

    Single calls through :meth:`mm` behave exactly like the sequential
    model (one unit active, full cost).  Independent calls batched
    through :meth:`mm_batch` are scheduled across the units by
    ``scheduler`` (a :mod:`repro.core.scheduling` policy name or
    instance; LPT by default) and the ledger clock advances by the
    makespan, while the call trace keeps every hardware call at its
    true serial cost tagged with its ``unit_id``.
    """

    def __init__(
        self,
        m: int,
        ell: float = 0.0,
        *,
        units: int = 2,
        scheduler: str | SchedulerPolicy = "lpt",
        **kwargs,
    ) -> None:
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        super().__init__(m, ell, **kwargs)
        self.units = int(units)
        self.scheduler = get_scheduler(scheduler)
        self.last_batch: BatchStats | None = None
        self.last_schedule: Schedule | None = None

    # ------------------------------------------------------------------
    def mm_batch(
        self,
        pairs: list[tuple[np.ndarray, np.ndarray]],
        *,
        policy: str | SchedulerPolicy | None = None,
    ) -> list[np.ndarray]:
        """Execute independent products concurrently; returns their results.

        Each pair must satisfy the single-call interface (``n x sqrt(m)``
        by ``sqrt(m) x sqrt(m)``, ``n >= sqrt(m)``).  The caller asserts
        independence (no result feeds another operand) — exactly the
        guarantee the Theorem 2 grid and the DFT levels provide.  A call
        whose stream exceeds ``max_rows`` is one *logical* job: its
        hardware chunks run back-to-back on the unit it is assigned to,
        exactly as the scalar splitting primitive issues them.

        ``policy`` overrides the machine's scheduler for this batch.
        """
        sched_policy = self.scheduler if policy is None else get_scheduler(policy)
        if not pairs:
            self.last_batch = BatchStats(
                0,
                0.0,
                0.0,
                0,
                policy=sched_policy.name,
                gap_bound=sched_policy.gap_bound(self.units),
            )
            self.last_schedule = None
            return []
        s = self.sqrt_m
        k = len(pairs)
        pairs = [(np.asarray(A), np.asarray(B)) for A, B in pairs]
        ns = np.empty(k, dtype=np.int64)
        for i, (A, B) in enumerate(pairs):
            if A.ndim != 2 or A.shape[1] != s or B.shape != (s, s):
                raise TensorShapeError(
                    f"batch operand shapes {A.shape} @ {B.shape} violate the "
                    f"(n x {s}) @ ({s} x {s}) interface"
                )
            if A.shape[0] < s:
                raise TensorShapeError(
                    f"batch left operand has {A.shape[0]} rows < sqrt(m)={s}"
                )
            ns[i] = A.shape[0]

        if self.plain_calls(
            any(np.iscomplexobj(A) or np.iscomplexobj(B) for A, B in pairs)
        ):
            self.charge_batch(ns, policy=sched_policy)
            if self.execute == "cost-only":
                return [
                    placeholder((A.shape[0], s), np.result_type(A.dtype, B.dtype))
                    for A, B in pairs
                ]
            return [A @ B for A, B in pairs]

        # Route every call through the machine's own primitive with
        # charges captured on a scratch ledger: the per-call deltas are
        # the true serial costs (chunk latencies, complex factors,
        # subclass semantics included) and the results are bit-identical
        # to a serial run.
        scratch = CostLedger(trace_calls=True)
        saved = self.ledger
        self.ledger = scratch
        results = []
        costs = np.empty(k)
        call_rows = np.empty(k + 1, dtype=np.int64)
        call_rows[0] = 0
        prev = 0.0
        try:
            for i, (A, B) in enumerate(pairs):
                results.append(self.mm(A, B))
                cum = scratch.tensor_time + scratch.latency_time
                costs[i] = cum - prev
                prev = cum
                call_rows[i + 1] = len(scratch.calls)
        finally:
            self.ledger = saved
        self.charge_batch(
            ns, policy=sched_policy, measured=(scratch, costs, np.diff(call_rows))
        )
        return results

    def plain_calls(self, complex_data: bool) -> bool:
        """Do batched calls price and execute as plain ``n*sqrt(m) + l``
        numpy products?

        Anything that changes per-call cost or numerics — hardware row
        bounds, complex cost factors on complex data, overflow checks,
        the systolic backend, subclass overrides — rules it out; at
        factor 1 complex calls price and execute exactly like real ones.
        """
        return (
            self.fusable
            and self.max_rows is None
            and not self.check_overflow
            and (self.complex_cost_factor == 1 or not complex_data)
        )

    def charge_batch(
        self,
        ns: np.ndarray,
        *,
        policy: str | SchedulerPolicy | None = None,
        measured: tuple[CostLedger, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Charge independent calls of ``ns`` rows as one scheduled batch,
        computing nothing: the charging rule of :meth:`mm_batch`.

        By default the calls are plain (:meth:`plain_calls`) and each
        costs ``n*sqrt(m) + l``; fused kernels that compute a batch by
        other numeric means (the Theorem 2 grid of
        :func:`repro.matmul.dense.matmul`) charge through this.
        ``measured`` is ``mm_batch``'s ``(scratch ledger, per-call
        costs, hardware calls per call)`` for calls it ran through the
        machine's own primitive.  The calls are scheduled in order by
        ``policy`` (the machine's scheduler by default), and
        :attr:`last_batch` / :attr:`last_schedule` record the batch.
        """
        sched_policy = self.scheduler if policy is None else get_scheduler(policy)
        if measured is None:
            ns = np.asarray(ns, dtype=np.int64)
            costs = ns * float(self.sqrt_m) + self.ell
            serial_throughput = float(int(ns.sum()) * self.sqrt_m)
            serial_latency = self.ell * ns.size
            hardware_calls = int(ns.size)
            row_ns, row_times, row_lats = ns, costs, self.ell
            cpu_total = 0.0
        else:
            scratch, costs, rows_per_call = measured
            serial_throughput = scratch.tensor_time
            serial_latency = scratch.latency_time
            hardware_calls = scratch.tensor_calls
            row_ns, _, row_times, row_lats = scratch.calls.as_arrays()
            cpu_total = scratch.cpu_time
        schedule = schedule_batch(costs, self.units, sched_policy)
        makespan = schedule.makespan
        serial = serial_throughput + serial_latency

        # The ledger clock advances by the makespan, split between the
        # throughput and latency columns in the same proportion as the
        # serial costs; the trace keeps every hardware call at its true
        # cost with its unit id, so per-shape totals and the Theorem 12
        # replay match a serial run exactly.  Captured CPU work stays
        # serial (one CPU).
        scale = makespan / serial if serial else 0.0
        if measured is None:
            row_units = schedule.assignment
        else:
            row_units = np.repeat(schedule.assignment, rows_per_call)
        self.ledger.charge_tensor_batch(
            serial_throughput * scale,
            serial_latency * scale,
            hardware_calls,
            row_ns,
            self.sqrt_m,
            row_times,
            row_lats,
            units=row_units,
            span=makespan,
        )
        if cpu_total:
            self.ledger.charge_cpu(cpu_total)

        self.last_schedule = schedule
        self.last_batch = BatchStats(
            calls=len(costs),
            serial_time=serial,
            makespan=makespan,
            units_used=schedule.units_used,
            policy=schedule.policy,
            hardware_calls=hardware_calls,
            cpu_time=cpu_total,
            utilization=schedule.utilization,
            gap_bound=schedule.gap_bound,
        )

    def config_key(self) -> tuple:
        """Extends the base fingerprint with the unit count and the
        scheduling policy (both change makespans, hence charges)."""
        return super().config_key() + (self.units, self.scheduler.name)

    def init_kwargs(self) -> dict[str, Any]:
        """Extends the base constructor keywords with the unit count and
        the scheduling policy."""
        return {**super().init_kwargs(), "units": self.units, "scheduler": self.scheduler}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelTCUMachine(m={self.m}, ell={self.ell}, "
            f"units={self.units}, scheduler={self.scheduler.name!r})"
        )
