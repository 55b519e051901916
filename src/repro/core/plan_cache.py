"""Compiled plans: freeze a plan's ledger charges once, replay them forever.

The paper's central observation (Section 3) is that a tensor call's cost
is a pure function of its shape and the machine parameters — values
never enter the clock.  A serving engine therefore re-derives exactly
the same ledger charges every time it executes a batch of a shape it
has already seen: the program lowering, the planner and the level walk
are all deterministic given ``(request kind, batch row counts, machine
configuration)``.  This module exploits that replayability:

* :func:`compile_plan` executes a request type's plan **once** against a
  recording scratch ledger on a forked probe machine and freezes what it
  charged into a :class:`CompiledPlan`: per level, one
  :class:`ChargeRecord` per ledger charge operation, in live order —
  the operation's exact counter addends plus its read-only trace
  columns (row counts, per-call times, latencies, unit ids) — and the
  per-level ``resident_words`` an
  :class:`~repro.core.program.ExecutionCursor` would need to price a
  preempted resume.  Validation (``n >= sqrt(m)``, non-negative
  latency) runs here, once.
* :class:`~repro.core.program.CompiledCursor` replays those records
  through :meth:`~repro.core.ledger.CostLedger.charge_tensor_batch` and
  :meth:`~repro.core.ledger.CostLedger.charge_cpu`, repeating live's
  sequence of float additions — bit-identical counters, clock,
  snapshot, section totals, trace and preemption/reload behaviour (see
  the cursor's docstring for the exact conditions).
* :class:`PlanCache` memoises compiled plans under
  ``(kind, rows tuple, machine.config_key())`` with LRU eviction, so the
  serving hot path never re-plans a shape it has seen.

Adjacent records merge into one only when that cannot change a single
rounding: every addend is integer-valued *and* the machine's every
charge is (integer ``ell``, one tensor unit), so the ledger's running
totals stay integer-valued too and integer doubles below 2**53 add
associatively.  On such machines a level is one record and a whole plan
coalesces into one; a makespan-scaled parallel machine or a fractional
``ell`` keeps one record per live operation.

Compilation runs on a **fork** of the target machine (fresh ledger), so
probing never pollutes the live clock; the scratch ledger is bound to the
machine's ``(sqrt_m, ell)`` exactly as a constructor-made ledger would
be, and a compiled plan replayed onto a differently-parameterised
machine's ledger raises :class:`~repro.core.ledger.LedgerError` instead
of silently poisoning it.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from typing import Protocol

import numpy as np

from .ledger import ChargeRecord, RecordingLedger, frozen_column
from .machine import TCUMachine
from .program import ExecutionCursor, Plan, PlanStats

__all__ = [
    "LevelCharges",
    "CompiledPlan",
    "PlanCache",
    "Plannable",
    "compile_plan",
]


class Plannable(Protocol):
    """What compilation needs from a request type — structural, so the
    serve-layer types satisfy it without a core -> serve import."""

    def plan(self, machine: TCUMachine, rows: Sequence[int]) -> Plan: ...


def _merge(records: Sequence[ChargeRecord]) -> ChargeRecord:
    """One record for a run of integral records: exact, because
    integer-valued doubles below 2**53 add associatively."""
    if len(records) == 1:
        return records[0]
    return ChargeRecord(
        tensor=sum(r.tensor for r in records),
        latency=sum(r.latency for r in records),
        calls=sum(r.calls for r in records),
        span=sum(r.span for r in records),
        cpu=sum(r.cpu for r in records),
        ns=frozen_column(np.concatenate([r.ns for r in records]), np.int64),
        times=frozen_column(np.concatenate([r.times for r in records]), np.float64),
        lats=frozen_column(np.concatenate([r.lats for r in records]), np.float64),
        units=frozen_column(np.concatenate([r.units for r in records]), np.int64),
        integral=True,
    )


def _merge_runs(records: Sequence[ChargeRecord]) -> tuple[ChargeRecord, ...]:
    """Merge every maximal run of adjacent integral records."""
    out: list[ChargeRecord] = []
    for integral, run in groupby(records, key=lambda rec: rec.integral):
        if integral:
            out.append(_merge(list(run)))
        else:
            out.extend(run)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class LevelCharges:
    """The frozen ledger charges of one executed plan level.

    ``records`` holds one :class:`ChargeRecord` per live ledger charge
    operation, in live order, except that runs of adjacent records merge
    when the machine allows it (see the module docstring).  ``simple``
    marks a level whose charges all merged into at most one record; a
    plan coalesces (:attr:`CompiledPlan.coalesced`) exactly when its
    prelude and every level are simple.
    """

    records: tuple[ChargeRecord, ...]
    simple: bool

    @property
    def total_time(self) -> float:
        return sum(r.tensor + r.latency + r.cpu for r in self.records)


def _level(records: Sequence[ChargeRecord], mergeable: bool) -> LevelCharges:
    if not mergeable:
        return LevelCharges(tuple(records), simple=False)
    merged = _merge_runs(records)
    return LevelCharges(merged, simple=all(r.integral for r in merged) and len(merged) <= 1)


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A plan frozen to its ledger effects, ready for record replay.

    Attributes
    ----------
    kind / rows:
        The request kind and per-request row counts the plan was
        compiled for (informational; the cache key carries them too).
    sqrt_m / ell:
        The probe machine's call parameters — replay checks the target
        ledger is bound to them, so a bound ledger of any other machine
        rejects the replay.
    prelude:
        Charges the request type's ``plan()`` emitted while *building*
        the program (eager padding copies, Fourier-matrix loads).  The
        live engine pays these at launch, before the first level, so
        replay applies them together with level 0.
    levels:
        One :class:`LevelCharges` per plan level, in execution order.
    reload_words:
        ``reload_words[d]`` is the resident-block word count a cursor
        suspended before level ``d`` must re-load on resume — the exact
        value live :meth:`ExecutionCursor.resident_words` returns there.
    coalesced:
        When the prelude and every level are ``simple``, the whole plan
        collapsed into one record; a run-to-exhaustion replay then costs
        a single tensor charge plus a single CPU charge.  ``None`` when
        per-level replay is required for bit-identity.
    stats:
        The live plan's :class:`~repro.core.program.PlanStats`.
    """

    kind: str
    rows: tuple[int, ...]
    sqrt_m: int
    ell: float
    prelude: LevelCharges | None
    levels: tuple[LevelCharges, ...]
    reload_words: tuple[int, ...]
    coalesced: LevelCharges | None
    stats: PlanStats

    @property
    def total_levels(self) -> int:
        return len(self.levels)


def compile_plan(rtype: Plannable, machine: TCUMachine, rows: Sequence[int]) -> CompiledPlan:
    """Execute ``rtype``'s plan for ``rows`` once and freeze its charges.

    Runs on ``machine.fork()`` with a recording scratch ledger — the
    live ledger is never touched — taking the records each level logs.
    """
    rows = [int(r) for r in rows]
    probe = machine.fork()
    s, ell = probe.sqrt_m, probe.ell
    scratch = RecordingLedger(s, ell)
    probe.ledger = scratch
    # makespan-scaled batches on several units, or a fractional ell,
    # leave the ledger's running totals fractional: integer addends no
    # longer re-associate exactly against them, so nothing merges
    mergeable = float(ell).is_integer() and getattr(probe, "units", 1) == 1
    plan = rtype.plan(probe, rows)
    built = scratch.take()
    prelude = _level(built, mergeable) if built else None

    levels: list[LevelCharges] = []
    reloads: list[int] = []
    cursor = ExecutionCursor(plan, probe)
    while not cursor.done:
        reloads.append(cursor.resident_words())
        cursor.step()
        levels.append(_level(scratch.take(), mergeable))
    if not levels:
        # a plan with no levels still owes its build charges; keep one
        # empty level so a cursor has a step to apply them on
        levels.append(_level((), mergeable))
        reloads.append(0)

    parts = ([] if prelude is None else [prelude]) + levels
    coalesced: LevelCharges | None = None
    if all(p.simple for p in parts):
        coalesced = _level([r for p in parts for r in p.records], mergeable)
    return CompiledPlan(
        kind=getattr(rtype, "name", type(rtype).__name__),
        rows=tuple(rows),
        sqrt_m=s,
        ell=ell,
        prelude=prelude,
        levels=tuple(levels),
        reload_words=tuple(reloads),
        coalesced=coalesced,
        stats=plan.stats,
    )


class PlanCache:
    """An LRU cache of :class:`CompiledPlan` keyed on
    ``(kind, rows tuple, machine.config_key())``.

    Hit/miss/eviction counters are cumulative over the cache's lifetime;
    consumers (e.g. :class:`~repro.serve.engine.ServingEngine`) report
    per-run deltas.  One cache may safely serve many machines — the
    config fingerprint in the key keeps their plans apart, and the
    ledger-binding guard makes a mis-keyed replay an error rather than
    silent corruption.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(kind: str, rows: Sequence[int], machine: TCUMachine) -> tuple:
        if type(rows) is not tuple or not all(type(r) is int for r in rows):
            rows = tuple(int(r) for r in rows)
        return (str(kind), rows, machine.config_key())

    def get(self, key: tuple) -> CompiledPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, compiled: CompiledPlan) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compile(
        self, rtype: Plannable, machine: TCUMachine, rows: Sequence[int]
    ) -> CompiledPlan:
        """The hot-path entry point: one dict probe on a hit, one
        compile + insert on a miss."""
        key = self.key(getattr(rtype, "name", type(rtype).__name__), rows, machine)
        compiled = self.get(key)
        if compiled is None:
            compiled = compile_plan(rtype, machine, rows)
            self.put(key, compiled)
        return compiled

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
