"""The span tracer: request-scoped telemetry on the ledger clock.

A :class:`Tracer` is handed to :class:`~repro.serve.engine.ServingEngine`
(``tracer=`` keyword) and filled in during :meth:`serve`.  Every
timestamp it stores is read off the simulated clock — the ledger — so
the trace is a deterministic artifact of ``(workload seed, fault
seed)``: two replays produce byte-identical exports.  With
``tracer=None`` (the default) the engine takes the exact untraced code
path, bit-identical to previous revisions.

Hot-path design: emission methods append small tuples to per-category
lists (requests, segments, levels, batch rows, waits, instants…); a
completed batch appends just its list of finished
:class:`~repro.serve.workload.Request` records, whose rows are built
when :attr:`Tracer.requests` is first read.
Nothing is formatted, no objects are built, and no clock is *computed*
— callers pass timestamps they already hold (the ``OBS001`` lint rule
enforces that those are names bound from the ledger clock, not
recomputed expressions).  The structured :class:`~repro.obs.spans.Span`
view is materialised only on demand (:meth:`spans`, exporters).

Detail levels
-------------

``detail="auto"`` (default) records request lifecycle, execution
segments, batch accounting and fault events — everything needed to
reconcile against the ledger identity — and per-*level* spans whenever
the engine is already executing stepwise (preemption or active fault
injection).  ``detail="level"`` forces stepwise execution so level
spans (with their tensor-unit lanes) are always recorded; charges are
bit-identical either way (stepwise parity is a standing engine gate),
only the event granularity changes.

Reconciliation
--------------

Segment durations are stored as the *exact* floats the engine adds to
its busy time, in the same order, so ``sum(tracer segment durs) ==
result.busy_time`` holds bit-exactly — and likewise per batch against
``BatchRecord.service``.  Batch rows carry the ledgered
``service``/``reload``/``wasted`` split, closing the loop with the
accounting identity ``total = useful + wasted + reload``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .sampler import Sampler, SloBurnMonitor
from .spans import Instant, ObsError, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.ledger import CostLedger

__all__ = ["Tracer"]

_DETAILS = ("auto", "level")

#: ledger charge categories mirrored into registry counters
_CHARGE_CATEGORIES = ("tensor", "cpu", "reload", "wasted")


class Tracer:
    """Collects spans, instants, metrics and alerts for one served run.

    Parameters
    ----------
    detail:
        ``"auto"`` (default) or ``"level"`` — see the module docstring.
    sample_every:
        Simulated-time pitch for registry snapshots (``None`` disables
        sampling).
    monitors:
        :class:`~repro.obs.sampler.SloBurnMonitor` instances fed every
        SLO outcome; their firing/resolved transitions land in
        :attr:`alerts` and as trace instants.
    registry:
        An existing :class:`MetricsRegistry` to write into (a fresh one
        by default).

    A tracer records one run; hand a fresh instance to each
    :meth:`~repro.serve.engine.ServingEngine.serve` call.
    """

    def __init__(
        self,
        *,
        detail: str = "auto",
        sample_every: float | None = None,
        monitors: tuple[SloBurnMonitor, ...] | list[SloBurnMonitor] = (),
        registry: MetricsRegistry | None = None,
    ) -> None:
        if detail not in _DETAILS:
            raise ObsError(f"unknown detail {detail!r}; choose one of {_DETAILS}")
        self.detail = detail
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sampler = Sampler(sample_every) if sample_every is not None else None
        self.monitors = tuple(monitors)
        # columnar event stores — one tuple append per event; request
        # rows interleave with completed batches' Request lists (see
        # requests_done), expanded in place on the first read
        self._requests: list[tuple | list] = []
        self._batches_pending = False
        self.segments: list[tuple] = []  # (batch, kind, prio, start, dur)
        self.levels: list[tuple] = []  # (batch, level, units, start, end)
        self.batch_rows: list[tuple] = []  # (batch, kind, prio, size, launch, finish, service, reload, wasted, faults)
        self.waits: list[tuple] = []  # (batch, kind, prio, start, end)
        self.downs: list[tuple] = []  # (start, end)
        self.reloads: list[tuple] = []  # (batch, ts, amount)
        self.instants: list[tuple] = []  # (name, ts, batch, detail)
        self.alerts: list[tuple] = []  # (monitor, state, ts, burn, attainment)
        # (totals, counters) while a samplerless ledger hook is bound
        self._pending_charges: tuple[dict, dict] | None = None

    # -- request lifecycle --------------------------------------------
    @property
    def requests(self) -> list[tuple]:
        """One row per request outcome, in event order: ``(rid, kind,
        prio, outcome, arrival, launch, finish, batch, met)``.

        Batches logged by :meth:`requests_done` are expanded here, on
        the first read after they were logged, from their requests'
        final ``launch`` / ``completion`` / ``batch`` / ``slo`` fields.
        """
        if self._batches_pending:
            rows: list[tuple] = []
            for entry in self._requests:
                if type(entry) is tuple:
                    rows.append(entry)
                    continue
                rows.extend([
                    (r.rid, r.kind, r.priority, "done", r.arrival, r.launch,
                     r.completion, r.batch,
                     None if r.slo is None else r.completion - r.arrival <= r.slo)
                    for r in entry
                ])
            self._requests = rows
            self._batches_pending = False
        return self._requests

    def requests_done(self, requests: list) -> None:
        """Log a completed batch: one list append, whatever its size.

        The engine calls this once the batch's requests are final
        (``completion`` and ``batch`` set); their ``"done"`` rows are
        built when :attr:`requests` is next read, exactly as
        :meth:`request_done` would have recorded them.
        """
        self._requests.append(requests)
        self._batches_pending = True

    def request_done(
        self,
        rid: int,
        kind: str,
        priority: int,
        arrival: float,
        launch: float,
        batch: int,
        *,
        ts: float,
        met: bool | None = None,
    ) -> None:
        self._requests.append(
            (rid, kind, priority, "done", arrival, launch, ts, batch, met)
        )

    def request_shed(
        self, rid: int, kind: str, priority: int, arrival: float, *, ts: float
    ) -> None:
        self._requests.append(
            (rid, kind, priority, "shed", arrival, math.nan, ts, -1, None)
        )

    def request_abandoned(
        self,
        rid: int,
        kind: str,
        priority: int,
        arrival: float,
        launch: float,
        batch: int,
        *,
        ts: float,
    ) -> None:
        self._requests.append(
            (rid, kind, priority, "abandoned", arrival, launch, ts, batch, None)
        )

    # -- execution ----------------------------------------------------
    def segment(
        self, batch: int, kind: str, priority: int, *, start: float, dur: float
    ) -> None:
        self.segments.append((batch, kind, priority, start, dur))

    def level_span(
        self,
        batch: int,
        level: int,
        units: tuple[int, ...],
        *,
        start: float,
        end: float,
    ) -> None:
        self.levels.append((batch, level, units, start, end))

    def batch_done(
        self,
        batch: int,
        kind: str,
        priority: int,
        size: int,
        service: float,
        reload: float,
        wasted: float,
        faults: int,
        *,
        launch: float,
        ts: float,
    ) -> None:
        self.batch_rows.append(
            (batch, kind, priority, size, launch, ts, service, reload, wasted, faults)
        )

    # -- faults -------------------------------------------------------
    def wait(
        self, batch: int, kind: str, priority: int, *, start: float, end: float
    ) -> None:
        self.waits.append((batch, kind, priority, start, end))

    def down(self, *, start: float, end: float) -> None:
        self.downs.append((start, end))

    def reload_event(self, batch: int, amount: float, *, ts: float) -> None:
        self.reloads.append((batch, ts, amount))

    def instant(
        self, name: str, *, ts: float, batch: int = -1, detail: str = ""
    ) -> None:
        self.instants.append((name, ts, batch, detail))

    # -- SLO monitoring -----------------------------------------------
    def observe_slo(self, priority: int, met: bool, *, ts: float) -> None:
        for monitor in self.monitors:
            if monitor.priority is not None and monitor.priority != priority:
                continue
            fired = monitor.observe(met, ts=ts)
            if fired is not None:
                state, burn, attainment = fired
                self.alerts.append((monitor.name, state, ts, burn, attainment))
                self.instants.append(
                    (
                        f"alert:{monitor.name}:{state}",
                        ts,
                        -1,
                        f"burn={burn:.3f} attainment={attainment:.3f}",
                    )
                )

    # -- ledger hook --------------------------------------------------
    def bind_ledger(self, ledger: CostLedger) -> None:
        """Mirror the ledger's charge stream into registry counters
        (``ledger_tensor_time``, ``ledger_cpu_time``, …).  The hook only
        observes — charges and clock are untouched."""
        if ledger.on_charge is not None:
            raise ObsError("ledger already carries a charge hook")
        counters = {
            cat: self.registry.counter(
                f"ledger_{cat}_time", f"cumulative ledger {cat} charges"
            )
            for cat in _CHARGE_CATEGORIES
        }
        if self.sampler is None:
            # nobody reads the counters mid-run without a sampler, so
            # accumulate in a plain dict and flush on unbind — same
            # sequential addition order, so the flushed values are
            # bit-identical to per-charge counter updates
            totals = dict.fromkeys(_CHARGE_CATEGORIES, 0.0)

            def hook(category: str, amount: float, _t=totals) -> None:
                _t[category] += amount

            self._pending_charges = (totals, counters)
        else:

            def hook(category: str, amount: float, _c=counters) -> None:
                _c[category].value += amount

            self._pending_charges = None
        ledger.on_charge = hook

    def unbind_ledger(self, ledger: CostLedger) -> None:
        ledger.on_charge = None
        if self._pending_charges is not None:
            totals, counters = self._pending_charges
            for cat, amount in totals.items():
                counters[cat].value += amount
            self._pending_charges = None

    # -- reconciliation -----------------------------------------------
    def exec_time(self) -> float:
        """Sum of segment durations, in emission order — bit-identical
        to the engine's ``busy_time`` left-fold."""
        total = 0.0
        for row in self.segments:
            total += row[4]
        return total

    def exec_time_by_batch(self) -> dict[int, float]:
        """Per-batch segment-duration sums (same fold order as the
        engine's ``run.service`` accumulation — bit-exact per batch)."""
        out: dict[int, float] = {}
        for batch, _, _, _, dur in self.segments:
            out[batch] = out.get(batch, 0.0) + dur
        return out

    def span_totals(self) -> dict[str, float]:
        """Run-level totals from the *completed-batch* rows:
        ``exec`` (all segments, including abandoned batches'),
        ``service``/``reload``/``wasted`` (completed batches), and
        ``useful`` per the ledger identity."""
        service = reload = wasted = 0.0
        for row in self.batch_rows:
            service += row[6]
            reload += row[7]
            wasted += row[8]
        return {
            "exec": self.exec_time(),
            "service": service,
            "reload": reload,
            "wasted": wasted,
            "useful": service - reload - wasted,
        }

    def events_total(self) -> int:
        """Total stored events across every category (overhead gauge)."""
        return (
            len(self.requests)
            + len(self.segments)
            + len(self.levels)
            + len(self.batch_rows)
            + len(self.waits)
            + len(self.downs)
            + len(self.reloads)
            + len(self.instants)
            + len(self.alerts)
        )

    # -- materialised views -------------------------------------------
    def spans(self) -> list[Span]:
        """Structured :class:`Span` view of every stored interval."""
        out: list[Span] = []
        for rid, kind, prio, outcome, arrival, launch, finish, batch, met in (
            self.requests
        ):
            if outcome == "shed" or math.isnan(launch):
                continue
            out.append(
                Span(
                    name=f"{kind}#r{rid}",
                    cat="queue",
                    start=arrival,
                    dur=launch - arrival,
                    lane=f"class p{prio}",
                    args={"outcome": outcome, "batch": batch, "met": met},
                )
            )
        for batch, kind, prio, start, dur in self.segments:
            out.append(
                Span(
                    name=f"{kind}#b{batch}",
                    cat="exec",
                    start=start,
                    dur=dur,
                    lane=f"class p{prio}",
                    args={"batch": batch},
                )
            )
        for batch, level, units, start, end in self.levels:
            lanes = units if units else (-1,)
            for unit in lanes:
                out.append(
                    Span(
                        name=f"b{batch}/L{level}",
                        cat="level",
                        start=start,
                        dur=end - start,
                        lane="serial" if unit < 0 else f"unit {unit}",
                        args={"batch": batch, "level": level},
                    )
                )
        for batch, kind, prio, start, end in self.waits:
            out.append(
                Span(
                    name=f"{kind}#b{batch} backoff",
                    cat="backoff",
                    start=start,
                    dur=end - start,
                    lane=f"class p{prio}",
                    args={"batch": batch},
                )
            )
        for start, end in self.downs:
            out.append(
                Span(
                    name="unit down",
                    cat="down",
                    start=start,
                    dur=end - start,
                    lane="faults",
                )
            )
        return out

    def instant_events(self) -> list[Instant]:
        """Structured :class:`Instant` view (fault/preempt/retry/alert)."""
        out = [
            Instant(name=name, ts=ts, lane="faults", args={"batch": batch, "detail": d})
            for name, ts, batch, d in self.instants
        ]
        for monitor, state, ts, burn, attainment in self.alerts:
            out.append(
                Instant(
                    name=f"slo:{monitor}",
                    ts=ts,
                    lane="alerts",
                    args={"state": state, "burn": burn, "attainment": attainment},
                )
            )
        return out
