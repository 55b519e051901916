"""The compiled-replay contract: one frozen record per live charge.

:func:`~repro.core.plan_cache.compile_plan` freezes each ledger charge
operation a plan performs into a read-only
:class:`~repro.core.ledger.ChargeRecord`, and
:class:`~repro.core.program.CompiledCursor` re-applies those records in
live order.  These tests pin the record format (read-only columns,
merging only on integral machines), the charge stream a replay emits,
and the per-replay machine-binding guard.
"""

import dataclasses

import pytest

from repro import CompiledCursor, ParallelTCUMachine, TCUMachine, compile_plan
from repro.core.ledger import LedgerError
from repro.serve import get_request_type

ELL = 512.0

# a fractional ell, row-bounded, complex-cost parallel machine: every
# makespan-scaled charge is fractional, so nothing may merge
FRACTIONAL = dict(m=4, ell=7.5, max_rows=8, complex_cost_factor=4, units=5)


def _records(compiled):
    parts = [compiled.prelude, *compiled.levels, compiled.coalesced]
    return [rec for part in parts if part is not None for rec in part.records]


def _charge_stream(ledger):
    """The ``(category, amount)`` stream the ledger reports, zero
    charges left out: they move nothing, and compilation drops them."""
    events = []

    def hook(category, amount):
        if amount:
            events.append((category, amount))

    ledger.on_charge = hook
    return events


class TestFrozenRecords:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
            lambda: ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only"),
        ],
        ids=["serial", "parallel"],
    )
    def test_record_columns_are_read_only(self, factory):
        compiled = compile_plan(get_request_type("matmul"), factory(), [8, 8, 8])
        records = _records(compiled)
        assert any(rec.calls for rec in records)
        for rec in records:
            for column in (rec.ns, rec.times, rec.lats, rec.units):
                assert not column.flags.writeable
                if column.size:
                    with pytest.raises(ValueError, match="read-only"):
                        column[0] = column[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                rec.tensor = 0.0

    def test_integral_machine_merges_levels_and_coalesces(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        compiled = compile_plan(get_request_type("mlp"), machine, [8, 8, 4])
        assert all(level.simple and len(level.records) <= 1 for level in compiled.levels)
        assert len(compiled.coalesced.records) == 1
        assert compiled.coalesced.records[0].integral

    def test_fractional_machine_keeps_one_record_per_operation(self):
        machine = ParallelTCUMachine(execute="cost-only", **FRACTIONAL)
        rtype = get_request_type("stencil")
        compiled = compile_plan(rtype, machine, [5, 5])
        assert compiled.coalesced is None
        assert not any(level.simple for level in compiled.levels)
        # the prelude holds several makespan-scaled batches: folding them
        # into one addend was the replay drift this format removes
        batches = [rec for rec in compiled.prelude.records if rec.calls]
        assert len(batches) > 1 and not any(rec.integral for rec in batches)

        live = ParallelTCUMachine(execute="cost-only", **FRACTIONAL)
        live_events = _charge_stream(live.ledger)
        rtype.serve(live, [5, 5])
        assert len(_records(compiled)) == len(live_events)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
            lambda: TCUMachine(m=16, ell=ELL, execute="cost-only", max_rows=16),
            lambda: ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only"),
            lambda: ParallelTCUMachine(execute="cost-only", **FRACTIONAL),
        ],
        ids=["serial", "max-rows", "parallel", "fractional"],
    )
    @pytest.mark.parametrize("kind,rows", [("dft", [8, 8]), ("stencil", [5, 5])])
    def test_replay_repeats_the_live_charge_stream(self, factory, kind, rows):
        """Same on_charge events, same order, bit for bit — on machines
        whose records merge, the merged amounts are exact integer sums,
        so only the stream on non-integral machines is compared whole."""
        rtype = get_request_type(kind)
        live, replay = factory(), factory()
        live_events = _charge_stream(live.ledger)
        rtype.serve(live, rows)
        replay_events = _charge_stream(replay.ledger)
        cursor = CompiledCursor(compile_plan(rtype, replay, rows), replay)
        while not cursor.done:
            cursor.step()
        assert replay.ledger.snapshot() == live.ledger.snapshot()
        assert replay.ledger.call_shape_totals() == live.ledger.call_shape_totals()
        if isinstance(live, ParallelTCUMachine):
            assert replay_events == live_events
        else:
            for category in ("tensor", "cpu"):
                assert sum(a for c, a in replay_events if c == category) == sum(
                    a for c, a in live_events if c == category
                )


class TestBindingGuard:
    @pytest.mark.parametrize(
        "donor,victim",
        [
            (
                lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
                lambda: TCUMachine(m=16, ell=7.0, execute="cost-only"),
            ),
            (
                lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
                lambda: TCUMachine(m=64, ell=ELL, execute="cost-only"),
            ),
            (
                lambda: ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only"),
                lambda: ParallelTCUMachine(m=16, ell=9.0, units=3, execute="cost-only"),
            ),
            (
                lambda: ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only"),
                lambda: ParallelTCUMachine(m=64, ell=ELL, units=3, execute="cost-only"),
            ),
        ],
        ids=["serial-ell", "serial-sqrt-m", "parallel-ell", "parallel-sqrt-m"],
    )
    @pytest.mark.parametrize("stepped", [False, True], ids=["run", "step"])
    def test_replay_onto_another_machine_raises_before_charging(
        self, donor, victim, stepped
    ):
        compiled = compile_plan(get_request_type("matmul"), donor(), [8, 8, 8])
        machine = victim()
        if isinstance(machine, ParallelTCUMachine):
            # level 0 is a makespan-scaled batch: its rows carry unit ids
            first = compiled.levels[0].records
            assert any(rec.calls and rec.units.min() >= 0 for rec in first)
        cursor = CompiledCursor(compiled, machine)
        with pytest.raises(LedgerError, match="different machine configuration"):
            if stepped:
                cursor.step()
            else:
                cursor.run()
        assert machine.ledger.snapshot() == victim().ledger.snapshot()
        assert cursor.next_level == 0 and cursor.level_times == []
