"""The traced ledger-charge counters mirror the ledger on every machine.

A tracer bound to a ledger counts every ``"tensor"`` charge into the
``ledger_tensor_time`` counter.  Parallel batches used to write the
ledger's counters directly — live in ``ParallelTCUMachine.mm_batch``
and on replay in ``CompiledCursor`` — so the counter read 0 on every
parallel machine.  Both now charge through
:meth:`~repro.core.ledger.CostLedger.charge_tensor_batch`, which fires
the hook; these tests pin the counter to ``tensor_time + latency_time``
on the five standard configs plus complex cost, live and replayed, with
and without a sampler (which switches the hook between per-charge
counter updates and a flush on unbind).
"""

import numpy as np
import pytest

from machine_configs import machine_configs
from repro.core.ledger import CostLedger
from repro.core.parallel import ParallelTCUMachine
from repro.obs import Tracer
from repro.serve import PoissonWorkload, ServingEngine

ELL = 512.0

# name -> (machine factory, request kind served on it)
CONFIGS = {
    **{name: (factory, "matmul") for name, factory in machine_configs(ELL).items()},
    "complex-cost": (
        lambda: ParallelTCUMachine(
            m=16, ell=16.0, units=3, complex_cost_factor=4, execute="cost-only"
        ),
        "dft",
    ),
}
# compiled replay (a plan cache) is only offered on cost-only machines
CASES = [
    (config, replay)
    for config in CONFIGS
    for replay in (False, True)
    if not replay or "cost-only" in config or config == "complex-cost"
]


def _traced_run(config, replay, sample_every):
    factory, kind = CONFIGS[config]
    machine = factory()
    tracer = Tracer(sample_every=sample_every)
    workload = PoissonWorkload(rate=2e-4, total=40, kind=kind, rows=8, seed=1)
    engine = ServingEngine(
        machine, "timeout", tracer=tracer, plan_cache=None if replay else False
    )
    engine.serve(workload)
    return machine, tracer, engine


@pytest.mark.parametrize("sample_every", [None, 5e4], ids=["flush", "sampled"])
@pytest.mark.parametrize(("config", "replay"), CASES)
def test_tensor_counter_equals_ledger(config, replay, sample_every):
    machine, tracer, engine = _traced_run(config, replay, sample_every)
    led = machine.ledger
    assert led.tensor_calls > 0
    # with a plan cache every batch runs on a CompiledCursor (a miss
    # compiles, then replays); without one every batch executes live
    cache = engine.plan_cache
    assert (cache is not None and cache.hits + cache.misses > 0) == replay
    counter = tracer.registry.get("ledger_tensor_time").value
    if isinstance(machine, ParallelTCUMachine):
        # a batch's makespan is split into two scaled columns, each
        # rounded on its own, so the column sums may differ from the
        # per-batch makespans the hook saw by accumulated round-off
        assert counter == pytest.approx(led.tensor_time + led.latency_time, rel=1e-12)
        assert counter > 0.0
    else:
        assert counter == led.tensor_time + led.latency_time
    assert tracer.registry.get("ledger_cpu_time").value == led.cpu_time


def test_batch_charge_fires_hook_and_keeps_counters():
    """One makespan-scaled batch: counters move by the scaled columns,
    sections by the given span, the hook sees ``tensor + latency``."""
    led = CostLedger()
    seen = []
    led.on_charge = lambda cat, amount: seen.append((cat, amount))
    ns = np.array([8, 4], dtype=np.int64)
    with led.section("level"):
        total = led.charge_tensor_batch(
            30.0, 6.0, 2, ns, 4, ns * 4.0 + 5.0, 5.0,
            units=np.array([0, 1]), span=36.5,
        )
    assert total == 36.0
    assert (led.tensor_time, led.latency_time, led.tensor_calls) == (30.0, 6.0, 2)
    assert led.section_time("level") == 36.5
    assert seen == [("tensor", 36.0)]
    assert led.calls.unit_ids().tolist() == [0, 1]
