"""Cached serving equals live serving on machines with fractional charges.

A row-bounded, complex-cost parallel machine with a fractional ``ell``
charges makespan-scaled, fractional amounts.  Compiled replay used to
fold a level's (or a plan build's) several batch charges into one
addend, so a cached run's ledger and completion times drifted from the
live run's in the last bits.  Replay now repeats live's exact charge
sequence; these pins hold the served results and ledgers equal.
"""

import pytest

from repro import ParallelTCUMachine, PoissonWorkload
from repro.serve import ServingEngine

FRACTIONAL = dict(m=4, ell=7.5, max_rows=8, complex_cost_factor=4, units=5)


def _served(kind, rows, seed, plan_cache):
    machine = ParallelTCUMachine(execute="cost-only", **FRACTIONAL)
    workload = PoissonWorkload(rate=2e-4, total=30, kind=kind, rows=rows, seed=seed)
    result = ServingEngine(machine, plan_cache=plan_cache).serve(workload)
    served = result.to_dict()
    # the cache's own counters are the one intended difference
    lookups = served.pop("cache_hits") + served.pop("cache_misses")
    served.pop("cache_size")
    return served, machine.ledger.snapshot(), lookups


@pytest.mark.parametrize(
    "kind,rows,seed",
    [("stencil", 5, seed) for seed in range(6)] + [("dft", 8, seed) for seed in range(3)],
)
def test_cached_replay_equals_live_serving(kind, rows, seed):
    cached, cached_ledger, lookups = _served(kind, rows, seed, None)
    live, live_ledger, _ = _served(kind, rows, seed, False)
    assert lookups > 0  # the cached run really replayed compiled plans
    assert cached_ledger == live_ledger
    assert cached == live
