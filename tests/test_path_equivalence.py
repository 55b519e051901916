"""Execution-route equivalence: every route a kernel can take to the
ledger must charge bit-identical totals, call counts, per-shape traces
and section times.

Each kernel has one schedule, and the machine alone picks how it runs:
:func:`matmul` charges a plain serial machine's whole grid directly and
plans a program everywhere else, and ``execute="cost-only"`` charges
the same schedule from shapes alone.  Pinned here:

* the direct grid path and the planned program agree on a lone product
  (``matmul`` vs ``matmul_lazy`` + ``run_program``);
* numeric and cost-only runs agree for every kernel;
* the planned executor's trace replays through Theorem 12 identically.

All machine parameters that alter the charge structure are swept:
latency, complex-cost factors, hardware row bounds and sections.  The
exact ledgers themselves are pinned in ``tests/test_golden_ledgers.py``.
"""

import numpy as np
import pytest

from repro.core.ledger import CostLedger
from repro.core.machine import TCUMachine, placeholder
from repro.core.parallel import ParallelTCUMachine
from repro.core.program import TensorProgram, run_program
from repro.extmem.simulate import simulate_ledger_io
from repro.graph.closure import transitive_closure
from repro.matmul.dense import matmul, matmul_lazy
from repro.matmul.strassen import strassen_like_mm
from repro.transform.dft import batched_dft


def ledger_fingerprint(tcu, sections=()):
    led = tcu.ledger
    return (
        led.snapshot(),
        led.call_shape_totals(),
        {name: led.section_time(name) for name in sections},
    )


MACHINES = {
    "base": dict(m=16, ell=100.0),
    "zero-latency": dict(m=64, ell=0.0),
    "split-stream": dict(m=16, ell=32.0, max_rows=64),
    "complex-cost": dict(m=16, ell=16.0, complex_cost_factor=4),
}


def make(kind, **extra):
    return TCUMachine(**MACHINES[kind], **extra)


@pytest.mark.parametrize("kind", list(MACHINES))
@pytest.mark.parametrize("shape", [(40, 40, 40), (96, 32, 17), (9, 50, 23)])
def test_dense_paths_agree(kind, shape):
    rng = np.random.default_rng(hash((kind, shape)) % 2**32)
    p, q, r = shape
    A = rng.random((p, q))
    B = rng.random((q, r))
    if kind == "complex-cost":
        A = A + 1j * rng.random((p, q))
    direct = make(kind)
    with direct.section("mm"):
        C_direct = matmul(direct, A, B)
    planned = make(kind)
    with planned.section("mm"):
        program = TensorProgram()
        lazy = matmul_lazy(planned, program, A, B)
        run_program(program, planned)
    cost = make(kind, execute="cost-only")
    with cost.section("mm"):
        C_cost = matmul(cost, A, B)
    assert np.allclose(C_direct, A @ B) and np.allclose(lazy.result(), A @ B)
    assert C_cost.shape == (p, r)
    fp = ledger_fingerprint(direct, ["mm"])
    assert ledger_fingerprint(planned, ["mm"]) == fp
    assert ledger_fingerprint(cost, ["mm"]) == fp


@pytest.mark.parametrize("kind", ["base", "zero-latency"])
def test_strassen_paths_agree(kind):
    rng = np.random.default_rng(5)
    A = rng.random((40, 40))
    B = rng.random((40, 40))
    numeric = make(kind)
    C = strassen_like_mm(numeric, A, B)
    cost = make(kind, execute="cost-only")
    C_cost = strassen_like_mm(cost, A, B)
    assert np.allclose(C, A @ B)
    assert C_cost.shape == (40, 40)
    assert ledger_fingerprint(cost) == ledger_fingerprint(numeric)


@pytest.mark.parametrize("kind", ["base", "complex-cost", "split-stream"])
def test_dft_paths_agree(kind):
    rng = np.random.default_rng(9)
    X = rng.random((4, 64)) + 1j * rng.random((4, 64))
    numeric = make(kind)
    F = batched_dft(numeric, X)
    cost = make(kind, execute="cost-only")
    F_cost = batched_dft(cost, X)
    assert np.allclose(F, np.fft.fft(X))
    assert F_cost.shape == X.shape
    assert ledger_fingerprint(cost) == ledger_fingerprint(numeric)


def test_closure_cost_only_matches_numeric():
    rng = np.random.default_rng(3)
    n = 37
    adj = (rng.random((n, n)) < 0.1).astype(np.int64)
    np.fill_diagonal(adj, 0)
    numeric = TCUMachine(m=16, ell=50.0)
    closure = transitive_closure(numeric, adj)
    cost = TCUMachine(m=16, ell=50.0, execute="cost-only")
    transitive_closure(cost, adj)
    assert ledger_fingerprint(cost) == ledger_fingerprint(numeric)
    # reachability sanity on the numeric result
    assert np.array_equal(closure, closure | (closure @ closure > 0))


def test_parallel_fused_and_cost_only_agree():
    rng = np.random.default_rng(6)
    W = rng.random((4, 4))
    streams = [rng.random((16, 4)) for _ in range(9)]

    def build(machine):
        program = TensorProgram()
        # distinct resident blocks so nothing merges and the level
        # batches across units
        blocks = [W + i for i in range(len(streams))]
        ops = [program.mm(Xi, Bi) for Xi, Bi in zip(streams, blocks)]
        return program, ops

    numeric = ParallelTCUMachine(m=16, ell=40.0, units=3)
    prog, ops = build(numeric)
    run_program(prog, numeric)
    cost = ParallelTCUMachine(m=16, ell=40.0, units=3, execute="cost-only")
    prog_c, ops_c = build(cost)
    run_program(prog_c, cost)
    assert ledger_fingerprint(cost) == ledger_fingerprint(numeric)
    assert numeric.last_batch.makespan == cost.last_batch.makespan
    assert all(op.result().shape == (16, 4) for op in ops_c)
    assert np.allclose(ops[0].result(), streams[0] @ (W + 0))


def test_parallel_equal_cost_fast_path_matches_heap():
    # make the costs unequal to force the heap, then compare with an
    # equal-cost batch computed by the round-robin fast path
    rng = np.random.default_rng(8)
    mixed = ParallelTCUMachine(m=16, ell=10.0, units=3)
    pairs = [(rng.random((16 + 4 * i, 4)), rng.random((4, 4))) for i in range(7)]
    mixed.mm_batch(pairs)
    serial = sum(A.shape[0] * 4 + 10.0 for A, _ in pairs)
    assert mixed.last_batch.serial_time == serial
    assert mixed.last_batch.makespan <= serial

    equal = ParallelTCUMachine(m=16, ell=10.0, units=3)
    equal.mm_batch([(rng.random((16, 4)), rng.random((4, 4))) for _ in range(7)])
    # 7 equal calls on 3 units -> ceil(7/3) = 3 rounds on the fullest unit
    assert equal.last_batch.makespan == 3 * (16 * 4 + 10.0)
    assert equal.last_batch.units_used == 3


def test_theorem12_replay_identical_across_paths():
    rng = np.random.default_rng(12)
    A = rng.random((64, 48))
    B = rng.random((48, 32))
    numeric = TCUMachine(m=16, ell=8.0)
    matmul(numeric, A, B)
    cost = TCUMachine(m=16, ell=8.0, execute="cost-only")
    matmul(cost, A, B)
    aggregate = TCUMachine(m=16, ell=8.0, execute="cost-only", trace_calls="aggregate")
    matmul(aggregate, A, B)
    io = simulate_ledger_io(numeric.ledger)
    assert simulate_ledger_io(cost.ledger) == io
    assert simulate_ledger_io(aggregate.ledger) == io
    assert io.tensor_ios > 0 and io.io_per_time > 0


def test_cost_only_scales_past_numeric_memory():
    # a sweep point whose numeric operands would need ~200 GB: the
    # cost-only path charges it from placeholders in O(#calls) work
    n = 160_000
    tcu = TCUMachine(m=65536, ell=1e5, execute="cost-only")
    A = placeholder((n, n))
    B = placeholder((n, n))
    C = matmul(tcu, A, B)
    assert C.shape == (n, n) and C.strides == (0, 0)
    s = tcu.sqrt_m
    calls = (n // s) ** 2
    assert tcu.ledger.tensor_calls == calls
    assert tcu.ledger.latency_time == calls * 1e5
    assert tcu.ledger.tensor_time == float(calls) * n * s


def test_aggregate_trace_mode_matches_full_under_fusion():
    rng = np.random.default_rng(13)
    A = rng.random((32, 32))
    B = rng.random((32, 32))
    full = TCUMachine(m=16, ell=4.0, trace_calls=True)
    matmul(full, A, B)
    agg_ledger = CostLedger(trace_calls="aggregate")
    agg = TCUMachine(m=16, ell=4.0, ledger=agg_ledger)
    matmul(agg, A, B)
    assert full.ledger.snapshot() == agg.ledger.snapshot()
    assert full.ledger.call_shape_totals() == agg.ledger.call_shape_totals()
