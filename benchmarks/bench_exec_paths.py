"""E-paths — fused batched execution and cost-only simulation throughput.

One Theorem 2 product driven through the three routes a machine can
pick for it (the planned program executor, the direct fused grid
kernel, cost-only charging) must charge identical ledgers while the
fused path closes most of the gap to raw numpy and the cost-only path
runs at ledger speed.
"""

import time

import numpy as np

from repro import TCUMachine, matmul
from repro.analysis.tables import render_table
from repro.core.program import TensorProgram, run_program
from repro.matmul.dense import _emit_theorem2, _pad_operands


def _paths(m, ell, A, B):
    planned = TCUMachine(m=m, ell=ell)
    t0 = time.perf_counter()
    program = TensorProgram()
    lazy = _emit_theorem2(planned, program, *_pad_operands(planned, A, B, True))
    run_program(program, planned)
    lazy.result()
    wall_planned = time.perf_counter() - t0

    fused = TCUMachine(m=m, ell=ell)
    t0 = time.perf_counter()
    matmul(fused, A, B)
    wall_fused = time.perf_counter() - t0

    cost = TCUMachine(m=m, ell=ell, execute="cost-only")
    t0 = time.perf_counter()
    matmul(cost, A, B)
    wall_cost = time.perf_counter() - t0

    machines = {
        "planned": (planned, wall_planned),
        "fused": (fused, wall_fused),
        "cost-only": (cost, wall_cost),
    }
    return machines


def test_exec_paths_throughput(benchmark, rng, record):
    m, ell = 256, 32.0
    A = rng.random((512, 512))
    B = rng.random((512, 512))
    benchmark(lambda: matmul(TCUMachine(m=m, ell=ell), A, B))

    machines = _paths(m, ell, A, B)
    ref_snapshot = machines["planned"][0].ledger.snapshot()
    ref_shapes = machines["planned"][0].ledger.call_shape_totals()
    rows = []
    baseline = machines["planned"][1]
    for name, (tcu, wall) in machines.items():
        assert tcu.ledger.snapshot() == ref_snapshot
        assert tcu.ledger.call_shape_totals() == ref_shapes
        rows.append(
            [name, wall, baseline / wall, tcu.ledger.tensor_calls, tcu.time]
        )
    # cost-only never touches a value, so it beats the fused numeric kernel
    assert machines["cost-only"][1] < machines["fused"][1]
    record(
        "epaths_exec_throughput",
        render_table(
            ["path", "wall s", "speedup vs planned", "tensor calls", "model T"],
            rows,
            title=f"Execution paths: n=512 dense MM, m={m}, l={ell} "
            "(identical ledgers asserted)",
        ),
    )


def test_cost_only_scales_beyond_memory(record):
    # sweep m at a size whose numeric operands would need ~80 GB each
    from repro import placeholder

    n = 100_000
    rows = []
    for m in (4096, 65536, 1048576):
        tcu = TCUMachine(m=m, ell=1e5, execute="cost-only")
        A = placeholder((n, n))
        B = placeholder((n, n))
        t0 = time.perf_counter()
        matmul(tcu, A, B)
        wall = time.perf_counter() - t0
        s = tcu.sqrt_m
        calls = -(-n // s) * -(-n // s)
        assert tcu.ledger.tensor_calls == calls
        rows.append([m, calls, tcu.time, wall])
    times = [r[2] for r in rows]
    assert times == sorted(times, reverse=True)  # bigger unit, less model time
    record(
        "epaths_cost_only_sweep",
        render_table(
            ["m", "tensor calls", "model T", "wall s"],
            rows,
            title=f"Cost-only sweep at n={n} (numeric operands would need "
            f"{8 * n * n / 1e9:.0f} GB each)",
        ),
    )


def test_fused_program_executor_levels(rng, record):
    # many products sharing one resident block: the planner merges them
    # into one call, which the executor issues through mm_grid
    m, ell = 256, 1e4
    W = rng.random((16, 16))
    streams = [rng.random((256, 16)) for _ in range(64)]

    separate = TCUMachine(m=m, ell=ell)
    t0 = time.perf_counter()
    for X in streams:
        matmul(separate, X, W)
    wall_s = time.perf_counter() - t0

    tcu = TCUMachine(m=m, ell=ell)
    program = TensorProgram()
    ops = [program.mm(X, W) for X in streams]
    t0 = time.perf_counter()
    plan = run_program(program, tcu)
    wall_p = time.perf_counter() - t0
    assert plan.stats.tensor_calls_planned == 1  # all merged: one latency
    assert tcu.ledger.latency_time == ell
    assert separate.ledger.latency_time == len(streams) * ell
    assert tcu.ledger.tensor_time == separate.ledger.tensor_time
    assert np.allclose(ops[0].result(), streams[0] @ W)
    record(
        "epaths_program_levels",
        render_table(
            ["schedule", "wall s", "tensor calls", "latency T"],
            [
                ["separate matmul calls", wall_s, separate.ledger.tensor_calls,
                 separate.ledger.latency_time],
                ["one planned program", wall_p, plan.stats.tensor_calls_planned,
                 tcu.ledger.latency_time],
            ],
            title="Planned program vs separate calls, 64 streams x one resident block",
        ),
    )
