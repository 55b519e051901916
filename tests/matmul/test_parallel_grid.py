"""Theorem 2 on parallel machines: the direct grid path against the program.

On a :class:`ParallelTCUMachine` whose calls are plain ``n*sqrt(m) + l``
products, :func:`matmul` charges its ``kq * kr`` grid without building a
:class:`TensorProgram`.  The contract is that it charges exactly the batch
the planner issues for the same products built with :func:`matmul_lazy`
and run through :func:`run_program`: same split decision, same chunk
order, same scheduler assignment, same ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ParallelTCUMachine
from repro.core.program import TensorProgram, run_program
from repro.matmul import dense
from repro.matmul.dense import matmul, matmul_lazy
from repro.matmul.parallel_dense import parallel_matmul
from repro.matmul.schedule import ceil_to_multiple, pad_matrix, padded_copy_cost

ELL = 24.0
UNITS = 4

# (kq, kr) grids for sqrt(m) = 4 on 4 units: fewer products than units,
# counts not divisible by the units, a divisible count, a lone product
GRIDS = {"under": (1, 2), "ragged": (3, 3), "wide": (1, 5), "even": (2, 4), "lone": (1, 1)}
SPLITS = ["auto", 1, 2, 5]
SCHEDULERS = ["lpt", "greedy", "round-robin", "exact"]


def _operands(grid: str, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Seeded operands whose padded grid is ``GRIDS[grid]``; row counts
    are drawn so streams are not multiples of the unit count."""
    kq, kr = GRIDS[grid]
    rng = np.random.default_rng(sum(map(ord, grid)))
    p = int(rng.integers(5, 40))
    q = 4 * kq - int(rng.integers(0, 3))
    r = 4 * kr - int(rng.integers(0, 3))
    A = rng.standard_normal((p, q))
    B = rng.standard_normal((q, r))
    if np.issubdtype(dtype, np.complexfloating):
        A = A + 1j * rng.standard_normal((p, q))
        B = B + 1j * rng.standard_normal((q, r))
    return A, B


def _state(machine: ParallelTCUMachine):
    ledger = machine.ledger
    columns = [c.tolist() for c in ledger.calls.as_arrays()]
    return ledger.snapshot(), columns, ledger.calls.unit_ids().tolist(), machine.last_batch


def _program_matmul(machine, A, B, split):
    program = TensorProgram()
    lazy = matmul_lazy(machine, program, A, B)
    run_program(program, machine, split=split)
    return lazy.result()


def _outcome(fn):
    try:
        return fn(), None
    except ValueError as exc:  # e.g. the exact oracle's job-count limit
        return None, type(exc)


@pytest.mark.parametrize("execute", ["numeric", "cost-only"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("grid", GRIDS)
def test_direct_grid_charges_the_planned_batch(grid, split, scheduler, execute):
    def machine():
        return ParallelTCUMachine(
            m=16, ell=ELL, units=UNITS, scheduler=scheduler, execute=execute
        )

    A, B = _operands(grid)
    direct, planned = machine(), machine()
    got, got_exc = _outcome(lambda: matmul(direct, A, B, split=split))
    want, want_exc = _outcome(lambda: _program_matmul(planned, A, B, split))
    assert got_exc == want_exc
    assert _state(direct) == _state(planned)
    if execute == "numeric" and want_exc is None:
        assert got.shape == want.shape
        assert np.allclose(got, want)


def test_plain_machines_build_no_program(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the direct grid path must not run a program")

    monkeypatch.setattr(dense, "run_program", refuse)
    A, B = _operands("ragged")
    for machine in (
        ParallelTCUMachine(m=16, ell=ELL, units=UNITS),
        ParallelTCUMachine(m=16, ell=ELL, units=UNITS, execute="cost-only"),
        ParallelTCUMachine(m=16, ell=ELL, units=UNITS, complex_cost_factor=4),
    ):
        assert machine.plain_calls(False)
        matmul(machine, A, B)


@pytest.mark.parametrize("split", SPLITS)
def test_complex_data_at_complex_cost_stays_on_the_program_path(split, monkeypatch):
    A, B = _operands("ragged", np.complex128)
    direct = ParallelTCUMachine(m=16, ell=ELL, units=UNITS, complex_cost_factor=4)
    planned = ParallelTCUMachine(m=16, ell=ELL, units=UNITS, complex_cost_factor=4)
    assert not direct.plain_calls(True)
    runs = []
    real_run = dense.run_program

    def counting_run(*args, **kwargs):
        runs.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(dense, "run_program", counting_run)
    got = matmul(direct, A, B, split=split)
    assert runs == [1]
    want = _program_matmul(planned, A, B, split)
    assert _state(direct) == _state(planned)
    np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# parallel_matmul: matmul(split=1), pinned against its former hand-built
# batch of the Theorem 2 grid
# ----------------------------------------------------------------------
def _hand_built_batch(ptcu, A, B):
    """Every ``C_{i,j} = A_i B_{i,j}`` product as one ``mm_batch``, the
    strip accumulations charged one partial at a time."""
    s = ptcu.sqrt_m
    p_rows, q = A.shape
    r = B.shape[1]
    p_pad, q_pad, r_pad = max(p_rows, s), ceil_to_multiple(q, s), ceil_to_multiple(r, s)
    ptcu.charge_cpu(padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad))
    Ap, Bp = pad_matrix(A, p_pad, q_pad), pad_matrix(B, q_pad, r_pad)
    jobs, coords = [], []
    for j in range(r_pad // s):
        for i in range(q_pad // s):
            jobs.append((Ap[:, i * s : (i + 1) * s], Bp[i * s : (i + 1) * s, j * s : (j + 1) * s]))
            coords.append(j)
    results = ptcu.mm_batch(jobs)
    C = np.zeros((p_pad, r_pad), dtype=np.result_type(Ap.dtype, Bp.dtype))
    for j, partial in zip(coords, results, strict=True):
        C[:, j * s : (j + 1) * s] += partial
        ptcu.charge_cpu(p_pad * s)
    return C[:p_rows, :r]


PARALLEL_CONFIGS = {
    "parallel-3": lambda: ParallelTCUMachine(m=16, ell=ELL, units=3),
    "parallel-cost-only": lambda: ParallelTCUMachine(
        m=16, ell=ELL, units=2, execute="cost-only"
    ),
    "complex-cost": lambda: ParallelTCUMachine(
        m=16, ell=16.0, units=3, complex_cost_factor=4
    ),
    "parallel-max-rows": lambda: ParallelTCUMachine(m=16, ell=ELL, units=3, max_rows=16),
}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("grid", ["under", "ragged", "wide", "even"])
@pytest.mark.parametrize("config", PARALLEL_CONFIGS)
def test_parallel_matmul_is_the_theorem2_batch(config, grid, dtype):
    A, B = _operands(grid, dtype)
    wrapped, hand = PARALLEL_CONFIGS[config](), PARALLEL_CONFIGS[config]()
    got = parallel_matmul(wrapped, A, B)
    want = _hand_built_batch(hand, A, B)
    assert _state(wrapped) == _state(hand)
    if wrapped.execute != "cost-only":
        assert np.allclose(got, want)
        assert np.allclose(got, A @ B)

