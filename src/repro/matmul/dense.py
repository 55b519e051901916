"""Dense matrix multiplication on the (m, l)-TCU (Theorem 2, Corollary 1).

Theorem 2's algorithm: split the left matrix A into ``sqrt(m)``-wide
*tall* vertical strips ``A_i`` and the right matrix B into
``sqrt(m) x sqrt(m)`` blocks ``B_{i,j}``.  Each ``C_{i,j} = A_i B_{i,j}``
is one tensor call on a tall operand (cost ``p * sqrt(m) + l``), and the
output strip ``C_j = sum_i C_{i,j}`` needs only additions.  For square
``sqrt(n) x sqrt(n)`` inputs this gives the semiring-optimal

    Theta( n^{3/2} / sqrt(m)  +  (n/m) * l )

model time; :func:`matmul` generalises the same schedule to arbitrary
``p x q`` times ``q x r`` shapes, which also yields Corollary 1's bound
``Theta(rn/sqrt(m) + (r*sqrt(n)/m) l)`` for ``sqrt(n) x r`` by
``r x sqrt(n)`` products.

One execution path
------------------
:func:`matmul` has one schedule and two ways to run it, chosen from the
machine alone.  A serial machine whose ``mm`` is the plain tall call,
and a parallel machine whose batched calls are plain products
(:meth:`~repro.core.parallel.ParallelTCUMachine.plain_calls`), run the
whole strip-by-block grid directly: one ledger charge and, on numeric
machines, one fused contraction.  On a parallel machine that charge is
the scheduled batch the planner would issue for the grid's products:
same split decision, chunk order and unit assignment, charged by
``mm_batch``'s own rule.  Row-bounded, overflow-checked, systolic and
quantized machines, and complex data at a complex cost factor, keep
the program path: they build the grid as a lazy
:class:`~repro.core.program.TensorProgram` —
``mm`` nodes for the ``C_{i,j}`` products, ``add`` nodes for the strip
reductions — and executes it through
:func:`~repro.core.program.run_program`, which batches each DAG level
on a :class:`~repro.core.parallel.ParallelTCUMachine` and, across
products sharing a resident block (see :func:`matmul_lazy`), merges
calls so k products pay one latency.  On a serial machine both charge
a lone product exactly as issuing its ``C_{i,j}`` calls one by one
would; the golden ledger pins in ``tests/test_golden_ledgers.py`` hold
every machine configuration to its ledger.
"""

from __future__ import annotations

import numpy as np

from ..core.machine import TCUMachine, placeholder
from ..core.parallel import ParallelTCUMachine
from ..core.program import Lazy, TensorProgram, level_splits, run_program
from .schedule import ceil_to_multiple, pad_matrix, padded_copy_cost, theorem2_tasks

__all__ = [
    "matmul",
    "matmul_lazy",
    "square_mm",
    "rectangular_mm",
    "tensor_call_count",
]


def _check_operands(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions disagree: {A.shape} @ {B.shape}")
    return A, B


def _pad_operands(
    tcu: TCUMachine, A: np.ndarray, B: np.ndarray, charge_padding: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Pad both operands to the tensor-unit grid, charging the copies."""
    p, q = A.shape
    _, r = B.shape
    s = tcu.sqrt_m
    p_pad = max(p, s)
    q_pad = ceil_to_multiple(q, s)
    r_pad = ceil_to_multiple(r, s)
    if charge_padding:
        tcu.charge_cpu(
            padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad)
        )
    return pad_matrix(A, p_pad, q_pad), pad_matrix(B, q_pad, r_pad)


def _emit_theorem2(
    tcu: TCUMachine, program: TensorProgram, Ap: np.ndarray, Bp: np.ndarray
) -> Lazy:
    """Append the Theorem 2 schedule for padded operands to ``program``.

    One ``mm`` node per grid product, one ``add`` node per output
    column; the returned :class:`Lazy` assembles the padded result after
    the program has executed.  Each ``add`` term costs one RAM unit per
    word: the ``C_j += C_{i,j}`` accumulation.
    """
    s = tcu.sqrt_m
    p_pad = Ap.shape[0]
    r_pad = Bp.shape[1]
    partials: dict[int, list] = {}
    for j, _, strip, block in theorem2_tasks(Ap, Bp, s):
        partials.setdefault(j, []).append(program.mm(strip, block))
    columns = [program.add(partials[j]) for j in range(r_pad // s)]

    def assemble() -> np.ndarray:
        C = np.zeros((p_pad, r_pad), dtype=np.result_type(Ap.dtype, Bp.dtype))
        for j, col in enumerate(columns):
            C[:, j * s : (j + 1) * s] = col.result()
        return C

    return Lazy(assemble)


def _charge_theorem2_grid(
    tcu: TCUMachine, p_pad: int, kq: int, kr: int, dtype, split: str | int
) -> None:
    """Charge the whole Theorem 2 grid — ``kq * kr`` tall calls of
    ``p_pad`` rows plus the per-partial strip accumulations — exactly as
    the planned program would.

    On a parallel machine the products are one level of ``kq * kr``
    singleton call groups: each takes the planner's split factor and
    the level's chunks, in program order, are charged as one scheduled
    batch.  A lone unsplit product, like every serial grid, takes the
    machine's bulk grid rule.
    """
    k = kq * kr
    f = None
    if isinstance(tcu, ParallelTCUMachine):
        is_complex = bool(np.issubdtype(dtype, np.complexfloating))
        f = np.asarray(level_splits(tcu, [(p_pad, is_complex)] * k, split))
    if f is not None and (k > 1 or f[0] > 1):
        # each group's row-balanced chunks: the first p_pad % f carry
        # one extra row
        group = np.repeat(np.arange(k), f)
        pos = np.arange(group.size) - np.repeat(np.cumsum(f) - f, f)
        tcu.charge_batch(p_pad // f[group] + (pos < p_pad % f[group]))
    else:
        tcu.charge_mm_grid(p_pad, k, dtype)
    tcu.charge_cpu(k * p_pad * tcu.sqrt_m)  # the C_{i,j} accumulations


def _matmul_fused(
    tcu: TCUMachine, Ap: np.ndarray, Bp: np.ndarray, split: str | int
) -> np.ndarray:
    """The Theorem 2 strip-by-block grid as one fused contraction.

    The strips ``A_i`` and blocks ``B_{i,j}`` are strided views of the
    padded operands, so the whole grid is a single tensordot (which
    lowers to one GEMM) — the per-call products and the ``sum_i C_{i,j}``
    strip accumulations fuse into it.  Charges are identical to running
    the grid's planned program.
    """
    s = tcu.sqrt_m
    p_pad, q_pad = Ap.shape
    r_pad = Bp.shape[1]
    kq, kr = q_pad // s, r_pad // s
    dtype = np.result_type(Ap.dtype, Bp.dtype)
    _charge_theorem2_grid(tcu, p_pad, kq, kr, dtype, split)
    strips = Ap.reshape(p_pad, kq, s).transpose(1, 0, 2)  # (i, p, k) views
    blocks = Bp.reshape(kq, s, kr, s).transpose(0, 2, 1, 3)  # (i, j, k, t)
    C = np.tensordot(strips, blocks, axes=((0, 2), (0, 2)))  # (p, j, t)
    return C.reshape(p_pad, r_pad)


def matmul(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    *,
    charge_padding: bool = True,
    split: str | int = "auto",
) -> np.ndarray:
    """``C = A @ B`` for arbitrary 2-D shapes via the Theorem 2 schedule.

    Parameters
    ----------
    tcu:
        The machine executing (and billing) the computation.
    A, B:
        ``p x q`` and ``q x r`` arrays over a common dtype family.
    charge_padding:
        Charge the RAM-model cost of materialising padded copies (on by
        default; disable only inside algorithms that pre-pad).
    split:
        The planner's split policy for the grid's calls on parallel
        machines (see :func:`~repro.core.program.plan_program`):
        ``"auto"`` (default) lets the cost model split tall calls
        across units, ``1`` pins the one-call-per-group schedule, an
        explicit ``s`` forces ``s`` chunks per group.  Serial machines
        are unaffected (splitting is the identity there).

    The whole grid is charged in one ledger charge (one scheduled batch
    on a parallel machine) and computed as one stacked contraction
    whenever the machine allows it; machines the fused kernel cannot
    express exactly (hardware row bounds that split the stream, the
    systolic backend, quantised kernels, overflow checks, complex data
    at a complex cost factor) run the planned
    :class:`~repro.core.program.TensorProgram` instead.

    On a machine with ``execute="cost-only"`` the product is never
    computed: the schedule's exact model cost is charged from shapes
    alone and an O(1)-storage placeholder is returned, so sweeps can run
    at ledger speed on operands that are themselves placeholders.

    Notes
    -----
    The right operand block ``B_{i,j}`` is loaded once per tensor call
    while the *whole* height-``p`` strip of A streams through — the
    asymmetric behaviour of Section 3 (property 3).  Output additions
    are charged one RAM unit per word.
    """
    A, B = _check_operands(A, B)
    p, q = A.shape
    _, r = B.shape
    if p == 0 or q == 0 or r == 0:
        return np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
    s = tcu.sqrt_m
    p_pad = max(p, s)
    q_pad = ceil_to_multiple(q, s)
    r_pad = ceil_to_multiple(r, s)
    cost_only = tcu.execute == "cost-only"
    dtype = np.result_type(A.dtype, B.dtype)
    if isinstance(tcu, ParallelTCUMachine):
        # the grid is one batch of independent calls: direct whenever
        # mm_batch would price and run them as plain products
        direct = tcu.plain_calls(bool(np.issubdtype(dtype, np.complexfloating)))
    else:
        direct = (
            (tcu.max_rows is None or p_pad <= tcu.max_rows)
            # machines that restrict the call interface itself (the weak
            # model's square-only mm) must keep validating every call
            and type(tcu).mm is TCUMachine.mm
            # the fused contraction sums partials before any value exists
            # to check, so overflow-checked machines take the program
            # path (whose grid primitive checks every stacked product)
            and not tcu.check_overflow
            and (cost_only or tcu.fusable)
        )

    if direct and cost_only:
        # never materialise the padded copies: charge the schedule from
        # shapes alone (the operands may themselves be placeholders)
        if charge_padding:
            tcu.charge_cpu(
                padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad)
            )
        _charge_theorem2_grid(tcu, p_pad, q_pad // s, r_pad // s, dtype, split)
        return placeholder((p, r), dtype)

    Ap, Bp = _pad_operands(tcu, A, B, charge_padding)

    if direct:
        return _matmul_fused(tcu, Ap, Bp, split)[:p, :r]

    program = TensorProgram()
    lazy = _emit_theorem2(tcu, program, Ap, Bp)
    run_program(program, tcu, split=split)
    return lazy.result()[:p, :r]


def matmul_lazy(
    tcu: TCUMachine,
    program: TensorProgram,
    A: np.ndarray,
    B: np.ndarray,
    *,
    charge_padding: bool = True,
) -> Lazy:
    """Append a Theorem 2 product to a caller-owned program.

    This is how independent products join one plan: every product built
    into the same program is planned together, so calls that share a
    resident right-hand block merge into one tall call (one latency for
    all of them) and each DAG level batches on parallel machines.  The
    caller must :func:`~repro.core.program.run_program` the program
    before reading the returned :class:`~repro.core.program.Lazy`.

    Padding copies are charged at build time (set ``charge_padding``
    False when operands are pre-padded).  Note the planner merges by
    buffer identity: pass the *same* ``B`` object (already padded if
    padding would be needed) to every product that should share its
    residency.
    """
    A, B = _check_operands(A, B)
    p, q = A.shape
    _, r = B.shape
    if p == 0 or q == 0 or r == 0:
        empty = np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
        return Lazy(lambda: empty)
    Ap, Bp = _pad_operands(tcu, A, B, charge_padding)
    lazy = _emit_theorem2(tcu, program, Ap, Bp)
    return Lazy(lambda: lazy.result()[:p, :r])


def square_mm(tcu: TCUMachine, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Theorem 2 specialised to square operands (shape-checked)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(
            f"square_mm expects equal square operands, got {A.shape} and {B.shape}"
        )
    return matmul(tcu, A, B)


def rectangular_mm(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    *,
    algorithm=None,
) -> np.ndarray:
    """Corollary 1: multiply ``sqrt(n) x r`` by ``r x sqrt(n)``.

    With ``algorithm=None`` this is the Theorem 2 schedule (semiring
    cost ``rn/sqrt(m) + (r sqrt(n)/m) l``).  Passing a
    :class:`~repro.matmul.strassen.BilinearAlgorithm` instead decomposes
    the product into ``t x t`` squares with ``t = min(sqrt(n), r)`` and
    runs the Strassen-like recursion of Theorem 1 on each square, as the
    corollary's proof prescribes; all the square subproducts' leaf
    calls join one program and are planned together.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} @ {B.shape}")
    if algorithm is None:
        return matmul(tcu, A, B)

    from .strassen import default_cutoff, strassen_like_lazy

    p, q = A.shape
    _, r = B.shape
    t = min(p, q, r)
    t_pad = max(t, 1)
    p_pad = ceil_to_multiple(p, t_pad)
    q_pad = ceil_to_multiple(q, t_pad)
    r_pad = ceil_to_multiple(r, t_pad)
    tcu.charge_cpu(
        padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad)
    )
    Ap = pad_matrix(A, p_pad, q_pad)
    Bp = pad_matrix(B, q_pad, r_pad)
    C = np.zeros((p_pad, r_pad), dtype=np.result_type(Ap.dtype, Bp.dtype))

    # All t x t subproducts are independent: build their recursions into
    # one shared program so every leaf call is planned (and on parallel
    # machines batched) together.
    program = TensorProgram()
    cutoff = default_cutoff(tcu, algorithm)
    tasks = []
    for bi in range(p_pad // t_pad):
        for bj in range(r_pad // t_pad):
            for bk in range(q_pad // t_pad):
                blockA = Ap[bi * t_pad : (bi + 1) * t_pad, bk * t_pad : (bk + 1) * t_pad]
                blockB = Bp[bk * t_pad : (bk + 1) * t_pad, bj * t_pad : (bj + 1) * t_pad]
                lazy = strassen_like_lazy(
                    tcu, program, blockA, blockB, algorithm=algorithm, cutoff=cutoff
                )
                tasks.append((bi, bj, lazy))
    run_program(program, tcu)
    for bi, bj, lazy in tasks:
        acc = C[bi * t_pad : (bi + 1) * t_pad, bj * t_pad : (bj + 1) * t_pad]
        acc += lazy.result()
        tcu.charge_cpu(t_pad * t_pad)
    return C[:p, :r]


def tensor_call_count(p: int, q: int, r: int, sqrt_m: int) -> int:
    """Number of tensor calls the Theorem 2 schedule issues for
    ``p x q @ q x r`` (used by tests to pin the accounting down)."""
    q_pad = ceil_to_multiple(q, sqrt_m)
    r_pad = ceil_to_multiple(r, sqrt_m)
    return (q_pad // sqrt_m) * (r_pad // sqrt_m)
