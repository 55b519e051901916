"""Tiling and padding helpers shared by the TCU matrix algorithms.

The tensor-unit primitive only accepts operands whose widths are exactly
``sqrt(m)``; every higher-level algorithm therefore pads its matrices to
the unit grid and iterates over ``sqrt(m)``-wide strips and
``sqrt(m) x sqrt(m)`` blocks.  Padding work is RAM-model work and is
charged to the ledger by the callers (one unit per word written).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

__all__ = [
    "ceil_to_multiple",
    "pad_matrix",
    "block_view",
    "strip_view",
    "padded_copy_cost",
    "theorem2_tasks",
]


def ceil_to_multiple(value: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= ``value`` (and >= multiple)."""
    if multiple < 1:
        raise ValueError(f"multiple must be >= 1, got {multiple}")
    if value <= 0:
        return multiple
    return ((value + multiple - 1) // multiple) * multiple


def pad_matrix(A: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero-pad a 2-D array up to ``rows x cols`` (no-op copy-free when
    already that shape)."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D array, got {A.ndim}-D")
    r, c = A.shape
    if r > rows or c > cols:
        raise ValueError(f"cannot pad {A.shape} down to ({rows}, {cols})")
    if (r, c) == (rows, cols):
        return A
    out = np.zeros((rows, cols), dtype=A.dtype)
    out[:r, :c] = A
    return out


def padded_copy_cost(A: np.ndarray, rows: int, cols: int) -> int:
    """RAM-model cost of materialising the padded copy (0 when no copy)."""
    r, c = A.shape
    if (r, c) == (rows, cols):
        return 0
    return rows * cols


def block_view(A: np.ndarray, s: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Iterate ``(i, j, block)`` over the ``s x s`` blocks of ``A``.

    ``A``'s dimensions must already be multiples of ``s``; blocks are
    views (no copies), in row-major block order.
    """
    rows, cols = A.shape
    if rows % s or cols % s:
        raise ValueError(f"shape {A.shape} is not a multiple of block side {s}")
    for i in range(rows // s):
        for j in range(cols // s):
            yield i, j, A[i * s : (i + 1) * s, j * s : (j + 1) * s]


def strip_view(A: np.ndarray, s: int) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate ``(i, strip)`` over the ``s``-wide column strips of ``A``."""
    rows, cols = A.shape
    if cols % s:
        raise ValueError(f"width {cols} is not a multiple of strip width {s}")
    for i in range(cols // s):
        yield i, A[:, i * s : (i + 1) * s]


def grid_shape(rows: int, cols: int, s: int) -> tuple[int, int]:
    """Number of ``s x s`` blocks per dimension after padding."""
    return math.ceil(max(rows, 1) / s), math.ceil(max(cols, 1) / s)


def theorem2_tasks(
    Ap: np.ndarray, Bp: np.ndarray, s: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The Theorem 2 call schedule as data: ``(j, i, strip, block)``.

    Yields one task per ``C_{i,j} = A_i B_{i,j}`` product of the padded
    operands — the tall column strip ``A_i`` (a view) against the
    resident block ``B_{i,j}`` — in output-column-major order, the order
    the lazy program builder issues them in.
    """
    p_pad, q_pad = Ap.shape
    q2, r_pad = Bp.shape
    if q_pad != q2 or q_pad % s or r_pad % s or p_pad < s:
        raise ValueError(
            f"operands {Ap.shape} @ {Bp.shape} are not padded to the sqrt(m)={s} grid"
        )
    for j in range(r_pad // s):
        for i in range(q_pad // s):
            yield (
                j,
                i,
                Ap[:, i * s : (i + 1) * s],
                Bp[i * s : (i + 1) * s, j * s : (j + 1) * s],
            )
