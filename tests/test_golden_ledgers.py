"""Golden ledger pins: one exact ledger per kernel and machine config.

Every paper kernel runs on the five standard machine configs plus a
complex-cost parallel machine, and three things are pinned as literals:

* ``ledger.snapshot()`` — the model-time totals;
* ``ledger.call_shape_totals()`` — count, time and latency per
  ``(n, sqrt_m)`` call shape;
* a sha256 over the trace columns ``(n, sqrt_m, time, latency,
  unit_id)``, so call order and unit assignment are pinned too.

The pins are the contract each kernel's one execution path must keep:
a change that moves any charge, reorders any call or reassigns any unit
shows up here as a diff against a literal, not as two code paths that
drift together.  Inputs are seeded; model time never depends on values,
but Seidel's recursion depth does, so it runs on numeric machines only.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

import numpy as np
import pytest

from machine_configs import machine_configs
from repro import ParallelTCUMachine, TCUMachine
from repro.graph.apsd import seidel
from repro.graph.closure import transitive_closure
from repro.matmul.dense import matmul, rectangular_mm
from repro.matmul.strassen import STRASSEN_2X2, strassen_like_mm
from repro.transform.convolution import circular_convolve, dft2
from repro.transform.dft import batched_dft, batched_idft
from repro.transform.stencil import heat_equation_weights, stencil_tcu

ELL = 32.0

CONFIGS: dict[str, Callable[[], TCUMachine]] = {
    **machine_configs(ELL),
    "complex-cost": lambda: ParallelTCUMachine(
        m=16, ell=16.0, units=3, complex_cost_factor=4
    ),
}


def _rng() -> np.random.Generator:
    return np.random.default_rng(20200709)


def _run_matmul(tcu: TCUMachine) -> None:
    rng = _rng()
    matmul(tcu, rng.standard_normal((37, 13)), rng.standard_normal((13, 10)))


def _run_rectangular_strassen(tcu: TCUMachine) -> None:
    rng = _rng()
    A = rng.integers(-3, 4, (16, 40)).astype(np.float64)
    B = rng.integers(-3, 4, (40, 16)).astype(np.float64)
    rectangular_mm(tcu, A, B, algorithm=STRASSEN_2X2)


def _run_strassen(tcu: TCUMachine) -> None:
    rng = _rng()
    strassen_like_mm(tcu, rng.standard_normal((20, 20)), rng.standard_normal((20, 20)))


def _run_closure(tcu: TCUMachine) -> None:
    adj = (_rng().random((22, 22)) < 0.12).astype(np.int64)
    transitive_closure(tcu, adj)


def _run_seidel(tcu: TCUMachine) -> None:
    n = 12
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):  # a path keeps the graph connected
        adj[i, i + 1] = adj[i + 1, i] = 1
    extra = np.triu(_rng().random((n, n)) < 0.15, 2)
    adj |= (extra | extra.T).astype(np.int64)
    seidel(tcu, adj)


def _run_dft(tcu: TCUMachine) -> None:
    rng = _rng()
    X = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    batched_idft(tcu, batched_dft(tcu, X))


def _run_dft2_convolve(tcu: TCUMachine) -> None:
    rng = _rng()
    dft2(tcu, rng.standard_normal((2, 16, 16)))
    circular_convolve(tcu, rng.standard_normal(32), rng.standard_normal(32))


def _run_stencil(tcu: TCUMachine) -> None:
    stencil_tcu(tcu, _rng().standard_normal((12, 12)), heat_equation_weights(), 3)


KERNELS: dict[str, Callable[[TCUMachine], None]] = {
    "matmul": _run_matmul,
    "rectangular-strassen": _run_rectangular_strassen,
    "strassen": _run_strassen,
    "closure": _run_closure,
    "seidel": _run_seidel,
    "dft": _run_dft,
    "dft2-convolve": _run_dft2_convolve,
    "stencil": _run_stencil,
}

CASES = [
    (kernel, config)
    for kernel in KERNELS
    for config in CONFIGS
    if not (kernel == "seidel" and "cost-only" in config)
]


def trace_digest(tcu: TCUMachine) -> str:
    """sha256 over the ``(n, sqrt_m, time, latency, unit_id)`` columns."""
    n, s, t, lat = tcu.ledger.calls.as_arrays()
    h = hashlib.sha256()
    for col, dt in ((n, "<i8"), (s, "<i8"), (t, "<f8"), (lat, "<f8")):
        h.update(np.ascontiguousarray(col, dtype=dt).tobytes())
    h.update(np.ascontiguousarray(tcu.ledger.calls.unit_ids(), dtype="<i8").tobytes())
    return h.hexdigest()


SNAPSHOT_KEYS = (
    "tensor_time", "latency_time", "cpu_time", "reload_time", "wasted_time",
    "tensor_calls", "total_time",
)


def measure(kernel: str, config: str) -> tuple[tuple, dict, str]:
    """Run one case on a fresh machine: (snapshot values in
    :data:`SNAPSHOT_KEYS` order, shape totals, trace digest)."""
    tcu = CONFIGS[config]()
    KERNELS[kernel](tcu)
    snapshot = tcu.ledger.snapshot()
    assert tuple(snapshot) == SNAPSHOT_KEYS
    return tuple(snapshot.values()), tcu.ledger.call_shape_totals(), trace_digest(tcu)


# (kernel, config) -> (snapshot values, call_shape_totals, trace sha256)
PINS: dict[tuple[str, str], tuple[tuple, dict, str]] = {
    ("matmul", "serial-numeric"): (
        (1776.0, 384.0, 2560.0, 0.0, 0.0, 12.0, 4720.0),
        {(37, 4): (12, 2160.0, 384.0)},
        "caad3ba44b119604087d07c47bdc38209ed7a83bbdbde59fcddf5d362d07afa8",
    ),
    ("matmul", "serial-cost-only"): (
        (1776.0, 384.0, 2560.0, 0.0, 0.0, 12.0, 4720.0),
        {(37, 4): (12, 2160.0, 384.0)},
        "caad3ba44b119604087d07c47bdc38209ed7a83bbdbde59fcddf5d362d07afa8",
    ),
    ("matmul", "serial-max-rows"): (
        (1776.0, 1152.0, 4336.0, 0.0, 0.0, 36.0, 7264.0),
        {(5, 4): (12, 624.0, 384.0), (16, 4): (24, 2304.0, 768.0)},
        "6483013d9f14cd7ec92e7b168d20ffea568b28dee38cc6e44ae40b51fba04054",
    ),
    ("matmul", "parallel-3"): (
        (592.0, 128.0, 2560.0, 0.0, 0.0, 12.0, 3280.0),
        {(37, 4): (12, 2160.0, 384.0)},
        "2d5c0d4b3ac2d636ca02a59a90052916495e4e326b59aa6c9a159e36a142b47d",
    ),
    ("matmul", "parallel-cost-only"): (
        (888.0, 192.0, 2560.0, 0.0, 0.0, 12.0, 3640.0),
        {(37, 4): (12, 2160.0, 384.0)},
        "b142cdd43f3504324dd2dd9e9d78af53772a243ea04028e209abd9ce4cd6c9c5",
    ),
    ("matmul", "complex-cost"): (
        (592.0, 64.0, 2560.0, 0.0, 0.0, 12.0, 3216.0),
        {(37, 4): (12, 1968.0, 192.0)},
        "904b485985539b0a11d018b2169e37eaf690eba52a13601395632d1bef1b128b",
    ),
    ("rectangular-strassen", "serial-numeric"): (
        (2688.0, 2688.0, 11904.0, 0.0, 0.0, 84.0, 17280.0),
        {(8, 4): (84, 5376.0, 2688.0)},
        "b36c2cf24dbeb24094b716a08b4e2acb1659e4f86b5bb68d85f2267c0eb04b8c",
    ),
    ("rectangular-strassen", "serial-cost-only"): (
        (2688.0, 2688.0, 11904.0, 0.0, 0.0, 84.0, 17280.0),
        {(8, 4): (84, 5376.0, 2688.0)},
        "b36c2cf24dbeb24094b716a08b4e2acb1659e4f86b5bb68d85f2267c0eb04b8c",
    ),
    ("rectangular-strassen", "serial-max-rows"): (
        (2688.0, 2688.0, 11904.0, 0.0, 0.0, 84.0, 17280.0),
        {(8, 4): (84, 5376.0, 2688.0)},
        "b36c2cf24dbeb24094b716a08b4e2acb1659e4f86b5bb68d85f2267c0eb04b8c",
    ),
    ("rectangular-strassen", "parallel-3"): (
        (896.0, 896.0, 11904.0, 0.0, 0.0, 84.0, 13696.0),
        {(8, 4): (84, 5376.0, 2688.0)},
        "46469854bde9376cc1af11c06faed5b6e1eb615c7f4f03daec27228acb4176ee",
    ),
    ("rectangular-strassen", "parallel-cost-only"): (
        (1344.0, 1344.0, 11904.0, 0.0, 0.0, 84.0, 14592.0),
        {(8, 4): (84, 5376.0, 2688.0)},
        "6552027be2c29adb400aac15a33d978db8935becfc4ee631667baa8b82666375",
    ),
    ("rectangular-strassen", "complex-cost"): (
        (896.0, 448.0, 11904.0, 0.0, 0.0, 84.0, 13248.0),
        {(8, 4): (84, 4032.0, 1344.0)},
        "032a0efd8b2a9d26ea4cd73b9771df648db4b7d392ef356ebf61d6202afe39eb",
    ),
    ("strassen", "serial-numeric"): (
        (3920.0, 6272.0, 18916.0, 0.0, 0.0, 196.0, 29108.0),
        {(5, 4): (196, 10192.0, 6272.0)},
        "c1650fef7cc0e64dfce8e96a0852df7e0fb13bea3bccec7fba4a2c3444787c15",
    ),
    ("strassen", "serial-cost-only"): (
        (3920.0, 6272.0, 18916.0, 0.0, 0.0, 196.0, 29108.0),
        {(5, 4): (196, 10192.0, 6272.0)},
        "c1650fef7cc0e64dfce8e96a0852df7e0fb13bea3bccec7fba4a2c3444787c15",
    ),
    ("strassen", "serial-max-rows"): (
        (3920.0, 6272.0, 18916.0, 0.0, 0.0, 196.0, 29108.0),
        {(5, 4): (196, 10192.0, 6272.0)},
        "c1650fef7cc0e64dfce8e96a0852df7e0fb13bea3bccec7fba4a2c3444787c15",
    ),
    ("strassen", "parallel-3"): (
        (1320.0, 2112.0, 18916.0, 0.0, 0.0, 196.0, 22348.0),
        {(5, 4): (196, 10192.0, 6272.0)},
        "a5c3b941a8a307e1d55d12e193fd66153d89174239cc3a850c656929789b6eb5",
    ),
    ("strassen", "parallel-cost-only"): (
        (1960.0, 3136.0, 18916.0, 0.0, 0.0, 196.0, 24012.0),
        {(5, 4): (196, 10192.0, 6272.0)},
        "88afda33b2f39d27fba94ec481978165c50caf6a1a8fb00c7b704b692bb915d4",
    ),
    ("strassen", "complex-cost"): (
        (1320.0, 1056.0, 18916.0, 0.0, 0.0, 196.0, 21292.0),
        {(5, 4): (196, 7056.0, 3136.0)},
        "8e60ec511b7d5c9dece20298aa52ae07c3ce5a25b3bdebc519b5640d22438bf0",
    ),
    ("closure", "serial-numeric"): (
        (2400.0, 960.0, 14304.0, 0.0, 0.0, 30.0, 17664.0),
        {(20, 4): (30, 3360.0, 960.0)},
        "df0fc94fdb667d5bd94439e00ed36eeebf0652c2ee8bb10872df398d78e4d9d9",
    ),
    ("closure", "serial-cost-only"): (
        (2400.0, 960.0, 14304.0, 0.0, 0.0, 30.0, 17664.0),
        {(20, 4): (30, 3360.0, 960.0)},
        "df0fc94fdb667d5bd94439e00ed36eeebf0652c2ee8bb10872df398d78e4d9d9",
    ),
    ("closure", "serial-max-rows"): (
        (2400.0, 1920.0, 15104.0, 0.0, 0.0, 60.0, 19424.0),
        {
            (4, 4): (20, 960.0, 640.0),
            (8, 4): (10, 640.0, 320.0),
            (12, 4): (10, 800.0, 320.0),
            (16, 4): (20, 1920.0, 640.0),
        },
        "1781d1a3440053aa81bf7af5a9ed2e41d96bbdf4b077f57c7c3af8be48e1b0e9",
    ),
    ("closure", "parallel-3"): (
        (960.0, 384.0, 14304.0, 0.0, 0.0, 30.0, 15648.0),
        {(20, 4): (30, 3360.0, 960.0)},
        "0fc277f1d2afd6da05ac7be66bc2656b7df42e39157d07756cb3bb5bb5786e5c",
    ),
    ("closure", "parallel-cost-only"): (
        (1200.0, 576.0, 14304.0, 0.0, 0.0, 36.0, 16080.0),
        {(10, 4): (12, 864.0, 384.0), (20, 4): (24, 2688.0, 768.0)},
        "a5aced5b42f407863dcf48c8b672009560bbb386cc69443f73a87476c25f46e1",
    ),
    ("closure", "complex-cost"): (
        (811.7647058823529, 292.2352941176471, 14304.0, 0.0, 0.0, 54.0, 15408.0),
        {(6, 4): (12, 480.0, 192.0), (7, 4): (24, 1056.0, 384.0), (20, 4): (18, 1728.0, 288.0)},
        "d4fda716bf919930005349822a35752d4fc7c7078f2e1e101458acef4abaf72c",
    ),
    ("seidel", "serial-numeric"): (
        (2688.0, 3584.0, 13888.0, 0.0, 0.0, 112.0, 20160.0),
        {(6, 4): (112, 6272.0, 3584.0)},
        "70ec878f8ff06ac9ff3cfb8f1b2e3209cd75c044aab45bf4539e1aee83d1c7e8",
    ),
    ("seidel", "serial-max-rows"): (
        (2688.0, 3584.0, 13888.0, 0.0, 0.0, 112.0, 20160.0),
        {(6, 4): (112, 6272.0, 3584.0)},
        "70ec878f8ff06ac9ff3cfb8f1b2e3209cd75c044aab45bf4539e1aee83d1c7e8",
    ),
    ("seidel", "parallel-3"): (
        (960.0, 1280.0, 13888.0, 0.0, 0.0, 112.0, 16128.0),
        {(6, 4): (112, 6272.0, 3584.0)},
        "fe1a2ca185187cd79b7306465333585b920451237fae46fe5f71532136571ac0",
    ),
    ("seidel", "complex-cost"): (
        (960.0, 640.0, 13888.0, 0.0, 0.0, 112.0, 15488.0),
        {(6, 4): (112, 4480.0, 1792.0)},
        "7643d4b41b7df1bd8e8a90fa55eb7ce348940a86391961bcdb43793ced9e2e69",
    ),
    ("dft", "serial-numeric"): (
        (1152.0, 192.0, 2208.0, 0.0, 0.0, 6.0, 3552.0),
        {(48, 4): (6, 1344.0, 192.0)},
        "b150c2f4a3297a5620c4f0a8edb480d31d836640cca9c1bfac0dc6affeed10fa",
    ),
    ("dft", "serial-cost-only"): (
        (1152.0, 192.0, 2208.0, 0.0, 0.0, 6.0, 3552.0),
        {(48, 4): (6, 1344.0, 192.0)},
        "b150c2f4a3297a5620c4f0a8edb480d31d836640cca9c1bfac0dc6affeed10fa",
    ),
    ("dft", "serial-max-rows"): (
        (1152.0, 576.0, 3360.0, 0.0, 0.0, 18.0, 5088.0),
        {(16, 4): (18, 1728.0, 576.0)},
        "7bd96208d8a9cae29192bf5a65b1dc00b20705e81fd998c566ab3cf85069ce52",
    ),
    ("dft", "parallel-3"): (
        (384.0, 192.0, 2208.0, 0.0, 0.0, 18.0, 2784.0),
        {(16, 4): (18, 1728.0, 576.0)},
        "c76fe369135c94abbaef7556a2182faf365aa1b4ee520f4b027620340df61d42",
    ),
    ("dft", "parallel-cost-only"): (
        (576.0, 192.0, 2208.0, 0.0, 0.0, 12.0, 2976.0),
        {(24, 4): (12, 1536.0, 384.0)},
        "c044b435e5bab27bbb1ac21c8fd0a98aeb912f08002e5b80a9eec5a3d9bdd984",
    ),
    ("dft", "complex-cost"): (
        (1536.0, 384.0, 4512.0, 0.0, 0.0, 72.0, 6432.0),
        {(16, 4): (72, 5760.0, 1152.0)},
        "0daef6ebc862e0dcf7e80ff6e3017590b68b8d0dcb79c5679f6d558206143c86",
    ),
    ("dft2-convolve", "serial-numeric"): (
        (2432.0, 416.0, 4156.0, 0.0, 0.0, 13.0, 7004.0),
        {(8, 4): (6, 384.0, 192.0), (16, 4): (3, 288.0, 96.0), (128, 4): (4, 2176.0, 128.0)},
        "a8df49c075e9d259e1694f61b1677c25fa1bf030ed4485624ebea2d36731e374",
    ),
    ("dft2-convolve", "serial-cost-only"): (
        (2432.0, 416.0, 4156.0, 0.0, 0.0, 13.0, 7004.0),
        {(8, 4): (6, 384.0, 192.0), (16, 4): (3, 288.0, 96.0), (128, 4): (4, 2176.0, 128.0)},
        "a8df49c075e9d259e1694f61b1677c25fa1bf030ed4485624ebea2d36731e374",
    ),
    ("dft2-convolve", "serial-max-rows"): (
        (2432.0, 1312.0, 6204.0, 0.0, 0.0, 41.0, 9948.0),
        {(8, 4): (6, 384.0, 192.0), (16, 4): (35, 3360.0, 1120.0)},
        "3ae548fdafb72a5dc65f6db1856bcb4f8bf48350d76de4f0f4451c961e11d9a4",
    ),
    ("dft2-convolve", "parallel-3"): (
        (850.357894736842, 421.6421052631579, 4156.0, 0.0, 0.0, 33.0, 5428.0),
        {
            (4, 4): (12, 576.0, 384.0),
            (5, 4): (6, 312.0, 192.0),
            (6, 4): (3, 168.0, 96.0),
            (42, 4): (4, 800.0, 128.0),
            (43, 4): (8, 1632.0, 256.0),
        },
        "a5d514ce5d244d8f7624291821788613295f060da7664f5e07790d60f2392e2e",
    ),
    ("dft2-convolve", "parallel-cost-only"): (
        (1216.0, 416.0, 4156.0, 0.0, 0.0, 26.0, 5788.0),
        {(4, 4): (12, 576.0, 384.0), (8, 4): (6, 384.0, 192.0), (64, 4): (8, 2304.0, 256.0)},
        "45a48fb7c5c0b415159bb01e41175bccbd016a07969a8dac17579dbe1c3dfff8",
    ),
    ("dft2-convolve", "complex-cost"): (
        (3408.457142857143, 847.5428571428571, 9020.0, 0.0, 0.0, 132.0, 13276.0),
        {
            (4, 4): (48, 1536.0, 768.0),
            (5, 4): (24, 864.0, 384.0),
            (6, 4): (12, 480.0, 192.0),
            (42, 4): (16, 2944.0, 256.0),
            (43, 4): (32, 6016.0, 512.0),
        },
        "28a8deaa0fb03f220462ae79b468daa8533effff1b7d37ea28fc1ddd843cf417",
    ),
    ("stencil", "serial-numeric"): (
        (9216.0, 384.0, 20754.0, 0.0, 0.0, 12.0, 30354.0),
        {(64, 4): (4, 1152.0, 128.0), (256, 4): (8, 8448.0, 256.0)},
        "cc566ae0d731235f9ac66c2365cbdd58faf08742416c9e109f390c03c705bdaa",
    ),
    ("stencil", "serial-cost-only"): (
        (9216.0, 384.0, 20754.0, 0.0, 0.0, 12.0, 30354.0),
        {(64, 4): (4, 1152.0, 128.0), (256, 4): (8, 8448.0, 256.0)},
        "cc566ae0d731235f9ac66c2365cbdd58faf08742416c9e109f390c03c705bdaa",
    ),
    ("stencil", "serial-max-rows"): (
        (9216.0, 4608.0, 29970.0, 0.0, 0.0, 144.0, 43794.0),
        {(16, 4): (144, 13824.0, 4608.0)},
        "f1238f0c4e0d463cf97f01a77ef35acee6267c1a51148dc2bd9eb1186a270188",
    ),
    ("stencil", "parallel-3"): (
        (3099.262337662338, 388.7376623376622, 20754.0, 0.0, 0.0, 36.0, 24242.0),
        {
            (21, 4): (8, 928.0, 256.0),
            (22, 4): (4, 480.0, 128.0),
            (85, 4): (16, 5952.0, 512.0),
            (86, 4): (8, 3008.0, 256.0),
        },
        "413218d3a864e38ac8e4b5fba00c8f2534db12541eab3d04114005f7ee4aae63",
    ),
    ("stencil", "parallel-cost-only"): (
        (4608.0, 384.0, 20754.0, 0.0, 0.0, 24.0, 25746.0),
        {(32, 4): (8, 1280.0, 256.0), (128, 4): (16, 8704.0, 512.0)},
        "a22e6071ced2687981609e2885c4a9d5e33a4c8ead1e09fb678a7dec3eb446dd",
    ),
    ("stencil", "complex-cost"): (
        (12405.442262372351, 778.5577376276512, 39186.0, 0.0, 0.0, 144.0, 52370.0),
        {
            (21, 4): (32, 3200.0, 512.0),
            (22, 4): (16, 1664.0, 256.0),
            (85, 4): (64, 22784.0, 1024.0),
            (86, 4): (32, 11520.0, 512.0),
        },
        "02e26367737cbacadfcb8d403d52f4a37e0f1f23aa6a1879f1ed983318655c4a",
    ),
}


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize(("kernel", "config"), CASES)
def test_golden_ledger(kernel, config):
    snapshot, shapes, digest = measure(kernel, config)
    want_snapshot, want_shapes, want_digest = PINS[(kernel, config)]
    assert dict(zip(SNAPSHOT_KEYS, snapshot)) == dict(zip(SNAPSHOT_KEYS, want_snapshot))
    assert shapes == want_shapes
    assert digest == want_digest
