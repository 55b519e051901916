"""The benchmark's four workloads, built on ``repro``'s public API.

Each workload turns a seed into a ready-to-run *body* (:meth:`setup`),
runs it (the timed part), and checks what it produced (:meth:`check`).
A body takes ``span(name)``, a context-manager factory the benchmark
uses to mark its own calls into a layer (``contextlib.nullcontext``
when untraced).
Arrivals are open-loop in model time: seeded Poisson streams that do
not depend on service, drained by one process as fast as the host
allows.

Every body returns an :class:`Outcome`.  Its ``exact`` dict holds the
model-time results (ledger clock, latency percentiles, SLO attainment,
failure ratio, exact per-layer counts); they are pure functions of the
seed, so the benchmark requires them to be bit-identical across every
iteration of a seed, traced or not.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass, field

import numpy as np

import repro
import repro.obs
import repro.serve
from repro.core.presets import TPU_V1
from repro.graph.closure import transitive_closure
from repro.matmul.dense import matmul
from repro.transform.dft import batched_dft
from repro.transform.stencil import stencil_tcu

# offset from the run's seed to the held-out seed whose exact results
# are recorded too, so a later claim can be checked on unseen inputs
HELD_OUT_OFFSET = 1_000_003

Span = Callable[[str], AbstractContextManager]


class CheckError(AssertionError):
    """A wrong output, or exact results that changed within one seed."""


# what a failed check raises: ours, or a broken conservation identity
CHECK_FAILURES = (CheckError, repro.serve.ServeError)


@dataclass
class Outcome:
    exact: dict[str, float | None]
    attempted: int
    failed: int
    calls: int  # tensor calls charged
    completed: int | None = None  # served requests (serving workloads)
    outputs: list = field(default_factory=list)  # (label, value) to check
    errors: list[str] = field(default_factory=list)  # failed operations
    artifacts: dict[str, str] = field(default_factory=dict)


def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def _serving_exact(
    result: repro.ServeResult, metrics: repro.ServeMetrics, machine: repro.TCUMachine
) -> dict[str, float | None]:
    """The exact (model-time) results of one served run."""
    offered = result.offered
    with_slo = [r for r in result.requests if r.slo is not None]
    slo_offered = len(with_slo) + sum(
        r.slo is not None for r in (*result.shed, *result.abandoned)
    )
    met = sum(r.completion - r.arrival <= r.slo for r in with_slo)
    waits = np.array([r.launch - r.arrival for r in result.requests], dtype=np.float64)
    ledger = machine.ledger
    lookups = result.cache_lookups
    return {
        "model_time": result.clock,
        "model_p50": metrics.latency_p50,
        "model_p99": metrics.latency_p99,
        "slo_attainment": met / slo_offered if slo_offered else None,
        "fail_ratio": (len(result.shed) + len(result.abandoned)) / offered,
        "workload.requests": offered,
        "admission.shed": len(result.shed),
        "batcher.releases": len(result.batches),
        "batcher.batch_size_mean": metrics.batch_size_mean,
        "batcher.queue_wait_p99": _quantile(waits, 0.99),
        "engine.batches": len(result.batches),
        "plan_cache.lookups": lookups,
        "plan_cache.hit_ratio": result.cache_hits / lookups if lookups else None,
        "ledger.tensor_calls": ledger.tensor_calls,
        "ledger.wasted_ratio": ledger.wasted_time / ledger.total_time,
        "ledger.reload_time": ledger.reload_time,
        "faults.events": result.faults,
        "faults.retries": result.retries,
        "faults.abandoned": len(result.abandoned),
    }


class Workload:
    name: str
    why: str

    def setup(self, seed: int) -> Callable[[Span], Outcome]:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        """Raise :class:`CheckError` on a wrong output."""


class Replay(Workload):
    """The ``bench_serving.py`` replay shape: a cost-only
    ``TCUMachine(m=4096, ell=2048)`` serving a 64-row matmul Poisson
    stream through ``ContinuousBatcher(max_size=256)``."""

    def __init__(
        self, name: str, why: str, *, period: float, total: int, slo: float | None
    ) -> None:
        self.name = name
        self.why = why
        self.period = period
        self.total = total
        self.slo = slo

    def setup(self, seed: int) -> Callable[[Span], Outcome]:
        machine = repro.TCUMachine(m=4096, ell=2048.0, execute="cost-only", trace_calls=False)
        workload = repro.PoissonWorkload(
            rate=1.0 / self.period, total=self.total, kind="matmul", rows=64,
            slo=self.slo, seed=seed,
        )
        engine = repro.ServingEngine(machine, repro.serve.ContinuousBatcher(max_size=256))

        def body(span: Span) -> Outcome:
            # serve() validates by default: check_conservation runs here
            result = engine.serve(workload)
            metrics = repro.serve.compute_metrics(result)
            exact = _serving_exact(result, metrics, machine)
            return Outcome(
                exact=exact,
                attempted=result.offered,
                failed=len(result.shed) + len(result.abandoned),
                calls=machine.ledger.tensor_calls,
                completed=result.completed,
            )

        return body


class ChaosTraced(Workload):
    """Two-class TPUv1 mix on a cost-only 3-unit parallel machine with
    preemption, seeded faults, exponential retries and level-detail
    telemetry, ending in a Perfetto + Prometheus export."""

    name = "chaos-traced"
    why = (
        "two-class TPUv1 mix on 3 cost-only units with preemption, faults, retries and "
        "level telemetry plus exports: the only load on serve.faults and obs"
    )

    def __init__(self, interactive: int = 1200, bulk: int = 16) -> None:
        self.interactive = interactive
        self.bulk = bulk

    def setup(self, seed: int) -> Callable[[Span], Outcome]:
        machine = repro.ParallelTCUMachine(
            m=TPU_V1.m, ell=TPU_V1.ell, kappa=TPU_V1.kappa, max_rows=TPU_V1.max_rows,
            units=3, execute="cost-only",
        )
        workload = repro.serve.interactive_batch_mix(self.interactive, self.bulk)
        capacity = repro.serve.size1_capacity()
        tracer = repro.obs.Tracer(detail="level", sample_every=10.0 * capacity)
        # a retry budget no request exhausts: faults cost retries and
        # wasted work, never a failed request
        retry = repro.serve.ExponentialRetry(
            base=capacity / 4, cap=4 * capacity, max_attempts=12
        )
        engine = repro.ServingEngine(
            machine, "continuous", preempt=True,
            faults=repro.serve.chaos_injector(), retry=retry, tracer=tracer,
        )

        def body(span: Span) -> Outcome:
            # one top-level seed splits into the workload and fault streams
            result = engine.serve(workload, seed=seed)
            metrics = repro.serve.compute_metrics(result)
            trace_json = repro.obs.chrome_trace_json(tracer, label=self.name)
            prom = repro.obs.prometheus_text(tracer.registry)
            exact = _serving_exact(result, metrics, machine)
            exact["obs.spans"] = tracer.events_total()
            exact["obs.export_bytes"] = len(trace_json) + len(prom)
            exact["obs.counter_gap"] = abs(
                _prometheus_value(prom, "ledger_tensor_time") - machine.ledger.tensor_time
            )
            return Outcome(
                exact=exact,
                attempted=result.offered,
                failed=len(result.shed) + len(result.abandoned),
                calls=machine.ledger.tensor_calls,
                completed=result.completed,
                artifacts={"ledger_trace": trace_json, "prometheus": prom},
            )

        return body


def _prometheus_value(text: str, name: str) -> float:
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == name:
            return float(parts[1])
    raise CheckError(f"metric {name!r} missing from the Prometheus export")


def stencil_reference(grid: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """``k`` direct sweeps of a 3x3 stencil over the zero-extended plane:
    ``next[i, j] = sum_ab weights[1+a, 1+b] * cur[i+a, j+b]``."""
    cur = np.pad(grid, k)
    rows, cols = cur.shape
    for _ in range(k):
        padded = np.pad(cur, 1)
        cur = sum(
            weights[1 + a, 1 + b] * padded[1 + a : 1 + a + rows, 1 + b : 1 + b + cols]
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
        )
    return cur[k:-k, k:-k]


def reachability_reference(adjacency: np.ndarray) -> np.ndarray:
    """0/1 matrix of non-empty directed paths, by boolean squaring."""
    reach = adjacency.astype(bool)
    while True:
        nxt = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if np.array_equal(nxt, reach):
            return reach.astype(np.int64)
        reach = nxt


class Kernels(Workload):
    """The numeric paper kernels at p=1 and p=4 on an ``(m=16, l=32)``
    unit: Thm 2 dense matmul, Thm 7 batched DFT, Thm 8 stencil and
    Thm 5 transitive closure."""

    name = "kernels"
    why = (
        "numeric Thm 2/5/7/8 kernels at p=1 and p=4 against numpy: machine numerics, "
        "ledger charging and the p=4 auto-split planner, no serving layer"
    )
    LABELS = ("matmul.dense", "transform.dft", "transform.stencil", "graph.closure")
    UNITS = (1, 4)

    def __init__(
        self, *, mm_n: int = 192, dft_batch: int = 256, dft_size: int = 256,
        grid: int = 96, sweeps: int = 8, nodes: int = 96,
    ) -> None:
        self.mm_n = mm_n
        self.dft_batch = dft_batch
        self.dft_size = dft_size
        self.grid = grid
        self.sweeps = sweeps
        self.nodes = nodes
        self._references: dict[str, np.ndarray] = {}
        self._seed: int | None = None

    def _inputs(self, seed: int) -> dict[str, tuple]:
        rng = np.random.default_rng(seed)
        n = self.mm_n
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        X = rng.standard_normal((self.dft_batch, self.dft_size)) + 1j * rng.standard_normal(
            (self.dft_batch, self.dft_size)
        )
        grid = rng.standard_normal((self.grid, self.grid))
        weights = rng.uniform(0.0, 1.0, (3, 3))
        weights /= weights.sum()
        adjacency = (rng.random((self.nodes, self.nodes)) < 1.5 / self.nodes).astype(np.int64)
        return {
            "matmul.dense": (matmul, (A, B)),
            "transform.dft": (batched_dft, (X,)),
            "transform.stencil": (stencil_tcu, (grid, weights, self.sweeps)),
            "graph.closure": (transitive_closure, (adjacency,)),
        }

    @classmethod
    def spans(cls) -> list[str]:
        """Span (and metric) name of each kernel invocation."""
        return [f"kernel.{label}.p{p}" for p in cls.UNITS for label in cls.LABELS]

    def _reference(self, label: str, args: tuple) -> np.ndarray:
        if label == "matmul.dense":
            return args[0] @ args[1]
        if label == "transform.dft":
            return np.fft.fft(args[0], axis=1)
        if label == "transform.stencil":
            return stencil_reference(*args)
        return reachability_reference(args[0])

    def setup(self, seed: int) -> Callable[[Span], Outcome]:
        inputs = self._inputs(seed)
        if self._seed != seed:
            self._seed = seed
            self._references = {
                label: self._reference(label, args) for label, (_, args) in inputs.items()
            }
        runs = []
        for p in self.UNITS:
            for label in self.LABELS:
                kernel, args = inputs[label]
                machine = (
                    repro.TCUMachine(m=16, ell=32.0)
                    if p == 1
                    else repro.ParallelTCUMachine(m=16, ell=32.0, units=p)
                )
                runs.append((f"kernel.{label}.p{p}", kernel, machine, args))

        def body(span: Span) -> Outcome:
            exact: dict[str, float | None] = {}
            outputs = []
            errors = []
            for metric, kernel, machine, args in runs:
                try:
                    with span(metric):
                        out = kernel(machine, *args)
                except Exception as exc:  # a raising kernel is a failed operation
                    errors.append(f"{metric}: {exc!r}")
                    out = None
                outputs.append((metric, out))
                exact[f"{metric}.model_time"] = machine.ledger.clock
            exact["model_time"] = sum(m.ledger.clock for _, _, m, _ in runs)
            exact["fail_ratio"] = len(errors) / len(runs)
            exact["ledger.tensor_calls"] = sum(m.ledger.tensor_calls for _, _, m, _ in runs)
            exact["ledger.wasted_ratio"] = sum(m.ledger.wasted_time for _, _, m, _ in runs) / (
                sum(m.ledger.total_time for _, _, m, _ in runs)
            )
            exact["ledger.reload_time"] = sum(m.ledger.reload_time for _, _, m, _ in runs)
            return Outcome(
                exact=exact,
                attempted=len(runs),
                failed=len(errors),
                calls=int(exact["ledger.tensor_calls"]),
                outputs=outputs,
                errors=errors,
            )

        return body

    def check(self, outcome: Outcome) -> None:
        for metric, out in outcome.outputs:
            if out is None:
                continue  # raised: counted in fail_ratio
            label = metric.split(".", 1)[1].rsplit(".", 1)[0]
            ref = self._references[label]
            if label == "graph.closure":
                ok = out.shape == ref.shape and np.array_equal(out, ref)
            else:
                scale = float(np.abs(ref).max()) or 1.0
                ok = out.shape == ref.shape and bool(
                    np.allclose(out, ref, rtol=1e-9, atol=1e-9 * scale)
                )
            if not ok:
                raise CheckError(f"{metric} output differs from its numpy reference")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Replay(
            "replay-overload",
            "50k-request matmul stream at ~10x capacity: ~254-request batches, so "
            "per-request arrival generation, admission and queueing dominate",
            period=800.0, total=50_000, slo=None,
        ),
        Replay(
            "replay-steady",
            "same stream at ~0.8 utilisation with a mostly-met SLO: ~1.6-request batches, "
            "so per-batch release, plan-cache lookup, replay and charging dominate",
            period=12_000.0, total=10_000, slo=80_000.0,
        ),
        Kernels(),
        ChaosTraced(),
    )
}
