"""E21 (extension) — observability gates, writing ``BENCH_PR9.json``.

Three sections back the PR9 telemetry subsystem:

* ``overhead`` — the headline gate: the deep bulk-MLP TPUv1 cost-only
  replay (the PR6 hot-path scenario) served untraced vs traced with a
  full :class:`~repro.obs.Tracer` (metrics registry, ledger charge
  mirror, span stores).  The gate requires the traced run to stay
  within **15%** of the untraced wall clock, with the ledger snapshot
  and final clock bit-identical — tracing must observe, never perturb.
  One serve takes ~15 ms, too short to time alone on a shared host, so
  a pair of windows repeats the serve, traced and untraced in
  alternation, until each side has run for at least ``WINDOW_S`` of
  wall clock; the pair's ratio is traced over untraced mean wall per
  serve, and the gate is the median ratio over ``PAIRS`` pairs, after
  a warmup.
* ``determinism`` — the harshest two-class chaos scenario traced twice
  from the same seeds must export *byte-identical* Chrome trace JSON,
  and the spans must reconcile exactly against the accounting
  (``sum(segment durs) == busy_time``).
* ``perfetto`` — the chaos trace is schema-checked
  (:func:`~repro.obs.validate_chrome_trace`) and written next to this
  report as ``BENCH_PR9_trace.json`` — drop it on https://ui.perfetto.dev
  to see class/unit/request lanes, fault instants and metric counters.

Smoke-sized by default (seconds); set ``BENCH_OBS_FULL=1`` for longer
streams.  ``python benchmarks/bench_obs.py --smoke`` runs the gates
directly (the CI bench-smoke step).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.core.presets import TPU_V1
from repro.obs import (
    SloBurnMonitor,
    Tracer,
    chrome_trace_json,
    validate_chrome_trace,
)
from repro.serve import (
    PoissonWorkload,
    ServingEngine,
    SizeBatcher,
    chaos_injector,
    interactive_batch_mix,
)
from repro.serve.scenarios import size1_capacity, tpu_bulk_mlp_request_type

REPO = Path(__file__).resolve().parent.parent
FULL = bool(int(os.environ.get("BENCH_OBS_FULL", "0")))
HOT_REQUESTS = 10_000 if FULL else 2_000
CHAOS_REQUESTS = 600 if FULL else 150
WINDOW_S = 0.2  # minimum wall clock of one timed window of serves
PAIRS = 15  # traced/untraced window pairs; the gate is their median ratio
OVERHEAD_GATE = 1.15

REPORT: dict = {
    "mode": "full" if FULL else "smoke",
    "overhead": {},
    "determinism": {},
    "perfetto": {},
}

BULK_MLP = tpu_bulk_mlp_request_type()


@pytest.fixture(scope="session", autouse=True)
def write_bench_pr9():
    """Dump whatever the session accumulated, pass or fail."""
    yield
    out = REPO / "BENCH_PR9.json"
    out.write_text(json.dumps(REPORT, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


def _bulk_run(tracer):
    machine = TPU_V1.create(execute="cost-only", trace_calls=False)
    workload = PoissonWorkload(
        rate=8.0 / size1_capacity(),
        total=HOT_REQUESTS,
        kind=BULK_MLP.name,
        rows=2048,
        seed=0,
    )
    engine = ServingEngine(machine, SizeBatcher(size=8), tracer=tracer)
    t0 = time.perf_counter()
    result = engine.serve(workload)
    wall = time.perf_counter() - t0
    return machine, result, wall


def _chaos_tracer():
    return Tracer(
        detail="level",
        sample_every=2e5,
        monitors=[
            SloBurnMonitor(
                "interactive-burn", target=0.99, window=5e6,
                priority=2, min_count=4,
            )
        ],
    )


def _chaos_run(tracer):
    machine = TPU_V1.create(execute="cost-only", trace_calls=True)
    workload = interactive_batch_mix(
        CHAOS_REQUESTS, 4, interactive_load=0.6, batch_rows=2048,
        interactive_slo=5e5, seed=3,
    )
    engine = ServingEngine(
        machine,
        "continuous",
        faults=chaos_injector(
            fail_rate=0.05, crash_every=9.0, repair_for=0.4,
            straggle_rate=0.1, straggle_factor=2.5, seed=103,
        ),
        retry="fixed",
        recovery="checkpoint",
        preempt=True,
        tracer=tracer,
    )
    return machine, engine.serve(workload)


def _window_pair(pair: int):
    """Serve the hot-path scenario untraced and traced in alternation
    until each side has run for at least ``WINDOW_S`` of serve wall
    clock.  Returns each side's mean wall per serve and last
    ``(machine, result, tracer)``, keyed by ``traced``."""
    total = {False: 0.0, True: 0.0}
    runs = {False: 0, True: 0}
    last = {}
    while min(total.values()) < WINDOW_S:
        # alternate which side goes first, so a host speeding up or
        # slowing down biases neither
        first = (pair + runs[False]) % 2 == 1
        for traced in (first, not first):
            # each serve starts from a clean heap: garbage a previous
            # serve left behind is not collected on the clock
            gc.collect()
            tracer = Tracer() if traced else None
            machine, result, wall = _bulk_run(tracer)
            total[traced] += wall
            runs[traced] += 1
            last[traced] = (machine, result, tracer)
    return {t: total[t] / runs[t] for t in total}, last


def test_tracing_overhead_under_gate():
    """The headline gate: full tracing costs < 15% on the hot path and
    never moves a charge."""
    _bulk_run(None)  # warmup: JIT-less, but primes caches and the kind registry
    walls: dict[bool, list[float]] = {False: [], True: []}
    ratios = []
    for pair in range(PAIRS):
        wall, last = _window_pair(pair)
        for traced in walls:
            walls[traced].append(wall[traced])
        ratios.append(wall[True] / wall[False])
    ratio = statistics.median(ratios)
    plain_machine, plain, _ = last[False]
    traced_machine, traced, tracer = last[True]
    REPORT["overhead"] = {
        "preset": "tpu-v1 (cost-only)",
        "kind": BULK_MLP.name,
        "requests": traced.completed,
        "pairs": PAIRS,
        "window_s": WINDOW_S,
        "untraced_wall_s": round(statistics.median(walls[False]), 5),
        "traced_wall_s": round(statistics.median(walls[True]), 5),
        "pair_ratios": [round(r, 4) for r in ratios],
        "overhead_ratio": round(ratio, 4),
        "gate": OVERHEAD_GATE,
        "events_recorded": tracer.events_total(),
        "snapshot_identical": plain_machine.ledger.snapshot()
        == traced_machine.ledger.snapshot(),
        "clock_identical": plain.clock == traced.clock,
        "exec_reconciles": tracer.exec_time() == traced.busy_time,
    }
    assert REPORT["overhead"]["snapshot_identical"], "tracing moved a charge"
    assert REPORT["overhead"]["clock_identical"]
    assert REPORT["overhead"]["exec_reconciles"]
    assert ratio <= OVERHEAD_GATE, (
        f"median tracing overhead {ratio:.3f}x over {PAIRS} window pairs exceeds "
        f"gate {OVERHEAD_GATE}x (per pair: {[round(r, 3) for r in ratios]})"
    )


def test_chaos_trace_bytes_identical():
    """Determinism gate: same seeds => byte-identical exported trace,
    spans reconciled against the accounting."""
    exports = []
    results = []
    for _ in range(2):
        tracer = _chaos_tracer()
        _, result = _chaos_run(tracer)
        exports.append(chrome_trace_json(tracer))
        results.append((tracer, result))
    tracer, result = results[0]
    per_batch = tracer.exec_time_by_batch()
    gates = {
        "faults_triggered": result.faults > 0,
        "trace_bytes_identical": exports[0] == exports[1],
        "exec_reconciles": tracer.exec_time() == result.busy_time,
        "batches_reconcile": all(
            per_batch[b.index] == b.service for b in result.batches
        ),
        "alerts_fired": len(tracer.alerts) > 0,
    }
    REPORT["determinism"] = {
        **gates,
        "trace_bytes": len(exports[0]),
        "events": tracer.events_total(),
        "faults": result.faults,
        "alerts": len(tracer.alerts),
    }
    assert all(gates.values()), f"determinism gates failed: {gates}"


def test_perfetto_artifact_schema_checked():
    """Export the chaos trace as the CI artifact, schema-checked."""
    tracer = _chaos_tracer()
    _, result = _chaos_run(tracer)
    trace = json.loads(chrome_trace_json(tracer, label="chaos"))
    validate_chrome_trace(trace)
    out = REPO / "BENCH_PR9_trace.json"
    out.write_text(json.dumps(trace, sort_keys=True, separators=(",", ":")) + "\n")
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    REPORT["perfetto"] = {
        "artifact": out.name,
        "events": len(events),
        "phases": sorted(phases),
        "lanes": sorted({e["pid"] for e in events}),
        "level_spans": len(tracer.levels),
        "samples": len(tracer.sampler.rows),
        "schema_ok": True,
    }
    assert {"X", "i", "b", "e", "M", "C"} <= phases
    assert len(events) > len(result.requests)


if __name__ == "__main__":
    import sys

    args = [a for a in sys.argv[1:] if a not in ("--smoke", "--full")]
    if "--full" in sys.argv[1:]:
        os.environ["BENCH_OBS_FULL"] = "1"
    raise SystemExit(
        pytest.main([__file__, "-q", "--benchmark-disable", *args])
    )
