"""E20 (extension) — fault-tolerant serving gates, writing ``BENCH_PR7.json``.

Four sections back the PR7 fault-injection subsystem:

* ``parity`` — the zero-fault gate: with the injector off (the
  ``"none"`` registry entry) the armed engine must reproduce the
  fault-free kernel bit-identically — ledger snapshot, per-shape
  totals, final clock and every completion — across the five pinned
  machine configurations.  Any drift in the failure-aware kernel
  relative to the PR6 semantics fails the bench and CI.
* ``recovery`` — checkpoint-resume vs restart-from-scratch swept over
  transient fault rates on a multi-level workload.  The gate requires
  checkpoint recovery to waste strictly less work than restart at
  *every* fault rate, with all failed-attempt charges conserved on the
  ledger (``total = useful + wasted + reload``).
* ``availability`` — an availability-vs-MTBF curve on the TPUv1
  two-class chaos scenario (:func:`repro.serve.scenarios.chaos_injector`
  over :func:`repro.serve.scenarios.interactive_batch_mix`): under a
  bounded retry budget, more frequent unit crashes must cost strictly
  more wasted work and no more availability than rarer ones.
* ``replay`` — the determinism gate: the harshest chaos run repeated
  from the same ``(workload seed, fault seed)`` pair must be
  bit-identical, fault event for fault event.

Smoke-sized by default (seconds); set ``BENCH_FAULTS_FULL=1`` for
denser sweeps and more requests.  ``python benchmarks/bench_faults.py
--smoke`` runs the smoke gates directly (the CI chaos-smoke step).
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

from repro.analysis.report import latency_table
from repro.core.machine import TCUMachine
from repro.core.presets import TPU_V1
from repro.serve import (
    FixedRetry,
    PoissonWorkload,
    SeededFaultInjector,
    ServingEngine,
    chaos_injector,
    compute_metrics,
    interactive_batch_mix,
)

REPO = Path(__file__).resolve().parent.parent
# the five standard machine configs are shared with the test suite
sys.path.insert(0, str(REPO / "tests"))
from machine_configs import machine_configs  # noqa: E402
FULL = bool(int(os.environ.get("BENCH_FAULTS_FULL", "0")))
RECOVERY_REQUESTS = 300 if FULL else 80
FAULT_RATES = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4) if FULL else (0.05, 0.15, 0.3)
INTERACTIVE_REQUESTS = 1200 if FULL else 300
MTBF_SWEEP = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0) if FULL else (6.0, 24.0, 96.0)

REPORT: dict = {
    "mode": "full" if FULL else "smoke",
    "parity": {},
    "recovery": {},
    "availability": {},
    "replay": {},
}

ELL = 512.0

MACHINE_CONFIGS = machine_configs(ELL)


@pytest.fixture(scope="session", autouse=True)
def write_bench_pr7():
    """Dump whatever the session accumulated, pass or fail."""
    yield
    out = REPO / "BENCH_PR7.json"
    out.write_text(json.dumps(REPORT, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


def _conserves(result) -> bool:
    result.check_conservation()
    return math.isclose(
        result.useful_time + result.wasted_time + result.reload_time,
        result.ledger_time,
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


def test_zero_fault_parity_across_configs():
    """Injector off => bit-identical to the PR6 kernel, per config."""

    def run(config, armed):
        machine = MACHINE_CONFIGS[config]()
        workload = PoissonWorkload(rate=2e-4, total=50, kind="matmul", rows=8, seed=1)
        kwargs = {"faults": "none", "retry": "exponential"} if armed else {}
        result = ServingEngine(machine, "timeout", **kwargs).serve(workload)
        return machine, result

    gates = {}
    for config in sorted(MACHINE_CONFIGS):
        plain_m, plain = run(config, armed=False)
        armed_m, armed = run(config, armed=True)
        gates[config] = {
            "no_faults": armed.faults == 0 and armed.wasted_time == 0.0,
            "snapshot_identical": plain_m.ledger.snapshot()
            == armed_m.ledger.snapshot(),
            "shape_totals_identical": plain_m.ledger.call_shape_totals()
            == armed_m.ledger.call_shape_totals(),
            "clock_identical": plain.clock == armed.clock,
            "completions_identical": all(
                a.completion == b.completion
                for a, b in zip(plain.requests, armed.requests)
            ),
        }
    REPORT["parity"] = gates
    bad = {c: g for c, g in gates.items() if not all(g.values())}
    assert not bad, f"zero-fault parity violated: {bad}"


def test_checkpoint_beats_restart_across_fault_rates():
    """The tentpole claim, measured: resuming from the last completed
    level strictly beats re-running the whole batch on wasted work, at
    every transient-fault rate, with the waste fully ledgered."""

    def run(rate, recovery):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        engine = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(fail_rate=rate, seed=7),
            retry=FixedRetry(delay=100.0, max_attempts=10),
            recovery=recovery,
        )
        # the deep stock MLP: many level boundaries per batch, so a
        # mid-batch fault gives checkpoint recovery real work to save
        workload = PoissonWorkload(
            rate=2e-4, total=RECOVERY_REQUESTS, kind="mlp", rows=32, seed=3
        )
        result = engine.serve(workload)
        return {
            "faults": result.faults,
            "retries": result.retries,
            "wasted_time": result.wasted_time,
            "wasted_ratio": result.wasted_ratio,
            "clock": result.clock,
            "conserves": _conserves(result),
        }

    curve = []
    for rate in FAULT_RATES:
        ckpt, restart = run(rate, "checkpoint"), run(rate, "restart")
        curve.append(
            {
                "fail_rate": rate,
                "checkpoint": ckpt,
                "restart": restart,
                "waste_saved": restart["wasted_time"] - ckpt["wasted_time"],
            }
        )
    gates = {
        "faults_at_every_rate": all(
            p["checkpoint"]["faults"] > 0 and p["restart"]["faults"] > 0
            for p in curve
        ),
        "checkpoint_beats_restart": all(
            p["checkpoint"]["wasted_ratio"] < p["restart"]["wasted_ratio"]
            and p["checkpoint"]["wasted_time"] < p["restart"]["wasted_time"]
            for p in curve
        ),
        "all_conserve": all(
            p["checkpoint"]["conserves"] and p["restart"]["conserves"] for p in curve
        ),
    }
    REPORT["recovery"] = {
        "requests_per_rate": RECOVERY_REQUESTS,
        "retry": "fixed(delay=100, max_attempts=10)",
        "curve": curve,
        **gates,
    }
    assert all(gates.values()), f"recovery gates failed: {gates}"


def test_availability_tracks_mtbf():
    """Availability-vs-MTBF on the TPUv1 two-class chaos scenario:
    under a bounded retry budget, rarer crashes must waste less and
    abandon no more than frequent ones."""

    def run(crash_every):
        machine = TPU_V1.create(execute="cost-only", trace_calls=False)
        engine = ServingEngine(
            machine,
            "continuous",
            faults=chaos_injector(crash_every=crash_every, seed=9),
            retry=FixedRetry(delay=0.0, max_attempts=3),
            recovery="checkpoint",
        )
        workload = interactive_batch_mix(
            interactive_total=INTERACTIVE_REQUESTS, batch_total=4, batch_rows=1024
        )
        result = engine.serve(workload)
        metrics = compute_metrics(result)
        return result, metrics

    curve = []
    tables = []
    for crash_every in MTBF_SWEEP:
        result, metrics = run(crash_every)
        curve.append(
            {
                "mtbf_size1_multiples": crash_every,
                "availability": result.availability,
                "abandoned": len(result.abandoned),
                "faults": result.faults,
                "retries": result.retries,
                "wasted_ratio": result.wasted_ratio,
                "interactive_availability": metrics.per_class[2].availability,
                "bulk_availability": metrics.per_class[0].availability,
                "recovery_time_mean": metrics.recovery_time_mean,
                "conserves": _conserves(result),
            }
        )
        tables.append((f"mtbf={crash_every:g}x", metrics))
    harsh, gentle = curve[0], curve[-1]
    gates = {
        "faults_at_every_mtbf": all(p["faults"] > 0 for p in curve),
        "availability_improves_with_mtbf": gentle["availability"]
        >= harsh["availability"],
        "waste_drops_with_mtbf": gentle["wasted_ratio"] < harsh["wasted_ratio"],
        "all_conserve": all(p["conserves"] for p in curve),
    }
    REPORT["availability"] = {
        "preset": "tpu-v1 (cost-only)",
        "scenario": "interactive_batch_mix + chaos_injector",
        "interactive_requests": INTERACTIVE_REQUESTS,
        "retry": "fixed(delay=0, max_attempts=3)",
        "curve": curve,
        **gates,
    }
    print(latency_table(tables, title="two-class TPUv1 chaos: availability vs MTBF"))
    assert all(gates.values()), f"availability gates failed: {gates}"


def test_faulty_replay_is_bit_identical():
    """Same ``(workload seed, fault seed)`` => same run, bit for bit."""

    def run():
        machine = TPU_V1.create(execute="cost-only", trace_calls="aggregate")
        engine = ServingEngine(
            machine,
            "continuous",
            faults=chaos_injector(crash_every=MTBF_SWEEP[0], seed=9),
            retry=FixedRetry(delay=0.0, max_attempts=3),
        )
        workload = interactive_batch_mix(
            interactive_total=INTERACTIVE_REQUESTS // 2, batch_total=2, batch_rows=1024
        )
        return machine, engine.serve(workload)

    m1, r1 = run()
    m2, r2 = run()
    events = lambda r: [  # noqa: E731
        (e.kind, e.batch, e.level, e.attempt, e.clock) for e in r.fault_events
    ]
    gates = {
        "faults_triggered": r1.faults > 0,
        "snapshot_identical": m1.ledger.snapshot() == m2.ledger.snapshot(),
        "shape_totals_identical": m1.ledger.call_shape_totals()
        == m2.ledger.call_shape_totals(),
        "clock_identical": r1.clock == r2.clock,
        "waste_identical": r1.wasted_time == r2.wasted_time,
        "fault_events_identical": events(r1) == events(r2),
    }
    REPORT["replay"] = {**gates, "faults": r1.faults, "events": len(r1.fault_events)}
    assert all(gates.values()), f"replay gates failed: {gates}"


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a not in ("--smoke", "--full")]
    if "--full" in sys.argv[1:]:
        os.environ["BENCH_FAULTS_FULL"] = "1"
    raise SystemExit(
        pytest.main([__file__, "-q", "--benchmark-disable", *args])
    )
