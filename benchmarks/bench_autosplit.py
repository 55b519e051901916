"""PR 10 — auto-splitter gates, writing ``BENCH_PR10.json``.

Three sections back the cost-model-driven auto-splitter:

* ``speedup`` — speedup-vs-p curves for the three merged-level
  scenarios (DFT, stencil, deep-MLP) comparing ``split="auto"``
  against the legacy ``split=1`` plan on cost-only parallel machines.
  The headline gate: at ``p >= 4`` the DFT and stencil **tensor-stream
  clock** (tensor + latency time, i.e. the scheduled batch makespans
  the splitter prices) must speed up by **>= 2x** — merged tall calls
  now scale with unit count.  The serial RAM-model charges (padding,
  scatter bookkeeping) are reported alongside as ``total`` but are
  out of the splitter's reach by construction.
* ``oracle`` — on every brute-forceable instance (exhaustive
  enumeration of row-balanced split vectors under the exact
  scheduler), the planner's chosen split achieves the enumerated
  optimum makespan.
* ``parity`` — ``split=1`` stays bit-identical to the PR 9 planner:
  golden ledger totals across the five standard machine configs, and
  ``split="auto"`` is the identity on serial machines.

Smoke-sized (seconds).  ``python benchmarks/bench_autosplit.py`` runs
the gates directly (the CI bench-smoke step).
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ParallelTCUMachine,
    TensorProgram,
    matmul_lazy,
    run_program,
)
from repro.core.program import (
    _level_makespan,
    _split_cap,
    execute_plan,
    plan_program,
)
from repro.serve import get_request_type
from repro.serve.workload import MLPRequestType

REPO = Path(__file__).resolve().parent.parent
# the five standard machine configs are shared with the test suite
sys.path.insert(0, str(REPO / "tests"))
from machine_configs import machine_configs  # noqa: E402

UNITS = (1, 2, 4, 8)
SPEEDUP_GATE = 2.0
GATED_KINDS = ("dft", "stencil")

REPORT: dict = {"speedup": {}, "oracle": {}, "parity": {}}


@pytest.fixture(scope="session", autouse=True)
def write_bench_pr10():
    """Dump whatever the session accumulated, pass or fail."""
    yield
    out = REPO / "BENCH_PR10.json"
    out.write_text(json.dumps(REPORT, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")


def _scenarios():
    return [
        ("dft", get_request_type("dft"), [8192]),
        ("stencil", get_request_type("stencil"), [256]),
        ("deep-mlp", MLPRequestType(name="deep-mlp", dims=(256, 256, 256, 128, 64)), [8192]),
    ]


def _clocks(rtype, rows, units, split):
    machine = ParallelTCUMachine(m=4096, ell=4096.0, units=units, execute="cost-only")
    plan = rtype.plan(machine, rows, split=split)
    execute_plan(plan, machine)
    led = machine.ledger
    return {
        "stream": led.tensor_time + led.latency_time,
        "total": machine.time,
    }


def test_speedup_curves_merged_levels_scale():
    """Headline gate: DFT and stencil tensor streams speed up >= 2x at
    p >= 4 under split='auto' vs the legacy split=1 plan."""
    curves: dict = {}
    for name, rtype, rows in _scenarios():
        curve = []
        for p in UNITS:
            legacy = _clocks(rtype, rows, p, 1)
            auto = _clocks(rtype, rows, p, "auto")
            curve.append(
                {
                    "units": p,
                    "legacy_stream": legacy["stream"],
                    "auto_stream": auto["stream"],
                    "stream_speedup": round(legacy["stream"] / auto["stream"], 4),
                    "legacy_total": legacy["total"],
                    "auto_total": auto["total"],
                    "total_speedup": round(legacy["total"] / auto["total"], 4),
                }
            )
        curves[name] = curve
    gates = {
        f"{name}_p{p}_stream_2x": point["stream_speedup"] >= SPEEDUP_GATE
        for name in GATED_KINDS
        for point in curves[name]
        for p in [point["units"]]
        if p >= 4
    }
    REPORT["speedup"] = {
        "machine": "ParallelTCUMachine(m=4096, ell=4096, cost-only)",
        "gate": SPEEDUP_GATE,
        "curves": curves,
        **gates,
    }
    assert all(gates.values()), f"speedup gates failed: {gates}"


def test_auto_matches_exhaustive_oracle():
    """Every brute-forceable instance: the planner's split achieves the
    enumerated optimum makespan under the exact scheduler."""
    rng = np.random.default_rng(17)
    instances = []
    for units in (2, 3, 4):
        for rows in (8, 20, 36, 64):
            machine = ParallelTCUMachine(
                m=16, ell=32.0, units=units, scheduler="exact", execute="cost-only"
            )
            prog = TensorProgram()
            matmul_lazy(
                machine, prog, rng.random((rows, 4)), rng.random((4, 4))
            )
            plan = plan_program(prog, machine)
            groups, _ = plan.levels[0]
            caps = [_split_cap(g, machine, units) for g in groups]
            best = min(
                _level_makespan(groups, list(combo), machine)
                for combo in itertools.product(*[range(1, c + 1) for c in caps])
            )
            instances.append(
                {
                    "units": units,
                    "rows": rows,
                    "chosen": plan.splits[0],
                    "modelled": plan.modelled_makespans[0],
                    "oracle": best,
                    "agrees": plan.modelled_makespans[0] == best,
                }
            )
    REPORT["oracle"] = {
        "instances": instances,
        "all_agree": all(i["agrees"] for i in instances),
    }
    assert REPORT["oracle"]["all_agree"], "auto diverged from the exact oracle"


# Golden split=1 ledger totals for the two-product parity program —
# the exact charges the PR 9 planner produced (see
# tests/core/test_autosplit.py, which pins the same values).
PARITY_GOLDEN = {
    "serial-numeric": (2048.0, 6),
    "serial-cost-only": (2048.0, 6),
    "serial-max-rows": (3296.0, 16),
    "parallel-3": (1376.0, 6),
    "parallel-cost-only": (1488.0, 6),
}

PARITY_CONFIGS = machine_configs(32.0)


def _parity_run(machine, split):
    rng = np.random.default_rng(7)
    prog = TensorProgram()
    matmul_lazy(machine, prog, rng.random((48, 8)), rng.random((8, 8)))
    matmul_lazy(machine, prog, rng.random((20, 8)), rng.random((8, 4)))
    return run_program(prog, machine, split=split)


def test_split1_parity_with_pr9():
    """split=1 charges the PR 9 golden ledgers on every standard config,
    and auto is the identity wherever splitting cannot win."""
    checks = {}
    for name, make in PARITY_CONFIGS.items():
        machine = make()
        plan = _parity_run(machine, 1)
        total, calls = PARITY_GOLDEN[name]
        checks[name] = {
            "total_time": machine.ledger.snapshot()["total_time"],
            "tensor_calls": machine.ledger.tensor_calls,
            "splits_all_one": all(f == 1 for lv in plan.splits for f in lv),
            "golden_match": machine.ledger.snapshot()["total_time"] == total
            and machine.ledger.tensor_calls == calls,
        }
    # auto == split=1 on serial machines (identity where p == 1)
    serial_a = PARITY_CONFIGS["serial-numeric"]()
    _parity_run(serial_a, 1)
    serial_b = PARITY_CONFIGS["serial-numeric"]()
    _parity_run(serial_b, "auto")
    identity = serial_a.ledger.snapshot() == serial_b.ledger.snapshot()
    REPORT["parity"] = {
        "configs": checks,
        "auto_identity_on_serial": identity,
        "all_match": identity and all(c["golden_match"] for c in checks.values()),
    }
    assert REPORT["parity"]["all_match"], f"split=1 parity broke: {checks}"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-disable", *sys.argv[1:]]))
