"""Self-tests of the benchmark: profiler arithmetic, layer attribution,
and that tracing leaves every model-time result bit-identical.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
import pytest

import layermap
import repro.core.program as program_module
import repro.serve.admission as admission_module
import run
from hostprof import Profiler
from repro.obs.exporters import validate_chrome_trace
from workloads import WORKLOADS, ChaosTraced, CheckError, Kernels, Replay

SMALL_REPLAY = Replay("replay-small", "test", period=800.0, total=2000, slo=None)
SMALL_STEADY = Replay("steady-small", "test", period=12_000.0, total=1000, slo=80_000.0)
SMALL_KERNELS = Kernels(mm_n=32, dft_batch=16, dft_size=64, grid=16, sweeps=2, nodes=24)
SMALL_CHAOS = ChaosTraced(interactive=120, bulk=2)


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def traced(workload, seed: int = 3):
    """One traced body: (self seconds per layer, outcome, profiler)."""
    body = workload.setup(seed)
    prof = Profiler()
    with prof.installed(layermap.install), prof.span("bench.body"):
        outcome = body(prof.span)
    layers: defaultdict[str, float] = defaultdict(float)
    for span, ns in prof.self_times_ns().items():
        layers[span.split(".", 1)[0]] += ns / 1e9
    return layers, outcome, prof


def median_layers(workload, runs: int = 3) -> tuple[dict[str, float], Profiler]:
    samples = [traced(workload) for _ in range(runs)]
    names = set().union(*(layers for layers, _, _ in samples))
    return (
        {n: statistics.median(layers.get(n, 0.0) for layers, _, _ in samples) for n in names},
        samples[-1][2],
    )


def slow_down_everywhere(monkeypatch, fn, delay: float) -> None:
    """Rebind ``fn`` with a fixed busy-wait in every ``repro`` module."""

    def slow(*args, **kwargs):
        busy_wait(delay)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, slow)


def assert_attributed(before: dict, after: dict, layer: str, added: float) -> None:
    """The added time shows up in ``layer``'s self time, not elsewhere."""
    assert after[layer] - before.get(layer, 0.0) >= 0.9 * added
    for other, seconds in after.items():
        if other != layer:
            assert seconds - before.get(other, 0.0) < 0.2 * added, other


class TestProfiler:
    def test_self_time_is_duration_minus_children(self):
        class Inner:
            def work(self):
                busy_wait(0.002)

        class Outer:
            def work(self):
                Inner().work()
                busy_wait(0.001)

        original = Inner.__dict__["work"]

        def install(prof):
            prof.patch_methods(Inner, ("work",), "inner.work")
            prof.patch_methods(Outer, ("work",), "outer.work")

        prof = Profiler()
        with prof.installed(install), prof.span("bench.body"):
            Outer().work()
        assert Inner.__dict__["work"] is original  # unpatched again
        own = prof.self_times_ns()
        assert sum(own.values()) == prof.root_ns()
        assert prof.min_self_ns() >= 0
        inner = int(prof.durations_ns("inner.work")[0])
        outer = int(prof.durations_ns("outer.work")[0])
        assert own["inner.work"] == inner >= 2_000_000
        assert own["outer.work"] == outer - inner >= 1_000_000

    def test_generator_work_is_attributed_per_next(self):
        class Source:
            def items(self):
                for i in range(3):
                    busy_wait(0.001)
                    yield i

        prof = Profiler()
        with prof.installed(lambda p: p.patch_methods(Source, ("items",), "gen.items",
                                                      iterator=True)):
            with prof.span("bench.body"):
                assert list(Source().items()) == [0, 1, 2]
        # three items plus the StopIteration probe
        assert prof.call_counts()["gen.items"] == 4
        assert prof.self_times_ns()["gen.items"] >= 3_000_000

    def test_hook_time_is_not_the_wrapped_layers(self):
        class Layer:
            def work(self):
                busy_wait(0.0005)

        def slow_hook(*args):
            busy_wait(0.005)

        def install(p):
            p.patch_methods(Layer, ("work",), "layer.work", before=slow_hook, after=slow_hook)

        prof = Profiler()
        with prof.installed(install), prof.span("bench.body"):
            Layer().work()
        own = prof.self_times_ns()
        assert own["bench.hooks"] >= 10_000_000
        assert 500_000 <= own["layer.work"] < 5_000_000
        assert prof.call_counts()["bench.hooks"] == 2

    def test_root_span_is_checked_against_an_outside_timer(self):
        _, _, prof = traced(SMALL_REPLAY)
        root = prof.root_ns()
        run.LayerTotals().add(prof, root + 1_000, 1.0)
        with pytest.raises(CheckError, match="outside timer"):
            run.LayerTotals().add(prof, root - 1, 1.0)
        with pytest.raises(CheckError, match="outside timer"):
            run.LayerTotals().add(prof, 2 * root + 3 * run.RECONCILE_SLACK_NS, 1.0)

    def test_host_profile_is_a_valid_chrome_trace(self):
        _, _, prof = traced(SMALL_CHAOS)
        trace = prof.chrome_trace(label="test")
        validate_chrome_trace(trace)
        assert trace["otherData"]["spans_exported"] == len(prof.span_start)


class TestAttribution:
    """An injected, fixed slowdown in one layer lands in that layer."""

    def test_admission_slowdown_lands_in_admission(self, monkeypatch):
        before, _ = median_layers(SMALL_REPLAY)
        delay = 50e-6
        original = admission_module.UnboundedAdmission.admit

        def slow_admit(self, request, queue, clock):
            busy_wait(delay)
            return original(self, request, queue, clock)

        monkeypatch.setattr(admission_module.UnboundedAdmission, "admit", slow_admit)
        after, prof = median_layers(SMALL_REPLAY)
        calls = prof.call_counts()["admission.admit"]
        assert calls == SMALL_REPLAY.total
        assert_attributed(before, after, "admission", calls * delay)

    def test_planner_slowdown_lands_in_program(self, monkeypatch):
        before, _ = median_layers(SMALL_KERNELS)
        delay = 1e-3
        slow_down_everywhere(monkeypatch, program_module.plan_program, delay)
        after, prof = median_layers(SMALL_KERNELS)
        plans = prof.call_counts()["program.plan"]
        assert plans > 0
        assert_attributed(before, after, "program", plans * delay)


@pytest.mark.parametrize(
    "workload", [SMALL_REPLAY, SMALL_STEADY, SMALL_KERNELS, SMALL_CHAOS],
    ids=lambda w: w.name,
)
def test_tracing_leaves_model_time_bit_identical(workload):
    plain = workload.setup(3)(nullcontext)
    workload.check(plain)
    _, traced_outcome, prof = traced(workload)
    workload.check(traced_outcome)
    assert run.exact_repr(traced_outcome.exact) == run.exact_repr(plain.exact)
    assert sum(prof.self_times_ns().values()) == prof.root_ns()
    assert prof.min_self_ns() >= 0


def test_wrong_kernel_output_fails_the_check():
    outcome = SMALL_KERNELS.setup(3)(nullcontext)
    SMALL_KERNELS.check(outcome)
    metric, out = outcome.outputs[0]
    outcome.outputs[0] = (metric, out + np.ones_like(out))
    with pytest.raises(CheckError, match=metric):
        SMALL_KERNELS.check(outcome)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]
    for entry in spec["end_to_end"]:
        assert run.END_TO_END[entry["name"]] == entry["unit"]
        assert 0 < entry["bound"] <= 0.25
    assert max(spec["end_to_end"], key=lambda e: e["bound"])["name"] == "setup_s"
    units = run.per_layer_units()
    for entry in spec["per_layer"]:
        assert units[entry["name"]] == entry["unit"]
