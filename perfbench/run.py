"""One benchmark for the (m, l)-TCU simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-overload --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20     # every workload, one row each

The simulator runs on two clocks, and every metric says which it uses:

* **model time** is the ledger clock (``n*sqrt(m) + l`` per tensor
  call).  It is exact, so model-time results must be bit-identical
  across every run of a seed, traced or untraced; the benchmark checks
  that and fails the run otherwise.
* **host time** is the wall time the Python simulator takes.  It is
  noisy, so host-time metrics are medians over repeated iterations.
  The host's own speed drifts, so throughput is also reported in
  *reference seconds* (:func:`calibration_loop`), which divide that
  drift out; ``setup_s`` is in reference seconds too.

One workload run repeats *set-up* (machine/engine construction, request
generation) and *body* (the served run or kernel sweep) until
``--seconds`` of iterations have passed, after one untimed warm-up.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced iterations and reports the per-layer
metrics of the host-time profiler (:mod:`hostprof`, :mod:`layermap`):
self times in host seconds and, with the same calibration as the
untraced iterations, in reference seconds.  The self times add up to
the profiler's root span by construction; the root span is checked
against a timer read outside the profiler.

Every run checks its outputs: ``ServeResult.check_conservation`` on
every serve, kernel outputs against numpy references, and the exact
results against the warm-up.  It also records the exact results of a
held-out seed.  Output: a readable report, a results file under
``perfbench/results/`` (plus the host-time profile as Perfetto JSON
when traced), and, as the last line, one JSON object with the metrics
listed in ``BENCHMARK.json``.  A failed check exits 1 and names the
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_ITERATIONS = 3  # per kind (untraced / traced), whatever --seconds says
# fresh-interpreter imports timed per run; setup_s takes their median
IMPORT_PROBES = 7
# nominal duration of one calibration loop: a "reference second" is the
# time 1 / CALIBRATION_REF_S loops take, so a host running at the
# reference speed reads the same in host and reference seconds
CALIBRATION_REF_S = 0.010

# end-to-end metrics: name -> unit (host-time ones are medians)
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "calls_per_s": "1/s",
    "req_per_ref_s": "1/ref_s",
    "calls_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MiB",
    "model_time": "model",
    "model_p50": "model",
    "model_p99": "model",
    "slo_attainment": "fraction",
    "fail_ratio": "fraction",
}
EXACT_END_TO_END = ("model_time", "model_p50", "model_p99", "slo_attainment", "fail_ratio")

# per-layer host-time metrics: metric -> span name(s) whose self time it is
SELF_TIME: dict[str, str | tuple[str, ...]] = {
    "workload.gen_s": "workload.gen",
    "admission.admit_s": "admission.admit",
    "batcher.take_s": "batcher.take",
    "batcher.release_s": "batcher.release",
    "engine.self_s": "engine.serve",
    "plan_cache.lookup_s": "plan_cache.lookup",
    "plan_cache.compile_s": "plan_cache.compile",
    "program.plan_s": "program.plan",
    "program.cursor_s": ("program.cursor", "program.execute"),
    "scheduling.schedule_s": "scheduling.schedule",
    "machine.mm_s": "machine.mm",
    "machine.mm_batch_s": "machine.mm_batch",
    "ledger.charge_s": "ledger.charge",
    "faults.draw_s": "faults.draw",
    "metrics.compute_s": "metrics.compute",
    "metrics.conservation_s": "metrics.conservation",
    "obs.emit_s": "obs.emit",
    "obs.export_s": "obs.export",
    "bench.self_s": ("bench.body", "bench.hooks"),
}
# the same self times in reference seconds: "x_s" -> "x_ref_s"
SELF_REF_TIME = {f"{metric[:-2]}_ref_s": spans for metric, spans in SELF_TIME.items()}
# per-layer call counts: metric -> span name counted
SPAN_CALLS = {
    "admission.calls": "admission.admit",
    "program.plans": "program.plan",
    "scheduling.calls": "scheduling.schedule",
    "machine.mm_calls": "machine.mm",
    "machine.mm_batch_calls": "machine.mm_batch",
    "ledger.charges": "ledger.charge",
}
# counts the profiler's hooks accumulate
HOOK_COUNTS = {
    "program.cost_evals": "count",
    "program.levels": "count",
    "machine.bytes_moved": "B",
}
# exact per-layer results the workloads report (model clock or counts);
# a count a workload does not report is 0 (that layer did no work), a
# ratio or model-time value it does not report does not apply (n/a)
EXACT_LAYER = {
    "workload.requests": "count",
    "admission.shed": "count",
    "batcher.releases": "count",
    "batcher.batch_size_mean": "requests",
    "batcher.queue_wait_p99": "model",
    "engine.batches": "count",
    "plan_cache.lookups": "count",
    "plan_cache.hit_ratio": "fraction",
    "ledger.tensor_calls": "count",
    "ledger.wasted_ratio": "fraction",
    "ledger.reload_time": "model",
    "faults.events": "count",
    "faults.retries": "count",
    "faults.abandoned": "count",
    "obs.spans": "count",
    "obs.export_bytes": "B",
    "obs.counter_gap": "model",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric a traced run reports."""
    import layermap
    from workloads import Kernels

    units = dict.fromkeys(SELF_TIME, "s")
    units.update(dict.fromkeys(SELF_REF_TIME, "ref_s"))
    units.update({f"{layer}.layer_ref_s": "ref_s" for layer in layermap.LAYERS})
    units.update(dict.fromkeys(SPAN_CALLS, "count"))
    units.update(HOOK_COUNTS)
    units.update(EXACT_LAYER)
    units["program.plan_ms_p50"] = "ms"
    units["program.plan_ms_p99"] = "ms"
    units["program.plan_ref_ms_p50"] = "ref_ms"
    units["program.plan_ref_ms_p99"] = "ref_ms"
    for span in Kernels.spans():
        units[f"{span}.s"] = "s"
        units[f"{span}.model_time"] = "model"
    units["bench.traced_host_s"] = "s"
    units["bench.traced_ref_s"] = "ref_s"
    units["bench.trace_overhead"] = "ratio"
    return units


def import_simulator() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and the benchmark
    modules that use it), or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import workloads  # noqa: F401  (imports numpy and every kernel)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the simulator from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import what
    :func:`import_simulator` imports (run in a child process, waited for)."""
    code = (
        f"import sys, time; sys.path[:0] = {[str(ROOT / 'src'), str(HERE)]!r}; "
        "t0 = time.perf_counter(); import repro, workloads; "
        "print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return float(proc.stdout.split()[-1])


def calibration_loop() -> tuple[float, float]:
    """Seconds two fixed slices of interpreter work take right now:
    bytecode on dicts and ints, and small-array numpy calls.

    The host this benchmark runs on is shared, and its speed drifts by
    tens of percent between runs a minute apart.  Timing these loops
    next to every iteration measures the drift, and dividing it out
    gives *reference seconds* (:func:`ref_factor`).  The loops touch
    nothing in ``repro``, so a change to the simulator cannot move them.
    """
    import numpy as np

    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        key = i % 101
        table[key] = table.get(key, 0) + i * (len(table) % 7)
    t1 = time.perf_counter()
    weights = np.arange(4.0)
    for i in range(1_500):
        row = np.asarray([i, i + 1, i + 2, i + 3], dtype=np.float64)
        table[i % 101] += int((row * weights).sum()) + np.issubdtype(row.dtype, np.integer)
    return t1 - t0, time.perf_counter() - t1


def ref_factor(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Reference seconds per host second, from the calibration loops run
    just before and just after the measured work."""
    return 2 * CALIBRATION_REF_S / (sum(before) + sum(after))


def exact_repr(exact: dict) -> dict[str, str]:
    """Bit-exact comparison keys: ``repr`` round-trips a float exactly."""
    return {k: repr(v) for k, v in sorted(exact.items())}


def timed_with_calibration(fn):
    """``(fn(), host seconds it took, reference seconds per host second,
    the calibration loop times behind that factor)``."""
    before = calibration_loop()
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    after = calibration_loop()
    return result, dt, ref_factor(before, after), (*before, *after)


# the root span may miss the outside timer by the cost of opening and
# closing it, and by no more than this (ns, or 1% of the iteration)
RECONCILE_SLACK_NS = 2_000_000


class LayerTotals:
    """Per-layer sums over the traced iterations of one run."""

    def __init__(self) -> None:
        self.iterations = 0
        self.traced_s: list[float] = []
        self.traced_ref_s: list[float] = []
        self.outside_gap_ns: list[int] = []
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        # self time x that iteration's reference seconds per host second
        self.self_ref_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.plan_ns: list[int] = []
        self.plan_ref_ms: list[float] = []
        self.kernel_ns: defaultdict[str, list[int]] = defaultdict(list)

    def add(self, prof, outside_ns: int, factor: float) -> None:
        """Take in one traced iteration: ``outside_ns`` is the root span
        as timed outside the profiler, ``factor`` the iteration's
        reference seconds per host second."""
        from workloads import CheckError

        own = prof.self_times_ns()
        root = prof.root_ns()
        if prof.min_self_ns() < 0:
            raise CheckError("profiler produced a negative self time")
        # holds by construction (every span is closed in a finally)
        assert sum(own.values()) == root, "self times do not add up to the root span"
        gap = outside_ns - root
        if not 0 <= gap <= max(RECONCILE_SLACK_NS, outside_ns // 100):
            raise CheckError(
                f"traced host time {root} ns does not match the outside timer's "
                f"{outside_ns} ns"
            )
        self.iterations += 1
        self.outside_gap_ns.append(gap)
        self.traced_s.append(root / 1e9)
        self.traced_ref_s.append(root / 1e9 * factor)
        for span, ns in own.items():
            self.self_ns[span] += ns
            self.self_ref_s[span] += ns / 1e9 * factor
            if span.startswith("kernel."):
                self.kernel_ns[span].extend(prof.durations_ns(span).tolist())
        for span, calls in prof.call_counts().items():
            self.counts[span] += calls
        for key, value in prof.counts.items():
            self.counts[key] += value
        plans = prof.durations_ns("program.plan")
        self.plan_ns.extend(plans.tolist())
        self.plan_ref_ms.extend((plans / 1e6 * factor).tolist())

    def layers(self, ref: bool = False) -> dict[str, float]:
        """Self time per layer (span-name prefix) per iteration, in host
        seconds, or in reference seconds with ``ref``."""
        import layermap

        layers = dict.fromkeys(layermap.LAYERS, 0.0)
        if ref:
            for span, seconds in self.self_ref_s.items():
                layers[span.split(".", 1)[0]] += seconds / self.iterations
        else:
            for span, ns in self.self_ns.items():
                layers[span.split(".", 1)[0]] += ns / self.iterations / 1e9
        return layers

    def metrics(self, exact: dict, untraced_ref_s_median: float) -> dict[str, float | None]:
        """Per-layer values per traced iteration: self times and counts
        are means (so they add up to the mean traced time), kernel and
        planner times medians, exact results as the workload reported
        them."""
        import numpy as np
        from workloads import Kernels

        n = self.iterations
        out: dict[str, float | None] = {}
        for metric, spans in SELF_TIME.items():
            spans = (spans,) if isinstance(spans, str) else spans
            out[metric] = sum(self.self_ns.get(span, 0) for span in spans) / n / 1e9
        for metric, spans in SELF_REF_TIME.items():
            spans = (spans,) if isinstance(spans, str) else spans
            out[metric] = sum(self.self_ref_s.get(span, 0.0) for span in spans) / n
        for layer, seconds in self.layers(ref=True).items():
            out[f"{layer}.layer_ref_s"] = seconds
        for metric, span in SPAN_CALLS.items():
            out[metric] = self.counts.get(span, 0) / n
        for metric in HOOK_COUNTS:
            out[metric] = self.counts.get(metric, 0) / n
        plans = np.asarray(self.plan_ns) / 1e6
        out["program.plan_ms_p50"] = float(np.quantile(plans, 0.5)) if len(plans) else None
        out["program.plan_ms_p99"] = float(np.quantile(plans, 0.99)) if len(plans) else None
        plans_ref = np.asarray(self.plan_ref_ms)
        for q, key in ((0.5, "program.plan_ref_ms_p50"), (0.99, "program.plan_ref_ms_p99")):
            out[key] = float(np.quantile(plans_ref, q)) if len(plans_ref) else None
        for metric, unit in EXACT_LAYER.items():
            out[metric] = exact.get(metric, 0 if unit in ("count", "B") else None)
        for span in Kernels.spans():
            times = self.kernel_ns.get(span)
            out[f"{span}.s"] = statistics.median(times) / 1e9 if times else None
            out[f"{span}.model_time"] = exact.get(f"{span}.model_time")
        out["bench.traced_host_s"] = statistics.median(self.traced_s)
        traced_ref = statistics.median(self.traced_ref_s)
        out["bench.traced_ref_s"] = traced_ref
        out["bench.trace_overhead"] = traced_ref / untraced_ref_s_median
        return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` of iterations; returns the report."""
    import layermap
    from hostprof import Profiler
    from workloads import HELD_OUT_OFFSET, WORKLOADS, CheckError

    workload = WORKLOADS[name]
    # per untraced iteration: (set-up s, body s, factor, calibration loop s)
    untraced: list[tuple[float, float, float, tuple]] = []
    rates: defaultdict[str, list[float]] = defaultdict(list)
    totals = LayerTotals()
    ops = {"attempted": 0, "failed": 0}
    first = None
    prof = Profiler()

    def run_body(traced: bool):
        """One iteration: set-up, body, output and exactness checks."""
        nonlocal first
        t0 = time.perf_counter()
        body = workload.setup(seed)
        setup_dt = time.perf_counter() - t0
        if traced:
            prof.reset()

            def traced_body():
                with prof.installed(layermap.install):
                    t0_ns = time.perf_counter_ns()
                    with prof.span("bench.body"):
                        result = body(prof.span)
                    return result, time.perf_counter_ns() - t0_ns

            (outcome, outside_ns), _, factor, _ = timed_with_calibration(traced_body)
            timing = (outside_ns, factor)
        else:
            outcome, dt, factor, loops = timed_with_calibration(lambda: body(nullcontext))
            timing = (setup_dt, dt, factor, loops)
        workload.check(outcome)
        if first is None:
            first = outcome
        elif exact_repr(outcome.exact) != exact_repr(first.exact):
            changed = sorted(
                k for k in outcome.exact if repr(outcome.exact[k]) != repr(first.exact.get(k))
            )
            kind = "traced" if traced else "untraced"
            raise CheckError(f"exact results changed between iterations ({kind}): {changed}")
        for error in outcome.errors:
            print(f"perfbench: {name}: failed operation: {error}", file=sys.stderr)
        return outcome, timing

    run_body(traced=False)  # warm-up: lazy imports and caches, not timed
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        outcome, timing = run_body(traced)
        i += 1
        ops["attempted"] += outcome.attempted
        ops["failed"] += outcome.failed
        if traced:
            totals.add(prof, *timing)
        else:
            untraced.append(timing)
            _, dt, factor, _ = timing
            rates["calls_per_s"].append(outcome.calls / dt)
            rates["calls_per_ref_s"].append(outcome.calls / (dt * factor))
            if outcome.completed is not None:
                rates["req_per_s"].append(outcome.completed / dt)
                rates["req_per_ref_s"].append(outcome.completed / (dt * factor))
        done = len(untraced) >= MIN_ITERATIONS and (
            not trace or totals.iterations >= MIN_ITERATIONS
        )
        if done and time.perf_counter() - start >= seconds:
            break

    # the held-out seed: exact results only, recorded for later claims
    held_seed = seed + HELD_OUT_OFFSET
    held = workload.setup(held_seed)(nullcontext)
    workload.check(held)

    # set-up = imports (in fresh interpreters) + construction, each the
    # median of several, in host and in reference seconds
    probes = [timed_with_calibration(import_probe) for _ in range(IMPORT_PROBES)]
    imports = [child_s for child_s, _, _, _ in probes]
    imports_ref = [child_s * factor for child_s, _, factor, _ in probes]
    setups = [setup_dt for setup_dt, _, _, _ in untraced]
    setups_ref = [setup_dt * factor for setup_dt, _, factor, _ in untraced]
    host_s = [dt for _, dt, _, _ in untraced]
    ref_s = [dt * factor for _, dt, factor, _ in untraced]
    factors = [factor for _, _, factor, _ in untraced]

    e2e = {
        "setup_s": statistics.median(imports_ref) + statistics.median(setups_ref),
        **{k: statistics.median(rates[k]) if rates[k] else None for k in (
            "req_per_s", "calls_per_s", "req_per_ref_s", "calls_per_ref_s"
        )},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{k: first.exact.get(k) for k in EXACT_END_TO_END},
    }
    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "iterations": {"untraced": len(untraced), "traced": totals.iterations},
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "import_s": statistics.median(imports),
        "setup_host_s": statistics.median(imports) + statistics.median(setups),
        "host_s_median": statistics.median(host_s),
        "ref_s_per_host_s": statistics.median(factors),
        "samples": {  # per untraced iteration, for later analysis
            "setup_host_s": setups,
            "body_host_s": host_s,
            "ref_s_per_host_s": factors,
            "calibration_loops_s": [loops for _, _, _, loops in untraced],
        },
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "exact": first.exact,
        "held_out": {"seed": held_seed, "exact": held.exact},
    }
    if trace:
        units = per_layer_units()
        per_layer = totals.metrics(first.exact, statistics.median(ref_s))
        report["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        report["layers"] = totals.layers()
        report["layers_ref"] = totals.layers(ref=True)
        report["traced_host_s_mean"] = sum(report["layers"].values())
        report["outside_gap_max_s"] = max(totals.outside_gap_ns) / 1e9
        host_trace = prof.chrome_trace(label=f"{name} seed {seed}")
        write_host_trace(name, host_trace, first.artifacts)
    return report


def write_host_trace(name: str, host_trace: dict, artifacts: dict[str, str]) -> None:
    """Write the host-time profile as Perfetto JSON, schema-checked by
    ``repro.obs.validate_chrome_trace``, beside the workload's own
    ledger-clock trace when it has one."""
    from repro.obs.exporters import validate_chrome_trace

    validate_chrome_trace(host_trace)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.host.trace.json").write_text(json.dumps(host_trace))
    if "ledger_trace" in artifacts:
        (RESULTS / f"{name}.ledger.trace.json").write_text(artifacts["ledger_trace"])
    if "prometheus" in artifacts:
        (RESULTS / f"{name}.prom").write_text(artifacts["prometheus"])


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(report: dict) -> None:
    e2e = report["end_to_end"]
    print(f"workload {report['workload']} (seed {report['seed']}): {report['why']}")
    print(
        f"  iterations: {report['iterations']['untraced']} untraced, "
        f"{report['iterations']['traced']} traced; set-up {report['setup_host_s']:.3f} host s "
        f"(imports {report['import_s']:.3f}); {report['ref_s_per_host_s']:.3f} reference s "
        "per host s"
    )
    for name, cell in e2e.items():
        clock = (
            "model" if name in EXACT_END_TO_END
            else "reference" if name == "setup_s" or "_ref_" in name
            else "host"
        )
        print(f"  {name:<16} {fmt(cell['value']):>14} {cell['unit']:<9} ({clock})")
    if "per_layer" not in report:
        return
    total = report["traced_host_s_mean"]
    print("  self time per layer, traced, per iteration, host s and reference s:")
    import layermap

    for layer, seconds in report["layers"].items():
        ref = report["layers_ref"][layer]
        print(f"    {layer:<11} {seconds:>12.6f} {ref:>12.6f}  {layermap.LAYERS[layer]}")
    print(
        f"    {'total':<11} {total:>12.6f} {sum(report['layers_ref'].values()):>12.6f}  "
        "traced time (the self times add up to it by construction)"
    )
    print(
        "  the traced host time is within "
        f"{report['outside_gap_max_s'] * 1e6:.1f} us of a timer outside the profiler"
    )
    print("  engine self time includes the per-request trace rows the engine appends itself;")
    print("  bench self time includes the profiler's own bookkeeping hooks (bench.hooks)")
    print("  per-layer metrics:")
    for name, cell in report["per_layer"].items():
        print(f"    {name:<34} {fmt(cell['value']):>14} {cell['unit']}")


def contract_line(report: dict) -> str:
    """The last stdout line: the metrics ``BENCHMARK.json`` lists for
    this mode, each required to be a number."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if report["trace"] else "end_to_end"
    available = report["per_layer" if report["trace"] else "end_to_end"]
    metrics = {}
    for entry in spec[section]:
        cell = available[entry["name"]]
        if cell["unit"] != entry["unit"] or cell["value"] is None:
            raise ValueError(f"{entry['name']}: no {entry['unit']} value on this workload")
        metrics[entry["name"]] = {"value": cell["value"], "unit": cell["unit"]}
    return json.dumps({
        "correct": True,  # every check passed, or measure() raised
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def run_one(args: argparse.Namespace) -> int:
    import_simulator()
    from workloads import CHECK_FAILURES, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CHECK_FAILURES as exc:
        print(f"perfbench: workload {args.workload} FAILED its checks: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_report(report)
    print(contract_line(report))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (peak RSS is per process),
    untraced then traced; one row per workload, and the exact results
    of the two runs of each seed compared bit for bit."""
    names = ["replay-overload", "replay-steady", "kernels", "chaos-traced"]
    rows = {}
    status = 0
    for name in names:
        runs = []
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"perfbench: workload {name} failed (trace {trace})", file=sys.stderr)
                status = 1
                break
            path = RESULTS / f"{name}.seed{args.seed}.trace{trace}.json"
            runs.append(json.loads(path.read_text()))
        if len(runs) != 2:
            continue
        plain, traced = runs
        for part in ("exact", "held_out"):
            a, b = plain[part], traced[part]
            if part == "held_out":
                a, b = a["exact"], b["exact"]
            if exact_repr(a) != exact_repr(b):
                print(f"perfbench: workload {name}: {part} results differ between the "
                      "untraced and traced runs", file=sys.stderr)
                status = 1
        rows[name] = runs
    header = ["workload", *END_TO_END, "trace_overhead"]
    print(" | ".join(header))
    print(" | ".join(["", *(END_TO_END.values()), "ratio"]))
    for name, (plain, traced) in rows.items():
        cells = [plain["end_to_end"][k]["value"] for k in END_TO_END]
        cells.append(traced["per_layer"]["bench.trace_overhead"]["value"])
        print(" | ".join([name, *map(fmt, cells)]))
    for name, (_, traced) in rows.items():
        print()
        print_report(traced)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # pin BLAS to one thread before numpy loads (nothing above imports
    # it): kernel numbers must measure the simulator, not a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
