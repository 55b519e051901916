"""Which public functions and methods make up each layer of ``repro``.

:func:`install` patches every entry point below into a
:class:`~hostprof.Profiler`.  A span's name is ``<layer>.<what>``; the
part before the first dot is the layer, and :data:`LAYERS` maps it to
the ``repro`` module(s) it stands for.

Work that no wrapper can see counts toward whoever calls it:

* the engine appends per-request trace rows straight onto the tracer's
  lists (and calls its own closures: ``admit``, ``launch``, ...), so that
  work is part of ``engine`` self time;
* the tracer's ledger ``on_charge`` hook is a closure the ledger calls,
  so its cost is part of ``ledger`` self time;
* private helpers (``_choose_level_splits``, ``_execute_level``, ...)
  count toward the public function that calls them.
"""

from __future__ import annotations

from hostprof import Profiler

# layer prefix -> the repro module(s) it measures (report order)
LAYERS: dict[str, str] = {
    "workload": "serve.workload",
    "admission": "serve.admission",
    "batcher": "serve.batcher",
    "engine": "serve.engine",
    "plan_cache": "core.plan_cache",
    "program": "core.program",
    "scheduling": "core.scheduling",
    "machine": "core.machine + core.parallel",
    "ledger": "core.ledger",
    "faults": "serve.faults",
    "metrics": "serve.metrics",
    "obs": "obs",
    "kernel": "matmul / transform / graph kernels",
    "bench": "benchmark body (outside every layer)",
}

_TRACER_EMITS = (
    "request_done", "request_shed", "request_abandoned", "segment", "level_span",
    "batch_done", "wait", "down", "reload_event", "instant", "observe_slo",
    "bind_ledger", "unbind_ledger",
)


def install(prof: Profiler) -> None:
    """Wrap every layer's entry points (undone by ``prof.unpatch()``)."""
    from repro.core import ledger, machine, parallel, plan_cache, program, scheduling
    from repro.obs import exporters, sampler, tracer
    from repro.obs import metrics as obs_metrics
    from repro.serve import admission, batcher, engine, faults, metrics, workload

    counts = prof.counts

    prof.patch_methods(workload.Workload, ("requests",), "workload.gen", iterator=True)
    prof.patch_methods(admission.AdmissionPolicy, ("admit",), "admission.admit")
    prof.patch_methods(batcher.BatchPolicy, ("take",), "batcher.take")
    prof.patch_methods(batcher.BatchPolicy, ("release_time",), "batcher.release")
    prof.patch_function(batcher.priority_release, "batcher.release")
    prof.patch_methods(engine.ServingEngine, ("serve",), "engine.serve")

    prof.patch_methods(plan_cache.PlanCache, ("get_or_compile", "get", "put"), "plan_cache.lookup")
    prof.patch_function(plan_cache.compile_plan, "plan_cache.compile")

    prof.patch_function(program.plan_program, "program.plan")
    prof.patch_function(program.modelled_call_cost, "program.cost_evals", count_only=True)

    # levels executed = entries a cursor appends to level_times (a
    # coalesced compiled run is one); counted at the outermost cursor call
    def levels_before(args, kwargs):
        if prof.parent_name() == "program.cursor":
            return None
        return len(args[0].level_times)

    def levels_after(token, args, result):
        if token is not None:
            counts["program.levels"] += len(args[0].level_times) - token

    for cursor in (program.ExecutionCursor, program.CompiledCursor):
        prof.patch_methods(
            cursor, ("step", "run"), "program.cursor",
            before=levels_before, after=levels_after,
        )
        prof.patch_methods(cursor, ("rewind", "charge_reload"), "program.cursor")
    prof.patch_function(program.execute_plan, "program.execute")
    prof.patch_function(program.run_program, "program.execute")

    prof.patch_function(scheduling.schedule_batch, "scheduling.schedule")

    # bytes moved: operands and result, shape x itemsize, counted at the
    # outermost machine call (mm_batch issues its pairs through mm)
    def top_level_machine_call(args, kwargs):
        parent = prof.parent_name()
        return parent is None or not parent.startswith("machine.")

    def mm_bytes(top, args, result):
        if top:
            counts["machine.bytes_moved"] += (
                args[1].nbytes + args[2].nbytes + getattr(result, "nbytes", 0)
            )

    def mm_batch_bytes(top, args, result):
        if top:
            counts["machine.bytes_moved"] += sum(
                a.nbytes + b.nbytes for a, b in args[1]
            ) + sum(getattr(c, "nbytes", 0) for c in result)

    prof.patch_methods(
        machine.TCUMachine, ("mm", "mm_grid", "mm_tall"), "machine.mm",
        before=top_level_machine_call, after=mm_bytes,
    )
    prof.patch_methods(machine.TCUMachine, ("charge_mm_grid",), "machine.mm")
    prof.patch_methods(
        parallel.ParallelTCUMachine, ("mm_batch",), "machine.mm_batch",
        before=top_level_machine_call, after=mm_batch_bytes,
    )

    prof.patch_methods(
        ledger.CostLedger,
        (
            "charge_tensor", "charge_tensor_bulk", "record_call", "record_calls_bulk",
            "charge_cpu", "charge_reload", "attribute_wasted",
        ),
        "ledger.charge",
    )

    prof.patch_methods(
        faults.FaultInjector,
        ("begin_run", "reseed", "draw_level", "next_crash", "take_crash"),
        "faults.draw",
    )
    prof.patch_methods(faults.RetryPolicy, ("delay",), "faults.draw")
    prof.patch_methods(
        faults.Degrader, ("wants", "degraded_rows", "quantized_twin"), "faults.draw"
    )

    prof.patch_function(metrics.compute_metrics, "metrics.compute")
    prof.patch_methods(engine.ServeResult, ("check_conservation",), "metrics.conservation")

    prof.patch_methods(tracer.Tracer, _TRACER_EMITS, "obs.emit")
    for metric in (obs_metrics.Counter, obs_metrics.Gauge, obs_metrics.Histogram):
        prof.patch_methods(metric, ("inc", "dec", "set", "observe", "observe_many"), "obs.emit")
    prof.patch_methods(obs_metrics.MetricsRegistry, ("counter", "gauge", "histogram"), "obs.emit")
    prof.patch_methods(sampler.Sampler, ("due", "sample"), "obs.emit")
    prof.patch_methods(sampler.SloBurnMonitor, ("observe",), "obs.emit")
    for export in (
        exporters.to_chrome_trace,
        exporters.chrome_trace_json,
        exporters.write_chrome_trace,
        exporters.prometheus_text,
        exporters.validate_chrome_trace,
    ):
        prof.patch_function(export, "obs.export")
