"""Engine conservation invariants and exact batch-replay parity.

These pin the PR's acceptance criteria: for any workload / policy /
machine, (1) per-request wait + service latencies are consistent with
the engine clock, and (2) the total tensor/latency charges of a served
run are bit-identical to the same batches replayed serially — through
``mm_batch`` on a one-unit parallel machine, through the fused serial
path, and through a cost-only machine.
"""

import json
import math

import pytest

import repro.serve.engine as engine_module
from machine_configs import machine_configs
from repro import (
    ParallelTCUMachine,
    PoissonWorkload,
    TCUMachine,
    replay_batches,
)
from repro.obs import Tracer
from repro.serve import (
    BurstyWorkload,
    ClosedLoopWorkload,
    QueueCapAdmission,
    ServeError,
    ServingEngine,
    SizeBatcher,
    TimeoutBatcher,
    Workload,
)
from repro.serve.workload import Request

ELL = 32.0


def poisson(kind="matmul", total=80, rate=1e-3, seed=1, rows=8, slo=None):
    return PoissonWorkload(rate=rate, total=total, kind=kind, rows=rows, seed=seed, slo=slo)


MACHINE_CONFIGS = machine_configs(ELL)


class TestConservation:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("policy_name", ["continuous", "size", "timeout"])
    def test_clock_conservation_everywhere(self, config, policy_name):
        machine = MACHINE_CONFIGS[config]()
        result = ServingEngine(machine, policy_name).serve(poisson(seed=3))
        result.check_conservation()  # raises on violation
        assert result.completed == 80
        # busy time is exactly the ledger-clock span of the run
        assert result.busy_time == pytest.approx(result.ledger_time, rel=1e-12)
        # the engine never idles a ready machine past a release point
        assert result.clock >= result.busy_time

    def test_completion_is_launch_plus_service_bitwise(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(poisson(seed=5))
        for request in result.requests:
            batch = result.batches[request.batch]
            assert request.completion == batch.launch + batch.service
            assert request.launch == batch.launch
            assert request.rid in batch.rids

    def test_latency_sum_matches_engine_clock_identity(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, SizeBatcher(size=8)).serve(poisson(seed=7))
        total_latency = sum(r.latency for r in result.requests)
        total_wait = sum(r.wait for r in result.requests)
        total_service = sum(b.size * b.service for b in result.batches)
        assert total_latency == pytest.approx(total_wait + total_service, rel=1e-12)

    def test_batches_are_serial_on_the_engine(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "timeout").serve(poisson(seed=11, rate=5e-3))
        for prev, cur in zip(result.batches, result.batches[1:]):
            assert cur.launch >= prev.completion

    def test_final_clock_is_last_completion(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(poisson(seed=13))
        assert result.clock == result.batches[-1].completion
        assert result.clock == max(r.completion for r in result.requests)

    def test_validation_detects_corruption(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(poisson(seed=17, total=10))
        result.requests[0].completion += 1.0
        with pytest.raises(ServeError):
            result.check_conservation()

    def test_empty_workload(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(
            PoissonWorkload(rate=1e-3, total=0)
        )
        result.check_conservation()
        assert result.completed == 0 and result.clock == 0.0


class TestReplayParity:
    """Served charges == the same batches replayed serially (acceptance)."""

    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("kind", ["matmul", "mlp", "dft"])
    def test_served_equals_serial_replay(self, config, kind):
        machine = MACHINE_CONFIGS[config]()
        result = ServingEngine(machine, TimeoutBatcher(timeout=2e3, max_size=16)).serve(
            poisson(kind=kind, total=40, seed=19)
        )
        served = machine.ledger

        # (a) fused serial path, numeric
        serial = TCUMachine(m=16, ell=ELL, max_rows=machine.max_rows)
        replay_batches(result.batches, serial)
        # (b) mm_batch path: a one-unit parallel machine replays every
        #     level of every batch through the scheduled batch executor
        via_mm_batch = ParallelTCUMachine(m=16, ell=ELL, max_rows=machine.max_rows, units=1)
        replay_batches(result.batches, via_mm_batch)
        # (c) cost-only serial
        cost_only = TCUMachine(
            m=16, ell=ELL, max_rows=machine.max_rows, execute="cost-only"
        )
        replay_batches(result.batches, cost_only)

        reference = served.call_shape_totals()

        def streamed_rows(totals):
            return sum(n * count for (n, _), (count, _, _) in totals.items())

        if getattr(machine, "units", 1) > 1:
            # The auto-splitter reads ``p`` at plan time, so a multi-unit
            # serve may issue differently shaped sibling chunks than a
            # one-unit replay.  Exact call-shape parity holds against a
            # units-matched fork twin; the serial replays conserve the
            # streamed row totals.
            twin = machine.fork()
            replay_batches(result.batches, twin)
            assert twin.ledger.call_shape_totals() == reference
            assert twin.ledger.tensor_calls == served.tensor_calls
            for replayed in (serial.ledger, via_mm_batch.ledger, cost_only.ledger):
                assert streamed_rows(replayed.call_shape_totals()) == streamed_rows(
                    reference
                )
        else:
            for replayed in (serial.ledger, via_mm_batch.ledger, cost_only.ledger):
                assert replayed.call_shape_totals() == reference
                assert replayed.tensor_calls == served.tensor_calls
        # serial replays also agree on the raw tensor/latency columns
        assert serial.ledger.tensor_time == via_mm_batch.ledger.tensor_time
        assert serial.ledger.latency_time == via_mm_batch.ledger.latency_time
        assert serial.ledger.tensor_time == cost_only.ledger.tensor_time
        assert serial.ledger.latency_time == cost_only.ledger.latency_time

    def test_serial_served_run_is_bit_identical_to_replay(self):
        """On a serial machine the served ledger *is* the replay ledger."""
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, SizeBatcher(size=4)).serve(
            poisson(total=32, seed=23)
        )
        fork = machine.fork()
        replay_batches(result.batches, fork)
        assert fork.ledger.tensor_time == machine.ledger.tensor_time
        assert fork.ledger.latency_time == machine.ledger.latency_time
        assert fork.ledger.tensor_calls == machine.ledger.tensor_calls
        assert fork.ledger.call_shape_totals() == machine.ledger.call_shape_totals()

    def test_parallel_trace_records_true_hardware_work(self):
        """The parallel engine's clock advances by makespans, but the
        trace keeps serial-cost rows: summing them reproduces the
        serial replay's tensor+latency time exactly."""
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        result = ServingEngine(machine, SizeBatcher(size=8)).serve(
            poisson(kind="mlp", total=48, seed=29)
        )
        _, _, times, lats = machine.ledger.calls.as_arrays()
        serial = TCUMachine(m=16, ell=ELL)
        replay_batches(result.batches, serial)
        assert float(times.sum()) == serial.ledger.tensor_time + serial.ledger.latency_time
        assert float(lats.sum()) == serial.ledger.latency_time


class TestEngineBehaviour:
    def test_closed_loop_in_flight_bound(self):
        clients = 3
        workload = ClosedLoopWorkload(
            clients=clients, total=30, think=50.0, kind="matmul", rows=8, seed=31
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(workload)
        assert result.completed == 30
        # sweep the timeline: never more than `clients` requests between
        # arrival and completion at once
        events = []
        for request in result.requests:
            events.append((request.arrival, 1))
            events.append((request.completion, -1))
        in_flight = peak = 0
        for _, delta in sorted(events, key=lambda e: (e[0], -e[1])):
            in_flight += delta
            peak = max(peak, in_flight)
        assert peak <= clients

    def test_simultaneous_arrivals_batch_together(self):
        """Arrivals at the exact release instant join the batch instead
        of being split into a size-1 batch plus a remainder."""

        class Burst(Workload):
            def requests(self):
                for rid in range(8):
                    yield Request(rid=rid, kind="matmul", arrival=100.0, rows=8)

        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(Burst())
        assert len(result.batches) == 1
        assert result.batches[0].size == 8

    def test_zero_think_closed_loop_batches_whole_population(self):
        """think=0 re-arrivals land exactly at the completion instant
        and must re-batch as a full population, not 1 + (clients-1)."""
        clients = 4
        workload = ClosedLoopWorkload(
            clients=clients, total=20, think=0.0, kind="matmul", rows=8, seed=43
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(workload)
        assert result.completed == 20
        assert all(b.size == clients for b in result.batches)

    def test_bursty_workload_serves_to_completion(self):
        workload = BurstyWorkload(
            5e-3, 5e-5, 120, dwell=2e4, kind="matmul", rows=8, seed=37
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "timeout").serve(workload)
        result.check_conservation()
        assert result.completed == 120

    def test_mixed_kind_queues_partition_batches(self):
        class Mixed(Workload):
            def requests(self):
                for rid in range(20):
                    kind = "matmul" if rid % 2 == 0 else "dft"
                    rows = 8 if kind == "matmul" else 4
                    yield Request(rid=rid, kind=kind, arrival=float(rid), rows=rows)

        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(Mixed())
        assert result.completed == 20
        assert {b.kind for b in result.batches} == {"matmul", "dft"}
        by_rid = {r.rid: r for r in result.requests}
        for batch in result.batches:
            # no batch mixes kinds
            assert {by_rid[rid].kind for rid in batch.rids} == {batch.kind}

    def test_non_monotone_arrivals_rejected(self):
        class Broken(Workload):
            def requests(self):
                yield Request(rid=0, kind="matmul", arrival=10.0, rows=8)
                yield Request(rid=1, kind="matmul", arrival=5.0, rows=8)

        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ServeError, match="not time-ordered"):
            ServingEngine(machine, "continuous").serve(Broken())

    def test_draining_refusal_detected(self):
        class Stubborn(SizeBatcher):
            name = "stubborn"

            def release_time(self, queue, now, draining):
                if len(queue) >= self.size:
                    return now
                return math.inf  # ignores draining: cannot finish

        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ServeError, match="refused to drain"):
            ServingEngine(machine, Stubborn(size=64)).serve(poisson(total=10, seed=41))

    def test_unknown_policy_or_kind_fail_loudly(self):
        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ValueError, match="unknown batching policy"):
            ServingEngine(machine, "nope")

        class Bad(Workload):
            def requests(self):
                yield Request(rid=0, kind="unregistered-kind", arrival=0.0, rows=8)

        with pytest.raises(ValueError, match="unknown request type"):
            ServingEngine(machine, "continuous").serve(Bad())

    @pytest.mark.parametrize("cached", [False, True])
    def test_type_without_plan_is_rejected(self, cached, monkeypatch):
        """Every batch runs on a cursor: a request type with no plan()
        fails at its first launch with a clear error, on the live and
        the plan-cached path alike."""
        from repro.core.plan_cache import PlanCache
        from repro.serve import workload
        from repro.serve.workload import RequestType

        class Unplanned(RequestType):
            name = "unplanned"

        # registered for this test only (the registry is process-wide)
        monkeypatch.setitem(workload._REQUEST_TYPES, "unplanned", Unplanned())
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        engine = ServingEngine(
            machine, "continuous", plan_cache=PlanCache() if cached else False
        )
        with pytest.raises(NotImplementedError, match="does not implement plan"):
            engine.serve(poisson(kind="unplanned", total=3))


class Listed(Workload):
    """An open-loop stream of ``(kind, arrival, rows, priority)`` specs,
    one request per ``yield``; ``inject`` maps a completed rid to the
    ``(arrival, rows)`` of a request to inject at its completion."""

    def __init__(self, specs, inject=None):
        self.specs = list(specs)
        self.inject = dict(inject or {})

    def requests(self):
        for rid, (kind, arrival, rows, priority) in enumerate(self.specs):
            yield Request(rid=rid, kind=kind, arrival=arrival, rows=rows, priority=priority)

    def on_complete(self, request, now):
        if request.rid not in self.inject:
            return []
        arrival, rows = self.inject.pop(request.rid)
        return [Request(rid=1000 + request.rid, kind="matmul", arrival=arrival, rows=rows)]


class OnePerYield(Workload):
    """Re-yield another workload's stream one request at a time."""

    def __init__(self, inner):
        self.inner = inner

    def requests(self):
        for req in self.inner.requests():
            yield req


def served_bytes(result, machine) -> str:
    return json.dumps(
        {"result": result.to_dict(), "ledger": machine.ledger.snapshot()}, sort_keys=True
    )


class TestArrivalPump:
    """The block arrival pump keeps the per-arrival tie-breaks."""

    def test_arrival_at_a_level_boundary_waits_for_the_level(self):
        """A high-class arrival exactly at a running batch's level
        boundary is admitted after that level completes: the batch
        advances one more level before it is preempted.  One arriving
        just before the boundary preempts at that boundary."""

        def serve(hot_at=None):
            specs = [("dft", 0.0, 512, 0)]
            if hot_at is not None:
                specs.append(("matmul", hot_at, 8, 2))
            tracer = Tracer(detail="level")
            machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
            engine = ServingEngine(machine, "continuous", preempt=True, tracer=tracer)
            return engine.serve(Listed(specs)), tracer

        _, solo = serve()
        ends = [end for _, _, _, _, end in solo.levels]
        assert len(ends) >= 3
        for hot_at, launch in ((ends[0], ends[1]), (math.nextafter(ends[0], 0.0), ends[0])):
            result, _ = serve(hot_at)
            hot = next(r for r in result.requests if r.priority == 2)
            assert hot.launch == launch
            assert result.preemptions == 1

    @pytest.mark.parametrize("busy", [False, True])
    def test_open_loop_arrival_wins_a_tie_with_an_injected_one(self, busy):
        """An injected (closed-loop) arrival tied with an open-loop one
        queues behind it, whether the engine is idle at that instant or
        pumping arrivals while a batch runs."""
        probe = TCUMachine(m=16, ell=ELL, execute="cost-only")
        ServingEngine(probe, "continuous").serve(Listed([("matmul", 0.0, 8, 0)]))
        first = probe.ledger.clock  # the first batch's completion
        tie = 3.0 * first
        specs = [("matmul", 0.0, 8, 0)]
        if busy:
            # queued behind the first batch: runs across the tie instant
            specs.append(("matmul", 1.0, 1024, 0))
        specs.append(("matmul", tie, 8, 0))
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(machine, "continuous").serve(
            Listed(specs, inject={0: (tie, 8)})
        )
        tied = next(b for b in result.batches if 1000 in b.rids)
        assert tied.rids == (len(specs) - 1, 1000)
        if busy:
            assert tied.launch > tie  # both were pumped in during a run
        else:
            assert tied.launch == tie

    @pytest.mark.parametrize("admission", ["unbounded", QueueCapAdmission(cap=48)])
    def test_multi_block_stream_matches_one_arrival_per_block(self, monkeypatch, admission):
        """A stream several read blocks long serves bit-identically to
        the same stream yielded one request at a time and read one
        request per block."""
        total = 3 * engine_module._ARRIVAL_BLOCK + 123

        def run():
            machine = TCUMachine(m=16, ell=ELL, execute="cost-only", trace_calls=False)
            workload = PoissonWorkload(
                rate=4e-3, total=total, kind="matmul", rows=8, seed=7
            )
            engine = ServingEngine(
                machine, SizeBatcher(size=40), admission=admission
            )
            return machine, engine, workload

        machine, engine, workload = run()
        blocked = served_bytes(engine.serve(workload), machine)
        machine, engine, workload = run()
        monkeypatch.setattr(engine_module, "_ARRIVAL_BLOCK", 1)
        single = served_bytes(engine.serve(OnePerYield(workload)), machine)
        assert blocked == single

    def test_out_of_order_arrival_across_a_block_boundary_rejected(self):
        n = engine_module._ARRIVAL_BLOCK
        specs = [("matmul", float(i), 8, 0) for i in range(n)]
        specs.append(("matmul", n - 1.5, 8, 0))  # first of the next block
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only", trace_calls=False)
        with pytest.raises(ServeError, match="not time-ordered"):
            ServingEngine(machine, "continuous").serve(Listed(specs))

    def test_traced_shed_rows_carry_their_arrival(self):
        tracer = Tracer(sample_every=1e4)
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine, "continuous", admission=QueueCapAdmission(cap=2), tracer=tracer
        ).serve(poisson(total=120, rate=5e-3, seed=13))
        shed_rows = [row for row in tracer.requests if row[3] == "shed"]
        assert len(shed_rows) == len(result.shed) > 0
        for _, _, _, _, arrival, _, ts, _, _ in shed_rows:
            assert ts == arrival
