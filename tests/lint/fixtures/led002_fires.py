"""LED002 fixture: ledger counters written outside the ledger module.

Each write below keeps the totals right but skips ``on_charge`` and the
section totals — the parallel telemetry bug.
"""


def scaled_batch(machine, tensor, latency, calls):
    machine.ledger.tensor_time += tensor
    machine.ledger.latency_time += latency
    machine.ledger.tensor_calls += calls


def replay(led, charges):
    led.cpu_time, led.reload_time = charges.cpu, charges.reload


def forget(led):
    led.wasted_time: float = 0.0
    setattr(led, "tensor_time", 0.0)


def hushed(led, amount):
    led.reload_time += amount  # repro-lint: disable=LED002 -- fixture: reasoned override
