"""LED002 clean fixture: counters are read, never written; charges go
through ledger methods, and same-named locals or keys stay unflagged."""


def scaled_batch(machine, tensor, latency, calls, ns, times, lats):
    machine.ledger.charge_tensor_batch(tensor, latency, calls, ns, 4, times, lats)
    return machine.ledger.tensor_time + machine.ledger.latency_time


def totals(led):
    tensor_time = led.tensor_time
    summary = {"cpu_time": led.cpu_time}
    summary["tensor_time"] = tensor_time
    return summary
