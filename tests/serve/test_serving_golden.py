"""Golden serving pins: one exact served run per scenario.

Each scenario serves a seeded workload and pins, as literals:

* a sha256 of ``json.dumps(ServeResult.to_dict(), sort_keys=True)`` —
  every request's arrival, launch and completion, every batch record,
  every shed and abandoned request and every fault event;
* a sha256 of ``json.dumps(compute_metrics(result).to_dict(),
  sort_keys=True)`` — the summary statistics derived from them;
* ``ledger.snapshot()`` — the model-time totals;
* on traced scenarios, a sha256 of the Perfetto JSON and of the
  Prometheus text the tracer exports.

The scenarios cover what the engine's intake and admission must keep
bit-identical: the Poisson replay on the five standard machine configs,
``queue-cap`` and ``deadline`` admission at overload, a closed loop
(completion feedback injecting arrivals), a two-class mix with
preemption, and the chaos mix (faults, retries, level telemetry) on
three seeds.  A pinned value is never edited to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable

import pytest

from machine_configs import machine_configs
from repro import ParallelTCUMachine, PoissonWorkload, TCUMachine
from repro.core.presets import TPU_V1
from repro.obs import Tracer, chrome_trace_json, prometheus_text
from repro.serve import (
    ClosedLoopWorkload,
    DeadlineAdmission,
    ExponentialRetry,
    MixedWorkload,
    QueueCapAdmission,
    ServeResult,
    ServingEngine,
    chaos_injector,
    compute_metrics,
    get_request_type,
    interactive_batch_mix,
    size1_capacity,
)

ELL = 32.0

MACHINE_CONFIGS = machine_configs(ELL)

Served = tuple[ServeResult, TCUMachine, Tracer | None]


def _service(kind: str, rows: int) -> float:
    machine = TCUMachine(m=16, ell=ELL, execute="cost-only", trace_calls=False)
    get_request_type(kind).serve(machine, [rows])
    return machine.ledger.total_time


def _replay(config: str) -> Callable[[], Served]:
    def run() -> Served:
        machine = MACHINE_CONFIGS[config]()
        workload = PoissonWorkload(rate=4e-3, total=160, kind="matmul", rows=8, seed=11)
        return ServingEngine(machine, "continuous").serve(workload), machine, None

    return run


def _overload(admission) -> Callable[[], Served]:
    def run() -> Served:
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        service = _service("matmul", 8)
        # offered at 4x the unit's size-1 capacity: most arrivals are shed
        workload = PoissonWorkload(
            rate=4.0 / service, total=200, kind="matmul", rows=8, seed=5,
            deadline=6 * service,
        )
        tracer = Tracer(sample_every=4 * service)
        engine = ServingEngine(
            machine, "continuous", admission=admission, tracer=tracer
        )
        return engine.serve(workload), machine, tracer

    return run


def _closed_loop() -> Served:
    machine = TCUMachine(m=16, ell=ELL)
    workload = ClosedLoopWorkload(
        clients=6, total=90, think=40.0, kind="matmul", rows=8, seed=17
    )
    return ServingEngine(machine, "continuous").serve(workload), machine, None


def _two_class_preempt() -> Served:
    machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
    hot_rate = 0.3 / _service("matmul", 8)
    horizon = 80 / hot_rate
    workload = MixedWorkload(
        PoissonWorkload(
            rate=5 / horizon, total=5, kind="dft", rows=2048, seed=23, priority=0
        ),
        PoissonWorkload(
            rate=hot_rate, total=80, kind="matmul", rows=8, seed=24, priority=2
        ),
    )
    engine = ServingEngine(machine, "continuous", preempt=True)
    return engine.serve(workload), machine, None


def _chaos(seed: int) -> Callable[[], Served]:
    def run() -> Served:
        machine = ParallelTCUMachine(
            m=TPU_V1.m, ell=TPU_V1.ell, kappa=TPU_V1.kappa, max_rows=TPU_V1.max_rows,
            units=3, execute="cost-only",
        )
        capacity = size1_capacity()
        tracer = Tracer(detail="level", sample_every=10.0 * capacity)
        engine = ServingEngine(
            machine, "continuous", preempt=True,
            faults=chaos_injector(),
            retry=ExponentialRetry(base=capacity / 4, cap=4 * capacity, max_attempts=12),
            tracer=tracer,
        )
        return engine.serve(interactive_batch_mix(120, 2), seed=seed), machine, tracer

    return run


SCENARIOS: dict[str, Callable[[], Served]] = {
    **{f"replay-{config}": _replay(config) for config in sorted(MACHINE_CONFIGS)},
    "queue-cap-overload": _overload(QueueCapAdmission(cap=4)),
    "deadline-overload": _overload(DeadlineAdmission(est_service=_service("matmul", 8))),
    "closed-loop": _closed_loop,
    "two-class-preempt": _two_class_preempt,
    **{f"chaos-seed{seed}": _chaos(seed) for seed in range(3)},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(name: str) -> dict:
    result, machine, tracer = SCENARIOS[name]()
    pins = {
        "result": _sha(json.dumps(result.to_dict(), sort_keys=True)),
        "metrics": _sha(json.dumps(compute_metrics(result).to_dict(), sort_keys=True)),
        "snapshot": machine.ledger.snapshot(),
    }
    if tracer is not None:
        pins["perfetto"] = _sha(chrome_trace_json(tracer, label=name))
        pins["prometheus"] = _sha(prometheus_text(tracer.registry))
    return pins


PINS: dict[str, dict] = {'chaos-seed0': {'metrics': '43688279aa447e0500eb068d40ee49e2537c45ae16baba35f63e888d9a010d8a',
                 'perfetto': 'ee29875a2b35cd93efbe5d49751931f70d4710b183502d71c501c57414599702',
                 'prometheus': 'ce5cea306b64832895d71715969f55d00889781e690f3966bfea583936d7c661',
                 'result': 'a0c437f1dc0c81d31928304aff9c069fd15c39f5d10e3d6945d1e53f717cecc9',
                 'snapshot': {'cpu_time': 59091968.0,
                              'latency_time': 29623268.07272728,
                              'reload_time': 6094848.0,
                              'tensor_calls': 292.0,
                              'tensor_time': 19684891.927272722,
                              'total_time': 114494976.0,
                              'wasted_time': 1682432.0}},
 'chaos-seed1': {'metrics': 'c25e2f781abfb3205459fd82efcb6fd1a7250d58bd72362b76729cc71bf1907d',
                 'perfetto': '66587828ff0d338e7be6668601680e5e6437b98b434e87bfa7cbd79fe239fe86',
                 'prometheus': '586ccbe16406d14d456c0b18d1ac33651ba7662de055e723fa30281208405b5e',
                 'result': 'e13bb867eebe0f65580bd2148b662bbf5544eeabfd01f425fbf1c741313db949',
                 'snapshot': {'cpu_time': 63745024.0,
                              'latency_time': 31327157.527272735,
                              'reload_time': 7012352.0,
                              'tensor_calls': 290.0,
                              'tensor_time': 20252746.47272727,
                              'total_time': 122337280.0,
                              'wasted_time': 3211264.0}},
 'chaos-seed2': {'metrics': 'eaa7466f2374da7cee4f4373c778da65ffff6f9c9486b2d6760b44380022722e',
                 'perfetto': '5e0cf09e0342c66f8dca3b60bbc067db4c88ae3d46efbbe80e595b323a66ebb8',
                 'prometheus': 'e6f08e90389819056ed3de5939949afd7374216a9b0aa35fd774a24d091515e4',
                 'result': 'a30333f38bf59f8c56572ffd74fd12a38c80194628db030d47ce1722fdc8f1c7',
                 'snapshot': {'cpu_time': 69905408.0,
                              'latency_time': 32506647.272727296,
                              'reload_time': 4653056.0,
                              'tensor_calls': 300.0,
                              'tensor_time': 21082856.72727271,
                              'total_time': 128147968.0,
                              'wasted_time': 8541696.0}},
 'closed-loop': {'metrics': '6cf6278631906c52d1ec9952bfa9f3893a789120fd116a36826e305a9db07d2c',
                 'result': '4cbff476a2fa74e5ba0f599d348f2d84fe7c9810f5e0a5c61886897d94bb12f9',
                 'snapshot': {'cpu_time': 737280.0,
                              'latency_time': 122880.0,
                              'reload_time': 0.0,
                              'tensor_calls': 3840.0,
                              'tensor_time': 737280.0,
                              'total_time': 1597440.0,
                              'wasted_time': 0.0}},
 'deadline-overload': {'metrics': '7ab7b81d04fe53b1421808ccf8546275be60d47603de976ac11106e88b2bf9ee',
                       'perfetto': 'dcf832b1beddb6c263958fb9c03bcdbe7c073634073300ec06e2901664c2ced2',
                       'prometheus': '417906f3cbbff09c0b0631fff67b55f346ce87816471cc86c2549eefcb09f5aa',
                       'result': '53e4241501ac3707a3f26401f3a6d8f237e74606646c5c8639af15d090194875',
                       'snapshot': {'cpu_time': 598016.0,
                                    'latency_time': 106496.0,
                                    'reload_time': 0.0,
                                    'tensor_calls': 3328.0,
                                    'tensor_time': 598016.0,
                                    'total_time': 1302528.0,
                                    'wasted_time': 0.0}},
 'queue-cap-overload': {'metrics': 'f7110be4e946894f452e549932fe42f551782b5bfc8c9797b7608e6b4f7f8266',
                        'perfetto': 'acdb9a10ad90b9bb300d09f00056d60793aa150b6d6a27a998d4fd9eb2c32a68',
                        'prometheus': '734b895a1f09c0f15ee7606249c88e13f97edbc338a2095ae2527354b8cf3ebe',
                        'result': '3376e4b18ad43f822d90dfc8e3dee0b03dcb9171681f3344a7248551bfb2c94f',
                        'snapshot': {'cpu_time': 565248.0,
                                     'latency_time': 147456.0,
                                     'reload_time': 0.0,
                                     'tensor_calls': 4608.0,
                                     'tensor_time': 565248.0,
                                     'total_time': 1277952.0,
                                     'wasted_time': 0.0}},
 'replay-parallel-3': {'metrics': 'cdb0c8364a8b9dd3cbb5380cf50bea7a650ac77bd9ac0e821fd2fa43b9d2f590',
                       'result': 'fc8266fac3900fe9fef05a60af387e4529ec879a3010960be46b9cae4d41e1cc',
                       'snapshot': {'cpu_time': 1310720.0,
                                    'latency_time': 11005.444235048324,
                                    'reload_time': 0.0,
                                    'tensor_calls': 1031.0,
                                    'tensor_time': 436918.5557649517,
                                    'total_time': 1758644.0,
                                    'wasted_time': 0.0}},
 'replay-parallel-cost-only': {'metrics': 'aa37a748c80321cab87761f0edaa460a8cbe7534fc94d378b01da23baf88a2f2',
                               'result': '62eff88628dda14c633efe99b0ec743b2dd62f7c5f7e5a5bd4ac474b7712a10c',
                               'snapshot': {'cpu_time': 1310720.0,
                                            'latency_time': 16384.0,
                                            'reload_time': 0.0,
                                            'tensor_calls': 1024.0,
                                            'tensor_time': 655360.0,
                                            'total_time': 1982464.0,
                                            'wasted_time': 0.0}},
 'replay-serial-cost-only': {'metrics': '7a0c487a8dc79c3c48ac1113995da1643387b0ea9d78a244f18f0ba8c313d02f',
                             'result': 'c68e937618d32feaabaa52554ec70492a598e74e841339bbbe98fb308db6cbbc',
                             'snapshot': {'cpu_time': 1310720.0,
                                          'latency_time': 32768.0,
                                          'reload_time': 0.0,
                                          'tensor_calls': 1024.0,
                                          'tensor_time': 1310720.0,
                                          'total_time': 2654208.0,
                                          'wasted_time': 0.0}},
 'replay-serial-max-rows': {'metrics': '7d0e5161a144bdacb34d750da00c607368a86b1834553126c543f621839d5caf',
                            'result': 'f565d5da888b18f696dadddcc224973e4db68c62db3da577bd25b5cc216c3f80',
                            'snapshot': {'cpu_time': 2613248.0,
                                         'latency_time': 663552.0,
                                         'reload_time': 0.0,
                                         'tensor_calls': 20736.0,
                                         'tensor_time': 1310720.0,
                                         'total_time': 4587520.0,
                                         'wasted_time': 0.0}},
 'replay-serial-numeric': {'metrics': 'cebf3e0ab0599786dabaccefecd49c0c80e0511cdcfc393d5c24f3b3404c23d0',
                           'result': '73365ad16a673741c147a1d4ca5de78b076ea44b149cbc2cd648176767bb8da7',
                           'snapshot': {'cpu_time': 1310720.0,
                                        'latency_time': 32768.0,
                                        'reload_time': 0.0,
                                        'tensor_calls': 1024.0,
                                        'tensor_time': 1310720.0,
                                        'total_time': 2654208.0,
                                        'wasted_time': 0.0}},
 'two-class-preempt': {'metrics': '93c14005a309904e39831302d98872aebf682e2d43a896a5dca03cd9d361b346',
                       'result': 'd1b417ff40f9755e7878dba34d2e70cd6e099ba4d5d9d161e6e52ba4b2aff14b',
                       'snapshot': {'cpu_time': 3932304.0,
                                    'latency_time': 327968.0,
                                    'reload_time': 272.0,
                                    'tensor_calls': 10249.0,
                                    'tensor_time': 2621440.0,
                                    'total_time': 6881984.0,
                                    'wasted_time': 0.0}}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_served_run_matches_its_golden_pins(name):
    assert fingerprint(name) == PINS[name]
