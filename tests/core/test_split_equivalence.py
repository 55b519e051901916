"""The tabulated, memoised auto-splitter decides exactly what the
original per-candidate search decided.

``_reference_choose_level_splits`` below is the split search as it stood
before chunk costs were tabulated and decisions memoised, kept verbatim
as a test-only oracle: it re-prices every chunk of every candidate
through :func:`modelled_call_cost` and re-schedules the whole level.
The production chooser must return the same split factors and the same
modelled makespan floats on every machine configuration, scheduling
policy and search regime (exhaustive and coordinate descent).  The
memo tests pin its isolation: per machine, per configuration, and safe
against callers mutating a returned list.
"""

import itertools
from collections.abc import Sequence

import numpy as np
import pytest

from machine_configs import machine_configs
from repro import ParallelTCUMachine, TCUMachine, TensorProgram, matmul_lazy
from repro.core import program
from repro.core.program import (
    _SPLIT_DESCENT_PASSES,
    _SPLIT_SEARCH_LIMIT,
    TensorOp,
    _choose_level_splits,
    _group_rows,
    _split_bounds,
    _split_cap,
    modelled_call_cost,
    plan_program,
)
from repro.core.scheduling import schedule_batch
from repro.graph.closure import transitive_closure

ELL = 32.0

# the five standard machine configs plus complex-cost; the serial ones
# pin the single-unit early exit, the parallel ones take a scheduler
CONFIGS = {
    **{
        name: (lambda sched, name=name: machine_configs(ELL, scheduler=sched)[name]())
        for name in machine_configs(ELL)
    },
    "complex-cost": lambda sched: ParallelTCUMachine(
        m=16, ell=16.0, units=4, complex_cost_factor=4, max_rows=40, scheduler=sched
    ),
}
SCHEDULERS = ("lpt", "greedy", "round-robin", "exact")


# ----------------------------------------------------------------------
# test-only reference: the pre-tabulation split search, verbatim
# ----------------------------------------------------------------------
def _reference_level_cost_vector(
    groups: list[list[TensorOp]], splits: Sequence[int], machine: TCUMachine
) -> np.ndarray:
    """Per-chunk modelled costs of one level under the given splits, in
    the exact order :func:`_dispatch_parallel` issues the chunks."""
    costs: list[float] = []
    for group, pieces in zip(groups, splits, strict=True):
        rows = _group_rows(group)
        for lo, hi in _split_bounds(rows, pieces):
            costs.append(modelled_call_cost(machine, hi - lo, group[0].dtype))
    return np.asarray(costs, dtype=np.float64)


def _reference_level_makespan(
    groups: list[list[TensorOp]], splits: Sequence[int], machine: TCUMachine
) -> float:
    units = int(getattr(machine, "units", 1))
    costs = _reference_level_cost_vector(groups, splits, machine)
    if units <= 1:
        return float(costs.sum())
    try:
        return schedule_batch(costs, units, machine.scheduler).makespan
    except ValueError:
        return float("inf")


def _reference_choose_level_splits(
    groups: list[list[TensorOp]], machine: TCUMachine
) -> list[int]:
    units = int(getattr(machine, "units", 1))
    best = [1] * len(groups)
    if units <= 1 or not groups:
        return best
    caps = [_split_cap(g, machine, units) for g in groups]
    if all(cap == 1 for cap in caps):
        return best
    best_span = _reference_level_makespan(groups, best, machine)
    if best_span <= 0.0:
        return best
    # a perfectly balanced unsplit schedule is already optimal:
    # splitting only adds latency, and serial/p lower-bounds every split
    serial = float(_reference_level_cost_vector(groups, best, machine).sum())
    if best_span == serial / units:
        return best

    def better(span: float, splits: list[int]) -> bool:
        return span < best_span or (
            span == best_span and sum(splits) < sum(best)
        )

    space = 1
    for cap in caps:
        space *= cap
        if space > _SPLIT_SEARCH_LIMIT:
            break
    if space <= _SPLIT_SEARCH_LIMIT:
        for cand in itertools.product(*(range(1, cap + 1) for cap in caps)):
            splits = list(cand)
            if splits == best:
                continue
            span = _reference_level_makespan(groups, splits, machine)
            if better(span, splits):
                best, best_span = splits, span
        return best
    for _ in range(_SPLIT_DESCENT_PASSES):
        changed = False
        for gi, cap in enumerate(caps):
            for factor in range(1, cap + 1):
                if factor == best[gi]:
                    continue
                trial = list(best)
                trial[gi] = factor
                span = _reference_level_makespan(groups, trial, machine)
                if better(span, trial):
                    best, best_span = trial, span
                    changed = True
        if not changed:
            break
    return best


# ----------------------------------------------------------------------
# seeded random levels
# ----------------------------------------------------------------------
def _op(op_id: int, rows: int, s: int, complex_: bool) -> TensorOp:
    dtype = np.dtype(np.complex128 if complex_ else np.float64)
    return TensorOp(op_id, "mm", shape=(rows, s), dtype=dtype)


def random_level(
    rng: np.random.Generator, machine: TCUMachine, n_groups: int, *, tall: bool = False
) -> list[list[TensorOp]]:
    """``n_groups`` merge groups of 1-3 ops each, a third of them
    complex.  Row counts repeat often so tabulated chunk lists are
    shared across groups; ``tall`` levels give every group at least
    ``2*sqrt(m)`` rows, so every group can split."""
    s = machine.sqrt_m
    heights = [2 * s, 3 * s + 1, 5 * s, 7 * s + 3] if tall else [s, 2 * s, 3 * s + 1, 5 * s]
    groups = []
    op_id = 0
    for _ in range(n_groups):
        complex_ = bool(rng.random() < 1 / 3)
        group = []
        for _ in range(int(rng.integers(1, 4))):
            group.append(_op(op_id, int(rng.choice(heights)), s, complex_))
            op_id += 1
        groups.append(group)
    return groups


def search_space(groups, machine) -> int:
    units = int(getattr(machine, "units", 1))
    return int(np.prod([_split_cap(g, machine, units) for g in groups]))


def assert_chooser_matches_reference(groups, machine) -> None:
    want = _reference_choose_level_splits(groups, machine)
    want_span = _reference_level_makespan(groups, want, machine)
    got, span = _choose_level_splits(groups, machine)
    assert got == want
    assert span == want_span


def assert_plan_matches_reference(groups, machine) -> None:
    """Plan a one-level program with ``groups``' shapes (each group is a
    run of products against its own resident block) and check every
    planned level against the reference on the groups as planned."""
    rng = np.random.default_rng(3)
    s = machine.sqrt_m
    prog = TensorProgram()
    for group in groups:
        B = rng.random((s, s)).astype(group[0].dtype)
        for op in group:
            matmul_lazy(machine, prog, rng.random(op.shape).astype(op.dtype), B)
    plan = plan_program(prog, machine)
    for (planned, _), splits, span in zip(
        plan.levels, plan.splits, plan.modelled_makespans, strict=True
    ):
        want = _reference_choose_level_splits(planned, machine)
        assert splits == want
        assert span == _reference_level_makespan(planned, want, machine)


def seed(*parts: str) -> int:
    return sum(
        (SCHEDULERS + tuple(sorted(CONFIGS))).index(part) * 31**i
        for i, part in enumerate(parts)
    )


def is_parallel(config: str) -> bool:
    return config.startswith(("parallel", "complex"))


class TestSplitterMatchesReference:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_exhaustive_regime(self, config, scheduler):
        rng = np.random.default_rng(seed(config, scheduler))
        searched = 0
        for _ in range(6):
            machine = CONFIGS[config](scheduler)
            groups = random_level(rng, machine, int(rng.integers(1, 4)))
            space = search_space(groups, machine)
            assert space <= _SPLIT_SEARCH_LIMIT
            searched += space > 1
            if is_parallel(config):
                assert_chooser_matches_reference(groups, machine)
            assert_plan_matches_reference(groups, machine)
        assert searched or not is_parallel(config)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_coordinate_descent_regime(self, config, scheduler):
        rng = np.random.default_rng(seed(scheduler, config))
        # the exact oracle refuses batches above 12 jobs: 11 groups keep
        # the unsplit level schedulable and make most splits infeasible
        n_groups = 11 if scheduler == "exact" else 14
        for _ in range(3):
            machine = CONFIGS[config](scheduler)
            groups = random_level(rng, machine, n_groups, tall=True)
            if is_parallel(config):
                assert search_space(groups, machine) > _SPLIT_SEARCH_LIMIT
                assert_chooser_matches_reference(groups, machine)
            assert_plan_matches_reference(groups, machine)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_memo_hits_repeat_the_cold_decision(self, scheduler):
        rng = np.random.default_rng(17)
        machine = CONFIGS["parallel-3"](scheduler)
        levels = [random_level(rng, machine, k) for k in (1, 3, 7, 3)]
        cold = [_choose_level_splits(groups, machine) for groups in levels]
        warm = [_choose_level_splits(groups, machine) for groups in levels]
        assert warm == cold
        for groups, (splits, span) in zip(levels, cold, strict=True):
            assert splits == _reference_choose_level_splits(groups, machine)
            assert span == _reference_level_makespan(groups, splits, machine)


# ----------------------------------------------------------------------
# memo isolation
# ----------------------------------------------------------------------
def tall_level(machine, rows=96):
    return [[_op(0, rows, machine.sqrt_m, False)]]


class TestSplitMemo:
    def test_fork_starts_empty(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        _choose_level_splits(tall_level(machine), machine)
        assert machine._split_memo
        assert machine.fork()._split_memo == {}

    def test_machines_with_different_units_never_share_entries(self):
        p2 = ParallelTCUMachine(m=16, ell=ELL, units=2)
        p4 = ParallelTCUMachine(m=16, ell=ELL, units=4)
        assert _choose_level_splits(tall_level(p2), p2)[0] == [2]
        assert _choose_level_splits(tall_level(p4), p4)[0] == [4]
        assert p2._split_memo is not p4._split_memo
        assert not set(p2._split_memo) & set(p4._split_memo)

    def test_config_change_misses_the_memo(self):
        """The key carries ``config_key()``: re-configuring a machine in
        place cannot replay a decision priced for its old parameters."""
        machine = ParallelTCUMachine(m=16, ell=ELL, units=2)
        assert _choose_level_splits(tall_level(machine), machine)[0] == [2]
        machine.units = 4
        assert _choose_level_splits(tall_level(machine), machine)[0] == [4]
        assert len(machine._split_memo) == 2

    def test_mutating_a_returned_list_cannot_poison_the_memo(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        first, _ = _choose_level_splits(tall_level(machine), machine)
        first[0] = 99
        again, _ = _choose_level_splits(tall_level(machine), machine)
        assert again == [4]
        assert again is not first
        plan = plan_program(_tall_program(machine), machine)
        plan.splits[0][0] = 7
        assert plan_program(_tall_program(machine), machine).splits[0] == [4]

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(program, "_SPLIT_MEMO_LIMIT", 3)
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        for rows in range(16, 16 + 4 * 6, 4):
            _choose_level_splits(tall_level(machine, rows), machine)
        assert len(machine._split_memo) == 3


def _tall_program(machine, rows=96):
    rng = np.random.default_rng(5)
    s = machine.sqrt_m
    prog = TensorProgram()
    matmul_lazy(machine, prog, rng.random((rows, s)), rng.random((s, s)))
    return prog


# ----------------------------------------------------------------------
# deterministic work-count gate (no wall clock)
# ----------------------------------------------------------------------
def test_closure_runs_one_cold_split_search(monkeypatch):
    """Transitive closure rebuilds the same pivot level once per block
    pivot; the memo must turn those into one split search, and every
    ``schedule_batch`` the splitter issues must come from that search."""
    searches = [0]
    scheduled = {"chooser": 0, "search": 0}
    active: list[str] = []
    real_choose = program._choose_level_splits
    real_search = program._search_level_splits
    real_schedule = program.schedule_batch

    def counting_choose(groups, machine):
        active.append("chooser")
        try:
            return real_choose(groups, machine)
        finally:
            active.pop()

    def counting_search(shape, machine):
        searches[0] += 1
        active.append("search")
        try:
            return real_search(shape, machine)
        finally:
            active.pop()

    def counting_schedule(*args, **kwargs):
        for frame in set(active):
            scheduled[frame] += 1
        return real_schedule(*args, **kwargs)

    monkeypatch.setattr(program, "_choose_level_splits", counting_choose)
    monkeypatch.setattr(program, "_search_level_splits", counting_search)
    monkeypatch.setattr(program, "schedule_batch", counting_schedule)
    machine = ParallelTCUMachine(m=16, ell=32.0, units=4)
    adj = np.random.default_rng(0).random((96, 96)) < 0.05
    transitive_closure(machine, adj)
    assert searches[0] == 1
    assert scheduled["search"] > 0
    assert scheduled["chooser"] == scheduled["search"]
