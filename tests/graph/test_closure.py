"""Theorem 5 transitive closure tests."""

import networkx as nx
import numpy as np
import pytest

from repro import ParallelTCUMachine, TCUMachine
from repro.analysis.fitting import loglog_slope
from repro.baselines.ram import RAMMachine, ram_transitive_closure
from repro.graph.closure import transitive_closure


def random_digraph(rng, n, p):
    A = (rng.random((n, n)) < p).astype(np.int64)
    np.fill_diagonal(A, 0)
    return A


class TestCorrectness:
    @pytest.mark.parametrize("n,p", [(4, 0.5), (8, 0.3), (12, 0.2), (16, 0.15), (21, 0.1), (32, 0.08)])
    def test_matches_figure5_reference(self, tcu, rng, n, p):
        A = random_digraph(rng, n, p)
        ram = RAMMachine()
        assert np.array_equal(
            transitive_closure(tcu, A), ram_transitive_closure(ram, A)
        )

    def test_matches_networkx(self, tcu, rng):
        A = random_digraph(rng, 14, 0.15)
        got = transitive_closure(tcu, A)
        G = nx.from_numpy_array(A, create_using=nx.DiGraph)
        closure = nx.transitive_closure(G, reflexive=False)
        want = nx.to_numpy_array(closure, dtype=np.int64, nodelist=range(14))
        assert np.array_equal(got, want)

    def test_empty_graph(self, tcu):
        A = np.zeros((8, 8), dtype=np.int64)
        assert transitive_closure(tcu, A).sum() == 0

    def test_complete_graph_stays_complete(self, tcu):
        n = 8
        A = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        C = transitive_closure(tcu, A)
        # every vertex reaches every vertex including itself (cycles)
        assert C.sum() == n * n

    def test_directed_path(self, tcu):
        """0 -> 1 -> 2 -> 3: closure is the strict upper triangle."""
        n = 4
        A = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            A[i, i + 1] = 1
        C = transitive_closure(tcu, A)
        assert np.array_equal(C, np.triu(np.ones((n, n), dtype=np.int64), 1))

    def test_cycle_reaches_itself(self, tcu):
        n = 5
        A = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            A[i, (i + 1) % n] = 1
        C = transitive_closure(tcu, A)
        assert (np.diag(C) == 1).all()
        assert C.sum() == n * n

    def test_two_components_disconnected(self, tcu):
        A = np.zeros((8, 8), dtype=np.int64)
        A[0, 1] = A[1, 0] = 1
        A[5, 6] = 1
        C = transitive_closure(tcu, A)
        assert C[0, 5] == 0 and C[5, 0] == 0
        assert C[5, 6] == 1 and C[6, 5] == 0

    def test_output_is_binary(self, tcu, rng):
        """The D-kernel clamp keeps entries 0/1 despite integer products."""
        A = random_digraph(rng, 20, 0.4)  # dense: many parallel paths
        C = transitive_closure(tcu, A)
        assert set(np.unique(C)) <= {0, 1}

    def test_non_binary_input_rejected(self, tcu):
        A = np.full((4, 4), 2, dtype=np.int64)
        with pytest.raises(ValueError, match="0/1"):
            transitive_closure(tcu, A)

    def test_non_square_rejected(self, tcu, rng):
        with pytest.raises(ValueError, match="square"):
            transitive_closure(tcu, np.zeros((3, 4)))

    def test_closure_is_idempotent(self, tcu, rng):
        A = random_digraph(rng, 12, 0.2)
        C1 = transitive_closure(tcu, A)
        C2 = transitive_closure(tcu, C1)
        assert np.array_equal(C1, C2)


def boolean_reachability(adjacency):
    """0/1 matrix of non-empty directed paths, by boolean squaring."""
    reach = adjacency.astype(bool)
    while True:
        step = reach.astype(np.int64)
        nxt = reach | ((step @ step) > 0)
        if np.array_equal(nxt, reach):
            return reach.astype(np.int64)
        reach = nxt


STRIP_MACHINES = {
    "serial": lambda **kw: TCUMachine(m=16, ell=8.0, **kw),
    "parallel": lambda **kw: ParallelTCUMachine(m=16, ell=8.0, units=3, **kw),
    "row-bounded": lambda **kw: TCUMachine(m=16, ell=8.0, max_rows=8, **kw),
}


class TestStripKernels:
    """Kernels B and C update whole pivot strips at once; the closure must
    still be exact for any block count, with self-loops and cycles."""

    @pytest.mark.parametrize("machine", STRIP_MACHINES)
    @pytest.mark.parametrize("n", [3, 7, 29])  # nb = 1, 2, 8 at sqrt(m) = 4
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_boolean_squaring(self, machine, n, seed):
        rng = np.random.default_rng(seed)
        A = (rng.random((n, n)) < 2.0 / n).astype(np.int64)  # self-loops allowed
        cycle = rng.permutation(n)[: max(2, n // 3)]
        A[cycle, np.roll(cycle, 1)] = 1  # plus one directed cycle
        tcu = STRIP_MACHINES[machine]()
        assert np.array_equal(transitive_closure(tcu, A), boolean_reachability(A))
        # the strip-wide charges stay value-independent
        ghost = STRIP_MACHINES[machine](execute="cost-only")
        transitive_closure(ghost, A)
        assert ghost.ledger.snapshot() == tcu.ledger.snapshot()


class TestCostShape:
    def test_cubic_scaling(self, rng):
        times = []
        ns = [8, 16, 32, 64]
        for n in ns:
            tcu = TCUMachine(m=16)
            transitive_closure(tcu, random_digraph(rng, n, 0.2))
            times.append(tcu.time)
        slope = loglog_slope(ns, times)
        assert 2.6 < slope < 3.3

    def test_latency_term(self, rng):
        n = 16
        t0 = TCUMachine(m=16, ell=0.0)
        t1 = TCUMachine(m=16, ell=100.0)
        A = random_digraph(rng, n, 0.2)
        transitive_closure(t0, A)
        transitive_closure(t1, A)
        # same tensor throughput, latency only in the ell > 0 machine
        assert t0.ledger.tensor_time == t1.ledger.tensor_time
        assert t1.ledger.latency_time == 100.0 * t1.ledger.tensor_calls

    def test_tensor_calls_quadratic_in_blocks(self, rng):
        """Figure 7 issues ~2 tall calls per (k, j) pair: Theta((n/sqrt(m))^2)."""
        tcu = TCUMachine(m=16)
        n = 32  # 8 blocks
        transitive_closure(tcu, random_digraph(rng, n, 0.2))
        nb = n // 4
        assert tcu.ledger.tensor_calls <= 2 * nb * nb
        assert tcu.ledger.tensor_calls >= nb * (nb - 1)
