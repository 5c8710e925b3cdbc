"""Unit tests for the walk loop and the simple-random-walk kernels."""
import numpy as np
import pytest

from repro.core import walks
from repro.graphs.csr import build_csr
from tests import _helpers as H


@pytest.fixture(scope="module")
def small():
    g = H.small_random(60, 6, seed=3)
    return g, H.csr_of(g)


class TestRun:
    @pytest.mark.parametrize("burnin,ks", [
        (3, [4]), (0, [3]), (2, [1]), (0, [1]), (3, [4, 4, 2]), (0, [5, 1, 1]),
    ], ids=["3-4", "0-3", "2-1", "0-1", "3-4-4-2", "0-5-1-1"])
    def test_burnin_then_record(self, burnin, ks):
        """With a counting step, burn-in is unrecorded and each unit's k
        recorded steps follow it in order. Every walker steps through
        burn-in; then only the units still recording do, as a prefix."""
        starts = [np.array([0, 10]) + 100 * i for i in range(len(ks))]
        widths = []
        outs = walks.run([None] * len(ks), starts, ks,
                         lambda a, d: widths.append(a.size) or a + 1, burnin)
        for s, k, out in zip(starts, ks, outs):
            steps = np.arange(burnin + 1, burnin + k + 1)
            assert out.tolist() == [(s[0] + steps).tolist(), (s[1] + steps).tolist()]
        assert widths == [2 * len(ks)] * burnin + [
            2 * sum(k > t for k in ks) for t in range(ks[0])]

    def test_rejects_shorter_unit_first(self):
        with pytest.raises(ValueError, match="longest"):
            walks.run([None, None], [np.array([0]), np.array([1])], [1, 2],
                      lambda a, d: a, 0)


class TestSRW:
    def test_step_moves_along_edges(self, small):
        g, csr = small
        rng = np.random.default_rng(0)
        arcs = rng.integers(0, csr.n_arcs, size=200)
        new = walks.srw_step(csr, arcs, H.draws(rng, 200))
        assert (csr.tails[new] == csr.indices[arcs]).all()

    def test_trajectory_shapes_and_validity(self, small):
        g, csr = small
        arcs = walks.srw_runs(csr, 0, [(25, 10, np.random.default_rng(1))])[0]
        assert arcs.shape == (10, 25)
        # the first arc leaves the uniform start; each later arc leaves
        # the head of the one before
        starts = np.random.default_rng(1).integers(0, csr.n, size=10)
        assert (csr.tails[arcs[:, 0]] == starts).all()
        assert (csr.tails[arcs[:, 1:]] == csr.indices[arcs[:, :-1]]).all()

    def test_stationary_distribution(self, small):
        """Long-run visit frequency ~ d(u)/2|E|."""
        g, csr = small
        rng = np.random.default_rng(2)
        nodes = csr.indices[walks.srw_runs(csr, 120, [(120, 600, rng)])[0]]
        freq = np.bincount(nodes.ravel(), minlength=g.n) / nodes.size
        pi = csr.degrees / csr.degrees.sum()
        assert np.abs(freq - pi).max() < 0.01

    def test_deterministic_given_seed(self, small):
        _, csr = small
        a = walks.srw_runs(csr, 5, [(10, 5, np.random.default_rng(9))])[0]
        b = walks.srw_runs(csr, 5, [(10, 5, np.random.default_rng(9))])[0]
        assert (a == b).all()

    def test_isolated_start_raises(self):
        """Node 2 has no edges: a walk cannot start there."""
        csr = build_csr(np.array([[0, 1], [1, 3], [0, 3]]), 4)
        with pytest.raises(ValueError, match="node 2"):
            walks.srw_runs(csr, 0, [(3, 200, np.random.default_rng(0))])
