"""Unit tests for the vectorized walk kernels."""
import numpy as np
import pytest

from repro.core import walks
from tests import _helpers as H


@pytest.fixture(scope="module")
def small():
    g = H.small_random(60, 6, seed=3)
    return g, H.csr_of(g)


class TestSRW:
    def test_step_moves_along_edges(self, small):
        g, csr = small
        rng = np.random.default_rng(0)
        pos = walks.uniform_starts(csr, 200, rng)
        new, arcs = walks.srw_step(csr, pos, rng)
        assert (csr.tails[arcs] == pos).all()
        assert (csr.indices[arcs] == new).all()

    def test_trajectory_shapes_and_validity(self, small):
        g, csr = small
        rng = np.random.default_rng(1)
        pos = walks.uniform_starts(csr, 10, rng)
        nodes, arcs = walks.srw_trajectory(csr, pos, 25, rng)
        assert nodes.shape == (10, 25) and arcs.shape == (10, 25)
        # consecutive nodes are adjacent (the arc connects them)
        prev = pos
        for t in range(25):
            assert (csr.tails[arcs[:, t]] == prev).all()
            assert (csr.indices[arcs[:, t]] == nodes[:, t]).all()
            prev = nodes[:, t]

    def test_stationary_distribution(self, small):
        """Long-run visit frequency ~ d(u)/2|E|."""
        g, csr = small
        rng = np.random.default_rng(2)
        nodes, _ = walks.srw_runs(csr, 120, 120, 600, rng)
        freq = np.bincount(nodes.ravel(), minlength=g.n) / nodes.size
        pi = csr.degrees / csr.degrees.sum()
        assert np.abs(freq - pi).max() < 0.01

    def test_deterministic_given_seed(self, small):
        _, csr = small
        a = walks.srw_trajectory(
            csr, walks.uniform_starts(csr, 5, np.random.default_rng(9)),
            10, np.random.default_rng(10))
        b = walks.srw_trajectory(
            csr, walks.uniform_starts(csr, 5, np.random.default_rng(9)),
            10, np.random.default_rng(10))
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
