"""Unit tests for NeighborExploration sampling, budgeting and estimators."""
import numpy as np
import pytest

from repro.core import neighbor_exploration as ne
from repro.core import walks
from repro.graphs.csr import edge_indicator, t_counts
from repro.osn.api import explore_cost
from tests import _helpers as H


@pytest.fixture(scope="module")
def setup():
    g = H.small_random(80, 6, seed=9)
    csr = H.csr_of(g)
    ind = edge_indicator(g.edges, g.labels, 1, 2)
    t = t_counts(g.edges, ind, g.n)
    F = int(ind.sum())
    has = (g.labels == 1) | (g.labels == 2)
    cost = explore_cost(csr.degrees)
    return g, csr, t, F, has, cost


class TestExploreCost:
    def test_ceil_batches(self):
        d = np.array([1, 10, 11, 20, 21])
        assert explore_cost(d).tolist() == [1, 1, 2, 2, 3]

    def test_monotone(self):
        d = np.arange(1, 200)
        c = explore_cost(d)
        assert (np.diff(c) >= 0).all()


class TestBudgetCutoffs:
    def test_no_exploration_full_budget(self):
        nodes = np.array([[0, 1, 2, 3, 4]])
        has = np.zeros(5, dtype=bool)
        cost = np.ones(5, dtype=np.int64)
        assert ne.budget_cutoffs(nodes, has, cost, 5)[0] == 5

    def test_exploration_charged_once_per_node(self):
        nodes = np.array([[0, 0, 0, 0]])
        has = np.array([True])
        cost = np.array([2])
        # step costs: 3 (first visit), 1, 1, 1 -> cum 3,4,5,6
        assert ne.budget_cutoffs(nodes, has, cost, 5)[0] == 3

    def test_at_least_one_step(self):
        nodes = np.array([[0, 1]])
        has = np.array([True, True])
        cost = np.array([100, 100])
        assert ne.budget_cutoffs(nodes, has, cost, 1)[0] == 1

    def test_mixed_labels(self):
        nodes = np.array([[0, 1, 0, 2]])
        has = np.array([True, False, True])
        cost = np.array([3, 3, 3])
        # costs: 1+3, 1, 1 (0 already explored), 1+3 -> cum 4,5,6,10
        assert ne.budget_cutoffs(nodes, has, cost, 6)[0] == 3
        assert ne.budget_cutoffs(nodes, has, cost, 10)[0] == 4

    def test_budgeted_sampler_shapes(self, setup):
        g, csr, t, F, has, cost = setup
        nodes, n_steps = ne.sample_nodes_budgeted(
            csr, 40, 30, 6, has, cost, np.random.default_rng(0))
        assert nodes.shape == (6, 40)
        assert n_steps.shape == (6,)
        assert (n_steps >= 1).all() and (n_steps <= 40).all()

    def test_rare_labels_cost_little(self, setup):
        g, csr, t, F, has, cost = setup
        rare = np.zeros(g.n, dtype=bool)
        rare[:2] = True
        _, n_rare = ne.sample_nodes_budgeted(
            csr, 40, 30, 20, rare, cost, np.random.default_rng(1))
        _, n_all = ne.sample_nodes_budgeted(
            csr, 40, 30, 20, np.ones(g.n, bool), cost, np.random.default_rng(1))
        assert n_rare.mean() > n_all.mean()

    @pytest.mark.parametrize("budget", [1, 12, 60])
    def test_rows_cut_alone(self, setup, budget):
        """Each row of a batched cut and NE-HT equals that row alone."""
        g, csr, t, F, has, cost = setup
        nodes = csr.indices[walks.srw_runs(csr, 20, [(60, 30, np.random.default_rng(5))])[0]]
        cut = ne.budget_cutoffs(nodes, has, cost, budget)
        est = (t, csr.degrees, csr.n_edges)
        for row, c, h in zip(nodes, cut, ne.ht_estimate(nodes, *est, cut)):
            assert c == ne.budget_cutoffs(row[None], has, cost, budget)[0]
            assert h == pytest.approx(ne.ht_estimate(row[None], *est, c[None])[0], rel=1e-12)


class TestEstimators:
    def test_hh_by_hand(self, setup):
        g, csr, t, F, has, cost = setup
        nodes = np.array([[0, 1, 2]])
        d = csr.degrees
        expected = np.mean(csr.n_edges * t[[0, 1, 2]] / d[[0, 1, 2]])
        assert ne.hh_estimate(nodes, t, d, csr.n_edges, np.array([3]))[0] == pytest.approx(
            expected)

    def test_hh_respects_mask(self, setup):
        g, csr, t, F, has, cost = setup
        nodes = np.array([[0, 1, 2, 3]])
        full = ne.hh_estimate(nodes[:, :2], t, csr.degrees, csr.n_edges, np.array([2]))
        masked = ne.hh_estimate(nodes, t, csr.degrees, csr.n_edges,
                                n_steps=np.array([2]))
        assert masked[0] == pytest.approx(full[0])

    def test_ht_by_hand(self, setup):
        g, csr, t, F, has, cost = setup
        nodes = np.array([[5, 5, 7]])
        d = csr.degrees
        k = 3
        expected = 0.0
        for u in {5, 7}:
            pi = d[u] / (2 * csr.n_edges)
            expected += t[u] / (1 - (1 - pi) ** k)
        assert ne.ht_estimate(nodes, t, d, csr.n_edges, np.array([k]))[0] == pytest.approx(
            0.5 * expected)

    def test_ht_respects_mask(self, setup):
        g, csr, t, F, has, cost = setup
        nodes = np.array([[5, 6, 7, 8]])
        a = ne.ht_estimate(nodes, t, csr.degrees, csr.n_edges, np.array([2]))
        b = ne.ht_estimate(nodes[:, :2], t, csr.degrees, csr.n_edges, np.array([2]))
        assert a[0] == pytest.approx(b[0])

    def test_rw_by_hand(self, setup):
        g, csr, t, F, has, cost = setup
        nodes = np.array([[0, 1]])
        d = csr.degrees
        num = (t[0] / d[0] + t[1] / d[1])
        den = (1 / d[0] + 1 / d[1])
        assert ne.rw_estimate(nodes, t, d, g.n, np.array([2]))[0] == pytest.approx(
            g.n * num / (2 * den))

    @pytest.mark.parametrize("est,kw", [
        (ne.hh_estimate, {"n_edges": True}),
        (ne.rw_estimate, {"n_edges": False}),
    ])
    def test_nearly_unbiased(self, setup, est, kw):
        g, csr, t, F, has, cost = setup
        rng = np.random.default_rng(2)
        nodes = csr.indices[walks.srw_runs(csr, 120, [(80, 400, rng)])[0]]
        scale = csr.n_edges if kw["n_edges"] else g.n
        out = est(nodes, t, csr.degrees, scale, np.full(400, 80))
        assert out.mean() == pytest.approx(F, rel=0.1)

    def test_ht_nearly_unbiased(self, setup):
        g, csr, t, F, has, cost = setup
        rng = np.random.default_rng(3)
        nodes = csr.indices[walks.srw_runs(csr, 120, [(80, 400, rng)])[0]]
        out = ne.ht_estimate(nodes, t, csr.degrees, csr.n_edges, np.full(400, 80))
        assert out.mean() == pytest.approx(F, rel=0.2)
