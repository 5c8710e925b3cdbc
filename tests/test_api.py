"""Unit tests for the restricted-access OSN API + reference samplers."""
import numpy as np
import pytest

from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.graphs.csr import edge_indicator, t_counts
from repro.harness import datasets as ds
from repro.harness import experiment
from repro.osn import api as osn_api
from tests import _helpers as H


@pytest.fixture()
def api():
    g = H.small_random(50, 5, seed=20)
    csr = H.csr_of(g)
    return g, csr, osn_api.RestrictedGraphAPI(csr, g.labels)


class TestAPI:
    def test_neighbors_match_csr(self, api):
        g, csr, a = api
        for u in range(0, 50, 7):
            assert sorted(a.neighbors(u).tolist()) == sorted(csr.neighbors(u).tolist())

    def test_neighbor_call_counting(self, api):
        g, csr, a = api
        a.neighbors(0)
        a.neighbors(1)
        assert a.neighbor_calls == 2
        a.reset_counters()
        assert a.neighbor_calls == 0

    def test_profile_call_counting(self, api):
        """Own label and degree are free; exploring u costs exactly
        explore_cost(d(u)) profile-batch calls."""
        g, csr, a = api
        assert (a.label(3), a.degree(3)) == (g.labels[3], csr.degrees[3])
        assert a.calls == 0
        assert a.explore(3).tolist() == g.labels[csr.neighbors(3)].tolist()
        assert a.profile_calls == a.calls == osn_api.explore_cost(csr.degrees[3])

    def test_degree_free(self, api):
        g, csr, a = api
        before = a.neighbor_calls
        assert a.degree(0) == csr.degrees[0]
        assert a.neighbor_calls == before

    def test_prior_knowledge(self, api):
        g, csr, a = api
        assert a.n_nodes == g.n
        assert a.n_edges == g.n_edges


class TestReferenceSamplers:
    def test_srw_path_valid(self, api):
        g, csr, a = api
        path = osn_api.simple_random_walk(a, 0, 30, np.random.default_rng(0))
        assert len(path) == 31
        for u, v in zip(path, path[1:]):
            assert v in csr.neighbors(u)
        assert a.neighbor_calls == 30

    def test_neighbor_sample_ref(self, api):
        g, csr, a = api
        edges = osn_api.neighbor_sample_ref(a, 20, 10, np.random.default_rng(1))
        assert len(edges) == 20
        for u, v in edges:
            assert v in csr.neighbors(u)
        # burn-in is not charged: k steps -> k API calls
        assert a.calls == a.neighbor_calls == 20

    def test_neighbor_exploration_ref_t_values(self, api):
        """T(u) recorded by the API-driven reference must equal the
        precomputed t_counts used by the vectorized engine."""
        g, csr, a = api
        sample, t_map = osn_api.neighbor_exploration_ref(
            a, 25, 10, 1, 2, np.random.default_rng(2))
        assert 1 <= len(sample) <= 25 and a.calls <= 25
        truth = t_counts(g.edges, g.labels, g.n, 1, 2)
        for u, t in t_map.items():
            assert t == truth[u], u

    def test_exploration_only_for_target_labels(self, api):
        g, csr, a = api
        sample, t_map = osn_api.neighbor_exploration_ref(
            a, 25, 10, 1, 2, np.random.default_rng(3))
        for u in t_map:
            assert g.labels[u] in (1, 2)

    def test_reference_hh_estimate_converges(self, api):
        """NS-HH built on the reference sampler lands near F (slow,
        sequential — small sizes only)."""
        g, csr, a = api
        ind = edge_indicator(g.edges, g.labels, 1, 2)
        rng = np.random.default_rng(4)
        ests = [g.n_edges * np.mean([ind[csr.edge_ids[csr.arc_of(u, v)]] for u, v in
                                     osn_api.neighbor_sample_ref(a, 40, 40, rng)])
                for _ in range(60)]
        assert np.mean(ests) == pytest.approx(ind.sum(), rel=0.15)


class TestEnginesMatchReference:
    """The vectorized engines, run with one walker, make the same random
    draws as the API-level references of Algorithms 1 and 2, so with the
    same seed they sample the same trajectory, and NE's budget cut, T(u)
    and estimates equal the reference's under the API's prices."""

    @pytest.fixture(scope="class")
    def graph(self):
        g = H.small_random(200, 8, seed=60)
        return g, H.csr_of(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_neighbor_sample(self, graph, seed):
        g, csr = graph
        api = osn_api.RestrictedGraphAPI(csr, g.labels)
        ref = osn_api.neighbor_sample_ref(api, 30, 20, np.random.default_rng(seed))
        eids = ns.sample_edges_batch(csr, 30, 20, 1, np.random.default_rng(seed))[0]
        assert eids.tolist() == [int(csr.edge_ids[csr.arc_of(u, v)]) for u, v in ref]

    @staticmethod
    def _check_ne(g, pair, budget, burnin, seed):
        ctx = experiment.build_context(g, pair, burnin)
        api = osn_api.RestrictedGraphAPI(ctx["csr"], g.labels)
        sample, t_map = osn_api.neighbor_exploration_ref(
            api, budget, burnin, *pair, np.random.default_rng(seed))
        assert api.calls <= budget or len(sample) == 1
        nodes, cut = ne.sample_nodes_budgeted(
            ctx["csr"], budget, burnin, 1, ctx["has_target"], ctx["explore_cost"],
            np.random.default_rng(seed))
        assert (cut[0], nodes[0, :cut[0]].tolist()) == (len(sample), sample)
        assert t_map == {u: ctx["t_counts"][u] for u in sample if ctx["has_target"][u]}
        # Eqs. 11, 13 and 19 on the reference's sample, through the API.
        n, d, m = len(sample), api.degree, api.n_edges
        t_over_d = sum(t_map.get(u, 0) / d(u) for u in sample)
        got = experiment.run_sampler(ctx, "NE", budget, 1, np.random.default_rng(seed))
        assert [got[f"NeighborExploration-{e}"][0] for e in ("HH", "HT", "RW")] == pytest.approx([
            m * t_over_d / n,
            0.5 * sum(t_map.get(u, 0) / (1 - (1 - d(u) / (2 * m)) ** n) for u in set(sample)),
            api.n_nodes * t_over_d / (2 * sum(1 / d(u) for u in sample)),
        ], rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_neighbor_exploration(self, graph, seed):
        for budget in (1, 5, 40):
            for pair in ((1, 2), (2, 2)):
                self._check_ne(graph[0], pair, budget, 20, seed)

    @pytest.mark.parametrize("budget", [20, 200])
    def test_neighbor_exploration_facebook(self, budget):
        for seed in range(3):
            self._check_ne(ds.load("facebook"), ds.target_pairs("facebook")[0],
                           budget, ds.SPECS["facebook"].burnin, seed)
