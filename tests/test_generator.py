"""Unit tests for the labeled-OSN generator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generator as gen


def _is_connected(edges: np.ndarray, n: int) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


class TestBAEdges:
    @pytest.mark.parametrize("n,m", [(10, 2), (50, 3), (200, 5), (100, 22)])
    def test_edge_count(self, n, m):
        e = gen.ba_edges(n, m, seed=0)
        m0 = m + 1
        expected = m0 * (m0 - 1) // 2 + (n - m0) * m
        assert len(e) == expected

    @pytest.mark.parametrize("n,m", [(30, 2), (100, 4)])
    def test_connected(self, n, m):
        e = gen.ba_edges(n, m, seed=1)
        assert _is_connected(e, n)

    def test_min_degree_is_m(self):
        e = gen.ba_edges(100, 4, seed=2)
        d = np.bincount(e.ravel(), minlength=100)
        assert d.min() >= 4

    def test_canonical_and_unique(self):
        e = gen.ba_edges(80, 3, seed=3)
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)

    def test_deterministic(self):
        a = gen.ba_edges(60, 3, seed=7)
        b = gen.ba_edges(60, 3, seed=7)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = gen.ba_edges(60, 3, seed=7)
        b = gen.ba_edges(60, 3, seed=8)
        assert a.shape != b.shape or not (a == b).all()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gen.ba_edges(3, 5)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(8, 60), m=st.integers(1, 6))
    def test_property_connected_simple(self, n, m):
        if n <= m:
            return
        e = gen.ba_edges(n, m, seed=n * 31 + m)
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)
        assert _is_connected(e, n)

    def test_heavy_tail(self):
        """Preferential attachment: max degree far above the median."""
        e = gen.ba_edges(2000, 3, seed=5)
        d = np.bincount(e.ravel(), minlength=2000)
        assert d.max() > 8 * np.median(d)


class TestLabels:
    def test_zipf_skew(self):
        lab = gen.zipf_labels(50000, 100, alpha=1.2, seed=3)
        counts = np.bincount(lab, minlength=100)
        assert counts[0] > 10 * counts[50]
        assert lab.min() >= 0 and lab.max() < 100

    def test_degree_labels_buckets(self):
        d = np.array([1, 2, 3, 9, 27, 81])
        lab = gen.degree_labels(d, log_base=3.0)
        assert list(lab) == [0, 0, 1, 2, 3, 4]

    def test_degree_labels_monotone(self):
        d = np.arange(1, 500)
        lab = gen.degree_labels(d)
        assert (np.diff(lab) >= 0).all()


class TestCommunityGraph:
    def test_shapes_and_cliques(self):
        e, _ = gen.community_clique_graph(40, 4, 1, seed=0)
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)
        # every intra-community pair of community 0 present
        es = set(map(tuple, e))
        for i in range(10):
            for j in range(i + 1, 10):
                assert (i, j) in es

    def test_inter_edges_exist(self):
        e, _ = gen.community_clique_graph(40, 4, 2, seed=1)
        comm = e // 10
        assert (comm[:, 0] != comm[:, 1]).any()

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            gen.community_clique_graph(41, 4, 1)

    def test_connected(self):
        e, _ = gen.community_clique_graph(120, 12, 2, seed=2)
        assert _is_connected(e, 120)

    def test_deterministic(self):
        a, sa = gen.community_clique_graph(60, 6, 1, seed=9)
        b, sb = gen.community_clique_graph(60, 6, 1, seed=9)
        assert (a == b).all() and (sa == sb).all()


class TestCommunitySizes:
    def test_equal_when_no_spread(self):
        s = gen.community_sizes(100, 10, 0.0)
        assert (s == 10).all()

    def test_sum_and_min_with_spread(self):
        s = gen.community_sizes(4000, 165, 0.8, seed=4)
        assert s.sum() == 4000
        assert s.min() >= 3

    def test_spread_increases_variance(self):
        flat = gen.community_sizes(1000, 20, 0.0)
        wide = gen.community_sizes(1000, 20, 1.0, seed=5)
        assert wide.std() > flat.std()

    def test_deterministic(self):
        a = gen.community_sizes(500, 17, 0.7, seed=6)
        b = gen.community_sizes(500, 17, 0.7, seed=6)
        assert (a == b).all()

    def test_rejects_indivisible_without_spread(self):
        with pytest.raises(ValueError):
            gen.community_sizes(101, 10, 0.0)


class TestVariableCliqueGraph:
    def test_connected_and_simple(self):
        e, _ = gen.community_clique_graph(300, 15, 2, seed=3, size_spread=0.8)
        assert _is_connected(e, 300)
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)

    def test_degree_heterogeneity(self):
        eq, _ = gen.community_clique_graph(400, 20, 1, seed=4)
        var, _ = gen.community_clique_graph(400, 20, 1, seed=4, size_spread=1.0)

        def deg_cv(e, n):
            d = np.bincount(e.ravel(), minlength=n).astype(float)
            return d.std() / d.mean()

        assert deg_cv(var, 400) > 2 * deg_cv(eq, 400)

    def test_labels_with_sizes(self):
        _, sizes = gen.community_clique_graph(200, 8, 1, seed=5, size_spread=0.8)
        assert (sizes == gen.community_sizes(200, 8, 0.8, seed=5)).all()
        lab = gen.community_majority_labels(sizes, mu=0.0, seed=5)
        start = 0
        for s in sizes:
            block = lab[start:start + int(s)]
            assert len(set(block)) == 1
            start += int(s)


class TestCommunityLabels:
    def test_pure_communities_when_mu_zero(self):
        lab = gen.community_majority_labels(np.full(10, 10), mu=0.0, seed=0)
        for c in range(10):
            block = lab[c * 10:(c + 1) * 10]
            assert len(set(block)) == 1

    def test_flip_rate(self):
        lab = gen.community_majority_labels(np.full(10, 10000), mu=0.3, seed=1)
        maj = [np.bincount(lab[c * 10000:(c + 1) * 10000]).argmax() for c in range(10)]
        minority = np.mean(
            [
                (lab[c * 10000:(c + 1) * 10000] != maj[c]).mean()
                for c in range(10)
            ]
        )
        assert abs(minority - 0.3) < 0.02


class TestSocialGraph:
    # Explicit ids keep per-test results comparable over time.
    @pytest.mark.parametrize("scheme,kw", [
        pytest.param("zipf", {"m": 3, "n_labels": 20, "alpha": 1.1},
                     id="zipf-kw1"),
        pytest.param("degree", {"m": 3}, id="degree-kw2"),
        pytest.param("community_gender",
                     {"n_comm": 10, "inter_m": 1, "mu": 0.2},
                     id="community_gender-kw3"),
    ])
    def test_schemes(self, scheme, kw):
        g = gen.social_graph(100, scheme, seed=5, **kw)
        assert g.n == 100
        assert g.labels.shape == (100,)
        assert g.n_edges > 0
        assert g.degrees.sum() == 2 * g.n_edges

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            gen.social_graph(50, "nope", m=3)

    @pytest.mark.parametrize("scheme,kw", [
        ("community_gender", {"n_comm": 10, "m": 3}),
        ("community_gender", {"n_comm": 10, "mu_conc": 1.0}),
        ("zipf", {"m": 3, "n_label": 5}),
        ("degree", {"m": 3, "n_labels": 5}),
    ])
    def test_rejects_keywords_the_scheme_ignores(self, scheme, kw):
        with pytest.raises(TypeError):
            gen.social_graph(100, scheme, seed=1, **kw)

    def test_degree_scheme_uses_graph_degrees(self):
        g = gen.social_graph(200, "degree", seed=7, m=4)
        expected = gen.degree_labels(g.degrees)
        assert (g.labels == expected).all()
