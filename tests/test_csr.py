"""Unit tests for the CSR adjacency + arc indexes."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSR, build_csr, edge_indicator, t_counts
from repro.graphs.generator import social_graph
from tests import _helpers as H


def _check_invariants(csr, g):
    n_arcs = csr.n_arcs
    arcs = np.arange(n_arcs)
    assert n_arcs == 2 * csr.n_edges
    assert csr.n_edges == len(g.edges)
    # rev is an involution that swaps the endpoints of one undirected edge.
    tails = csr.indices[csr.rev]
    assert (csr.rev[csr.rev] == arcs).all()
    assert (csr.rev != arcs).all()
    assert (csr.tails == tails).all()
    # every arc lies inside its tail's adjacency block
    assert (csr.indptr[tails] <= arcs).all()
    assert (arcs < csr.indptr[tails + 1]).all()
    # edge ids come in pairs, one per direction, naming the arc's edge
    assert (csr.edge_ids[csr.rev] == csr.edge_ids).all()
    assert (np.bincount(csr.edge_ids, minlength=csr.n_edges) == 2).all()
    ends = np.sort(np.stack([tails, csr.indices], axis=1), axis=1)
    assert (ends == np.sort(g.edges, axis=1)[csr.edge_ids]).all()
    # degrees match endpoint counts
    d = np.bincount(np.asarray(g.edges).ravel(), minlength=csr.n)
    assert (csr.degrees == d).all()


class TestBuildCSR:
    @pytest.mark.parametrize("g", [H.triangle(), H.path4(), H.star(6),
                                   H.small_random(40, 4, 1)],
                             ids=["triangle", "path4", "star", "random"])
    def test_invariants(self, g):
        _check_invariants(H.csr_of(g), g)

    def test_stores_five_fields(self):
        names = [f.name for f in dataclasses.fields(CSR)]
        assert names == ["n", "indptr", "indices", "edge_ids", "rev"]

    def test_arc_arrays_int64(self):
        csr = H.csr_of(H.small_random(40, 4, 1))
        for a in (csr.indptr, csr.indices, csr.edge_ids, csr.rev):
            assert a.dtype == np.int64

    def test_degrees_computed_once(self):
        g = H.small_random(40, 4, 1)
        csr = H.csr_of(g)
        assert csr.degrees is csr.degrees
        assert (csr.degrees == np.bincount(g.edges.ravel(), minlength=g.n)).all()

    def test_neighbors_triangle(self):
        csr = H.csr_of(H.triangle())
        assert sorted(csr.neighbors(0).tolist()) == [1, 2]
        assert sorted(csr.neighbors(1).tolist()) == [0, 2]

    def test_neighbors_star(self):
        csr = H.csr_of(H.star(5))
        assert sorted(csr.neighbors(0).tolist()) == [1, 2, 3, 4, 5]
        assert csr.neighbors(3).tolist() == [0]

    def test_arc_of(self):
        csr = H.csr_of(H.path4())
        a = csr.arc_of(1, 2)
        assert csr.tails[a] == 1 and csr.indices[a] == 2
        with pytest.raises(KeyError):
            csr.arc_of(0, 3)

    def test_isolated_node_ok(self):
        # node 3 exists but has no edges
        edges = np.array([[0, 1], [1, 2]])
        csr = build_csr(edges, 4)
        assert csr.degrees.tolist() == [1, 2, 1, 0]
        assert csr.neighbors(3).size == 0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 40), seed=st.integers(0, 1000))
    def test_property_invariants(self, n, seed):
        g = H.small_random(n, 4, seed)
        _check_invariants(H.csr_of(g), g)

    def test_on_generated_graph(self):
        g = social_graph(300, "degree", seed=3, m=5)
        _check_invariants(H.csr_of(g), g)


class TestEdgeIndicator:
    @pytest.mark.parametrize("g,t1,t2", [
        (H.triangle(), 1, 2), (H.path4(), 1, 2), (H.star(5), 1, 2),
        (H.small_random(50, 5, 2), 1, 2), (H.small_random(50, 5, 2), 2, 3),
    ])
    def test_matches_brute_force(self, g, t1, t2):
        ind = edge_indicator(g.edges, g.labels, t1, t2)
        assert ind.sum() == H.brute_force_f(g, t1, t2)

    def test_symmetric_in_pair(self):
        g = H.small_random(50, 5, 4)
        a = edge_indicator(g.edges, g.labels, 1, 2)
        b = edge_indicator(g.edges, g.labels, 2, 1)
        assert (a == b).all()

    def test_equal_labels_pair(self):
        g = H.small_random(50, 5, 5)
        ind = edge_indicator(g.edges, g.labels, 2, 2)
        assert ind.sum() == H.brute_force_f(g, 2, 2)

    def test_no_match(self):
        g = H.triangle()
        assert edge_indicator(g.edges, g.labels, 5, 6).sum() == 0

    def test_star_counts(self):
        g = H.star(5)  # hub 1, leaves 2 -> every edge is a (1,2) edge
        assert edge_indicator(g.edges, g.labels, 1, 2).sum() == 5
        assert edge_indicator(g.edges, g.labels, 2, 2).sum() == 0


class TestTCounts:
    @pytest.mark.parametrize("t1,t2", [(1, 2), (2, 3), (1, 1)])
    def test_matches_brute_force(self, t1, t2):
        g = H.small_random(60, 6, 6)
        t = t_counts(g.edges, g.labels, g.n, t1, t2)
        assert (t == H.brute_force_t(g, t1, t2)).all()

    def test_sum_is_twice_f(self):
        g = H.small_random(80, 6, 7)
        f = edge_indicator(g.edges, g.labels, 1, 2).sum()
        t = t_counts(g.edges, g.labels, g.n, 1, 2)
        assert t.sum() == 2 * f

    def test_star(self):
        g = H.star(4)
        t = t_counts(g.edges, g.labels, g.n, 1, 2)
        assert t[0] == 4 and (t[1:] == 1).all()

    def test_nonzero_only_on_target_labeled_nodes(self):
        g = H.small_random(60, 6, 8)
        t = t_counts(g.edges, g.labels, g.n, 1, 2)
        has = (g.labels == 1) | (g.labels == 2)
        assert (t[~has] == 0).all()
