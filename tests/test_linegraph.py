"""Unit tests for the implicit line-graph substrate."""
import numpy as np
import pytest

from repro.baselines import ex_algorithms as ex
from repro.baselines import linegraph as lg
from repro.core import walks
from tests import _helpers as H


@pytest.fixture(scope="module")
def small():
    g = H.small_random(40, 5, seed=8)
    return g, H.csr_of(g)


class TestLineDegrees:
    @pytest.mark.parametrize("g", [H.triangle(), H.path4(), H.star(5),
                                   H.small_random(30, 5, 1)],
                             ids=["triangle", "path4", "star", "random"])
    def test_matches_brute_force(self, g):
        csr = H.csr_of(g)
        ld = lg.line_degrees(csr)
        for eid in range(csr.n_edges):
            assert ld[eid] == len(H.brute_force_line_neighbors(g, eid)), eid

    def test_triangle_all_two(self):
        ld = lg.line_degrees(H.csr_of(H.triangle()))
        assert (ld == 2).all()

    def test_star_complete_line_graph(self):
        # line graph of a star is a complete graph
        ld = lg.line_degrees(H.csr_of(H.star(6)))
        assert (ld == 5).all()


class _FixedDraw:
    """``walks.Draws`` stub whose ``integers`` always returns ``r``."""

    def __init__(self, r):
        self.r = r

    def integers(self, high):
        assert (self.r < high).all()
        return np.full(np.shape(high), self.r)


class TestUniformNeighbor:
    @pytest.mark.parametrize("g", [H.triangle(), H.path4(), H.star(5),
                                   H.small_random(30, 5, 1)],
                             ids=["triangle", "path4", "star", "random"])
    def test_draw_maps_one_to_one_onto_line_neighbors(self, g):
        """From every arc, draws r = 0..deg'-1 reach each G'-neighbor of
        the arc's edge exactly once — so a uniform r is a uniform step."""
        csr = H.csr_of(g)
        ld = lg.line_degrees(csr)
        for a in range(csr.n_arcs):
            eid = int(csr.edge_ids[a])
            reached = [int(csr.edge_ids[lg.lg_uniform_neighbor(
                csr, np.array([a]), _FixedDraw(r))[0]]) for r in range(ld[eid])]
            assert len(reached) == len(set(reached)), a
            assert set(reached) == H.brute_force_line_neighbors(g, eid), a

    def test_neighbor_is_adjacent_edge(self, small):
        g, csr = small
        rng = np.random.default_rng(0)
        arcs = lg.uniform_start_arcs(csr, 300, rng)
        new = lg.lg_uniform_neighbor(csr, arcs, H.draws(rng, 300))
        for a, b in zip(arcs, new):
            e1 = int(csr.edge_ids[a])
            e2 = int(csr.edge_ids[b])
            assert e2 != e1
            assert e2 in H.brute_force_line_neighbors(g, e1)

    def test_exactly_uniform(self):
        """Empirical transition distribution from one fixed edge matches
        the uniform distribution over its line-graph neighbors."""
        g = H.small_random(20, 5, seed=4)
        csr = H.csr_of(g)
        a0 = 0
        eid0 = int(csr.edge_ids[a0])
        nbrs = H.brute_force_line_neighbors(g, eid0)
        rng = np.random.default_rng(1)
        n = 40000
        arcs = np.full(n, a0)
        new = lg.lg_uniform_neighbor(csr, arcs, H.draws(rng, n))
        counts = np.bincount(csr.edge_ids[new], minlength=csr.n_edges)
        assert set(np.flatnonzero(counts)) == nbrs
        p = counts[sorted(nbrs)] / n
        assert np.abs(p - 1 / len(nbrs)).max() < 5 * np.sqrt(1 / len(nbrs) / n) + 0.01


# Each chain's stationary law pi' (up to normalization), from its (beta,
# C) row: ∝ max(deg', C) · deg'^(beta-1).
STATIONARY = {
    "EX-RW": lambda d, m: d,
    "EX-MHRW": lambda d, m: np.ones_like(d),
    "EX-RCMH": lambda d, m: d ** (1 - ex.ALPHA),
    "EX-MDRW": lambda d, m: np.ones_like(d),
    "EX-GMD": lambda d, m: np.maximum(d, ex.DELTA * m),
}


class TestStep:
    @pytest.mark.parametrize("name", list(ex.CHAINS))
    def test_stationary_law(self, small, name):
        """Visit frequencies after burn-in match the chain's pi'. The
        total-variation bound sits at ~2x the sampling noise and below
        the distance between any two distinct laws of the five (≥ 0.04
        here), so a chain walking toward another chain's law fails."""
        g, csr = small
        ld = lg.line_degrees(csr)
        beta, c = ex.CHAINS[name]
        cap = np.full(1000, c * float(ld.max()))
        beta = np.full(1000, beta)
        rng = np.random.default_rng(2)
        arcs = lg.uniform_start_arcs(csr, 1000, rng)
        draws = H.draws(rng, 1000)
        for _ in range(300):
            arcs = lg.lg_step(csr, arcs, draws, ld, beta, cap)
        counts = np.zeros(csr.n_edges)
        for _ in range(300):
            arcs = lg.lg_step(csr, arcs, draws, ld, beta, cap)
            counts += np.bincount(csr.edge_ids[arcs], minlength=csr.n_edges)
        pi = STATIONARY[name](ld.astype(float), float(ld.max()))
        assert 0.5 * np.abs(counts / counts.sum() - pi / pi.sum()).sum() < 0.025

    @pytest.mark.parametrize("name", list(ex.CHAINS))
    def test_draws_only_what_it_uses(self, small, name):
        """One step makes exactly three draw calls, and equals its
        explicit composition over those calls' uniforms u0, u1, u2: a
        move test on u0 iff C > 0, the proposal ⌊u1·deg'⌋, then an
        acceptance test on u2 iff beta != 1."""
        g, csr = small
        ld = lg.line_degrees(csr)
        beta, c = ex.CHAINS[name]
        cap = c * float(ld.max())
        arcs = lg.uniform_start_arcs(csr, 300, np.random.default_rng(3))
        draws = H.draws(np.random.default_rng(4), 300)
        got = lg.lg_step(csr, arcs, draws, ld, np.full(300, beta), np.full(300, cap))
        assert draws.calls == 3
        u0, u1, u2 = walks.uniforms(draws.keys, np.arange(3))
        de = ld[csr.edge_ids[arcs]].astype(float)
        move = np.ones(arcs.shape, dtype=bool)
        if cap > 0:
            move &= u0 < de / np.maximum(de, cap)
        prop = np.array([lg.lg_uniform_neighbor(
            csr, arcs[i:i + 1], _FixedDraw(int(u1[i] * max(de[i], 1))))[0]
            for i in range(arcs.size)])
        if beta != 1:
            df = ld[csr.edge_ids[prop]].astype(float)
            move &= u2 < (df / de) ** (beta - 1)
        assert (got == np.where(move, prop, arcs)).all()


class TestMHAndCapped:
    def test_mh_beta_one_is_srw(self, small):
        """beta=1, C=0 (EX-RW) always moves to the uniform proposal."""
        g, csr = small
        ld = lg.line_degrees(csr)
        arcs = lg.uniform_start_arcs(csr, 50, np.random.default_rng(4))
        a = lg.lg_step(csr, arcs.copy(), H.draws(np.random.default_rng(5), 50), ld,
                       np.full(50, 1.0), np.full(50, 0.0))
        # lg_step's proposal is its second draw call, after the move uniform.
        draws = H.draws(np.random.default_rng(5), 50)
        draws.random(np.zeros(50, dtype=bool))
        b = lg.lg_uniform_neighbor(csr, arcs.copy(), draws)
        assert (csr.edge_ids[a] == csr.edge_ids[b]).all()

    def test_capped_self_loops_happen(self, small):
        g, csr = small
        ld = lg.line_degrees(csr)
        cap = float(ld.max())
        rng = np.random.default_rng(7)
        arcs = lg.uniform_start_arcs(csr, 200, rng)
        new = lg.lg_step(csr, arcs, H.draws(rng, 200), ld, np.full(200, 1.0),
                         np.full(200, cap))
        assert (csr.edge_ids[new] == csr.edge_ids[arcs]).any()
