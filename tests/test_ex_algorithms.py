"""Unit tests for the EX-* baseline estimators."""
import numpy as np
import pytest

from repro.baselines import ex_algorithms as ex
from repro.baselines import linegraph as lg
from repro.baselines.linegraph import line_degrees
from repro.graphs.csr import edge_indicator
from tests import _helpers as H

# Ids keep the "<row>-ex_<row>" form the suite has always reported, so
# per-test results stay comparable over time.
ALL = [pytest.param(n, id=f"{n}-ex_{n[3:].lower()}") for n in ex.CHAINS]


@pytest.fixture(scope="module")
def setup():
    g = H.small_random(60, 6, seed=12)
    csr = H.csr_of(g)
    ld = line_degrees(csr)
    ind = edge_indicator(g.edges, g.labels, 1, 2)
    return g, csr, ld, ind, int(ind.sum())


def run(setup, name, k, burnin, n_sims, rng):
    g, csr, ld, ind, F = setup
    ids = ex.walk(csr, ld, name, k, burnin, n_sims, rng)
    return ex.estimate(name, ids, ld, ind, csr.n_edges)


class TestBaselines:
    @pytest.mark.parametrize("name", ALL)
    def test_shapes_and_finite(self, setup, name):
        est = run(setup, name, 20, 30, 9, np.random.default_rng(0))
        assert est.shape == (9,)
        assert np.isfinite(est).all()

    @pytest.mark.parametrize("name", ALL)
    def test_nearly_unbiased(self, setup, name):
        F = setup[-1]
        est = run(setup, name, 150, 120, 300, np.random.default_rng(1))
        # MDRW's self-loops make it very noisy; looser tolerance there
        rel = 0.3 if name in ("EX-MDRW", "EX-GMD") else 0.12
        assert est.mean() == pytest.approx(F, rel=rel), name

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic(self, setup, name):
        a = run(setup, name, 15, 10, 4, np.random.default_rng(5))
        b = run(setup, name, 15, 10, 4, np.random.default_rng(5))
        assert (a == b).all()

    def test_rcmh_alpha_zero_matches_rw(self, setup, monkeypatch):
        """alpha=0 makes RCMH the re-weighted RW: its weight is RW's,
        and its MH step (beta=1) accepts every proposal, so from the
        same seed one step moves exactly where the RW step does."""
        g, csr, ld, ind, F = setup
        monkeypatch.setitem(ex.CHAINS, "EX-RCMH", (1.0 - 0.0, 0.0))
        ids = np.random.default_rng(5).integers(0, csr.n_edges, size=(20, 30))
        assert np.allclose(ex.estimate("EX-RCMH", ids, ld, ind, csr.n_edges),
                           ex.estimate("EX-RW", ids, ld, ind, csr.n_edges))
        m = float(ld.max())
        (rc_beta, rc_c), (rw_beta, rw_c) = ex.CHAINS["EX-RCMH"], ex.CHAINS["EX-RW"]
        arcs = lg.uniform_start_arcs(csr, 200, np.random.default_rng(6))
        a = lg.lg_step(csr, arcs, np.random.default_rng(7), ld, rc_beta, rc_c * m)
        b = lg.lg_step(csr, arcs, np.random.default_rng(7), ld, rw_beta, rw_c * m)
        assert (a == b).all()

    def test_gmd_delta_one_is_mdrw(self, setup, monkeypatch):
        """delta=1 -> cap = max deg': identical kernel to EX-MDRW, and a
        constant weight, so the same estimates."""
        monkeypatch.setitem(ex.CHAINS, "EX-GMD", (1.0, 1.0))
        a = run(setup, "EX-GMD", 30, 20, 50, np.random.default_rng(8))
        b = run(setup, "EX-MDRW", 30, 20, 50, np.random.default_rng(8))
        assert np.allclose(a, b)

    def test_mdrw_noisier_than_mhrw(self, setup):
        """The paper's tables show EX-MDRW far worse than EX-MHRW —
        self-loops burn most of the budget."""
        F = setup[-1]
        rng = np.random.default_rng(9)
        md = run(setup, "EX-MDRW", 100, 60, 200, rng)
        mh = run(setup, "EX-MHRW", 100, 60, 200, rng)
        assert np.sqrt(np.mean((md - F) ** 2)) > np.sqrt(np.mean((mh - F) ** 2))


class TestEstimateFormulas:
    """Hand-checkable trajectory: 4 edges with deg' = 1, 2, 4, 8
    (max 8), the first and third are target edges, |E| = 10."""

    LD = np.array([1, 2, 4, 8])
    IND = np.array([1, 0, 1, 0])
    IDS = np.array([[0, 1, 2, 3], [2, 2, 3, 3]])

    def expected(self, name):
        d = self.LD[self.IDS].astype(float)
        i = self.IND[self.IDS]
        w = {
            "EX-RW": 1 / d,
            "EX-MHRW": np.ones_like(d),
            "EX-RCMH": d ** (ex.ALPHA - 1),
            "EX-MDRW": np.ones_like(d),
            "EX-GMD": 1 / np.maximum(d, ex.DELTA * 8),
        }[name]
        return 10 * (i * w).sum(axis=1) / w.sum(axis=1)

    @pytest.mark.parametrize("name", list(ex.CHAINS))
    def test_matches_row_formula(self, name):
        got = ex.estimate(name, self.IDS, self.LD, self.IND, 10)
        assert np.allclose(got, self.expected(name), rtol=1e-15)
