"""Tests for the Spark-parallel Monte-Carlo harness."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.generator import LabeledGraph
from repro.harness import experiment as ex
from repro.harness.nrmse import nrmse_agg
from tests import _helpers as H


@pytest.fixture(scope="module")
def ctx():
    g = H.small_random(200, 8, seed=60)
    return g, ex.build_context(g, (1, 2), burnin=80)


class TestContext:
    def test_truth_consistent(self, ctx):
        g, c = ctx
        assert c["F"] == H.brute_force_f(g, 1, 2)
        assert c["n_edges"] == g.n_edges
        assert (c["t_counts"] == H.brute_force_t(g, 1, 2)).all()

    def test_has_target(self, ctx):
        g, c = ctx
        expected = (g.labels == 1) | (g.labels == 2)
        assert (c["has_target"] == expected).all()

    def test_same_label_pair_target(self):
        g = H.small_random(50, 5, seed=61)
        c = ex.build_context(g, (2, 2), burnin=10)
        assert (c["has_target"] == (g.labels == 2)).all()

    def test_rejects_isolated_node(self):
        g = LabeledGraph(4, np.array([[0, 1], [1, 2]]), np.array([1, 2, 1, 2]))
        with pytest.raises(ValueError, match="isolated"):
            ex.build_context(g, (1, 2), burnin=10)

    def test_rejects_zero_target_edges(self):
        # path4 is labelled 1,2,1,2: no edge joins two 1s
        with pytest.raises(ValueError, match="no edge"):
            ex.build_context(H.path4(), (1, 1), burnin=10)


class TestRunSampler:
    @pytest.mark.parametrize("sampler", ex.SAMPLERS)
    def test_outputs(self, ctx, sampler):
        g, c = ctx
        out = ex.run_sampler(c, sampler, k=30, n_sims=8,
                             rng=np.random.default_rng(0))
        for alg, est in out.items():
            assert est.shape == (8,)
            assert np.isfinite(est).all(), alg

    def test_all_ten_algorithms_covered(self, ctx):
        g, c = ctx
        algs = set()
        for s in ex.SAMPLERS:
            algs |= set(ex.run_sampler(c, s, 10, 2, np.random.default_rng(1)))
        assert algs == set(ex.ALGORITHM_ORDER)

    @pytest.mark.parametrize("sampler", ["NS", "NE", "EX-RW"])
    def test_deterministic(self, ctx, sampler):
        g, c = ctx
        a = ex.run_sampler(c, sampler, 15, 4, np.random.default_rng(3))
        b = ex.run_sampler(c, sampler, 15, 4, np.random.default_rng(3))
        for alg in a:
            assert (a[alg] == b[alg]).all()

    def test_estimates_near_truth(self, ctx):
        g, c = ctx
        out = {}
        for s in ex.SAMPLERS:
            out.update(ex.run_sampler(c, s, 150, 120, np.random.default_rng(4)))
        for alg, est in out.items():
            rel = 0.6 if alg in ("EX-MDRW", "EX-GMD") else 0.25
            assert est.mean() == pytest.approx(c["F"], rel=rel), alg


class TestSimulateAll:
    def test_row_counts(self, spark, ctx):
        g, c = ctx
        est = ex.simulate_all(
            spark, c, sample_fracs=(0.02, 0.05), n_sims=6, seed=0, chunk=3,
            samplers=["NS", "NE"],
        ).toPandas()
        # NS yields 2 algorithms, NE yields 3 -> 5 algs * 2 fracs * 6 sims
        assert len(est) == 5 * 2 * 6
        assert set(est["algorithm"]) == {
            a for a in ex.ALGORITHM_ORDER if not a.startswith("EX-")
        }
        assert est["est"].notna().all()

    def test_nrmse_agg_matches_numpy(self, spark, ctx):
        g, c = ctx
        est = ex.simulate_all(
            spark, c, sample_fracs=(0.05,), n_sims=8, seed=1, chunk=4,
            samplers=["NS"],
        )
        agg = nrmse_agg(est, float(c["F"]), ["algorithm"]).toPandas()
        pdf = est.toPandas()
        for r in agg.itertuples():
            vals = pdf[pdf["algorithm"] == r.algorithm]["est"].to_numpy()
            expected = np.sqrt(np.mean((vals - c["F"]) ** 2)) / c["F"]
            assert r.nrmse == pytest.approx(expected)
            assert r.n_sims == 8

    def test_chunking_invariant(self, spark, ctx):
        """One chunk layout run twice gives the same estimates. Seeding
        is per chunk index, so different chunk sizes draw differently."""
        g, c = ctx
        a = ex.simulate_all(spark, c, (0.05,), n_sims=12, seed=2, chunk=12,
                            samplers=["NS"]).toPandas()
        b = ex.simulate_all(spark, c, (0.05,), n_sims=12, seed=2, chunk=12,
                            samplers=["NS"]).toPandas()
        pa = a.sort_values(["algorithm", "sim"])["est"].to_numpy()
        pb = b.sort_values(["algorithm", "sim"])["est"].to_numpy()
        assert (pa == pb).all()

    def test_matches_driver_loop(self, spark, ctx):
        """Packing units into Spark tasks changes no estimate: rows equal
        a driver-side run_sampler loop over the same seeded units (the
        last chunk is partial, and there are more units than cores)."""
        g, c = ctx
        fracs, samplers, seed = (0.02, 0.05), ["NS", "NE", "EX-RW"], 4
        got = ex.simulate_all(spark, c, fracs, n_sims=7, seed=seed, chunk=3,
                              samplers=samplers).toPandas()
        want = []
        for s_idx, sampler in enumerate(samplers):
            for f_idx, frac in enumerate(fracs):
                k = max(1, int(round(frac * c["n_nodes"])))
                for c_idx, (sim0, n) in enumerate([(0, 3), (3, 3), (6, 1)]):
                    rng = np.random.default_rng([seed, s_idx, f_idx, c_idx])
                    for alg, vec in ex.run_sampler(c, sampler, k, n, rng).items():
                        want += [(alg, frac, k, sim0 + i, e)
                                 for i, e in enumerate(vec)]
        want = pd.DataFrame(want, columns=list(got.columns))
        by = ["algorithm", "frac", "sim"]
        got = got.sort_values(by).reset_index(drop=True)
        want = want.sort_values(by).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    @pytest.mark.parametrize("grid", [
        dict(sample_fracs=ex.DEFAULT_FRACS, n_sims=20, chunk=3),
        dict(sample_fracs=(0.05,), n_sims=2, chunk=3, samplers=["NS"]),
    ], ids=["large_grid", "single_unit"])
    def test_at_most_one_task_per_core(self, spark, ctx, grid):
        g, c = ctx
        est = ex.simulate_all(spark, c, seed=0, **grid)
        n_parts = est.rdd.getNumPartitions()
        assert 1 <= n_parts <= spark.sparkContext.defaultParallelism

    @pytest.mark.parametrize("bad, match", [
        (dict(n_sims=0), "n_sims"),
        (dict(sample_fracs=()), "sample_fracs"),
        (dict(samplers=["NS", "EX-XX"]), "EX-XX"),
    ], ids=["no_sims", "no_fracs", "unknown_sampler"])
    def test_rejects_bad_input_on_driver(self, spark, ctx, bad, match):
        g, c = ctx
        # Raised by the call itself, before any Spark action.
        with pytest.raises(ValueError, match=match):
            ex.simulate_all(spark, c, **{"n_sims": 4, **bad})


class TestNRMSETable:
    def test_shape_and_attrs(self, spark, ctx):
        g, c = ctx
        t = ex.nrmse_table(
            spark, g, (1, 2), burnin=40, sample_fracs=(0.02, 0.05),
            n_sims=6, seed=3, chunk=3,
        )
        assert list(t.columns) == [0.02, 0.05]
        assert list(t.index) == ex.ALGORITHM_ORDER
        assert t.attrs["F"] == c["F"]
        assert (t.to_numpy() >= 0).all()
