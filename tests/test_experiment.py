"""Tests for the Spark-parallel Monte-Carlo harness."""
import hashlib

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


# sha256 of run_sampler(ctx, sampler, k=40, n_sims=6) on the ``ctx``
# fixture, estimates in sorted algorithm order as float64 bytes.
PINNED_ESTIMATES = {
    "NS": "6b9949bfd526b56cf2032e028b3f9389ab766a2efb12dac0eb450c28b69de477",
    "NE": "c4d1afe5c5cfe206d217e01573e777d7543dc885eafe787849cdc187cef13638",
    "EX-RW": "3134e96c73b9811f44d2a3cde99bd5f1e1596f710292a76366fbd28e16ab712e",
    "EX-MHRW": "a2ce067836375f2bfdb15d47fb4227cc2929b4f3e92d305e1426759b6761e7cf",
    "EX-MDRW": "080f3b83541d8ce14c8b6c68ae24e9aad98004676a976544eda9866993cf99f8",
    "EX-RCMH": "a81d52ac1338c0dee44fc2f4a64bf30c01812ede5d738947c6b4f616367b8914",
    "EX-GMD": "8a98945157c1993ce1d6eaf68f1de170a7dde4651411afcb87a5cccff6e6ae87",
}


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

    def test_dtypes(self, ctx):
        g, c = ctx
        assert c["edge_ind"].dtype == bool
        assert c["edge_ind"].sum() == H.brute_force_f(g, 1, 2)
        assert c["degrees"] is c["csr"].degrees

    def test_graph_arrays_built_once_per_graph(self):
        g = H.small_random(80, 6, seed=62)
        a = ex.build_context(g, (1, 2), burnin=10)
        b = ex.build_context(g, (2, 3), burnin=20)
        for k in ex.GRAPH_KEYS:
            assert a[k] is b[k], k
        assert (a["edge_ind"] != b["edge_ind"]).any()
        assert (a["burnin"], b["burnin"]) == (10, 20)
        # Another graph gets its own arrays, and the first is rebuilt equal.
        other = ex.build_context(H.small_random(90, 6, seed=63), (1, 2), burnin=10)
        assert other["csr"] is not a["csr"]
        again = ex.build_context(g, (1, 2), burnin=10)
        assert again["csr"] is not a["csr"]
        assert (again["line_deg"] == a["line_deg"]).all()


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

    @pytest.mark.parametrize("sampler", ex.SAMPLERS)
    def test_estimates_pinned(self, ctx, sampler):
        """Estimates are bit-identical to the recorded ones: a change to
        any random draw, step or estimator fails here."""
        g, c = ctx
        out = ex.run_sampler(c, sampler, 40, 6,
                             np.random.default_rng([9, ex.SAMPLERS.index(sampler)]))
        raw = b"".join(np.ascontiguousarray(out[a], dtype=np.float64).tobytes()
                       for a in sorted(out))
        assert hashlib.sha256(raw).hexdigest() == PINNED_ESTIMATES[sampler]

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
        the benchmark's serial replay of the same seeded units, so the
        replay cannot drift from the harness (the last chunk is partial,
        and there are more units than cores)."""
        from perfbench import replay

        g, c = ctx
        fracs, samplers, seed = (0.02, 0.05), ["NS", "NE", "EX-RW"], 4
        got = ex.simulate_all(spark, c, fracs, n_sims=7, seed=seed, chunk=3,
                              samplers=samplers).toPandas()
        want = []
        for t in replay.tasks(c["n_nodes"], 7, 3, fracs, samplers):
            for alg, vec in ex.run_sampler(c, t.sampler, t.k, t.n,
                                           replay.task_rng(seed, t)).items():
                want += [(alg, t.frac, t.k, t.sim0 + i, e) for i, e in enumerate(vec)]
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

    @staticmethod
    def _rows(spark, c):
        est = ex.simulate_all(spark, c, (0.05,), n_sims=4, seed=5, chunk=2,
                              samplers=["NS", "EX-RW"]).toPandas()
        return est.sort_values(["algorithm", "sim"]).reset_index(drop=True)

    @staticmethod
    def _spy_broadcasts(spark, monkeypatch) -> list:
        """Record the value of every broadcast the SparkContext makes."""
        sc = spark.sparkContext
        made, real = [], sc.broadcast
        monkeypatch.setattr(sc, "broadcast", lambda v: made.append(v) or real(v))
        return made

    def test_one_graph_broadcast_per_graph(self, spark, monkeypatch):
        c = ex.build_context(H.small_random(120, 6, seed=64), (1, 2), burnin=20)
        made = self._spy_broadcasts(spark, monkeypatch)
        a = self._rows(spark, c)
        b = self._rows(spark, c)
        pd.testing.assert_frame_equal(a, b, check_exact=True)
        assert sum("csr" in v for v in made) == 1
        assert all("edge_ind" in v for v in made if "csr" not in v)

    def test_graph_switch_keeps_rows(self, spark, monkeypatch):
        """A, then B, then A again: B's broadcast replaces A's, and A's
        rows come back identical from a fresh broadcast."""
        ca = ex.build_context(H.small_random(120, 6, seed=65), (1, 2), burnin=20)
        cb = ex.build_context(H.small_random(150, 6, seed=66), (1, 2), burnin=20)
        made = self._spy_broadcasts(spark, monkeypatch)
        first = self._rows(spark, ca)
        other = self._rows(spark, cb)
        again = self._rows(spark, ca)
        pd.testing.assert_frame_equal(first, again, check_exact=True)
        assert not first["est"].equals(other["est"])
        shipped = [v["csr"] for v in made if "csr" in v]
        assert [id(x) for x in shipped] == [id(ca["csr"]), id(cb["csr"]), id(ca["csr"])]

    def test_new_context_broadcasts_again(self, ctx, monkeypatch):
        """The graph broadcast is reused only on the SparkContext that
        made it, and destroyed only when that context moves on to
        another graph."""
        class Bc:
            destroyed = False

            def destroy(self):
                self.destroyed = True

        class Sc:
            def broadcast(self, value):
                return Bc()

        monkeypatch.setattr(ex, "_graph_bcast", None)
        g, c = ctx
        other = ex.build_context(H.small_random(60, 5, seed=67), (1, 2), burnin=10)
        sc1, sc2 = Sc(), Sc()
        b1 = ex._broadcast_graph(sc1, c)
        assert ex._broadcast_graph(sc1, c) is b1
        b2 = ex._broadcast_graph(sc2, c)
        assert b2 is not b1 and not b1.destroyed
        b3 = ex._broadcast_graph(sc2, other)
        assert b2.destroyed and b3 is not b2

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
