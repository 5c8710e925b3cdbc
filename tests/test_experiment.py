"""Tests for the Spark-parallel Monte-Carlo harness."""
import hashlib

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.estimators import nrmse
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
    "NS": "b51eeb12b62f8e1e7fc8c4b68391ac2943169cf88c4ab959af20333753c91ad4",
    "NE": "b5300c9fbe46b20b8b75540c054e22de71690fdbe13b89cc472ab7672315e961",
    "EX-RW": "2811e8ffb38b9f868d2607a9cd4708db74e6d8c076b566612228cca34dd031b2",
    "EX-MHRW": "a6a2102a1dae603e47654beaf5e325eeeb6477f99c758ea20b37e16190c6045d",
    "EX-MDRW": "adf61b8e900b72b9aa7e02077ea0a4e62742209f4b92ccfd65535527a20b4d17",
    "EX-RCMH": "077cbb30d3252414c731641eea8133b1ab19001f340e0387aca9562cb3336607",
    "EX-GMD": "bbaa24b73bca1a316f8536d4f860c5884b00e8b58a722a67571d6965a28e2005",
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

    def test_rejects_negative_burnin(self, ctx):
        with pytest.raises(ValueError, match="burnin"):
            ex.build_context(ctx[0], (1, 2), burnin=-5)

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

    @pytest.mark.parametrize("layout", [
        [range(0, 21, 2), range(1, 21, 2)], [range(20, -1, -1)],
    ], ids=["two_batches", "reversed"])
    def test_packing_invariant(self, ctx, layout):
        """Units of every chain and length, with k = 1 among them, give
        the same estimates run as one batch, as two batches or in
        reversed order: each walker's draws depend only on its key and
        the batch's call counter."""
        g, c = ctx
        units = [(s, k, n) for s in ex.SAMPLERS for k, n in ((1, 2), (12, 3), (40, 5))]

        def run(idx):
            return dict(zip(idx, (e[0] for e in ex.run_samplers([c], [
                (*units[i], np.random.default_rng([7, i])) for i in idx]))))

        one = run(range(len(units)))
        other = {i: est for idx in layout for i, est in run(idx).items()}
        assert one.keys() == other.keys()
        for i, est in one.items():
            assert est.keys() == other[i].keys()
            for alg in est:
                assert (est[alg] == other[i][alg]).all(), (units[i], alg)

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
            spark, c, sample_fracs=(0.02, 0.05), n_sims=6, seed=0,
        ).toPandas()
        # 7 chains yield the 10 algorithms -> 10 algs * 2 fracs * 6 sims
        assert len(est) == 10 * 2 * 6
        assert set(est["algorithm"]) == set(ex.ALGORITHM_ORDER)
        assert est["est"].notna().all()

    def test_nrmse_agg_matches_numpy(self, spark, ctx):
        g, c = ctx
        est = ex.simulate_all(spark, c, sample_fracs=(0.05,), n_sims=8, seed=1)
        agg = nrmse_agg(est, float(c["F"]), ["algorithm"]).toPandas()
        pdf = est.toPandas()
        for r in agg.itertuples():
            vals = pdf[pdf["algorithm"] == r.algorithm]["est"].to_numpy()
            expected = np.sqrt(np.mean((vals - c["F"]) ** 2)) / c["F"]
            assert r.nrmse == pytest.approx(expected)
            assert r.n_sims == 8

    def test_matches_driver_loop(self, spark, ctx):
        """Packing units into Spark tasks, and batching each task's units,
        changes no estimate: rows equal the benchmark's serial replay of
        the same seeded units, one at a time, so the replay cannot drift
        from the harness. Every batch mixes chains and lengths (k = 1 at
        the first frac), each cell is two units of which the last is
        partial, there are more units than cores, and the walks run with
        and without burn-in."""
        from perfbench import replay

        fracs, seed, n_sims = (0.001, 0.02, 0.05), 4, ex.CHUNK + 2
        for burnin in (80, 0):
            c = ex.build_context(ctx[0], (1, 2), burnin=burnin)
            got = ex.simulate_all(spark, c, sample_fracs=fracs, n_sims=n_sims,
                                  seed=seed).toPandas()
            want = []
            for t in replay.tasks(c["n_nodes"], n_sims, ex.CHUNK, fracs):
                for alg, vec in ex.run_sampler(c, t.sampler, t.k, t.n,
                                               replay.task_rng(seed, t)).items():
                    want += [(0, alg, t.frac, t.k, t.sim0 + i, e) for i, e in enumerate(vec)]
            want = pd.DataFrame(want, columns=list(got.columns))
            by = ["algorithm", "frac", "sim"]
            got = got.sort_values(by).reset_index(drop=True)
            want = want.sort_values(by).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want, check_exact=True)

    @pytest.mark.parametrize("grid", [
        dict(sample_fracs=ex.DEFAULT_FRACS, n_sims=3 * ex.CHUNK),
        dict(sample_fracs=(0.05,), n_sims=2),
    ], ids=["large_grid", "single_unit"])
    def test_at_most_one_task_per_core(self, spark, ctx, grid):
        g, c = ctx
        est = ex.simulate_all(spark, c, seed=0, **grid)
        n_parts = est.rdd.getNumPartitions()
        assert 1 <= n_parts <= spark.sparkContext.defaultParallelism

    @staticmethod
    def _rows(spark, c):
        est = ex.simulate_all(spark, c, sample_fracs=(0.05,), n_sims=4, seed=5).toPandas()
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
        graphs = [v for v in made if isinstance(v, dict)]
        assert len(graphs) == 1 and "csr" in graphs[0]
        # One pair broadcast per call, holding the one context's arrays.
        assert [[("edge_ind" in p, "csr" in p) for p in v] for v in made if v not in graphs] == [
            [(True, False)]] * 2

    def test_one_pair_broadcast_per_job(self, spark, monkeypatch):
        """Three pairs on one graph: one job ships every pair's arrays in
        one broadcast, and each pair's rows carry its index."""
        g = H.small_random(120, 6, seed=64)
        cs = [ex.build_context(g, p, burnin=20) for p in [(1, 2), (2, 2), (1, 3)]]
        made = self._spy_broadcasts(spark, monkeypatch)
        est = ex.simulate_all(spark, *cs, sample_fracs=(0.05,), n_sims=4, seed=5).toPandas()
        pair_bcs = [v for v in made if isinstance(v, list)]
        assert len(pair_bcs) == 1
        assert [p["F"] for p in pair_bcs[0]] == [c["F"] for c in cs]
        assert est.groupby("pair").size().to_dict() == {0: 40, 1: 40, 2: 40}

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
        (dict(sample_fracs=(0.01, float("nan"))), "finite"),
        (dict(sample_fracs=(0.01, float("inf"))), "finite"),
        (dict(sample_fracs=(0.0, 0.05)), "> 0"),
        (dict(sample_fracs=(-0.01, 0.05)), "> 0"),
        (dict(sample_fracs=(0.05, 0.01, 0.05)), "repeated"),
    ], ids=["no_sims", "no_fracs", "nan_frac", "inf_frac", "zero_frac",
            "negative_frac", "repeated_frac"])
    def test_rejects_bad_input_on_driver(self, spark, ctx, bad, match):
        g, c = ctx
        # Raised by the call itself, before any Spark action.
        with pytest.raises(ValueError, match=match):
            ex.simulate_all(spark, c, **{"n_sims": 4, **bad})

    def test_rejects_no_context(self, spark, monkeypatch):
        made = self._spy_broadcasts(spark, monkeypatch)
        with pytest.raises(ValueError, match="takes contexts"):
            ex.simulate_all(spark, n_sims=4)
        assert made == []

    @pytest.mark.parametrize("other", ["graph", "burnin", "positional_fracs"])
    def test_rejects_contexts_not_sharing_graph_and_burnin(self, spark, ctx, monkeypatch, other):
        """Every context must read the walk's graph arrays and burn-in;
        an equal copy of the graph does not count, and sample fractions
        passed by position are not a context."""
        g, c = ctx
        mixed = {
            "graph": lambda: ex.build_context(
                LabeledGraph(g.n, g.edges.copy(), g.labels, g.name), (1, 2), burnin=c["burnin"]),
            "burnin": lambda: {**c, "burnin": c["burnin"] + 1},
            "positional_fracs": lambda: (0.05,),
        }[other]()
        made = self._spy_broadcasts(spark, monkeypatch)
        with pytest.raises(ValueError, match="sharing one graph and burnin"):
            ex.simulate_all(spark, c, mixed, n_sims=4)
        assert made == []


class TestNRMSETable:
    def test_shape_and_attrs(self, spark, ctx):
        g, c = ctx
        [t] = ex.nrmse_tables(
            spark, g, [(1, 2)], burnin=40, sample_fracs=(0.02, 0.05),
            n_sims=6, seed=3,
        )
        assert list(t.columns) == [0.02, 0.05]
        assert list(t.index) == ex.ALGORITHM_ORDER
        assert t.attrs["F"] == c["F"]
        assert (t.to_numpy() >= 0).all()

    def test_cells_are_eq24_of_simulate_all(self, spark, ctx):
        """Each cell is ``estimators.nrmse`` (Eq. 24) over that cell's
        rows of ``simulate_all`` on the same context and seed; the
        budgets are passed out of order and come back sorted."""
        g, _ = ctx
        fracs = (0.05, 0.001, 0.02)
        [t] = ex.nrmse_tables(spark, g, [(1, 2)], burnin=40, sample_fracs=fracs,
                              n_sims=ex.CHUNK + 2, seed=3)
        c = ex.build_context(g, (1, 2), burnin=40)
        est = ex.simulate_all(spark, c, sample_fracs=fracs, n_sims=ex.CHUNK + 2,
                              seed=3).toPandas()
        assert list(t.columns) == sorted(fracs)
        for alg in ex.ALGORITHM_ORDER:
            for frac in fracs:
                rows = est[(est["algorithm"] == alg) & (est["frac"] == frac)]
                assert len(rows) == ex.CHUNK + 2
                want = nrmse(rows["est"].to_numpy(), float(c["F"]))
                assert t.loc[alg, frac] == pytest.approx(want, rel=1e-12), (alg, frac)


    def test_se_is_delta_method(self, spark, ctx):
        """``attrs["se"]`` is, per cell, sd((F̂−F)²) / (2√n · NRMSE · F²)
        over that cell's rows of ``simulate_all``."""
        g, _ = ctx
        fracs = (0.02, 0.05)
        [t] = ex.nrmse_tables(spark, g, [(1, 2)], burnin=40, sample_fracs=fracs,
                              n_sims=9, seed=5)
        c = ex.build_context(g, (1, 2), burnin=40)
        est = ex.simulate_all(spark, c, sample_fracs=fracs, n_sims=9, seed=5).toPandas()
        F = float(c["F"])
        assert list(t.attrs["se"].index) == ex.ALGORITHM_ORDER
        assert list(t.attrs["se"].columns) == list(fracs)
        for alg in ex.ALGORITHM_ORDER:
            for frac in fracs:
                sq = (est[(est["algorithm"] == alg) & (est["frac"] == frac)]["est"]
                      .to_numpy() - F) ** 2
                want = np.std(sq, ddof=1) / (2 * np.sqrt(sq.size) * t.loc[alg, frac] * F ** 2)
                assert t.attrs["se"].loc[alg, frac] == pytest.approx(want, rel=1e-12)

    def test_se_is_zero_where_every_estimate_is_exact(self, spark):
        """With every node labelled 1 and pair (1, 1), every edge is a
        target edge: NS-HH, NE-HH and every EX-* row estimate F exactly
        at the smallest budgets, so those cells' NRMSE and SE are 0, not
        0/0."""
        g = H.small_random(60, 6, seed=3)
        g = LabeledGraph(g.n, g.edges, np.ones(g.n, dtype=g.labels.dtype), g.name)
        [t] = ex.nrmse_tables(spark, g, [(1, 1)], burnin=10, n_sims=5, seed=2)
        se, exact = t.attrs["se"], (t == 0)
        assert list(exact.index[exact.any(axis=1)]) == [
            a for a in ex.ALGORITHM_ORDER if a.endswith("-HH") or a.startswith("EX-")]
        assert se.notna().all().all()
        assert (se[exact] == 0).sum().sum() == exact.sum().sum()
        assert (se >= 0).all().all()

    def test_each_pair_as_if_alone(self, spark, ctx):
        """A pair's table, values and ``attrs["se"]``, is bit-identical
        whether its job also estimates other pairs or not."""
        g, _ = ctx
        pairs = [(1, 2), (2, 2), (1, 3)]
        kw = dict(burnin=30, sample_fracs=(0.001, 0.05), n_sims=ex.CHUNK + 2, seed=8)
        together = ex.nrmse_tables(spark, g, pairs, **kw)
        for pair, t in zip(pairs, together):
            [alone] = ex.nrmse_tables(spark, g, [pair], **kw)
            pd.testing.assert_frame_equal(t, alone, check_exact=True)
            pd.testing.assert_frame_equal(t.attrs["se"], alone.attrs["se"], check_exact=True)
            assert t.attrs["F"] == alone.attrs["F"]
        assert len({t.attrs["F"] for t in together}) == 3


class TestBenchmarkProbes:
    def test_spark_free_probes_run(self, ctx):
        """The benchmark's serial kernel and estimator probes run on the
        harness's public functions and context keys: a signature change
        there would otherwise surface only in a traced benchmark run."""
        from perfbench import layers, replay
        from perfbench.trace import Tracer

        g, c = ctx
        tracer, seed = Tracer(enabled=False), 11
        tasks = replay.tasks(c["n_nodes"], ex.CHUNK)
        metrics, rows = layers.kernels(tracer, c, tasks, seed)
        metrics.update(layers.estimators(tracer, c, c["csr"], tasks, seed))
        assert rows == len(ex.ALGORITHM_ORDER) * len(ex.DEFAULT_FRACS) * ex.CHUNK == 1500
        assert all(np.isfinite(v) for v in metrics.values()), metrics
