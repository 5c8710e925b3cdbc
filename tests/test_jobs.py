"""Integration tests: every spark-submit job's core function runs and
produces the paper table's layout (tiny simulation counts)."""
import mixing_time
import table01_stats
import table03_labels
import table_nrmse
import tables18_22_bounds

from repro.harness import findings as F
from repro.harness import tables as T


class TestTable01:
    def test_stats_rows(self, spark):
        t = table01_stats.table01(spark)
        assert len(t) == 5
        assert set(t.columns) == {
            "network", "n_nodes", "n_edges", "paper_nv", "paper_ne"
        }
        # generators are connected: LCC must cover every node
        from repro.harness import datasets as ds
        for r in t.itertuples():
            assert r.n_nodes == ds.SPECS[r.network].n
            assert r.n_edges == ds.load(r.network).n_edges


class TestTable03:
    def test_locations(self):
        t = table03_labels.table03()
        assert set(t.columns) == {"label", "location"}
        assert len(t) >= 4  # at least the labels of 4 pairs (minus overlaps)


class TestNRMSEJob:
    def test_dataset_table_map_covers_4_to_17(self):
        nos = sorted(n for v in T.DATASET_TABLES.values() for n in v)
        assert nos == list(range(4, 18))

    def test_run_facebook_tiny(self, spark):
        out = table_nrmse.run(spark, "facebook", n_sims=3, seed=0)
        assert len(out) == 1
        assert out[0].attrs["table_no"] == 4


class TestBoundsJob:
    def test_bounds_table_facebook(self, spark):
        t = tables18_22_bounds.bounds_table(spark, "facebook")
        assert len(t) == 1
        assert (t[tables18_22_bounds.COLS].to_numpy() > 0).all()

    def test_bounds_table_pokec_four_pairs(self, spark):
        t = tables18_22_bounds.bounds_table(spark, "pokec")
        assert len(t) == 4
        # paper shape: NE-HH bound far below NS-HH on rare labels
        assert not F.failures(20, t)


class TestMixingJob:
    def test_small_eps_table(self):
        t = mixing_time.mixing_table(["facebook"], eps=0.05, n_starts=2)
        assert len(t) == 1
        assert t["mixing_time_est"].iloc[0] > 0
