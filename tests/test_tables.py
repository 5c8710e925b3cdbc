"""Tests for paper-table assembly and formatting."""
import pandas as pd
import pytest

from repro.harness import tables as T
from repro.harness.experiment import ALGORITHM_ORDER


def _fake_table(dataset="facebook", pair=(1, 2), table_no=4):
    data = {0.01: [0.5 + i * 0.01 for i in range(10)],
            0.05: [0.2 + i * 0.01 for i in range(10)]}
    t = pd.DataFrame(data, index=ALGORITHM_ORDER)
    t.attrs.update(
        {"dataset": dataset, "pair": pair, "table_no": table_no,
         "F": 100, "n_edges": 1000, "n_nodes": 500}
    )
    return t


class TestMapping:
    def test_fourteen_nrmse_tables(self):
        assert set(T.NRMSE_TABLES) == set(range(4, 18))

    def test_datasets_cover_paper_layout(self):
        counts = {}
        for name, _ in T.NRMSE_TABLES.values():
            counts[name] = counts.get(name, 0) + 1
        assert counts == {
            "facebook": 1, "googleplus": 1, "pokec": 4, "orkut": 4,
            "livejournal": 4,
        }

    def test_best_tables_partition(self):
        all_names = [n for names in T.BEST_TABLES.values() for n in names]
        assert sorted(all_names) == sorted(
            ["facebook", "googleplus", "pokec", "orkut", "livejournal"]
        )


class TestBestSelection:
    def test_best_at_frac_picks_min_of_ours(self):
        t = _fake_table()
        # make an EX- algorithm artificially the global min; it must be
        # ignored (Tables 23-26 list only the paper's own algorithms)
        t.loc["EX-MHRW", 0.05] = 0.001
        alg, v = T.best_at_frac(t)
        assert alg == "NeighborSample-HH"  # 0.2 is the min of our five
        assert v == pytest.approx(0.2)

    def test_best_summary_layout(self):
        s = T.best_summary([_fake_table(), _fake_table("pokec", (2, 51), 6)])
        assert list(s.columns) == ["dataset", "pair", "best_algorithm", "nrmse"]
        assert len(s) == 2

    def test_best_summaries_group_by_dataset(self):
        s = T.best_summaries([_fake_table(), _fake_table("pokec", (2, 51), 6),
                              _fake_table("googleplus", (1, 2), 5)])
        assert [len(s[no]) for no in (23, 24, 25, 26)] == [2, 1, 0, 0]
        assert s[23]["dataset"].tolist() == ["facebook", "googleplus"]


class TestFormat:
    def test_format_contains_header_and_rows(self):
        out = T.format_table(_fake_table())
        assert "Table 4" in out and "facebook" in out
        assert "1.0%|V|" in out and "5.0%|V|" in out
        for alg in ALGORITHM_ORDER:
            assert alg in out

    def test_reproduce_small(self, spark):
        """End-to-end: reproduce Table 4 at tiny simulation count."""
        t = T.reproduce_nrmse_table(
            spark, 4, n_sims=4, seed=1,
            sample_fracs=(0.01, 0.05),
        )
        assert t.attrs["dataset"] == "facebook"
        assert t.attrs["pair"] == (1, 2)
        assert t.shape == (10, 2)
        assert (t.to_numpy() >= 0).all()


class TestReproduce:
    def test_one_table_equals_its_dataset_job(self, spark):
        """Table 11 alone equals Table 11 from the job that runs all four
        Orkut tables: each dataset is seeded with seed + its first table
        number, and a pair's table does not depend on the other pairs."""
        kw = dict(n_sims=2, seed=1, sample_fracs=(0.005,))
        alone = T.reproduce_nrmse_table(spark, 11, **kw)
        together = T.reproduce_nrmse_tables(spark, [13, 10, 12, 11], **kw)
        assert list(together) == [10, 11, 12, 13]
        assert [together[no].attrs["pair"] for no in together] == [
            T.datasets.target_pairs("orkut")[i] for i in range(4)]
        pd.testing.assert_frame_equal(alone, together[11], check_exact=True)
        pd.testing.assert_frame_equal(alone.attrs["se"], together[11].attrs["se"],
                                      check_exact=True)
        assert ({k: v for k, v in alone.attrs.items() if k != "se"}
                == {k: v for k, v in together[11].attrs.items() if k != "se"})

    def test_unknown_table_raises(self):
        """Raised before any dataset loads or any Spark job runs."""
        with pytest.raises(KeyError):
            T.reproduce_nrmse_tables(None, [4, 3], n_sims=1)
