"""Oracle-checked tests for the Catalyst ground-truth statistics."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import stats
from repro.harness.datasets import pair_counts_np
from repro.oracle import assert_equivalent
from tests import _helpers as H


@pytest.fixture(scope="module")
def g():
    return H.small_random(120, 6, seed=30)


@pytest.fixture(scope="module")
def dfs(spark, g):
    e = stats.edges_df(spark, g).localCheckpoint()
    l = stats.labels_df(spark, g).localCheckpoint()
    return e, l


class TestEdgesLabelsDF:
    def test_edges_roundtrip(self, spark, g, dfs):
        e, _ = dfs
        pdf = e.toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        exp = pd.DataFrame({"src": g.edges[:, 0], "dst": g.edges[:, 1]})
        exp = exp.sort_values(["src", "dst"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(pdf, exp, check_dtype=False)

    def test_labels_roundtrip(self, spark, g, dfs):
        _, l = dfs
        pdf = l.toPandas().sort_values("node").reset_index(drop=True)
        assert (pdf["label"].to_numpy() == g.labels).all()


class TestTargetCount:
    @pytest.mark.parametrize("t1,t2", [(1, 2), (2, 3), (1, 1), (1, 3)])
    def test_matches_brute_force(self, spark, g, dfs, t1, t2):
        e, l = dfs
        assert stats.exact_target_count(e, l, t1, t2) == H.brute_force_f(g, t1, t2)

    def test_oracle_cross_pair(self, spark, g, dfs):
        e, l = dfs
        ind = stats.target_edge_indicator(e, l, 1, 2)
        out = ind.agg(F.sum("is_target").alias("f"))
        assert_equivalent(
            out,
            """
            SELECT CAST(SUM(CASE WHEN (l1.label = 1 AND l2.label = 2)
                              OR (l1.label = 2 AND l2.label = 1)
                         THEN 1 ELSE 0 END) AS BIGINT) AS f
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            """,
            edges=e, labels=l,
        )

    def test_oracle_same_label_pair(self, spark, g, dfs):
        e, l = dfs
        ind = stats.target_edge_indicator(e, l, 2, 2)
        out = ind.agg(F.sum("is_target").alias("f"))
        assert_equivalent(
            out,
            """
            SELECT CAST(SUM(CASE WHEN l1.label = 2 AND l2.label = 2
                         THEN 1 ELSE 0 END) AS BIGINT) AS f
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            """,
            edges=e, labels=l,
        )


class TestNodeTable:
    @pytest.mark.parametrize("t1,t2", [(1, 2), (2, 2)])
    def test_matches_brute_force(self, spark, g, dfs, t1, t2):
        """Every node has a row, nodes with T(u) = 0 included."""
        e, l = dfs
        pdf = stats.node_table(e, l, t1, t2).toPandas().set_index("node").sort_index()
        assert pdf.index.tolist() == list(range(g.n))
        assert (pdf["degree"].to_numpy() == g.degrees).all()
        truth = H.brute_force_t(g, t1, t2)
        assert (pdf["t_count"].to_numpy() == truth).all()
        assert (truth == 0).any()

    @pytest.mark.parametrize("t1,t2", [(1, 2), (2, 2)])
    def test_oracle(self, spark, g, dfs, t1, t2):
        e, l = dfs
        assert_equivalent(
            stats.node_table(e, l, t1, t2),
            f"""
            WITH ind AS (
                SELECT e.src, e.dst,
                       CASE WHEN (l1.label = {t1} AND l2.label = {t2})
                              OR (l1.label = {t2} AND l2.label = {t1})
                            THEN 1 ELSE 0 END AS is_target
                FROM edges e
                JOIN labels l1 ON e.src = l1.node
                JOIN labels l2 ON e.dst = l2.node
            )
            SELECT node, COUNT(*) AS degree, SUM(is_target) AS t_count FROM (
                SELECT src AS node, is_target FROM ind
                UNION ALL
                SELECT dst AS node, is_target FROM ind
            ) GROUP BY node
            """,
            edges=e, labels=l,
        )


class TestPairCountsNp:
    def test_matches_duckdb(self, spark, g, dfs):
        """The NumPy pair counter that picks target pairs agrees with a
        SQL GROUP BY over the same edges and labels."""
        e, l = dfs
        pairs, counts = pair_counts_np(g)
        got = spark.createDataFrame(pd.DataFrame(
            {"l1": pairs[:, 0], "l2": pairs[:, 1], "n_edges": counts}
        ))
        assert_equivalent(
            got,
            """
            SELECT LEAST(l1.label, l2.label) AS l1,
                   GREATEST(l1.label, l2.label) AS l2,
                   COUNT(*) AS n_edges
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            GROUP BY 1, 2
            """,
            edges=e, labels=l,
        )
