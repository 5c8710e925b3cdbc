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
    e = stats.edges_df(spark, g)
    l = stats.labels_df(spark, g)
    return e, l


class TestEdgesLabelsDF:
    """The Parquet-backed frames hold exactly the graph's arrays, as long
    columns."""

    def test_edges_roundtrip(self, spark, g, dfs):
        e, _ = dfs
        assert e.dtypes == [("src", "bigint"), ("dst", "bigint")]
        got = np.array(sorted(map(tuple, e.collect())))
        assert np.array_equal(got, np.array(sorted(map(tuple, g.edges))))

    def test_labels_roundtrip(self, spark, g, dfs):
        _, l = dfs
        assert l.dtypes == [("node", "bigint"), ("label", "bigint")]
        pdf = l.toPandas().sort_values("node")
        assert np.array_equal(pdf["node"].to_numpy(), np.arange(g.n))
        assert np.array_equal(pdf["label"].to_numpy(), g.labels)

    def test_frames_reread_after_later_jobs(self, spark, g):
        """Each frame has its own file: frames built and used later in the
        session leave an earlier one readable and unchanged."""
        e, l = stats.edges_df(spark, g), stats.labels_df(spark, g)
        other = H.small_random(80, 5, seed=31)
        stats.node_table(stats.edges_df(spark, other), stats.labels_df(spark, other),
                         [(1, 2)]).count()
        assert e.count() == g.n_edges
        assert sorted(map(tuple, e.collect())) == sorted(map(tuple, g.edges))
        assert sorted(map(tuple, l.collect())) == list(zip(range(g.n), g.labels))


# One node table over a cross pair, a same-label pair and a second
# cross pair: column t_i holds pair PAIRS[i].
PAIRS = [(1, 2), (2, 2), (1, 3)]


@pytest.fixture(scope="module")
def nodes(dfs):
    e, l = dfs
    return stats.node_table(e, l, PAIRS).localCheckpoint()


def _t(t1, t2):
    return f"t_{PAIRS.index((t1, t2))}"


class TestTargetCount:
    """F = sum_u T(u) / 2, the count the bounds read, for every pair
    column."""

    @pytest.mark.parametrize("t1,t2", PAIRS)
    def test_matches_brute_force(self, spark, g, nodes, t1, t2):
        t_sum = nodes.agg(F.sum(_t(t1, t2))).collect()[0][0]
        assert t_sum == 2 * H.brute_force_f(g, t1, t2)

    def test_oracle_cross_pair(self, spark, dfs, nodes):
        e, l = dfs
        out = nodes.agg(F.sum(_t(1, 2)).alias("t_sum"))
        assert_equivalent(
            out,
            """
            SELECT CAST(2 * SUM(CASE WHEN (l1.label = 1 AND l2.label = 2)
                              OR (l1.label = 2 AND l2.label = 1)
                         THEN 1 ELSE 0 END) AS BIGINT) AS t_sum
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            """,
            edges=e, labels=l,
        )

    def test_oracle_same_label_pair(self, spark, dfs, nodes):
        e, l = dfs
        out = nodes.agg(F.sum(_t(2, 2)).alias("t_sum"))
        assert_equivalent(
            out,
            """
            SELECT CAST(2 * SUM(CASE WHEN l1.label = 2 AND l2.label = 2
                         THEN 1 ELSE 0 END) AS BIGINT) AS t_sum
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            """,
            edges=e, labels=l,
        )


class TestNodeTable:
    @pytest.mark.parametrize("t1,t2", PAIRS)
    def test_matches_brute_force(self, spark, g, nodes, t1, t2):
        """Every node has a row, nodes with T(u) = 0 included."""
        pdf = nodes.toPandas().set_index("node").sort_index()
        assert pdf.index.tolist() == list(range(g.n))
        assert (pdf["degree"].to_numpy() == g.degrees).all()
        truth = H.brute_force_t(g, t1, t2)
        assert (pdf[_t(t1, t2)].to_numpy() == truth).all()
        assert (truth == 0).any()

    @pytest.mark.parametrize("t1,t2", PAIRS)
    def test_oracle(self, spark, dfs, nodes, t1, t2):
        e, l = dfs
        assert_equivalent(
            nodes.select("node", "degree", F.col(_t(t1, t2)).alias("t_count")),
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
