"""Tests for the DataFrame connected-components / LCC pass."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import lcc
from repro.graphs.generator import social_graph
from repro.graphs.stats import edges_df


def _edges_df(spark, edges):
    return spark.createDataFrame(
        pd.DataFrame({"src": edges[:, 0], "dst": edges[:, 1]})
    )


class TestConnectedComponents:
    def test_two_components(self, spark):
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        comp = lcc.connected_components(spark, _edges_df(spark, edges)).toPandas()
        comp = comp.set_index("node")["component"]
        assert comp[0] == comp[1] == comp[2]
        assert comp[3] == comp[4]
        assert comp[0] != comp[3]

    def test_chain_collapses_to_min(self, spark):
        edges = np.array([[i, i + 1] for i in range(10)])
        comp = lcc.connected_components(spark, _edges_df(spark, edges)).toPandas()
        assert (comp["component"] == 0).all()

    def test_raises_when_not_converged(self, spark):
        """The 11-node chain needs 10 rounds to carry label 0 to its end."""
        edges = _edges_df(spark, np.array([[i, i + 1] for i in range(10)]))
        with pytest.raises(RuntimeError, match="max_iter=3"):
            lcc.connected_components(spark, edges, max_iter=3)

    def test_chain_round_count(self, spark):
        """Round r labels node i with max(0, i - r): the chain's labels
        stop changing at round 10 and round 11 sees the sum hold. So 10
        rounds raise and 11 converge, which holds only if each round's
        observed sum is that round's and not the one before it."""
        edges = _edges_df(spark, np.array([[i, i + 1] for i in range(10)]))
        with pytest.raises(RuntimeError, match="max_iter=10"):
            lcc.connected_components(spark, edges, max_iter=10)
        comp = lcc.connected_components(spark, edges, max_iter=11).toPandas()
        assert sorted(comp["node"]) == list(range(11))
        assert (comp["component"] == 0).all()

    def test_three_components_sizes(self, spark):
        edges = np.array([[0, 1], [2, 3], [2, 4], [5, 6], [6, 7], [5, 7]])
        nodes = lcc.largest_component_nodes(spark, _edges_df(spark, edges)).toPandas()
        got = sorted(nodes["node"].tolist())
        # two size-3 components: {2,3,4} and {5,6,7}; tie broken by min id
        assert got == [2, 3, 4]

    def test_generated_graph_fully_connected(self, spark):
        g = social_graph(150, "degree", seed=2, m=3)
        nodes = lcc.largest_component_nodes(spark, edges_df(spark, g)).toPandas()
        assert len(nodes) == g.n

