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


class TestRestrict:
    def test_relabels_contiguously(self):
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        new_edges, old = lcc.restrict_to_lcc(edges, np.array([0, 1, 2]))
        assert old.tolist() == [0, 1, 2]
        assert new_edges.tolist() == [[0, 1], [1, 2]]

    def test_drops_outside_edges_and_remaps(self):
        edges = np.array([[2, 5], [5, 9], [0, 1]])
        new_edges, old = lcc.restrict_to_lcc(edges, np.array([2, 5, 9]))
        assert old.tolist() == [2, 5, 9]
        assert new_edges.tolist() == [[0, 1], [1, 2]]
