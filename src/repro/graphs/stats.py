"""Ground-truth graph statistics as Catalyst dataflows.

Everything the estimators and bounds are measured against — the exact
target-edge count F and the per-node table of degree d(u) and
incident-target count T(u) — is computed here with Spark SQL over the
(edges, labels) DataFrames, and each query is oracle-checked against
DuckDB in the tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generator import LabeledGraph


def edges_df(spark: SparkSession, g: LabeledGraph) -> DataFrame:
    """(src, dst) DataFrame of the undirected edge list (src < dst)."""
    pdf = pd.DataFrame({"src": g.edges[:, 0], "dst": g.edges[:, 1]})
    return spark.createDataFrame(pdf)


def labels_df(spark: SparkSession, g: LabeledGraph) -> DataFrame:
    """(node, label) DataFrame."""
    pdf = pd.DataFrame({"node": np.arange(g.n), "label": g.labels})
    return spark.createDataFrame(pdf)


def labeled_edges(edges: DataFrame, labels: DataFrame) -> DataFrame:
    """(src, dst, src_label, dst_label) — edge list joined to both
    endpoint labels (two shuffle joins with broadcast disabled)."""
    lu = labels.select(
        F.col("node").alias("src"), F.col("label").alias("src_label")
    )
    lv = labels.select(
        F.col("node").alias("dst"), F.col("label").alias("dst_label")
    )
    return edges.join(lu, "src").join(lv, "dst").select(
        "src", "dst", "src_label", "dst_label"
    )


def target_edge_indicator(edges: DataFrame, labels: DataFrame, t1: int, t2: int) -> DataFrame:
    """(src, dst, is_target) with is_target ∈ {0,1} per paper's target-edge
    definition (unordered label pair match)."""
    le = labeled_edges(edges, labels)
    cond = (
        ((F.col("src_label") == t1) & (F.col("dst_label") == t2))
        | ((F.col("src_label") == t2) & (F.col("dst_label") == t1))
    )
    return le.select(
        "src", "dst", F.when(cond, 1).otherwise(0).alias("is_target")
    )


def node_table(edges: DataFrame, labels: DataFrame, t1: int, t2: int) -> DataFrame:
    """(node, degree, t_count) for every node with at least one edge:
    d(u) and the paper's T(u), zero for nodes with no target edge.

    One pass over the target-edge indicator: each edge emits
    (endpoint, is_target) for both ends, and one groupBy counts and sums.
    """
    ind = target_edge_indicator(edges, labels, t1, t2)
    ends = ind.select(F.col("src").alias("node"), "is_target").union(
        ind.select(F.col("dst").alias("node"), "is_target")
    )
    return ends.groupBy("node").agg(
        F.count("*").alias("degree"), F.sum("is_target").alias("t_count")
    )
