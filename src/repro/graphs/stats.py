"""Ground-truth graph statistics as Catalyst dataflows.

Everything the bounds are measured against — the per-node table of
degree d(u) and every target pair's incident-target count T(u), whose
sum is twice the exact target-edge count F — is computed here with
Spark SQL over the (edges, labels) DataFrames, and each query is
oracle-checked against DuckDB in the tests.

Both frames are Parquet-backed: the driver writes the graph's columns
with pyarrow to a file in the SparkContext's temp dir, which Spark
deletes when the context stops, and Spark scans that file. So no task
carries the graph itself, and a frame needs no checkpoint to be cheap
to re-read.
"""
from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark import SparkFiles
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generator import LabeledGraph


def _parquet_df(spark: SparkSession, **cols: np.ndarray) -> DataFrame:
    """A frame of long columns, written once to a fresh Parquet file under
    ``SparkFiles.getRootDirectory()`` and scanned with a given schema (no
    schema-inference job)."""
    path = os.path.join(SparkFiles.getRootDirectory(), f"{uuid.uuid4().hex}.parquet")
    pq.write_table(pa.table({c: np.asarray(v, dtype=np.int64) for c, v in cols.items()}), path)
    return spark.read.schema(", ".join(f"{c} long" for c in cols)).parquet(path)


def edges_df(spark: SparkSession, g: LabeledGraph) -> DataFrame:
    """(src, dst) DataFrame of the undirected edge list (src < dst)."""
    return _parquet_df(spark, src=g.edges[:, 0], dst=g.edges[:, 1])


def labels_df(spark: SparkSession, g: LabeledGraph) -> DataFrame:
    """(node, label) DataFrame."""
    return _parquet_df(spark, node=np.arange(g.n), label=g.labels)


def node_table(edges: DataFrame, labels: DataFrame,
               pairs: list[tuple[int, int]]) -> DataFrame:
    """(node, degree, t_0 … t_{P−1}) for every node with at least one
    edge: d(u) and, in column ``t_i``, the paper's T(u) for target pair
    ``pairs[i]``, zero for nodes with no target edge of that pair.

    One pass for every pair: the edge list joins both endpoint labels
    (two shuffle joins with broadcast disabled), each edge gets one 0/1
    target indicator per pair (unordered label pair match), both
    endpoints emit the edge's indicators, and one groupBy counts and sums.
    """
    lu = labels.select(F.col("node").alias("src"), F.col("label").alias("a"))
    lv = labels.select(F.col("node").alias("dst"), F.col("label").alias("b"))
    a, b = F.col("a"), F.col("b")
    ts = [f"t_{i}" for i in range(len(pairs))]
    ind = edges.join(lu, "src").join(lv, "dst").select("src", "dst", *(
        F.when(((a == t1) & (b == t2)) | ((a == t2) & (b == t1)), 1)
        .otherwise(0).alias(c)
        for c, (t1, t2) in zip(ts, pairs)
    ))
    ends = ind.select(F.col("src").alias("node"), *ts).union(
        ind.select(F.col("dst").alias("node"), *ts)
    )
    return ends.groupBy("node").agg(
        F.count("*").alias("degree"), *(F.sum(c).alias(c) for c in ts)
    )
