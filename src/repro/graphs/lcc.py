"""Largest connected component via iterative DataFrame min-label propagation.

The paper evaluates every network on its largest connected component.
Our BA generator yields connected graphs by construction, but the LCC
pass is part of the paper's pipeline (and guards against any future
generator), so it is implemented — as a Catalyst dataflow — and tested
on deliberately disconnected graphs. Min-label propagation takes
O(diameter) rounds; the five datasets converge in 4–7, so the
O(log n)-round large-star/small-star scheme is not worth its code.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def connected_components(spark: SparkSession, edges: DataFrame, max_iter: int = 50) -> DataFrame:
    """(node, component) where component is the min node id reachable.

    ``edges`` has columns (src, dst). Each round is one join and one
    ``groupBy(node).min`` over the neighbours' labels unioned with the
    node's own. Labels never increase, so the labelling is a fixpoint
    exactly when ``sum(component)`` stops falling. localCheckpoint every
    round keeps the plan linear in size.
    Raises ``RuntimeError`` if no fixpoint is reached in ``max_iter``
    rounds (a path longer than ``max_iter`` nodes).
    """
    sym = edges.select(F.col("src").alias("node"), "dst").union(
        edges.select(F.col("dst").alias("node"), F.col("src").alias("dst"))
    ).localCheckpoint()
    comp = (
        sym.select("node").distinct()
        .withColumn("component", F.col("node"))
        .localCheckpoint()
    )
    total = comp.agg(F.sum("component")).collect()[0][0]
    for _ in range(max_iter):
        nbr = sym.join(
            comp.select(F.col("node").alias("dst"), "component"), "dst"
        ).select("node", "component")
        comp = (
            nbr.union(comp).groupBy("node")
            .agg(F.min("component").alias("component"))
            .localCheckpoint()
        )
        prev, total = total, comp.agg(F.sum("component")).collect()[0][0]
        if total == prev:
            return comp
    raise RuntimeError(f"labels not converged within max_iter={max_iter} rounds")


def largest_component_nodes(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """(node,) of the largest connected component among nodes with edges."""
    comp = connected_components(spark, edges)
    top = (
        comp.groupBy("component")
        .count()
        .orderBy(F.desc("count"), F.asc("component"))
        .limit(1)
        .select("component")
    )
    return comp.join(top, "component").select("node")


def restrict_to_lcc(edges_np: np.ndarray, keep_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter an (E,2) numpy edge array to ``keep_nodes`` and relabel to
    0..n'-1. Returns (new_edges, old_ids) where old_ids[i] is the
    original id of new node i.
    """
    keep = np.sort(np.asarray(keep_nodes, dtype=np.int64))
    lookup = -np.ones(int(edges_np.max()) + 2 if edges_np.size else 1, dtype=np.int64)
    lookup[keep] = np.arange(keep.size)
    mask = (lookup[edges_np[:, 0]] >= 0) & (lookup[edges_np[:, 1]] >= 0)
    new_edges = lookup[edges_np[mask]]
    return new_edges, keep
