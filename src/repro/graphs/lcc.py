"""Largest connected component via iterative DataFrame min-label propagation.

The paper evaluates every network on its largest connected component.
Our BA generator yields connected graphs by construction, but the LCC
pass is part of the paper's pipeline (and guards against any future
generator), so it is implemented — as a Catalyst dataflow — and tested
on deliberately disconnected graphs. Min-label propagation takes
O(diameter) rounds; the five datasets converge in 4–7, so the
O(log n)-round large-star/small-star scheme is not worth its code.
Each round is one checkpoint job: the convergence sum is observed on
the labels while that job writes them, not read by a second job.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F


def _checkpoint_sum(comp: DataFrame) -> tuple[DataFrame, int]:
    """``comp`` localCheckpointed, and its ``sum(component)`` observed
    by the checkpoint job itself."""
    obs = Observation()
    comp = comp.observe(obs, F.sum("component").alias("total")).localCheckpoint()
    return comp, obs.get["total"]


def connected_components(spark: SparkSession, edges: DataFrame, max_iter: int = 50) -> DataFrame:
    """(node, component) where component is the min node id reachable.

    ``edges`` has columns (src, dst). Each round is one join and one
    ``groupBy(node).min`` over the neighbours' labels unioned with the
    node's own. Labels never increase, so the labelling is a fixpoint
    exactly when ``sum(component)`` stops falling; each round's sum is
    observed on its localCheckpoint, which also keeps the plan linear in
    size.
    Raises ``RuntimeError`` if no fixpoint is reached in ``max_iter``
    rounds (a path longer than ``max_iter`` nodes).
    """
    sym = edges.select(F.col("src").alias("node"), "dst").union(
        edges.select(F.col("dst").alias("node"), F.col("src").alias("dst"))
    ).localCheckpoint()
    comp, total = _checkpoint_sum(
        sym.select("node").distinct().withColumn("component", F.col("node"))
    )
    for _ in range(max_iter):
        nbr = sym.join(
            comp.select(F.col("node").alias("dst"), "component"), "dst"
        ).select("node", "component")
        prev = total
        comp, total = _checkpoint_sum(
            nbr.union(comp).groupBy("node").agg(F.min("component").alias("component"))
        )
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

