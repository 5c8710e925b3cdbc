"""Reproduce Table 1: dataset statistics (|V|, |E| of the LCC).

Usage: spark-submit jobs/table01_stats.py
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs import lcc, stats
from repro.harness import datasets as ds
from repro.harness.paper_numbers import DATASET_STATS
from repro.harness.session import get_spark


def table01(spark: SparkSession) -> pd.DataFrame:
    """(network, |V|, |E|, paper |V|, paper |E|) for the five datasets,
    computed on the largest connected component via the Catalyst LCC
    pass (our generators are connected by construction, so LCC == G —
    the pass is still exercised end to end)."""
    rows = []
    for name in ds.SPECS:
        g = ds.load(name)
        e = stats.edges_df(spark, g)
        keep = lcc.largest_component_nodes(spark, e).toPandas()["node"].to_numpy()
        rows.append(
            {
                "network": name,
                "n_nodes": len(keep),
                # Every edge lies inside one component.
                "n_edges": int(g.degrees[keep].sum() // 2),
                "paper_nv": DATASET_STATS[name]["nv"],
                "paper_ne": DATASET_STATS[name]["ne"],
            }
        )
    return pd.DataFrame(rows)


def main() -> None:
    spark = get_spark("table01")
    print("Table 1: Statistics of Datasets (ours vs paper)")
    print(table01(spark).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
