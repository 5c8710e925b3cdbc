"""Reproduce Tables 18-22: Theorem 4.1-4.5 sample-size bounds for an
(0.1, 0.1)-approximation, one table per dataset.

Usage: spark-submit jobs/tables18_22_bounds.py [dataset|all]
"""
from __future__ import annotations

import argparse

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.bounds import all_bounds
from repro.graphs import stats
from repro.harness import datasets as ds
from repro.harness.paper_numbers import BOUND_COLS as COLS
from repro.harness.session import get_spark

TABLE_NO = {
    "facebook": 18, "googleplus": 19, "pokec": 20, "orkut": 21,
    "livejournal": 22,
}


def bounds_table(spark: SparkSession, name: str,
                 eps: float = 0.1, delta: float = 0.1) -> pd.DataFrame:
    """One row per target pair, one column per estimator bound."""
    g = ds.load(name)
    e = stats.edges_df(spark, g).localCheckpoint()
    l = stats.labels_df(spark, g).localCheckpoint()
    rows = []
    for pair in ds.target_pairs(name):
        b = all_bounds(e, l, pair[0], pair[1], eps=eps, delta=delta)
        rows.append({"pair": str(pair), "F": int(b["F"]),
                     **{c: b[c] for c in COLS}})
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("dataset", nargs="?", default="all",
                    choices=[*TABLE_NO, "all"])
    args = ap.parse_args()
    spark = get_spark("bounds")
    names = list(TABLE_NO) if args.dataset == "all" else [args.dataset]
    for name in names:
        t = bounds_table(spark, name)
        print(f"\nTable {TABLE_NO[name]}: bounds on the number of samples "
              f"in {name} ((eps,delta)=(0.1,0.1))")
        shown = t.copy()
        for c in COLS:
            shown[c] = shown[c].map(lambda v: f"{v:.3g}")
        print(shown.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
