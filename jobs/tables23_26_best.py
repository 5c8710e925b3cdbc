"""Reproduce Tables 23-26: best algorithm per (dataset, target pair)
when 5%|V| API calls are used.

Runs every NRMSE table (4-17) and summarizes the 5%|V| column over the
paper's five proposed estimators.

Usage: spark-submit jobs/tables23_26_best.py [--sims N]
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.harness import tables as T
from repro.harness.session import get_spark


def run(spark: SparkSession, n_sims: int, seed: int) -> dict:
    return T.best_summaries([
        T.reproduce_nrmse_table(spark, no, n_sims=n_sims, seed=seed)
        for no in T.NRMSE_TABLES
    ])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sims", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spark = get_spark("best-summary")
    for no, summary in run(spark, args.sims, args.seed).items():
        print(f"\nTable {no}: best algorithm using 5%|V| API calls")
        print(summary.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
