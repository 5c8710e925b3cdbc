"""Reproduce the NRMSE tables (paper Tables 4-17) for one dataset.

Usage:
    spark-submit jobs/table_nrmse.py <dataset> [--sims N] [--seed S]

dataset ∈ {facebook, googleplus, pokec, orkut, livejournal, all}.
facebook/googleplus have one table each (Tables 4/5); the others have
four (one per target pair: Tables 6-9 / 10-13 / 14-17). The paper
averages 200 simulations per cell; default here is 60 (--sims 200 for
the full run). A dataset's tables come from one Monte-Carlo job.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.harness import tables as T
from repro.harness.session import get_spark


def run(spark: SparkSession, dataset: str, n_sims: int, seed: int) -> list:
    out = list(T.reproduce_nrmse_tables(spark, T.DATASET_TABLES[dataset],
                                        n_sims=n_sims, seed=seed).values())
    for t in out:
        print(f"\n{T.format_table(t)}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("dataset", choices=[*T.DATASET_TABLES, "all"])
    ap.add_argument("--sims", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    spark = get_spark(f"nrmse-{args.dataset}")
    names = list(T.DATASET_TABLES) if args.dataset == "all" else [args.dataset]
    for name in names:
        run(spark, name, args.sims, args.seed)
    spark.stop()


if __name__ == "__main__":
    main()
