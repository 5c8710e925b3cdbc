"""Benchmark: Tables 23-26 — best-algorithm summaries at 5%|V| calls.

Runs the 5%|V| column of every NRMSE table (not the full sweep — the
per-table benches cover that) and prints the four summary tables.
"""
from benchmarks._bench_common import BENCH_SEED, BENCH_SIMS

from repro.harness import tables as T


def _summaries(spark):
    return T.best_summaries([
        T.reproduce_nrmse_table(
            spark, no, n_sims=BENCH_SIMS, seed=BENCH_SEED,
            sample_fracs=(0.05,),
        )
        for no in T.NRMSE_TABLES
    ])


def test_bench_best_summaries(benchmark, spark):
    summaries = benchmark.pedantic(_summaries, args=(spark,), rounds=1,
                                   iterations=1)
    for no, s in summaries.items():
        print(f"\nTable {no}: best algorithm using 5%|V| API calls")
        print(s.to_string(index=False))
    assert set(summaries) == {23, 24, 25, 26}
    # Paper Table 24: every Pokec pair is won by a NeighborExploration
    # variant.
    assert summaries[24]["best_algorithm"].str.startswith(
        "NeighborExploration").all()
