"""Benchmark: Tables 23-26 — best-algorithm summaries at 5%|V| calls.

Runs the 5%|V| column of every NRMSE table (not the full sweep — the
per-dataset benches cover that) and prints the four summary tables.
"""
from benchmarks._bench_common import BENCH_SEED, BENCH_SIMS

from repro.harness import findings as F
from repro.harness import tables as T


def test_bench_best_summaries(benchmark, spark):
    tables = list(benchmark.pedantic(
        T.reproduce_nrmse_tables, args=(spark, T.NRMSE_TABLES), rounds=1, iterations=1,
        kwargs={"n_sims": BENCH_SIMS, "seed": BENCH_SEED, "sample_fracs": (0.05,)}).values())
    summaries = T.best_summaries(tables)
    for no, s in summaries.items():
        print(f"\nTable {no}: best algorithm using 5%|V| API calls")
        print(s.to_string(index=False))
    assert set(summaries) == {23, 24, 25, 26}
    assert not [f for no, names in T.BEST_TABLES.items() for t in tables
                if t.attrs["dataset"] in names for f in F.failures(no, t)]
