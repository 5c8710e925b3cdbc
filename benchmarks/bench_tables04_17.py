"""Benchmark: Tables 4-17 — NRMSE vs API budget, one job per dataset,
each table asserting the findings its paper table must show."""
import pytest

from benchmarks._bench_common import BENCH_SEED, BENCH_SIMS
from repro.harness import findings as F
from repro.harness import tables as T


@pytest.mark.parametrize("dataset", list(T.DATASET_TABLES))
def test_bench_nrmse(benchmark, spark, dataset):
    ts = benchmark.pedantic(
        T.reproduce_nrmse_tables, args=(spark, T.DATASET_TABLES[dataset]),
        kwargs={"n_sims": BENCH_SIMS, "seed": BENCH_SEED}, rounds=1, iterations=1)
    for t in ts.values():
        print(f"\n{T.format_table(t)}")
    assert not {no: f for no, t in ts.items() if (f := F.failures(no, t))}
