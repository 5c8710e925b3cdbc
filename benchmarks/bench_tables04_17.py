"""Benchmark: Tables 4-17 — NRMSE vs API budget on every dataset and
target pair, each asserting the findings its paper table must show."""
import pytest

from benchmarks._bench_common import BENCH_SEED, BENCH_SIMS
from repro.harness import findings as F
from repro.harness import tables as T


@pytest.mark.parametrize("table_no", sorted(T.NRMSE_TABLES))
def test_bench_nrmse(benchmark, spark, table_no):
    t = benchmark.pedantic(
        T.reproduce_nrmse_table, args=(spark, table_no),
        kwargs={"n_sims": BENCH_SIMS, "seed": BENCH_SEED}, rounds=1, iterations=1)
    print()
    print(T.format_table(t))
    assert not F.failures(table_no, t)
