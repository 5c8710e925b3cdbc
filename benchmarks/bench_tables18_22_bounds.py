"""Benchmark: Tables 18-22 — Theorem 4.1-4.5 sample-size bounds."""
import pytest
import tables18_22_bounds as bounds_job

from repro.harness import findings as F


@pytest.mark.parametrize("name", [
    "facebook", "googleplus", "pokec", "orkut", "livejournal",
])
def test_bench_bounds(benchmark, spark, name):
    t = benchmark.pedantic(
        bounds_job.bounds_table, args=(spark, name), rounds=1, iterations=1)
    no = bounds_job.TABLE_NO[name]
    print()
    print(f"Table {no} ({name}):")
    print(t.to_string(index=False))
    assert (t[bounds_job.COLS].to_numpy() > 0).all()
    assert not F.failures(no, t)
