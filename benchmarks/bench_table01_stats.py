"""Benchmark: Table 1 (dataset statistics via the Catalyst LCC pass)."""
import table01_stats


def test_bench_table01(benchmark, spark):
    t = benchmark.pedantic(
        table01_stats.table01, args=(spark,), rounds=1, iterations=1)
    print()
    print("Table 1 (ours vs paper):")
    print(t.to_string(index=False))
    assert len(t) == 5
    # facebook is reproduced at the paper's scale
    fb = t[t.network == "facebook"].iloc[0]
    assert fb.n_nodes == 4000
    assert abs(fb.n_edges - 8.82e4) / 8.82e4 < 0.05
