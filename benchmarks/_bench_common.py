"""Shared helpers for the table benchmarks.

Each benchmark reproduces one paper-table group end to end (graph ->
Spark Monte-Carlo fan-out -> NRMSE aggregation) with a reduced
simulation count (BENCH_SIMS; the paper uses 200 — see DESIGN.md §4.6),
times it via pytest-benchmark, prints the measured table, and asserts
the paper's qualitative shape so a silent regression fails the bench.
"""
from __future__ import annotations

import os

import pandas as pd

from repro.harness import tables as T

BENCH_SIMS = int(os.environ.get("BENCH_SIMS", "60"))
BENCH_SEED = 7


def reproduce_and_print(spark, table_no: int) -> pd.DataFrame:
    t = T.reproduce_nrmse_table(
        spark, table_no, n_sims=BENCH_SIMS, seed=BENCH_SEED)
    print()
    print(T.format_table(t))
    return t


def best_ours(t: pd.DataFrame, frac: float = 0.05) -> float:
    return T.best_at_frac(t, frac)[1]


def best_baseline(t: pd.DataFrame, frac: float = 0.05) -> float:
    base = [a for a in t.index if a.startswith("EX-")]
    return float(t.loc[base, frac].min())


def assert_paper_shape(t: pd.DataFrame, frac: float = 0.05,
                       slack: float = 1.35) -> None:
    """Headline finding (1): at 5%|V| one of the paper's algorithms is
    the best (allow `slack` for Monte-Carlo noise at reduced sims)."""
    assert best_ours(t, frac) <= best_baseline(t, frac) * slack, (
        f"baselines beat our algorithms on table {t.attrs.get('table_no')}"
    )


def assert_error_decreases(t: pd.DataFrame, algorithm: str,
                           slack: float = 1.25) -> None:
    """Finding (3): NRMSE at the largest budget is below the smallest
    budget (with slack — single columns are noisy at reduced sims)."""
    first, last = t.columns.min(), t.columns.max()
    assert t.loc[algorithm, last] <= t.loc[algorithm, first] * slack
