"""Shared helpers for the table benchmarks.

Each benchmark reproduces one paper-table group end to end (graph ->
Spark Monte-Carlo fan-out -> NRMSE aggregation) with a reduced
simulation count (BENCH_SIMS; the paper uses 200 — see DESIGN.md §4.6),
times it via pytest-benchmark, prints the measured table, and asserts
its ``findings.REQUIRED`` entries so a silent regression fails the bench.
"""
from __future__ import annotations

import os

import pandas as pd

from repro.harness import findings as F

BENCH_SIMS = int(os.environ.get("BENCH_SIMS", "60"))
BENCH_SEED = 7


def assert_paper_shape(t: pd.DataFrame) -> None:
    """Headline finding (1): at 5%|V| one of the paper's algorithms is
    the best (within ``F.OURS_SLACK`` for Monte-Carlo noise at reduced
    sims)."""
    assert F.ours_best(t).held, (
        f"baselines beat our algorithms on table {t.attrs.get('table_no')}"
    )
