"""Assembly of the paper's evaluation tables from harness output.

Maps each paper table number to (dataset, pair index), renders tables
in the paper's layout (rows = algorithms, columns = %|V| sample size)
and derives the Tables 23–26 "best algorithm at 5%|V|" summaries.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.harness import datasets
from repro.harness.experiment import DEFAULT_FRACS, nrmse_table

# paper table number -> (dataset, index into target_pairs(dataset))
NRMSE_TABLES: dict[int, tuple[str, int]] = {
    4: ("facebook", 0),
    5: ("googleplus", 0),
    6: ("pokec", 0), 7: ("pokec", 1), 8: ("pokec", 2), 9: ("pokec", 3),
    10: ("orkut", 0), 11: ("orkut", 1), 12: ("orkut", 2), 13: ("orkut", 3),
    14: ("livejournal", 0), 15: ("livejournal", 1),
    16: ("livejournal", 2), 17: ("livejournal", 3),
}

# paper table number (23-26) -> dataset(s) summarized
BEST_TABLES: dict[int, tuple[str, ...]] = {
    23: ("facebook", "googleplus"),
    24: ("pokec",),
    25: ("orkut",),
    26: ("livejournal",),
}


def reproduce_nrmse_table(spark: SparkSession, table_no: int,
                          n_sims: int = 60, seed: int = 0,
                          sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                          samplers: list[str] | None = None) -> pd.DataFrame:
    """Reproduce one of Tables 4–17."""
    name, pair_idx = NRMSE_TABLES[table_no]
    spec = datasets.SPECS[name]
    g = datasets.load(name)
    pair = datasets.target_pairs(name)[pair_idx]
    t = nrmse_table(
        spark, g, pair, burnin=spec.burnin, sample_fracs=sample_fracs,
        n_sims=n_sims, seed=seed + table_no, samplers=samplers,
    )
    t.attrs.update(dataset=name, pair=pair, table_no=table_no)
    return t


def best_at_frac(table: pd.DataFrame, frac: float = 0.05) -> tuple[str, float]:
    """(best algorithm, NRMSE) at one sample-size column — the Tables
    23–26 quantity. Only the paper's own 5 algorithms compete there."""
    ours = [a for a in table.index if not a.startswith("EX-")]
    col = table.loc[ours, frac]
    return str(col.idxmin()), float(col.min())


def best_summary(tables: list[pd.DataFrame], frac: float = 0.05) -> pd.DataFrame:
    """Tables 23–26 layout: one row per (dataset, pair)."""
    rows = []
    for t in tables:
        alg, v = best_at_frac(t, frac)
        rows.append({"dataset": t.attrs.get("dataset", "?"),
                     "pair": str(t.attrs.get("pair", "?")),
                     "best_algorithm": alg, "nrmse": round(v, 3)})
    return pd.DataFrame(rows)


def best_summaries(tables: list[pd.DataFrame], frac: float = 0.05
                   ) -> dict[int, pd.DataFrame]:
    """Tables 23–26: each one's ``best_summary`` over the tables on its
    datasets."""
    return {no: best_summary([t for t in tables if t.attrs["dataset"] in names], frac)
            for no, names in BEST_TABLES.items()}


def format_table(table: pd.DataFrame, decimals: int = 3) -> str:
    """Render a table in the paper's visual layout (markdown)."""
    shown = table.copy()
    shown.columns = [f"{c * 100:.1f}%|V|" for c in shown.columns]
    header = ""
    if "table_no" in table.attrs:
        header = (
            f"Table {table.attrs['table_no']}: {table.attrs.get('dataset')}, "
            f"target label={table.attrs.get('pair')}, "
            f"F={table.attrs.get('F')}, |E|={table.attrs.get('n_edges')}, "
            f"F/|E|={table.attrs.get('F', 0) / max(table.attrs.get('n_edges', 1), 1):.5%}\n"
        )
    return header + shown.round(decimals).to_string()
