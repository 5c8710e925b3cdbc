"""Assembly of the paper's evaluation tables from harness output.

Maps each paper table number to (dataset, pair index), renders tables
in the paper's layout (rows = algorithms, columns = %|V| sample size)
and derives the Tables 23–26 "best algorithm at 5%|V|" summaries.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.harness import datasets
from repro.harness.experiment import DEFAULT_FRACS, nrmse_tables
from repro.harness.findings import FULL

# paper table number -> (dataset, index into target_pairs(dataset))
NRMSE_TABLES: dict[int, tuple[str, int]] = {
    4: ("facebook", 0),
    5: ("googleplus", 0),
    6: ("pokec", 0), 7: ("pokec", 1), 8: ("pokec", 2), 9: ("pokec", 3),
    10: ("orkut", 0), 11: ("orkut", 1), 12: ("orkut", 2), 13: ("orkut", 3),
    14: ("livejournal", 0), 15: ("livejournal", 1),
    16: ("livejournal", 2), 17: ("livejournal", 3),
}

# dataset -> its paper table numbers, in paper order.
DATASET_TABLES: dict[str, list[int]] = {
    name: [no for no, (d, _) in NRMSE_TABLES.items() if d == name]
    for name, _ in NRMSE_TABLES.values()
}

# paper table number (23-26) -> dataset(s) summarized
BEST_TABLES: dict[int, tuple[str, ...]] = {
    23: ("facebook", "googleplus"),
    24: ("pokec",),
    25: ("orkut",),
    26: ("livejournal",),
}


def reproduce_nrmse_tables(spark: SparkSession, table_nos, n_sims: int = 60,
                           seed: int = 0, sample_fracs: tuple[float, ...] = DEFAULT_FRACS
                           ) -> dict[int, pd.DataFrame]:
    """Tables ``table_nos`` (a collection of 4–17) by number, one job per
    dataset, seeded with ``seed`` plus the dataset's first table number:
    a table does not depend on which other tables run with it."""
    out = {}
    for name in dict.fromkeys(NRMSE_TABLES[no][0] for no in sorted(table_nos)):
        nos = [no for no in DATASET_TABLES[name] if no in table_nos]
        pairs = [datasets.target_pairs(name)[NRMSE_TABLES[no][1]] for no in nos]
        ts = nrmse_tables(spark, datasets.load(name), pairs, datasets.SPECS[name].burnin,
                          sample_fracs, n_sims, seed + DATASET_TABLES[name][0])
        for no, pair, t in zip(nos, pairs, ts):
            t.attrs.update(dataset=name, pair=pair, table_no=no)
            out[no] = t
    return out


def reproduce_nrmse_table(spark: SparkSession, table_no: int,
                          n_sims: int = 60, seed: int = 0,
                          sample_fracs: tuple[float, ...] = DEFAULT_FRACS) -> pd.DataFrame:
    """Reproduce one of Tables 4–17 (``reproduce_nrmse_tables`` of one)."""
    return reproduce_nrmse_tables(spark, [table_no], n_sims, seed, sample_fracs)[table_no]


def best_at_frac(table: pd.DataFrame) -> tuple[str, float]:
    """(best algorithm, NRMSE) at the 5%|V| column — the Tables 23–26
    quantity. Only the paper's own 5 algorithms compete there."""
    ours = [a for a in table.index if not a.startswith("EX-")]
    col = table.loc[ours, FULL]
    return str(col.idxmin()), float(col.min())


def best_summary(tables: list[pd.DataFrame]) -> pd.DataFrame:
    """Tables 23–26 layout: one row per (dataset, pair)."""
    rows = []
    for t in tables:
        alg, v = best_at_frac(t)
        rows.append({"dataset": t.attrs.get("dataset", "?"),
                     "pair": str(t.attrs.get("pair", "?")),
                     "best_algorithm": alg, "nrmse": round(v, 3)})
    return pd.DataFrame(rows)


def best_summaries(tables: list[pd.DataFrame]) -> dict[int, pd.DataFrame]:
    """Tables 23–26: each one's ``best_summary`` over the tables on its
    datasets."""
    return {no: best_summary([t for t in tables if t.attrs["dataset"] in names])
            for no, names in BEST_TABLES.items()}


def format_table(table: pd.DataFrame) -> str:
    """Render a table in the paper's visual layout (markdown), to 3
    decimals as the paper prints it."""
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
    return header + shown.round(3).to_string()
