"""Correctness gate: every benchmark operation is checked here, untimed.

A check returns a list of failure messages; an empty list means the
operation passed. Failed operations are counted, never hidden.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pandas as pd

from benchmarks._bench_common import assert_paper_shape
from perfbench.workloads import bounds_job
from repro import oracle
from repro.harness import datasets
from repro.harness.experiment import ALGORITHM_ORDER, DEFAULT_FRACS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Family-wise false-alarm rate over the row tests of a table.
FAMILY_ALPHA = 1e-3
# Gross-error guard for one cell, in reference standard errors. Over 200
# re-seeded tables (Tables 4 and 10, at 15 and 30 simulations) the largest
# single-cell deviation was 5.1 SE, while row means behaved as normal.
CELL_Z = 7.0
# Bounds are deterministic up to Spark's summation order.
BOUNDS_RTOL = 1e-9


def reference_path(table_no: int) -> Path:
    return REFERENCE_DIR / f"table{table_no:02d}.json"


def bounds_reference_path(dataset: str) -> Path:
    return REFERENCE_DIR / f"bounds_{dataset}.json"


def load_reference(table_no: int) -> dict:
    return json.loads(reference_path(table_no).read_text())


def cell_key(alg: str, frac: float) -> str:
    return f"{alg}|{frac:g}"


def family_z(n_tests: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided Bonferroni z for ``n_tests`` simultaneous comparisons."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * n_tests))


def check_nrmse_table(t: pd.DataFrame, ref: dict) -> list[str]:
    """Shape, exact F and Monte-Carlo agreement with the stored reference
    for one ``reproduce_nrmse_table`` result.

    Each cell's deviation from the reference is standardised on the log
    scale. Single cells have heavier tails than normal, so a cell fails
    only past CELL_Z; the calibrated test is per algorithm row, on the
    mean of its 10 independent deviations, with z family-wise over the
    rows, so an unbiased re-seeding passes.
    """
    if list(t.index) != ALGORITHM_ORDER or list(t.columns) != list(DEFAULT_FRACS):
        return [f"table is not 10 algorithms x 10 budgets: {t.shape}"]
    vals = t.to_numpy(dtype=np.float64)
    if not (np.isfinite(vals).all() and (vals > 0).all()):
        return ["a cell is not finite and positive"]
    fails = []
    name, pair = t.attrs["dataset"], t.attrs["pair"]
    if t.attrs["F"] != datasets.exact_f(name, pair):
        fails.append(f"F={t.attrs['F']} != exact {datasets.exact_f(name, pair)}")
    z = family_z(len(t.index))
    for alg in t.index:
        devs = []
        for frac in t.columns:
            cell = ref["cells"][cell_key(alg, frac)]
            dev = (math.log(t.loc[alg, frac]) - cell["log_center"]) / cell["log_se"]
            devs.append(dev)
            if abs(dev) > CELL_Z:
                fails.append(f"{alg} @ {frac:g}: NRMSE {t.loc[alg, frac]:.4f} is "
                             f"{dev:+.1f} SE from the reference")
        row = math.sqrt(len(devs)) * float(np.mean(devs))
        if abs(row) > z:
            fails.append(f"{alg}: mean deviation {row:+.2f} > {z:.2f} SE of the mean")
    return fails


def pool(tables: list[pd.DataFrame]) -> pd.DataFrame:
    """NRMSE over all the tables' simulations together: each cell is the
    root of the mean squared NRMSE (the tables have equal sizes)."""
    out = np.sqrt(sum(t ** 2 for t in tables) / len(tables))
    out.attrs = dict(tables[0].attrs)
    return out


def check_findings(t: pd.DataFrame) -> list[str]:
    """Table 10's paper findings, as ``benchmarks/bench_tables10_13_orkut.py``
    asserts them and with the same slack: one of the paper's algorithms is
    best at 5 %|V| (``assert_paper_shape``), and NeighborExploration beats
    NeighborSample there."""
    fails = []
    try:
        assert_paper_shape(t)
    except AssertionError as e:
        fails.append(f"finding ours_beat_baselines: {e}")
    hi = DEFAULT_FRACS[-1]
    ne = t.loc[["NeighborExploration-HH", "NeighborExploration-RW"], hi].min()
    ns = t.loc[["NeighborSample-HH", "NeighborSample-HT"], hi].min()
    if not ne < ns:
        fails.append(f"finding ne_beats_ns: NE {ne:.4f} >= NS {ns:.4f}")
    return fails


def check_truth(spark, name: str, lcc_nodes: np.ndarray,
                bounds: pd.DataFrame) -> list[str]:
    """LCC size, exact and DuckDB-checked F per pair, positive bounds equal
    to the stored ones, and the NE-HH < NS-HH ordering for one
    ground-truth pass."""
    g = datasets.load(name)
    fails = []
    if len(np.unique(lcc_nodes)) != g.n:
        fails.append(f"LCC has {len(np.unique(lcc_nodes))} nodes, expected {g.n}")
    pairs = datasets.target_pairs(name)
    if [str(p) for p in pairs] != list(bounds["pair"]):
        return fails + [f"bounds pairs {list(bounds['pair'])} != {pairs}"]
    for p, f in zip(pairs, bounds["F"]):
        if int(f) != datasets.exact_f(name, p):
            fails.append(f"pair {p}: F={f} != exact {datasets.exact_f(name, p)}")
    got = spark.createDataFrame(pd.DataFrame({
        "t1": [p[0] for p in pairs], "t2": [p[1] for p in pairs],
        "f": bounds["F"].astype(np.int64)}))
    try:
        oracle.assert_equivalent(
            got,
            """SELECT p.t1, p.t2, SUM(CASE WHEN (a.label = p.t1 AND b.label = p.t2)
                                           OR (a.label = p.t2 AND b.label = p.t1)
                                      THEN 1 ELSE 0 END) AS f
               FROM pairs p, edges e
               JOIN labels a ON e.src = a.node JOIN labels b ON e.dst = b.node
               GROUP BY p.t1, p.t2""",
            pairs=got.toPandas()[["t1", "t2"]],
            edges=pd.DataFrame({"src": g.edges[:, 0], "dst": g.edges[:, 1]}),
            labels=pd.DataFrame({"node": np.arange(g.n), "label": g.labels}),
        )
    except AssertionError as e:
        fails.append(f"F disagrees with DuckDB: {e}")
    cols = bounds_job().COLS
    b = bounds[cols].to_numpy(dtype=np.float64)
    if not (np.isfinite(b).all() and (b > 0).all()):
        fails.append("a bound is not finite and positive")
    ref = pd.DataFrame(json.loads(bounds_reference_path(name).read_text())["rows"])
    if not np.allclose(b, ref[cols].to_numpy(dtype=np.float64), rtol=BOUNDS_RTOL, atol=0):
        fails.append("bounds differ from the stored reference")
    if not (bounds["NeighborExploration-HH"] < bounds["NeighborSample-HH"]).all():
        fails.append("NE-HH bound is not below NS-HH bound")
    return fails
