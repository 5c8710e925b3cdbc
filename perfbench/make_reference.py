"""Regenerate the stored reference tables the NRMSE gate compares with.

Usage (from the repository root):
    python3 perfbench/make_reference.py

For each NRMSE workload it runs ``simulate_all`` once with REF_SIMS
simulations at a seed no workload uses, checks that the paper findings
hold on that run's NRMSE table, then bootstraps the workload's table
(N_BOOT replicates) from those estimates: each (sampler, budget) draws
its simulations independently and the algorithms of one sampler share
the draw, as they share a trajectory in the harness. Per cell it stores
the mean and spread of log NRMSE, the spread widened by sqrt(1 + n / N)
for the reference's own Monte-Carlo error. For each ground-truth
workload it stores the bounds table, which is deterministic.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import env  # noqa: E402

REF_SEED = 9001
REF_SIMS = 600
N_BOOT = 4000


def sampler_of(alg: str) -> str:
    return {"NeighborSample": "NS", "NeighborExploration": "NE"}.get(
        alg.split("-")[0], alg)


def build(spark, table_no: int, n_sims: int) -> dict:
    import numpy as np
    import pandas as pd

    from perfbench import gate
    from repro.harness import datasets, experiment, tables

    name, pair_idx = tables.NRMSE_TABLES[table_no]
    pair = datasets.target_pairs(name)[pair_idx]
    ctx = experiment.build_context(datasets.load(name), pair,
                                   datasets.SPECS[name].burnin)
    truth = float(ctx["F"])
    est = experiment.simulate_all(spark, ctx, n_sims=REF_SIMS,
                                  seed=REF_SEED + table_no).toPandas()
    rng = np.random.default_rng(REF_SEED)
    boot: dict[tuple[str, float], np.ndarray] = {}
    for (sampler, frac), grp in est.assign(
            sampler=est["algorithm"].map(sampler_of)).groupby(["sampler", "frac"]):
        wide = grp.pivot(index="sim", columns="algorithm", values="est")
        if len(wide) != REF_SIMS:
            raise SystemExit(f"{sampler} @ {frac}: {len(wide)} of {REF_SIMS} simulations")
        idx = rng.integers(0, REF_SIMS, size=(N_BOOT, n_sims))
        for alg in wide.columns:
            draws = wide[alg].to_numpy()[idx]
            boot[(alg, float(frac))] = (
                np.sqrt(np.mean((draws - truth) ** 2, axis=1)) / truth)
    widen = math.sqrt(1.0 + n_sims / REF_SIMS)
    cells = {}
    for (alg, frac), b in boot.items():
        lb = np.log(b)
        cells[gate.cell_key(alg, frac)] = {
            "log_center": float(lb.mean()),
            "log_se": float(lb.std(ddof=1) * widen),
            "nrmse_ref": float(np.sqrt(np.mean(
                (est.loc[(est.algorithm == alg) & (est.frac == frac), "est"]
                 - truth) ** 2)) / truth),
        }
    full = pd.DataFrame({f: [cells[gate.cell_key(a, f)]["nrmse_ref"]
                             for a in experiment.ALGORITHM_ORDER]
                         for f in experiment.DEFAULT_FRACS},
                        index=experiment.ALGORITHM_ORDER)
    problems = gate.check_findings(full)
    if problems:
        raise SystemExit(f"table {table_no} at the reference: {'; '.join(problems)}")
    return {"table_no": table_no, "dataset": name, "pair": list(pair), "F": int(truth),
            "n_sims": n_sims, "ref_sims": REF_SIMS, "ref_seed": REF_SEED + table_no,
            "n_boot": N_BOOT, "cells": cells}


def build_bounds(spark, dataset: str) -> dict:
    """The ground-truth workload's bounds, to compare to the last digits
    that a different summation order may change."""
    from perfbench import workloads

    t = workloads.bounds_job().bounds_table(spark, dataset)
    return {"dataset": dataset, "rows": t.to_dict(orient="records")}


def main() -> None:
    env.pin(ROOT)
    from perfbench import gate, workloads

    spark = env.start_spark()
    try:
        for w in workloads.NRMSE:
            ref = build(spark, w.table_no, w.n_sims)
            path = gate.reference_path(w.table_no)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
        for w in workloads.TRUTH:
            path = gate.bounds_reference_path(w.dataset)
            path.write_text(json.dumps(build_bounds(spark, w.dataset), indent=1,
                                       sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        env.shutdown(spark)
        env.cleanup()


if __name__ == "__main__":
    main()
