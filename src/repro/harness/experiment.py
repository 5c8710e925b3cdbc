"""Spark-parallel Monte-Carlo harness for the NRMSE tables.

The paper's Tables 4–17 report, per (dataset, target pair), the NRMSE
of 10 algorithms over sample sizes 0.5%|V| … 5%|V|, each cell averaged
over 200 independent simulations. This harness:

1. builds the CSR/label/T(u)/line-degree arrays once on the driver and
   broadcasts them,
2. fans out (sampler × sample-size × simulation-chunk) tasks with
   ``mapInPandas`` — each task runs a lock-step NumPy batch of
   independent walkers and emits one F-estimate row per (algorithm,
   simulation),
3. aggregates NRMSE per (algorithm, sample size) with a Spark groupBy.

Sampler granularity: NeighborSample yields both NS-HH and NS-HT from
one sampled trajectory, NeighborExploration yields NE-HH/NE-HT/NE-RW,
and each EX-* chain yields its own estimate — so 7 chains produce the
paper's 10 table rows.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import ex_algorithms as ex
from repro.baselines.linegraph import line_degrees
from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.graphs.csr import build_csr, edge_indicator, t_counts
from repro.graphs.generator import LabeledGraph
from repro.harness.nrmse import nrmse_agg

# Paper row order (Tables 4–17).
ALGORITHM_ORDER = [
    "NeighborSample-HH",
    "NeighborSample-HT",
    "NeighborExploration-HH",
    "NeighborExploration-HT",
    "NeighborExploration-RW",
    "EX-MDRW",
    "EX-MHRW",
    "EX-RW",
    "EX-RCMH",
    "EX-GMD",
]

SAMPLERS = ["NS", "NE", "EX-RW", "EX-MHRW", "EX-MDRW", "EX-RCMH", "EX-GMD"]

# Paper sample sizes: 0.5%|V| .. 5%|V|.
DEFAULT_FRACS = tuple(round(0.005 * i, 4) for i in range(1, 11))


def build_context(g: LabeledGraph, pair: tuple[int, int], burnin: int) -> dict:
    """Precompute every array the samplers need (driver side, once).

    Raises ValueError on a graph with an isolated node (no walk can
    leave it, and NE divides by d(u)) or a pair with no target edge
    (NRMSE divides by F).
    """
    csr = build_csr(g.edges, g.n)
    isolated = np.flatnonzero(csr.degrees == 0)
    if isolated.size:
        raise ValueError(
            f"{g.name}: {isolated.size} isolated node(s), e.g. {isolated[:5].tolist()}")
    ind = edge_indicator(g.edges, g.labels, pair[0], pair[1])
    n_target = int(ind.sum())
    if n_target == 0:
        raise ValueError(f"{g.name}: no edge carries target labels {pair}")
    if pair[0] == pair[1]:
        has_target = g.labels == pair[0]
    else:
        has_target = (g.labels == pair[0]) | (g.labels == pair[1])
    return {
        "csr": csr,
        "has_target": has_target,
        "explore_cost": ne.explore_cost(csr.degrees),
        "edge_ind": ind,
        "t_counts": t_counts(g.edges, g.labels, g.n, pair[0], pair[1]),
        "degrees": csr.degrees,
        "line_deg": line_degrees(csr),
        "n_nodes": g.n, "n_edges": g.n_edges,
        "burnin": int(burnin),
        "F": n_target,
    }


def run_sampler(ctx: dict, sampler: str, k: int, n_sims: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Run one chain for a chunk of simulations; return per-algorithm
    estimate vectors of length n_sims."""
    csr = ctx["csr"]
    burnin = ctx["burnin"]
    if sampler == "NS":
        eids = ns.sample_edges_batch(csr, k, burnin, n_sims, rng)
        return {
            "NeighborSample-HH": ns.hh_estimate(eids, ctx["edge_ind"], ctx["n_edges"]),
            "NeighborSample-HT": ns.ht_estimate(eids, ctx["edge_ind"], ctx["n_edges"]),
        }
    if sampler == "NE":
        # k is an API-call budget here: exploration calls are charged,
        # so NE runs fewer walk steps than NS at equal budget.
        nodes, n_steps = ne.sample_nodes_budgeted(
            csr, k, burnin, n_sims, ctx["has_target"], ctx["explore_cost"], rng
        )
        return {
            "NeighborExploration-HH": ne.hh_estimate(
                nodes, ctx["t_counts"], ctx["degrees"], ctx["n_edges"], n_steps),
            "NeighborExploration-HT": ne.ht_estimate(
                nodes, ctx["t_counts"], ctx["degrees"], ctx["n_edges"], n_steps),
            "NeighborExploration-RW": ne.rw_estimate(
                nodes, ctx["t_counts"], ctx["degrees"], ctx["n_nodes"], n_steps),
        }
    eids = ex.walk(csr, ctx["line_deg"], sampler, k, burnin, n_sims, rng)
    return {sampler: ex.estimate(
        sampler, eids, ctx["line_deg"], ctx["edge_ind"], ctx["n_edges"])}


def simulate_all(spark: SparkSession, ctx: dict,
                 sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                 n_sims: int = 60, seed: int = 0, chunk: int = 15,
                 samplers: list[str] | None = None) -> DataFrame:
    """Fan the Monte Carlo out over Spark.

    Returns a DataFrame (algorithm, frac, k, sim, est) with one row per
    (algorithm, simulation).
    """
    samplers = samplers or SAMPLERS
    n_nodes = ctx["n_nodes"]
    tasks = []
    for s_idx, sampler in enumerate(samplers):
        for f_idx, frac in enumerate(sample_fracs):
            k = max(1, int(round(frac * n_nodes)))
            start = 0
            c_idx = 0
            while start < n_sims:
                size = min(chunk, n_sims - start)
                tasks.append(
                    (sampler, float(frac), int(k), int(start), int(size),
                     int(s_idx), int(f_idx), int(c_idx))
                )
                start += size
                c_idx += 1
    tasks_pdf = pd.DataFrame(
        tasks,
        columns=["sampler", "frac", "k", "sim0", "n", "s_idx", "f_idx", "c_idx"],
    )
    sc = spark.sparkContext
    bc = sc.broadcast(ctx)

    def run_chunk(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local_ctx = bc.value
        for pdf in batches:
            for row in pdf.itertuples(index=False):
                rng = np.random.default_rng(
                    [seed, row.s_idx, row.f_idx, row.c_idx]
                )
                ests = run_sampler(local_ctx, row.sampler, row.k, row.n, rng)
                for alg, vec in ests.items():
                    yield pd.DataFrame(
                        {
                            "algorithm": alg,
                            "frac": row.frac,
                            "k": row.k,
                            "sim": np.arange(row.sim0, row.sim0 + row.n),
                            "est": vec.astype(np.float64),
                        }
                    )

    tasks_df = spark.createDataFrame(tasks_pdf).repartition(len(tasks))
    schema = "algorithm string, frac double, k long, sim long, est double"
    return tasks_df.mapInPandas(run_chunk, schema=schema)


def nrmse_table(spark: SparkSession, g: LabeledGraph, pair: tuple[int, int],
                burnin: int, sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                n_sims: int = 60, seed: int = 0, chunk: int = 15,
                samplers: list[str] | None = None) -> pd.DataFrame:
    """One paper-style NRMSE table: rows = algorithms (paper order),
    columns = sample-size fractions, values = NRMSE over n_sims."""
    ctx = build_context(g, pair, burnin)
    est = simulate_all(
        spark, ctx, sample_fracs, n_sims=n_sims, seed=seed, chunk=chunk,
        samplers=samplers,
    )
    agg = nrmse_agg(est, float(ctx["F"]), ["algorithm", "frac"]).toPandas()
    pivot = agg.pivot(index="algorithm", columns="frac", values="nrmse")
    order = [a for a in ALGORITHM_ORDER if a in pivot.index]
    pivot = pivot.loc[order, sorted(pivot.columns)]
    pivot.attrs["F"] = ctx["F"]
    pivot.attrs["n_edges"] = ctx["n_edges"]
    pivot.attrs["n_nodes"] = ctx["n_nodes"]
    return pivot
