"""Spark-parallel Monte-Carlo harness for the NRMSE tables.

The paper's Tables 4–17 report, per (dataset, target pair), the NRMSE
of 10 algorithms over sample sizes 0.5%|V| … 5%|V|, each cell averaged
over 200 independent simulations. This harness:

1. builds the CSR/degree/line-degree arrays once per graph on the
   driver and broadcasts them once per graph and SparkContext; the
   label/T(u)/indicator arrays of one target pair are built and
   broadcast per table,
2. packs (sampler × sample-size × simulation-chunk) units, each seeded
   by its own indices, into about one ``mapInPandas`` task per core —
   each unit is a lock-step NumPy batch of independent walkers, and
   each task emits one frame of (algorithm, simulation) F-estimates,
3. aggregates NRMSE per (algorithm, sample size) with a Spark groupBy.

Sampler granularity: NeighborSample yields both NS-HH and NS-HT from
one sampled trajectory, NeighborExploration yields NE-HH/NE-HT/NE-RW,
and each EX-* chain yields its own estimate — so 7 chains produce the
paper's 10 table rows.
"""
from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import ex_algorithms as ex
from repro.baselines.linegraph import line_degrees
from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.graphs.csr import build_csr, edge_indicator, t_counts
from repro.graphs.generator import LabeledGraph
from repro.harness.nrmse import nrmse_agg
from repro.harness.paper_numbers import SAMPLE_FRACS
from repro.osn.api import explore_cost

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
DEFAULT_FRACS = SAMPLE_FRACS


# Context keys that depend on the graph alone: computed once per graph
# by ``build_context`` and broadcast once per graph by ``simulate_all``.
GRAPH_KEYS = ("csr", "degrees", "line_deg", "explore_cost")

# Size-one memos, so at most one graph's arrays stay alive: (edges, n,
# graph arrays) of the last graph built, and (SparkContext, graph
# arrays, Broadcast) of the last graph broadcast. A paper table runs on
# one graph, and its callers pass only the graph or the context.
_graph_memo: tuple | None = None
_graph_bcast: tuple | None = None


def graph_arrays(g: LabeledGraph) -> dict:
    """The GRAPH_KEYS arrays of ``g``, rebuilt only when ``g``'s edge
    array or node count differs from the last call's (``datasets.load``
    returns one cached graph per dataset). Raises ValueError on an
    isolated node (no walk can leave it, and NE divides by d(u))."""
    global _graph_memo
    if _graph_memo is None or _graph_memo[0] is not g.edges or _graph_memo[1] != g.n:
        csr = build_csr(g.edges, g.n)
        isolated = np.flatnonzero(csr.degrees == 0)
        if isolated.size:
            raise ValueError(
                f"{g.name}: {isolated.size} isolated node(s), e.g. {isolated[:5].tolist()}")
        _graph_memo = (g.edges, g.n, {
            "csr": csr,
            "degrees": csr.degrees,
            "line_deg": line_degrees(csr),
            "explore_cost": explore_cost(csr.degrees),
        })
    return _graph_memo[2]


def build_context(g: LabeledGraph, pair: tuple[int, int], burnin: int) -> dict:
    """Every array the samplers need (driver side): the graph arrays,
    shared by every call on the same graph, and the target pair's.

    Raises ValueError on a graph with an isolated node or a pair with
    no target edge (NRMSE divides by F).
    """
    graph = graph_arrays(g)
    ind = edge_indicator(g.edges, g.labels, pair[0], pair[1]).astype(bool)
    n_target = int(ind.sum())
    if n_target == 0:
        raise ValueError(f"{g.name}: no edge carries target labels {pair}")
    if pair[0] == pair[1]:
        has_target = g.labels == pair[0]
    else:
        has_target = (g.labels == pair[0]) | (g.labels == pair[1])
    return {
        **graph,
        "has_target": has_target,
        "edge_ind": ind,
        "t_counts": t_counts(g.edges, g.labels, g.n, pair[0], pair[1]),
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


def _broadcast_graph(sc: SparkContext, ctx: dict) -> Broadcast:
    """Broadcast ``ctx``'s GRAPH_KEYS arrays once per (SparkContext,
    graph): the last broadcast is reused while both come back, and
    destroyed when another graph's arrays arrive on the same context.
    A reused Python worker is sent only the broadcasts it lacks, so it
    unpickles each graph once."""
    global _graph_bcast
    if _graph_bcast is not None and _graph_bcast[0] is sc:
        _, arrays, bc = _graph_bcast
        if all(ctx[k] is arrays[k] for k in GRAPH_KEYS):
            return bc
        bc.destroy()
    arrays = {k: ctx[k] for k in GRAPH_KEYS}
    _graph_bcast = (sc, arrays, sc.broadcast(arrays))
    return _graph_bcast[2]


def simulate_all(spark: SparkSession, ctx: dict,
                 sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                 n_sims: int = 60, seed: int = 0, chunk: int = 15,
                 samplers: list[str] | None = None) -> DataFrame:
    """Fan the Monte Carlo out over Spark.

    Returns a DataFrame (algorithm, frac, k, sim, est) with one row per
    (algorithm, simulation). Raises ValueError, before any Spark job, on
    ``n_sims < 1``, no ``sample_fracs`` or a sampler not in SAMPLERS.
    The graph arrays are broadcast once per graph and SparkContext and
    the pair arrays per call; evaluate the result before calling this on
    another graph, which destroys the previous graph's broadcast.
    """
    samplers = samplers or SAMPLERS
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims}")
    if not sample_fracs:
        raise ValueError("sample_fracs is empty")
    if unknown := sorted(set(samplers) - set(SAMPLERS)):
        raise ValueError(f"unknown sampler(s) {unknown}; known: {SAMPLERS}")
    # Each unit is seeded by its own indices, so packing changes no estimate.
    units = []
    for s_idx, sampler in enumerate(samplers):
        for f_idx, frac in enumerate(sample_fracs):
            k = max(1, int(round(frac * ctx["n_nodes"])))
            for c_idx, sim0 in enumerate(range(0, n_sims, chunk)):
                units.append((sampler, float(frac), k, sim0,
                              min(chunk, n_sims - sim0),
                              [seed, s_idx, f_idx, c_idx]))
    # Longest walker-steps first onto the least-loaded of ~one task per core.
    n_tasks = min(spark.sparkContext.defaultParallelism, len(units))
    packed = [[] for _ in range(n_tasks)]
    loads = [(0, t) for t in range(n_tasks)]
    for unit in sorted(units, key=lambda u: -(ctx["burnin"] + u[2]) * u[4]):
        load, t = heapq.heappop(loads)
        packed[t].append(unit)
        heapq.heappush(loads, (load + (ctx["burnin"] + unit[2]) * unit[4], t))
    sc = spark.sparkContext
    graph_bc = _broadcast_graph(sc, ctx)
    pair_bc = sc.broadcast({k: v for k, v in ctx.items() if k not in GRAPH_KEYS})

    def run_units(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local_ctx = {**graph_bc.value, **pair_bc.value}
        for pdf in batches:
            for t in pdf["id"]:
                frames = []
                for sampler, frac, k, sim0, n, key in packed[t]:
                    ests = run_sampler(local_ctx, sampler, k, n,
                                       np.random.default_rng(key))
                    frames += [pd.DataFrame({
                        "algorithm": alg, "frac": frac, "k": k,
                        "sim": np.arange(sim0, sim0 + n),
                        "est": vec.astype(np.float64),
                    }) for alg, vec in ests.items()]
                yield pd.concat(frames, ignore_index=True)

    schema = "algorithm string, frac double, k long, sim long, est double"
    return spark.range(0, n_tasks, 1, n_tasks).mapInPandas(run_units, schema=schema)


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
