"""Spark-parallel Monte-Carlo harness for the NRMSE tables.

The paper's Tables 4–17 report, per (dataset, target pair), the NRMSE
of 10 algorithms over sample sizes 0.5%|V| … 5%|V|, each cell averaged
over 200 independent simulations. No walk reads a label, so one job
walks for every target pair of a dataset. This harness:

1. builds the CSR/degree/line-degree arrays once per graph on the
   driver and broadcasts them once per graph and SparkContext; the
   label/T(u)/indicator arrays of the job's target pairs are built per
   pair and broadcast together,
2. packs (sampler × sample-size × simulation-chunk) units, each seeded
   by its own indices, into about one ``mapInPandas`` task per core;
   each task runs its units as two lock-step NumPy batches, the node
   walks (NS, NE) and the line-graph walks (EX-*), on counter-based
   draws keyed per walker from the unit's Generator (``core.walks``),
   and emits one frame of (pair, algorithm, simulation) F-estimates,
3. collects those rows once and computes NRMSE, and its delta-method
   standard error, per (pair, algorithm, sample size) on the driver.

Sampler granularity: NeighborSample yields both NS-HH and NS-HT from
one sampled trajectory, NeighborExploration yields NE-HH/NE-HT/NE-RW,
and each EX-* chain yields its own estimate — so 7 chains produce the
paper's 10 table rows.
"""
from __future__ import annotations

import heapq
import math
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast, SparkContext
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import ex_algorithms as ex
from repro.baselines.linegraph import line_degrees
from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.core import walks
from repro.core.estimators import nrmse
from repro.graphs.csr import build_csr, edge_indicator, t_counts
from repro.graphs.generator import LabeledGraph
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

# Simulations per unit; ``perfbench.replay.tasks`` mirrors it by default.
CHUNK = 15


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

    Raises ValueError on ``burnin < 0``, a graph with an isolated node
    or a pair with no target edge (NRMSE divides by F).
    """
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    graph = graph_arrays(g)
    ind = edge_indicator(g.edges, g.labels, pair[0], pair[1]).astype(bool)
    n_target = int(ind.sum())
    if n_target == 0:
        raise ValueError(f"{g.name}: no edge carries target labels {pair}")
    return {
        **graph,
        "has_target": np.isin(g.labels, pair),
        "edge_ind": ind,
        "t_counts": t_counts(g.edges, ind, g.n),
        "n_nodes": g.n, "n_edges": g.n_edges,
        "burnin": int(burnin),
        "F": n_target,
    }


def run_samplers(ctxs: list[dict], units: list[tuple[str, int, int, np.random.Generator]]
                 ) -> list[list[dict[str, np.ndarray]]]:
    """Run a batch of units (sampler, k, n_sims, rng) on the graph and
    burn-in that ``ctxs`` share: the node walks (NS, NE) as one lock-step
    batch and the line-graph walks (EX-*) as another, each longest unit
    first. Returns, per unit in the order given, each context's
    per-algorithm estimate vectors of length n_sims, from the same walks.
    Every walker draws from its own key and the batch's call counter
    exactly what it draws alone, so a unit's estimates do not depend on
    the batch it shares."""
    csr, burnin = ctxs[0]["csr"], ctxs[0]["burnin"]
    order = sorted(range(len(units)), key=lambda i: -units[i][1])
    node = [i for i in order if units[i][0] in ("NS", "NE")]
    line = [i for i in order if units[i][0] not in ("NS", "NE")]
    walked = dict(zip(node, walks.srw_runs(csr, burnin, [units[i][1:] for i in node])))
    walked.update(zip(line, ex.walk(csr, ctxs[0]["line_deg"], burnin, [units[i] for i in line])))
    return [[_estimates(ctx, sampler, k, walked[i]) for ctx in ctxs]
            for i, (sampler, k, _, _) in enumerate(units)]


def _estimates(ctx: dict, sampler: str, k: int, walked: np.ndarray
               ) -> dict[str, np.ndarray]:
    """Per-algorithm estimates of one unit from its walk: arcs for NS
    and NE, edge ids for EX-*."""
    csr = ctx["csr"]
    if sampler == "NS":
        eids = csr.edge_ids[walked]
        return {
            "NeighborSample-HH": ns.hh_estimate(eids, ctx["edge_ind"], ctx["n_edges"]),
            "NeighborSample-HT": ns.ht_estimate(eids, ctx["edge_ind"], ctx["n_edges"]),
        }
    if sampler == "NE":
        # k is an API-call budget here: exploration calls are charged,
        # so NE runs fewer walk steps than NS at equal budget.
        nodes = csr.indices[walked]
        n_steps = ne.budget_cutoffs(nodes, ctx["has_target"], ctx["explore_cost"], k)
        return {
            "NeighborExploration-HH": ne.hh_estimate(
                nodes, ctx["t_counts"], ctx["degrees"], ctx["n_edges"], n_steps),
            "NeighborExploration-HT": ne.ht_estimate(
                nodes, ctx["t_counts"], ctx["degrees"], ctx["n_edges"], n_steps),
            "NeighborExploration-RW": ne.rw_estimate(
                nodes, ctx["t_counts"], ctx["degrees"], ctx["n_nodes"], n_steps),
        }
    return {sampler: ex.estimate(
        sampler, walked, ctx["line_deg"], ctx["edge_ind"], ctx["n_edges"])}


def run_sampler(ctx: dict, sampler: str, k: int, n_sims: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Run one chain for a chunk of simulations; return per-algorithm
    estimate vectors of length n_sims (``run_samplers`` with one unit)."""
    return run_samplers([ctx], [(sampler, k, n_sims, rng)])[0][0]


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


def simulate_all(spark: SparkSession, *ctxs: dict,
                 sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                 n_sims: int = 60, seed: int = 0) -> DataFrame:
    """Fan the Monte Carlo out over Spark: every chain in SAMPLERS, at
    every sample size, in units of at most CHUNK simulations, each unit
    walked once for all of ``ctxs`` (target pairs on one graph).

    Returns a DataFrame (pair, algorithm, frac, k, sim, est) with one
    row per (index into ``ctxs``, algorithm, simulation). Each task runs
    its packed units as two lock-step batches (``run_samplers``). Raises
    ValueError, before any Spark job, on no context, a non-dict context
    or contexts that do not share graph arrays and burn-in, ``n_sims < 1``, no
    ``sample_fracs``, or a fraction that is not finite, not positive or
    repeated (a repeat would pool two seeds' simulations into one cell).
    The graph arrays are broadcast once per graph and SparkContext and
    all pair arrays once per call; evaluate the result before calling
    this on another graph, which destroys the previous graph's broadcast.
    """
    ctx = ctxs[0] if ctxs else None
    if ctx is None or not all(isinstance(c, dict) and c["burnin"] == ctx["burnin"]
                              and all(c[k] is ctx[k] for k in GRAPH_KEYS) for c in ctxs):
        raise ValueError("simulate_all takes contexts sharing one graph and burnin "
                         "(sample_fracs, n_sims and seed are keyword-only)")
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims}")
    if not sample_fracs:
        raise ValueError("sample_fracs is empty")
    if not all(math.isfinite(f) and f > 0 for f in sample_fracs):
        raise ValueError(f"sample_fracs must be finite and > 0, got {sample_fracs}")
    if len(set(sample_fracs)) < len(sample_fracs):
        raise ValueError(f"sample_fracs has a repeated fraction: {sample_fracs}")
    # Each unit is seeded by its own indices, so packing changes no estimate.
    units = []
    for s_idx, sampler in enumerate(SAMPLERS):
        for f_idx, frac in enumerate(sample_fracs):
            k = max(1, int(round(frac * ctx["n_nodes"])))
            for c_idx, sim0 in enumerate(range(0, n_sims, CHUNK)):
                units.append((sampler, float(frac), k, sim0,
                              min(CHUNK, n_sims - sim0),
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
    pairs_bc = sc.broadcast([{k: v for k, v in c.items() if k not in GRAPH_KEYS} for c in ctxs])

    def run_units(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local_ctxs = [{**graph_bc.value, **p} for p in pairs_bc.value]
        for pdf in batches:
            for t in pdf["id"]:
                ests = run_samplers(local_ctxs, [
                    (sampler, k, n, np.random.default_rng(key))
                    for sampler, _, k, _, n, key in packed[t]])
                yield pd.concat([pd.DataFrame({
                    "pair": pair, "algorithm": alg, "frac": frac, "k": k,
                    "sim": np.arange(sim0, sim0 + n),
                    "est": vec.astype(np.float64),
                }) for (_, frac, k, sim0, n, _), per_pair in zip(packed[t], ests)
                    for pair, est in enumerate(per_pair)
                    for alg, vec in est.items()], ignore_index=True)

    schema = "pair long, algorithm string, frac double, k long, sim long, est double"
    return spark.range(0, n_tasks, 1, n_tasks).mapInPandas(run_units, schema=schema)


def nrmse_tables(spark: SparkSession, g: LabeledGraph, pairs: list[tuple[int, int]],
                 burnin: int, sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                 n_sims: int = 60, seed: int = 0) -> list[pd.DataFrame]:
    """One paper-style NRMSE table per target pair, from one
    ``simulate_all`` job on ``g``: rows = algorithms (paper order),
    columns = sample-size fractions, values = NRMSE over n_sims. A
    table does not depend on the other pairs in the job. The estimates
    are collected once and Eq. 24 is computed on the driver.
    ``attrs["se"]`` holds each cell's delta-method standard error,
    sd((F̂−F)²) / (2√n · NRMSE · F²), from the same n estimates (sd with
    n − 1 degrees of freedom), or 0 where every estimate is exactly F."""
    ctxs = [build_context(g, pair, burnin) for pair in pairs]
    rows = simulate_all(spark, *ctxs, sample_fracs=sample_fracs, n_sims=n_sims, seed=seed)
    out = []
    for ctx, (_, est) in zip(ctxs, rows.toPandas().groupby("pair")):
        truth = float(ctx["F"])
        pivot = est.groupby(["algorithm", "frac"])["est"].agg(
            lambda e: nrmse(e.to_numpy(), truth)).unstack("frac")
        pivot = pivot.loc[ALGORITHM_ORDER, sorted(pivot.columns)]
        sq = ((est["est"] - truth) ** 2).groupby([est["algorithm"], est["frac"]])
        sd = (sq.std() / np.sqrt(sq.count())).unstack("frac").loc[pivot.index, pivot.columns]
        pivot.attrs["se"] = (sd / (2 * pivot * truth ** 2)).mask(pivot == 0, 0.0)
        pivot.attrs.update(F=ctx["F"], n_edges=ctx["n_edges"], n_nodes=ctx["n_nodes"])
        out.append(pivot)
    return out
