"""Per-layer probes for the traced run.

Each probe calls the public functions of one layer from here, inside a
span, and returns that layer's metrics. The probes run on the
workload's own dataset and pair, so every workload reports every
layer; ``BENCHMARK.json`` says which layer should move which
end-to-end metric on which workload.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pickle
import statistics
import time

import numpy as np

from perfbench import replay
from perfbench.trace import job_group, tree_rss_bytes

MB = 1e6
REPS = 3


def _timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return time.perf_counter() - t0, out


def _median_time(reps: int, fn, *args) -> float:
    return statistics.median(_timed(fn, *args)[0] for _ in range(reps))


# Driver-side entry points of each layer that one operation passes
# through; the traced operation wraps them in spans. A name a later
# refactor removes is skipped.
LAYER_CALLS = [
    ("repro.harness.datasets", "load"),
    ("repro.harness.experiment", "build_context"),
    ("repro.harness.experiment", "simulate_all"),
    ("repro.harness.experiment", "nrmse_agg"),
    ("repro.graphs.stats", "edges_df"),
    ("repro.graphs.stats", "labels_df"),
    ("repro.graphs.lcc", "connected_components"),
    ("tables18_22_bounds", "all_bounds"),
]


@contextlib.contextmanager
def instrument(tracer):
    """Wrap LAYER_CALLS in spans for the duration of the block."""
    saved = []
    for mod_name, attr in LAYER_CALLS:
        try:
            mod = importlib.import_module(mod_name)
        except ImportError:
            continue
        fn = getattr(mod, attr, None)
        if fn is None:
            continue

        def wrapped(*a, __fn=fn, __name=f"{mod_name}.{attr}", **kw):
            with tracer.span(__name):
                return __fn(*a, **kw)

        saved.append((mod, attr, fn))
        setattr(mod, attr, functools.wraps(fn)(wrapped))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def context(tracer, g, pair, burnin) -> tuple[dict, dict]:
    from repro.harness import experiment

    with tracer.span("layer.context"):
        build_s = _median_time(REPS, experiment.build_context, g, pair, burnin)
        ctx = experiment.build_context(g, pair, burnin)
        mb = len(pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)) / MB
    return ctx, {"ctx.build_s": build_s, "ctx.mb": mb}


def broadcast(tracer, spark, ctx: dict, cores: int) -> dict:
    """Broadcast the context as ``simulate_all`` does, then read it from
    one task per core. Like ``simulate_all``, keeps every broadcast
    alive until the last repetition, then destroys them."""
    sc = spark.sparkContext
    times, rss, kept = [], [], []
    with tracer.span("layer.broadcast"):
        for _ in range(REPS):
            t0 = time.perf_counter()
            bc = sc.broadcast(ctx)
            sc.parallelize(range(cores), cores).map(lambda _: len(bc.value)).collect()
            times.append(time.perf_counter() - t0)
            kept.append(bc)
            rss.append(tree_rss_bytes()[0])
        path = getattr(kept[-1], "_path", None)
        size = os.path.getsize(path) if path and os.path.exists(path) else \
            len(pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL))
        for bc in kept:
            bc.destroy()
    return {"bcast.s": statistics.median(times), "bcast.mb": size / MB,
            "rss_growth_mb": (rss[-1] - rss[0]) / MB}


def kernels(tracer, ctx: dict, tasks: list, seed: int) -> tuple[dict, int]:
    """Serial replay of the table's tasks (``serial_s``), split per
    chain into burn-in (``run_sampler`` at k = 1) and walk time. Also
    returns the number of estimates the replay made."""
    from repro.harness import experiment

    with tracer.span("layer.kernels.replay"):
        serial_s, (rows, secs) = _timed(replay.replay, ctx, tasks, seed)
    m = {"serial_s": serial_s}
    burnin_total = 0.0
    with tracer.span("layer.kernels.burnin"):
        for sampler in experiment.SAMPLERS:
            mine = [t for t in tasks if t.sampler == sampler]
            per_task = statistics.median(
                _timed(experiment.run_sampler, ctx, sampler, 1, t.n,
                       replay.task_rng(seed, t))[0]
                for t in mine[:REPS])
            burn = per_task * len(mine)
            m[f"kernel.{sampler}.burnin_s"] = burn
            m[f"kernel.{sampler}.walk_s"] = sum(secs[t] for t in mine) - burn
            burnin_total += burn
    burnin_steps = sum(t.n * ctx["burnin"] for t in tasks)
    traj_steps = sum(t.n * t.k for t in tasks)
    m.update({
        "walk.burnin_steps": burnin_steps,
        "walk.traj_steps": traj_steps,
        "kernel.ns_per_step": sum(secs.values()) / (burnin_steps + traj_steps) * 1e9,
        "kernel.burnin_share": burnin_total / sum(secs.values()),
    })
    return m, rows


def estimators(tracer, ctx: dict, csr, tasks: list, seed: int) -> dict:
    """Re-walk the NS and NE tasks exactly as ``run_sampler`` does, then
    time the budget cut and each estimator on those trajectories, and
    count what the samplers saw."""
    from repro.core import neighbor_exploration as ne
    from repro.core import neighbor_sample as ns

    cut_s = ht_s = other_s = 0.0
    ne_frac, ne_steps, ne_explore, ns_distinct = [], 0, 0, []
    b, ht, ind, e = ctx["burnin"], ctx["has_target"], ctx["edge_ind"], ctx["n_edges"]
    with tracer.span("layer.estimators"):
        for t in tasks:
            rng = replay.task_rng(seed, t)
            if t.sampler == "NS":
                eids = ns.sample_edges_batch(csr, t.k, b, t.n, rng)
                dt, _ = _timed(ns.ht_estimate, eids, ind, e)
                ht_s += dt
                other_s += _timed(ns.hh_estimate, eids, ind, e)[0]
                ns_distinct += [len(np.unique(row)) / t.k for row in eids]
            elif t.sampler == "NE":
                nodes, n_steps = ne.sample_nodes_budgeted(
                    csr, t.k, b, t.n, ht, ctx["explore_cost"], rng)
                cut_s += _timed(ne.budget_cutoffs, nodes, ht, ctx["explore_cost"], t.k)[0]
                args = (nodes, ctx["t_counts"], ctx["degrees"])
                ht_s += _timed(ne.ht_estimate, *args, e, n_steps)[0]
                other_s += _timed(ne.hh_estimate, *args, e, n_steps)[0]
                other_s += _timed(ne.rw_estimate, *args, ctx["n_nodes"], n_steps)[0]
                ne_frac += list(n_steps / t.k)
                ne_steps += int(n_steps.sum())
                for row, n in zip(nodes, n_steps):
                    seen = np.unique(row[:n])
                    ne_explore += int(ht[seen].sum())
    return {
        "est.cutoff_s": cut_s, "est.ht_s": ht_s, "est.other_s": other_s,
        "ne.steps_frac_mean": float(np.mean(ne_frac)),
        "ne.steps_frac_p95": float(np.percentile(ne_frac, 95)),
        "ne.explore_rate": ne_explore / ne_steps,
        "ns.distinct_frac": float(np.mean(ns_distinct)),
    }


def harness(tracer, spark, ctx: dict, n_sims: int, seed: int) -> dict:
    """``simulate_all`` materialised, then ``nrmse_agg`` over its rows."""
    from repro.harness import experiment
    from repro.harness.nrmse import nrmse_agg

    counts: dict = {}
    with tracer.span("layer.harness"), job_group(spark, "perfbench.harness", counts):
        with tracer.span("harness.simulate"):
            t0 = time.perf_counter()
            est = experiment.simulate_all(spark, ctx, n_sims=n_sims, seed=seed)
            est = est.localCheckpoint()
            rows = est.count()
            t1 = time.perf_counter()
        with tracer.span("harness.agg"):
            nrmse_agg(est, float(ctx["F"]), ["algorithm", "frac"]).toPandas()
            t2 = time.perf_counter()
    return {"harness.simulate_s": t1 - t0, "harness.agg_s": t2 - t1,
            "harness.jobs": counts["jobs"], "harness.tasks": counts["tasks"],
            "harness.tasks_failed": counts["tasks_failed"], "harness.rows": rows}


def catalyst(tracer, spark, g, pair) -> dict:
    """Ground-truth frames, the LCC pass and one pair's bounds."""
    from repro.core.bounds import all_bounds
    from repro.graphs import lcc, stats

    with tracer.span("layer.catalyst"):
        with tracer.span("stats.frames"):
            t0 = time.perf_counter()
            edges = stats.edges_df(spark, g).localCheckpoint()
            labels = stats.labels_df(spark, g).localCheckpoint()
            frames_s = time.perf_counter() - t0
        lcc_counts: dict = {}
        with tracer.span("lcc"), job_group(spark, "perfbench.lcc", lcc_counts):
            lcc_s, _ = _timed(lambda: lcc.largest_component_nodes(spark, edges).toPandas())
        b_counts: dict = {}
        with tracer.span("bounds.pair"), job_group(spark, "perfbench.bounds", b_counts):
            pair_s, _ = _timed(all_bounds, edges, labels, pair[0], pair[1])
    return {"stats.frames_s": frames_s, "lcc.s": lcc_s,
            "lcc.jobs": lcc_counts["jobs"], "lcc.tasks": lcc_counts["tasks"],
            "bounds.pair_s": pair_s, "bounds.jobs": b_counts["jobs"],
            "bounds.tasks": b_counts["tasks"]}
