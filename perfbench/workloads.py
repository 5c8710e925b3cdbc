"""The benchmark's workloads: each is one closed-loop operation, issued
by the driver one at a time, through the program's user-facing entry
points only.

- ``nrmse-*``: one paper NRMSE table, ``reproduce_nrmse_table``.
- ``truth-*``: one ground-truth pass, ``largest_component_nodes`` on the
  dataset's edge frame (as ``jobs/table01_stats.py`` calls it) followed
  by ``bounds_table`` from ``jobs/tables18_22_bounds.py``.
"""
from __future__ import annotations

import importlib.util
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bounds_job():
    """``jobs/tables18_22_bounds.py`` as a module (``jobs/`` is not a
    package)."""
    if "tables18_22_bounds" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "tables18_22_bounds", ROOT / "jobs" / "tables18_22_bounds.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules["tables18_22_bounds"] = mod
        spec.loader.exec_module(mod)
    return sys.modules["tables18_22_bounds"]


def load_dataset(name: str) -> float:
    """Generate a dataset and select its pairs from cold caches; returns
    the generation time alone."""
    from repro.harness import datasets

    datasets.load.cache_clear()
    datasets.load_csr.cache_clear()
    datasets.target_pairs.cache_clear()
    t0 = time.perf_counter()
    datasets.load(name)
    gen_s = time.perf_counter() - t0
    datasets.target_pairs(name)
    return gen_s


@dataclass(frozen=True)
class Workload:
    """A named workload on one paper table's dataset and pair. The
    traced run probes every layer on that table at ``n_sims``."""
    name: str
    table_no: int
    n_sims: int

    @property
    def dataset(self) -> str:
        from repro.harness.tables import NRMSE_TABLES

        return NRMSE_TABLES[self.table_no][0]

    @property
    def pair_idx(self) -> int:
        from repro.harness.tables import NRMSE_TABLES

        return NRMSE_TABLES[self.table_no][1]


class NrmseTable(Workload):
    def prepare(self, spark) -> dict:
        return {"gen_s": load_dataset(self.dataset)}

    def warmup(self, spark, state: dict, seed: int):
        """Starts the Python workers and ships the context once: a
        one-budget, one-simulation table, too small to be checked."""
        from repro.harness.tables import reproduce_nrmse_table

        reproduce_nrmse_table(spark, self.table_no, n_sims=1, seed=seed,
                              sample_fracs=(0.05,))

    def op(self, spark, state: dict, seed: int):
        from repro.harness.tables import reproduce_nrmse_table

        t0 = time.perf_counter()
        table = reproduce_nrmse_table(spark, self.table_no, n_sims=self.n_sims,
                                      seed=seed)
        return {"table_s": time.perf_counter() - t0}, table

    def check(self, spark, state: dict, result) -> list[str]:
        from perfbench import gate

        if "ref" not in state:
            state["ref"] = gate.load_reference(self.table_no)
        ref = state["ref"]
        if ref["n_sims"] != self.n_sims:
            return [f"reference is for {ref['n_sims']} sims, workload runs {self.n_sims}"]
        return gate.check_nrmse_table(result, ref)

    def check_run(self, results: list) -> list[str]:
        """The paper findings, once per run on the pooled tables of its
        operations (each run with its own seed): at 15 simulations a
        single table is too noisy to hold them to the paper's slack."""
        from perfbench import gate

        return gate.check_findings(gate.pool(results))


class GroundTruth(Workload):
    def prepare(self, spark) -> dict:
        from repro.graphs import stats
        from repro.harness import datasets

        gen_s = load_dataset(self.dataset)
        edges = stats.edges_df(spark, datasets.load(self.dataset)).localCheckpoint()
        return {"gen_s": gen_s, "edges": edges}

    def warmup(self, spark, state: dict, seed: int):
        return self.op(spark, state, seed)

    def op(self, spark, state: dict, seed: int):
        from repro.graphs import lcc

        t0 = time.perf_counter()
        keep = lcc.largest_component_nodes(spark, state["edges"]).toPandas()["node"]
        t1 = time.perf_counter()
        bounds = bounds_job().bounds_table(spark, self.dataset)
        t2 = time.perf_counter()
        return {"lcc_s": t1 - t0, "bounds_s": t2 - t1}, (keep.to_numpy(), bounds)

    def check(self, spark, state: dict, result) -> list[str]:
        from perfbench import gate

        keep, bounds = result
        return gate.check_truth(spark, self.dataset, keep, bounds)

    def check_run(self, results: list) -> list[str]:
        return []


# Why each workload exists, and which layers should move which metric on
# it, is recorded in BENCHMARK.json and METRICS.md.
NRMSE = [
    # Rarest pair: long walks, a 129 MB context, NE rarely exploring.
    NrmseTable("nrmse-orkut", 10, 15),
]
TRUTH = [
    # Catalyst only; no walk kernel runs. Its traced run probes the
    # Monte-Carlo layers on Table 4 (Facebook): short walks behind a long
    # burn-in, NE exploring at almost every step.
    GroundTruth("truth-facebook", 4, 15),
]
WORKLOADS = {w.name: w for w in [*NRMSE, *TRUTH]}
