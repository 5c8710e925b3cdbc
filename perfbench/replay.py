"""Plain single-threaded replay of one NRMSE table's Monte-Carlo tasks.

Enumerates the same (sampler, budget, chunk) tasks as
``repro.harness.experiment.simulate_all`` and runs each through the
public ``run_sampler`` on the driver, with the same per-task seeding.
It is the benchmark's serial baseline (``serial_s``) and the source of
the per-layer kernel numbers; the pass/fail gate never reads it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.harness import experiment


@dataclass(frozen=True)
class Task:
    sampler: str
    frac: float
    k: int
    sim0: int
    n: int
    s_idx: int
    f_idx: int
    c_idx: int


def tasks(n_nodes: int, n_sims: int, chunk: int = 15,
          fracs: tuple[float, ...] = experiment.DEFAULT_FRACS,
          samplers: list[str] | None = None) -> list[Task]:
    """The task list ``simulate_all`` fans out, in the same order."""
    out = []
    for s_idx, sampler in enumerate(samplers or experiment.SAMPLERS):
        for f_idx, frac in enumerate(fracs):
            k = max(1, int(round(frac * n_nodes)))
            for c_idx, sim0 in enumerate(range(0, n_sims, chunk)):
                out.append(Task(sampler, float(frac), k, sim0,
                                min(chunk, n_sims - sim0), s_idx, f_idx, c_idx))
    return out


def task_rng(seed: int, t: Task) -> np.random.Generator:
    return np.random.default_rng([seed, t.s_idx, t.f_idx, t.c_idx])


def replay(ctx: dict, task_list: list[Task], seed: int
           ) -> tuple[int, dict[Task, float]]:
    """Run every task serially. Returns the number of estimates made (one
    row of ``simulate_all`` each) and the wall time of each task."""
    rows = 0
    secs: dict[Task, float] = {}
    for t in task_list:
        t0 = time.perf_counter()
        out = experiment.run_sampler(ctx, t.sampler, t.k, t.n, task_rng(seed, t))
        secs[t] = time.perf_counter() - t0
        rows += sum(len(vec) for vec in out.values())
    return rows, secs
