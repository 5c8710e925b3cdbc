"""Vectorized random-walk step kernels over CSR adjacency.

All kernels advance a *batch* of independent walkers one step with pure
NumPy — the unit the Spark harness parallelizes is a batch of
simulations, each batch running lock-step inside one ``mapInPandas``
task. Kernels are deterministic in the ``numpy.random.Generator``
passed in.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR


def uniform_starts(csr: CSR, n: int, rng: np.random.Generator) -> np.ndarray:
    """n start nodes drawn uniformly (the paper starts anywhere and burns
    in to stationarity)."""
    return rng.integers(0, csr.n, size=n)


def srw_step(csr: CSR, pos: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray]:
    """Simple-random-walk step for every walker in ``pos``.

    Returns (new_pos, arcs) where arcs[i] is the arc index traversed by
    walker i — its ``edge_ids`` entry identifies the undirected edge,
    which is what NeighborSample samples.
    """
    d = csr.indptr[pos + 1] - csr.indptr[pos]
    offs = rng.integers(0, d)
    arcs = csr.indptr[pos] + offs
    return csr.indices[arcs], arcs


def srw_trajectory(csr: CSR, pos: np.ndarray, steps: int,
                   rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``steps`` steps recording everything.

    Returns (nodes, arcs): nodes is (B, steps) — the node reached at
    each step; arcs is (B, steps) — the arc traversed at each step.
    """
    b = pos.shape[0]
    nodes = np.empty((b, steps), dtype=np.int64)
    arcs = np.empty((b, steps), dtype=np.int64)
    for t in range(steps):
        pos, a = srw_step(csr, pos, rng)
        nodes[:, t] = pos
        arcs[:, t] = a
    return nodes, arcs


def srw_runs(csr: CSR, k: int, burnin: int, n_sims: int,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One NS/NE run per walker: uniform start, ``burnin`` unrecorded
    steps, then the recorded k-step (nodes, arcs) trajectory."""
    pos = uniform_starts(csr, n_sims, rng)
    for _ in range(burnin):
        pos, _ = srw_step(csr, pos, rng)
    return srw_trajectory(csr, pos, k, rng)
