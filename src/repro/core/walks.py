"""The one walk loop, and the simple-random-walk step it runs.

Every sampler is one walk per simulation: burn in, then record k steps
(paper §4.1.2, §4.2.2; the EX-* chains run the same loop on the line
graph). ``run`` is that loop for any ``step`` that maps a batch of arcs
to the next arcs, and it records arcs only: ``edge_ids[arcs]`` is the
traversed edge (NeighborSample, EX-*), ``indices[arcs]`` the reached
node (NeighborExploration). The Spark harness parallelizes batches of
independent walkers, each batch running lock-step inside one
``mapInPandas`` task; everything is deterministic in the
``numpy.random.Generator`` the step draws from.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.csr import CSR


def run(arcs: np.ndarray, step: Callable[[np.ndarray], np.ndarray],
        burnin: int, k: int) -> np.ndarray:
    """``burnin`` unrecorded steps from ``arcs``, then the (B, k) arcs
    of k recorded ones."""
    for _ in range(burnin):
        arcs = step(arcs)
    out = np.empty((arcs.shape[0], k), dtype=np.int64)
    for t in range(k):
        arcs = step(arcs)
        out[:, t] = arcs
    return out


def srw_step(csr: CSR, arcs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Simple-random-walk step: a uniform arc out of each arc's head."""
    head = csr.indices[arcs]
    return csr.indptr[head] + rng.integers(0, csr.degrees[head])


def srw_runs(csr: CSR, k: int, burnin: int, n_sims: int,
             rng: np.random.Generator) -> np.ndarray:
    """One NS/NE run per walker: a uniform start node u, entered by the
    reverse of u's first arc, ``burnin`` unrecorded steps, then the
    recorded (n_sims, k) arcs. Raises ValueError on a start node with
    no edges."""
    starts = rng.integers(0, csr.n, size=n_sims)
    if (isolated := starts[csr.degrees[starts] == 0]).size:
        raise ValueError(f"walk starts on node {int(isolated[0])}, which has no edges")
    return run(csr.rev[csr.indptr[starts]],
               lambda a: srw_step(csr, a, rng), burnin, k)
