"""Mixing time of the simple random walk (paper Eq. 23).

T(eps) = max_i min{ t : ||pi - pi_i P^t||_TV < eps } — the number of
steps after which the walk's distribution is within total-variation
``eps`` of stationarity from the worst start node.

Two implementations:

- ``mixing_time_exact``: dense transition matrix, *all* start nodes —
  only for tiny test graphs (O(n^2) memory).
- ``mixing_time_estimate``: sparse P^T products via ``np.bincount`` from
  a sample of start nodes (the max over all starts is intractable at
  our dataset sizes; a multi-start max is the standard surrogate, and
  burn-in is then padded by the harness). Biased low if the sampled
  starts miss the slowest-mixing node; documented in DESIGN.md.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR


def stationary_distribution(csr: CSR) -> np.ndarray:
    """pi(u) = d(u) / 2|E| — SRW stationary distribution."""
    d = csr.degrees.astype(np.float64)
    return d / d.sum()


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(a - b).sum())


def transition_matrix(csr: CSR) -> np.ndarray:
    """Dense row-stochastic SRW transition matrix (tiny graphs only)."""
    p = np.zeros((csr.n, csr.n))
    tails = csr.tails
    p[tails, csr.indices] = 1.0 / csr.degrees[tails]
    return p


def mixing_time_exact(csr: CSR, eps: float = 1e-3, t_max: int = 10_000) -> int:
    """Exact T(eps) over all start nodes via dense matrix iteration."""
    p = transition_matrix(csr)
    pi = stationary_distribution(csr)
    dist = np.eye(csr.n)  # row i = distribution after t steps from start i
    for t in range(1, t_max + 1):
        dist = dist @ p
        if max(_tv(dist[i], pi) for i in range(csr.n)) < eps:
            return t
    raise RuntimeError(f"not mixed within {t_max} steps")


def mixing_time_estimate(csr: CSR, eps: float = 1e-3, n_starts: int = 8,
                         t_max: int = 20_000, seed: int = 0) -> int:
    """T(eps) estimated as the max over ``n_starts`` random start nodes,
    using sparse vector-matrix products (O(|E|) per step per start)."""
    rng = np.random.default_rng(seed)
    pi = stationary_distribution(csr)
    inv_d = 1.0 / csr.degrees.astype(np.float64)
    starts = rng.choice(csr.n, size=min(n_starts, csr.n), replace=False)
    tails = csr.tails
    worst = 0
    for s in starts:
        v = np.zeros(csr.n)
        v[s] = 1.0
        for t in range(1, t_max + 1):
            # v_new[h] = sum over arcs t->h of v[t]/d[t]
            contrib = v[tails] * inv_d[tails]
            v = np.bincount(csr.indices, weights=contrib, minlength=csr.n)
            if _tv(v, pi) < eps:
                worst = max(worst, t)
                break
        else:
            raise RuntimeError(f"start {s} not mixed within {t_max} steps")
    return worst
