"""NeighborSample (paper §4.1): edge sampling via a single random walk.

Sampling: burn in to stationarity, then walk k further steps; the k
traversed edges form the sample S. Marginally each traversed edge is
uniform on E with probability 1/|E| (stationary node times uniform
neighbor, summed over both directions — §4.1.2).

Estimators:
- NS-HH (Eq. 2):  F̂ = (|E|/k) Σ I(e_i)
- NS-HT (Eq. 3):  F̂ = Σ_{distinct e in S} I(e) / (1 - (1 - 1/|E|)^k)

NS-HT uses every traversed edge, not the paper's thinned "r = 2.5% k"
subsample (§4.1.3) — see DESIGN.md §4.4 for why.
"""
from __future__ import annotations

import numpy as np

from repro.core import estimators, walks
from repro.graphs.csr import CSR


def sample_edges_batch(csr: CSR, k: int, burnin: int, n_sims: int,
                       rng: np.random.Generator) -> np.ndarray:
    """(n_sims, k) undirected edge ids — one NeighborSample run per row."""
    return csr.edge_ids[walks.srw_runs(csr, burnin, [(k, n_sims, rng)])[0]]


def hh_estimate(edge_ids: np.ndarray, edge_indicator: np.ndarray,
                n_edges: int) -> np.ndarray:
    """NS-HH per simulation row (Eq. 2)."""
    vals = edge_indicator[edge_ids].astype(np.float64)
    return estimators.hansen_hurwitz(vals, 1.0 / n_edges)


def ht_estimate(edge_ids: np.ndarray, edge_indicator: np.ndarray,
                n_edges: int) -> np.ndarray:
    """NS-HT per simulation row (Eq. 3)."""
    vals = edge_indicator[edge_ids].astype(np.float64)
    p = estimators.ht_inclusion_prob(np.array(1.0 / n_edges), edge_ids.shape[1])
    return estimators.horvitz_thompson(vals, float(p), edge_ids)
