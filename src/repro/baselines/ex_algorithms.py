"""EX-* baselines: Li et al. (ICDE'15) node samplers on the line graph.

Each sampler runs k post-burn-in steps of one chain on G' (implicit
line graph, see ``repro.baselines.linegraph``) and estimates the count
of target nodes of G' — i.e. target edges of G — with the re-weighted
ratio |E| Σ I(e_i) w(e_i) / Σ w(e_i), where w ∝ 1/pi' undoes the
chain's stationary distribution pi': uniform for EX-MHRW and EX-MDRW,
∝ deg' for EX-RW, ∝ deg'^(1-alpha) for EX-RCMH and ∝ max(deg', cap)
for EX-GMD. All five are one lazy Metropolis–Hastings chain with two
parameters (beta, C) — see ``linegraph.lg_step`` — so ``CHAINS`` holds
one (beta, C / max deg') row per sampler.

The exact RCMH/GMD pseudocode of ICDE'15 is not available offline; the
constructions above recover the named special cases (alpha→{0,1} ⇒
RW/MHRW; delta→1 ⇒ MDRW) and their design goal — see DESIGN.md §4.5.
The paper sets alpha ∈ [0, 0.3], delta ∈ [0.3, 0.7]; we use 0.3 / 0.5.
"""
from __future__ import annotations

import numpy as np

from repro.baselines import linegraph as lg
from repro.core.estimators import reweighted_ratio
from repro.graphs.csr import CSR

ALPHA = 0.3
DELTA = 0.5

# name -> (beta, C / max deg'): the parameters of ``linegraph.lg_step``.
CHAINS = {
    "EX-RW": (1.0, 0.0),
    "EX-MHRW": (0.0, 0.0),
    "EX-RCMH": (1.0 - ALPHA, 0.0),
    "EX-MDRW": (1.0, 1.0),
    "EX-GMD": (1.0, DELTA),
}


def walk(csr: CSR, line_deg: np.ndarray, name: str, k: int, burnin: int,
         n_sims: int, rng: np.random.Generator) -> np.ndarray:
    """Burn in, then walk k steps of ``name``'s chain; returns
    (n_sims, k) sampled undirected edge ids."""
    beta, c = CHAINS[name]
    cap = c * float(line_deg.max())
    arcs = lg.uniform_start_arcs(csr, n_sims, rng)
    for _ in range(burnin):
        arcs = lg.lg_step(csr, arcs, rng, line_deg, beta, cap)
    out = np.empty((n_sims, k), dtype=np.int64)
    for t in range(k):
        arcs = lg.lg_step(csr, arcs, rng, line_deg, beta, cap)
        out[:, t] = csr.edge_ids[arcs]
    return out


def estimate(name: str, edge_ids: np.ndarray, line_deg: np.ndarray,
             edge_ind: np.ndarray, n_edges: int) -> np.ndarray:
    """Per-row estimate of F from ``name``'s sampled edge ids, with
    w = 1/max(deg', C) when C > 0 and max(deg', 1)^(-beta) otherwise."""
    beta, c = CHAINS[name]
    d = line_deg[edge_ids].astype(np.float64)
    if c > 0:
        w = 1.0 / np.maximum(d, c * float(line_deg.max()))
    else:
        w = np.maximum(d, 1.0) ** -beta
    return reweighted_ratio(edge_ind[edge_ids] * w, w, float(n_edges))
