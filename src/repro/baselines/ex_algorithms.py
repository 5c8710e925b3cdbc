"""EX-* baselines: Li et al. (ICDE'15) node samplers on the line graph.

Each sampler runs k post-burn-in steps of one chain on G' (implicit
line graph, see ``repro.baselines.linegraph``) and estimates the count
of target nodes of G' — i.e. target edges of G — with the re-weighted
ratio |E| Σ I(e_i) w(e_i) / Σ w(e_i), where w ∝ 1/pi' undoes the
chain's stationary distribution pi': uniform for EX-MHRW and EX-MDRW,
∝ deg' for EX-RW, ∝ deg'^(1-alpha) for EX-RCMH and ∝ max(deg', cap)
for EX-GMD. All five are one lazy Metropolis–Hastings chain with two
parameters (beta, C) — see ``linegraph.lg_step`` — so ``CHAINS`` holds
one (beta, C / max deg') row per sampler, and ``walk`` runs units of
any of the five in one batch with per-walker (beta, C).

The exact RCMH/GMD pseudocode of ICDE'15 is not available offline; the
constructions above recover the named special cases (alpha→{0,1} ⇒
RW/MHRW; delta→1 ⇒ MDRW) and their design goal — see DESIGN.md §4.5.
The paper sets alpha ∈ [0, 0.3], delta ∈ [0.3, 0.7]; we use 0.3 / 0.5.
"""
from __future__ import annotations

import numpy as np

from repro.baselines import linegraph as lg
from repro.core import walks
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


def walk(csr: CSR, line_deg: np.ndarray, burnin: int,
         units: list[tuple[str, int, int, np.random.Generator]]) -> list[np.ndarray]:
    """Burn in, then walk k steps of each unit (name, k, n_sims, rng) on
    ``name``'s chain, all units in one lock-step batch, longest first.
    Returns each unit's (n_sims, k) sampled undirected edge ids."""
    m = float(line_deg.max())
    sizes = [n for _, _, n, _ in units]
    beta = np.repeat([CHAINS[name][0] for name, *_ in units], sizes)
    cap = np.repeat([CHAINS[name][1] * m for name, *_ in units], sizes)
    arcs = walks.run(
        [rng for *_, rng in units],
        [lg.uniform_start_arcs(csr, n, rng) for _, _, n, rng in units],
        [k for _, k, _, _ in units],
        lambda a, d: lg.lg_step(csr, a, d, line_deg, beta[:a.shape[0]], cap[:a.shape[0]]),
        burnin)
    return [csr.edge_ids[a] for a in arcs]


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
