"""Implicit line-graph walk substrate for the EX-* baselines.

The paper adapts node-sampling algorithms (Li et al., ICDE'15) to edge
counting by running them on the line graph G' = (H, R): each edge of G
is a node of G', two G'-nodes are adjacent iff the edges share an
endpoint, so |H| = |E| and deg'(e=(u,v)) = d(u) + d(v) - 2.

Materializing G' is quadratic in hub degree, so we never build it: the
walk state is an *arc* of G (a directed copy of the current edge) and a
uniform G'-neighbor is drawn by (1) picking which endpoint to branch at
with probability proportional to (d(endpoint) - 1), folded into one
uniform draw over deg', and (2) rotate-skipping the current edge inside
that endpoint's adjacency block — O(1) per step, exactly uniform. The
tail of arc a is ``indices[rev[a]]`` and its position inside the tail's
block is ``a - indptr[tail]``; the CSR stores neither.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR


def line_degrees(csr: CSR) -> np.ndarray:
    """deg'(e) for every undirected edge id."""
    d = csr.degrees
    out = np.empty(csr.n_edges, dtype=d.dtype)
    out[csr.edge_ids] = d[csr.indices[csr.rev]] + d[csr.indices] - 2
    return out


def uniform_start_arcs(csr: CSR, n: int, rng: np.random.Generator) -> np.ndarray:
    """n arcs whose edges are uniform over E (each edge has 2 arcs)."""
    return rng.integers(0, csr.n_arcs, size=n)


def lg_uniform_neighbor(csr: CSR, arcs: np.ndarray, rng: np.random.Generator
                        ) -> np.ndarray:
    """One uniform-G'-neighbor proposal per walker; returns new arcs.

    Walkers whose current edge has deg' = 0 (an isolated edge) stay put.
    """
    rev = csr.rev[arcs]
    t = csr.indices[rev]
    h = csr.indices[arcs]
    d = csr.degrees
    dt = d[t]
    dh = d[h]
    degp = dt + dh - 2
    r = rng.integers(0, np.maximum(degp, 1))
    # Branch at the tail: one of the dt-1 arcs out of t other than `arcs`.
    it = csr.indptr[t]
    na_t = it + (arcs - it + 1 + r) % dt
    # Branch at the head: skip the reverse arc h->t.
    ih = csr.indptr[h]
    r2 = r - (dt - 1)
    na_h = ih + (rev - ih + 1 + np.maximum(r2, 0)) % dh
    na = np.where(r < dt - 1, na_t, na_h)
    return np.where(degp == 0, arcs, na)


def lg_step(csr: CSR, arcs: np.ndarray, rng: np.random.Generator,
            line_deg: np.ndarray, beta: float, cap: float) -> np.ndarray:
    """One step of the two-parameter EX chain on G'; returns new arcs.

    Move with probability deg'(e)/max(deg'(e), cap) to a uniform
    G'-neighbor f, accepted iff log u < (beta-1)(log deg'(f) - log
    deg'(e)); otherwise stay. Reversible with pi'(e) ∝ max(deg'(e),
    cap) · deg'(e)^(beta-1). The move uniform is drawn only when
    cap > 0 and the acceptance uniform only when beta != 1 (move, then
    proposal, then acceptance), so a chain draws nothing it does not use.
    """
    if cap > 0 or beta != 1:
        de = line_deg[csr.edge_ids[arcs]].astype(np.float64)
    move = None
    if cap > 0:
        move = rng.random(arcs.shape[0]) < de / np.maximum(de, cap)
    prop = lg_uniform_neighbor(csr, arcs, rng)
    if beta != 1:
        df = line_deg[csr.edge_ids[prop]].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = (beta - 1.0) * (np.log(df) - np.log(de))
        accept = np.log(rng.random(arcs.shape[0])) < log_ratio
        move = accept if move is None else move & accept
    return prop if move is None else np.where(move, prop, arcs)
