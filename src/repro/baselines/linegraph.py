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

from repro.core.walks import Draws
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


def lg_uniform_neighbor(csr: CSR, arcs: np.ndarray, draws: Draws) -> np.ndarray:
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
    r = draws.integers(np.maximum(degp, 1))
    # Branch at the tail: one of the dt-1 arcs out of t other than `arcs`.
    it = csr.indptr[t]
    na_t = it + (arcs - it + 1 + r) % dt
    # Branch at the head: skip the reverse arc h->t.
    ih = csr.indptr[h]
    r2 = r - (dt - 1)
    na_h = ih + (rev - ih + 1 + np.maximum(r2, 0)) % dh
    na = np.where(r < dt - 1, na_t, na_h)
    return np.where(degp == 0, arcs, na)


def lg_step(csr: CSR, arcs: np.ndarray, draws: Draws, line_deg: np.ndarray,
            beta: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """One step of the two-parameter EX chain on G'; returns new arcs.
    ``beta`` and ``cap`` hold one value per walker.

    Move with probability deg'(e)/max(deg'(e), cap) to a uniform
    G'-neighbor f, accepted iff log u < (beta-1)(log deg'(f) - log
    deg'(e)); otherwise stay. Reversible with pi'(e) ∝ max(deg'(e),
    cap) · deg'(e)^(beta-1). Every step makes three draw calls, in
    order: the move uniform, read where cap > 0; the proposal; and the
    acceptance uniform, read where beta != 1. A walker that does not
    read a uniform gets 0.0 for it, which passes that test wherever
    deg'(e) > 0 (and then deg'(f) > 0); where deg'(e) = 0 the proposal
    is e itself. So it takes the proposal, as it would with no test.
    """
    de = line_deg[csr.edge_ids[arcs]].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        move = draws.random(cap > 0) < de / np.maximum(de, cap)
        prop = lg_uniform_neighbor(csr, arcs, draws)
        df = line_deg[csr.edge_ids[prop]].astype(np.float64)
        log_ratio = (beta - 1.0) * (np.log(df) - np.log(de))
        move &= np.log(draws.random(beta != 1)) < log_ratio
    return np.where(move, prop, arcs)
