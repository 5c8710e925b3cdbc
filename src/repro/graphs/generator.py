"""Synthetic labeled online-social-network generator.

The paper evaluates on SNAP/KONECT Facebook, Google+, Pokec, Orkut and
LiveJournal, which are not available offline. This module generates
the two topologies and three label schemes the five datasets use:
clique communities with community-majority binary "gender" labels
(Facebook, Google+), and Barabási–Albert (preferential attachment)
graphs — connected by construction, heavy-tailed degree distributions —
with Zipf-distributed "location" labels (Pokec) or node degree as label
(Orkut, LiveJournal).

Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LabeledGraph:
    """An undirected simple labeled graph.

    ``edges`` is an (E, 2) int64 array with ``edges[:, 0] < edges[:, 1]``
    (each undirected edge appears exactly once). ``labels`` is an (n,)
    int64 array giving the single label of each node (the paper allows a
    label *set* per node but every experiment uses one label type at a
    time, so one label per node loses nothing).
    """

    n: int
    edges: np.ndarray
    labels: np.ndarray
    name: str = "graph"

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return np.bincount(self.edges.ravel(), minlength=self.n)


def ba_edges(n: int, m: int, seed: int = 0) -> np.ndarray:
    """Barabási–Albert edge list: each new node attaches to ``m`` distinct
    existing nodes chosen preferentially (uniformly from the running
    endpoint multiset). Seed graph is the complete graph on ``m + 1``
    nodes, so the result is connected with min degree ``m``.

    Returns an (E, 2) int64 array with u < v per row, no duplicates.
    """
    if n <= m:
        raise ValueError(f"need n > m, got n={n} m={m}")
    rng = np.random.default_rng(seed)
    m0 = m + 1
    seed_u, seed_v = np.triu_indices(m0, k=1)
    n_seed = seed_u.size
    n_new = (n - m0) * m
    # Flat endpoint multiset; every accepted edge appends both endpoints.
    endpoints = np.empty(2 * (n_seed + n_new), dtype=np.int64)
    endpoints[: 2 * n_seed : 2] = seed_u
    endpoints[1 : 2 * n_seed : 2] = seed_v
    edges = np.empty((n_seed + n_new, 2), dtype=np.int64)
    edges[:n_seed, 0] = seed_u
    edges[:n_seed, 1] = seed_v
    filled = 2 * n_seed
    n_edges = n_seed
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            draw = rng.integers(0, filled, size=m - len(targets))
            targets.update(endpoints[draw].tolist())
        # The m edges in set-iteration order, endpoints appended pairwise.
        row = list(targets)
        edges[n_edges:n_edges + m, 0] = row
        edges[n_edges:n_edges + m, 1] = v
        endpoints[filled:filled + 2 * m:2] = row
        endpoints[filled + 1:filled + 2 * m:2] = v
        n_edges += m
        filled += 2 * m
    # Every row is (existing target, new node), so u < v already. Dedup
    # is a no-op for BA (targets are distinct per node and new nodes are
    # new), but keeps the contract explicit.
    return _unique_edges(edges, n)


def _unique_edges(edges: np.ndarray, n: int) -> np.ndarray:
    """``np.unique(edges, axis=0)`` for an (E, 2) array of node ids in
    [0, n), as one 1-D unique over the row key ``u * n + v``."""
    key = np.unique(edges[:, 0] * n + edges[:, 1])
    return np.stack([key // n, key % n], axis=1)


def zipf_labels(n: int, n_labels: int, alpha: float = 1.05, seed: int = 0) -> np.ndarray:
    """Zipf-distributed integer labels 0..n_labels-1 (Pokec "locations")."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_labels + 1, dtype=np.float64)
    w = ranks ** (-alpha)
    w /= w.sum()
    return rng.choice(n_labels, size=n, p=w).astype(np.int64)


def degree_labels(degrees: np.ndarray, log_base: float = 1.5) -> np.ndarray:
    """Degree-derived node labels (paper's Orkut/LiveJournal scheme).

    The paper says "the node degree is considered as the node label",
    yet its reported labels include 0 — impossible as a raw degree in a
    connected component — so their labels are evidently degree *bucket*
    indices. We use logarithmic buckets ``floor(log_base(d))``, which
    yields label-pair frequencies spanning several orders of magnitude
    (needed to match the paper's quartile frequencies, up to ~4% of
    |E|).
    """
    d = np.asarray(degrees, dtype=np.float64)
    return np.floor(np.log(np.maximum(d, 1.0)) / np.log(log_base)).astype(np.int64)


def community_sizes(n: int, n_comm: int, spread: float = 0.0,
                    seed: int = 0, min_size: int = 3) -> np.ndarray:
    """Community sizes summing to ``n``: equal when ``spread == 0``,
    otherwise lognormal(sigma=spread) weights — heterogeneous community
    (hence degree) distribution, which real OSNs have and which the
    maximum-degree baselines are sensitive to."""
    rng = np.random.default_rng(seed)
    if spread <= 0:
        if n % n_comm:
            raise ValueError(f"n={n} not divisible by n_comm={n_comm}")
        return np.full(n_comm, n // n_comm, dtype=np.int64)
    w = rng.lognormal(mean=0.0, sigma=spread, size=n_comm)
    sizes = np.maximum(min_size, np.round(w / w.sum() * n).astype(np.int64))
    # Fix rounding drift by nudging the largest/smallest communities.
    diff = int(n - sizes.sum())
    order = np.argsort(sizes)
    i = 0
    while diff != 0:
        j = order[-1 - (i % n_comm)] if diff > 0 else order[i % n_comm]
        if diff < 0 and sizes[j] <= min_size:
            i += 1
            continue
        sizes[j] += 1 if diff > 0 else -1
        diff += -1 if diff > 0 else 1
        i += 1
    return sizes


def community_clique_graph(n: int, n_comm: int, inter_m: int, seed: int = 0,
                           size_spread: float = 0.0
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Community topology: ``n_comm`` cliques plus ``inter_m`` random
    inter-community edges per node.

    The paper's Facebook has mixing time 3200 at |V| = 4000 — a strongly
    clustered graph, nothing like pure preferential attachment (which
    mixes in tens of steps). Dense communities bridged by sparse random
    links give (a) slow-ish mixing, (b) a substrate where labels can be
    spatially correlated — required to reproduce the paper's finding
    that NeighborSample beats NeighborExploration on high-frequency
    labels (consecutive NE samples in one community are redundant).
    ``size_spread > 0`` draws lognormal community sizes, giving the
    degree heterogeneity that makes EX-MDRW/EX-GMD degrade as in the
    paper's tables.

    Returns ((E,2) edges with u < v, the community sizes); nodes are
    numbered community by community.
    """
    sizes = community_sizes(n, n_comm, size_spread, seed)
    starts = np.zeros(n_comm, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    comm_of = np.repeat(np.arange(n_comm), sizes)
    rng = np.random.default_rng(seed + 1)
    # Intra-community cliques.
    intra_parts = []
    for c in range(n_comm):
        s = int(sizes[c])
        iu, iv = np.triu_indices(s, k=1)
        intra_parts.append(
            np.stack([starts[c] + iu, starts[c] + iv], axis=1)
        )
    intra = np.concatenate(intra_parts)
    # Inter-community random links: inter_m stubs per node, partner node
    # uniform in a uniformly-chosen *other* community (expander across
    # communities -> connected w.h.p.; LCC pass guards the rest).
    src = np.repeat(np.arange(n), inter_m)
    own = comm_of[src]
    shift = rng.integers(1, n_comm, size=src.size)
    pc = (own + shift) % n_comm
    partner = starts[pc] + rng.integers(0, sizes[pc])
    inter = np.stack(
        [np.minimum(src, partner), np.maximum(src, partner)], axis=1
    )
    return _unique_edges(np.concatenate([intra, inter]), n), sizes


def community_majority_labels(sizes: np.ndarray, mu: float,
                              seed: int = 0) -> np.ndarray:
    """Binary labels {1, 2} by community majority, for nodes numbered
    community by community with the given ``sizes``.

    Each community's majority label is 1 or 2 with equal probability;
    each node takes its community majority and flips to the other label
    with probability ``mu``.
    """
    rng = np.random.default_rng(seed)
    majority = np.where(rng.random(len(sizes)) < 0.5, 1, 2)
    lab = np.repeat(majority, sizes)
    flip = rng.random(lab.size) < mu
    return np.where(flip, 3 - lab, lab).astype(np.int64)


# The keywords each label scheme reads; ``social_graph`` rejects others.
SCHEME_KW = {
    "community_gender": {"n_comm", "inter_m", "mu", "size_spread"},
    "zipf": {"m", "n_labels", "alpha"},
    "degree": {"m"},
}


def social_graph(n: int, label_scheme: str, seed: int = 0,
                 name: str = "graph", **kw) -> LabeledGraph:
    """Generate a labeled graph, deterministic in ``seed``.

    label_scheme: "community_gender" (clique-community topology), or a
    Barabási–Albert topology with ``m`` edges per new node labeled by
    "zipf" or "degree"; ``SCHEME_KW`` lists each scheme's keywords.
    Raises ValueError on an unknown scheme and TypeError on a keyword
    the scheme does not read.
    """
    if label_scheme not in SCHEME_KW:
        raise ValueError(f"unknown label_scheme {label_scheme!r}")
    if extra := sorted(set(kw) - SCHEME_KW[label_scheme]):
        raise TypeError(f"label_scheme {label_scheme!r} takes no {extra}")
    if label_scheme == "community_gender":
        edges, sizes = community_clique_graph(
            n, kw["n_comm"], kw.get("inter_m", 1), seed=seed,
            size_spread=kw.get("size_spread", 0.0),
        )
        labels = community_majority_labels(sizes, kw.get("mu", 0.3), seed + 1)
    elif label_scheme == "zipf":
        edges = ba_edges(n, kw["m"], seed=seed)
        labels = zipf_labels(n, kw.get("n_labels", 100), kw.get("alpha", 1.05),
                             seed=seed + 1)
    else:
        edges = ba_edges(n, kw["m"], seed=seed)
        labels = degree_labels(np.bincount(edges.ravel(), minlength=n))
    return LabeledGraph(n, edges, labels, name)
