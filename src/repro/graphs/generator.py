"""Synthetic labeled online-social-network generator.

The paper evaluates on SNAP/KONECT Facebook, Google+, Pokec, Orkut and
LiveJournal, which are not available offline. This module generates
Barabási–Albert (preferential attachment) graphs — connected by
construction, heavy-tailed degree distributions — plus the three label
schemes the paper uses: binary "gender" labels, Zipf-distributed
"location" labels, and node degree as label (Orkut/LiveJournal).

Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    _degrees: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, cached."""
        if self._degrees is None:
            d = np.bincount(self.edges[:, 0], minlength=self.n)
            d += np.bincount(self.edges[:, 1], minlength=self.n)
            self._degrees = d.astype(np.int64)
        return self._degrees

    def with_labels(self, labels: np.ndarray, name: str | None = None) -> "LabeledGraph":
        """Same topology, different node labels."""
        assert labels.shape == (self.n,)
        return LabeledGraph(
            self.n, self.edges, np.asarray(labels, dtype=np.int64),
            name or self.name, self._degrees,
        )


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
            targets.update(int(endpoints[i]) for i in draw)
        for t in targets:
            edges[n_edges, 0] = t
            edges[n_edges, 1] = v
            n_edges += 1
            endpoints[filled] = t
            endpoints[filled + 1] = v
            filled += 2
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    out = np.stack([lo, hi], axis=1)
    # Dedup is a no-op for BA (targets are distinct per node and new nodes
    # are new), but keeps the contract explicit.
    return np.unique(out, axis=0)


def homophilous_binary_labels(edges: np.ndarray, n: int, p: float,
                              smoothing: float, seed: int = 0) -> np.ndarray:
    """Binary labels {1, 2} with homophily (assortative mixing).

    Draw i.i.d. Gaussians, add ``smoothing`` times the neighbor mean,
    and threshold at the p-quantile so exactly ~p of nodes get label 1.
    ``smoothing = 0`` recovers i.i.d. labels; larger values cluster
    same-label nodes, pushing the cross-edge fraction below
    ``2 p (1-p)``. Real OSN gender labels are assortative, and that
    spatial correlation is what makes NeighborExploration's
    consecutive samples redundant on high-frequency labels (the
    paper's finding 4) — i.i.d. labels cannot reproduce it.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    if smoothing > 0:
        deg = np.bincount(edges[:, 0], minlength=n) + np.bincount(
            edges[:, 1], minlength=n
        )
        nbr_sum = np.bincount(edges[:, 0], weights=z[edges[:, 1]], minlength=n)
        nbr_sum += np.bincount(edges[:, 1], weights=z[edges[:, 0]], minlength=n)
        x = z + smoothing * nbr_sum / np.maximum(deg, 1)
    else:
        x = z
    thresh = np.quantile(x, p)
    return np.where(x <= thresh, 1, 2).astype(np.int64)


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
                           size_spread: float = 0.0) -> np.ndarray:
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

    Returns (E,2) edges, u < v.
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
    return np.unique(np.concatenate([intra, inter]), axis=0)


def community_majority_labels(n: int, n_comm: int, mu: float, q: float = 0.5,
                              mu_conc: float = 0.0, seed: int = 0,
                              sizes: np.ndarray | None = None) -> np.ndarray:
    """Binary labels {1, 2} by community majority.

    Each community's majority label is 1 with probability ``q``; each
    node takes its community majority and flips to the other label with
    a per-community probability mu_c. With ``mu_conc == 0`` every
    community uses mu_c = ``mu``; otherwise mu_c ~ Beta(mu*mu_conc,
    (1-mu)*mu_conc) (mean ``mu``, smaller ``mu_conc`` ⇒ more spread).

    The spread matters: heterogeneous community mixing rates make a
    node's cross-edge share nearly constant *within* a community but
    vary *between* communities, so NeighborExploration's consecutive
    same-community samples carry no fresh information while
    NeighborSample still draws fresh edge indicators — the mechanism
    behind the paper's finding that NS wins on high-frequency labels.
    """
    if sizes is None:
        if n % n_comm:
            raise ValueError(f"n={n} not divisible by n_comm={n_comm}")
        sizes = np.full(n_comm, n // n_comm, dtype=np.int64)
    assert int(sizes.sum()) == n
    rng = np.random.default_rng(seed)
    majority = np.where(rng.random(n_comm) < q, 1, 2)
    if mu_conc > 0:
        mu_c = rng.beta(mu * mu_conc, (1.0 - mu) * mu_conc, size=n_comm)
    else:
        mu_c = np.full(n_comm, mu)
    lab = np.repeat(majority, sizes)
    flip = rng.random(n) < np.repeat(mu_c, sizes)
    return np.where(flip, 3 - lab, lab).astype(np.int64)


def social_graph(
    n: int,
    m: int,
    label_scheme: str = "gender",
    seed: int = 0,
    name: str = "graph",
    **kw,
) -> LabeledGraph:
    """Generate a labeled BA graph.

    label_scheme: "gender" (kw: p, smoothing), "community_gender"
    (kw: n_comm, inter_m, mu, q — clique-community topology, ``m`` is
    ignored), "zipf" (kw: n_labels, alpha) or "degree" (kw: log_base).
    """
    if label_scheme == "community_gender":
        spread = kw.get("size_spread", 0.0)
        edges = community_clique_graph(
            n, kw["n_comm"], kw.get("inter_m", 1), seed=seed,
            size_spread=spread,
        )
        g = LabeledGraph(n, edges, np.zeros(n, dtype=np.int64), name=name)
        labels = community_majority_labels(
            n, kw["n_comm"], mu=kw.get("mu", 0.3), q=kw.get("q", 0.5),
            mu_conc=kw.get("mu_conc", 0.0), seed=seed + 1,
            sizes=community_sizes(n, kw["n_comm"], spread, seed),
        )
        return g.with_labels(labels, name)
    edges = ba_edges(n, m, seed=seed)
    g = LabeledGraph(n, edges, np.zeros(n, dtype=np.int64), name=name)
    if label_scheme == "gender":
        labels = homophilous_binary_labels(
            edges, n, p=kw.get("p", 0.5),
            smoothing=kw.get("smoothing", 0.0), seed=seed + 1,
        )
    elif label_scheme == "zipf":
        labels = zipf_labels(
            n, n_labels=kw.get("n_labels", 100), alpha=kw.get("alpha", 1.05),
            seed=seed + 1,
        )
    elif label_scheme == "degree":
        labels = degree_labels(g.degrees)
    else:
        raise ValueError(f"unknown label_scheme {label_scheme!r}")
    return g.with_labels(labels, name)
