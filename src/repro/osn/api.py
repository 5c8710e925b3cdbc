"""Restricted-access OSN API — the paper's access model, and the one
place an API call is priced.

The graph is reachable only through friend-list and profile calls; |V|
and |E| are prior knowledge. A walk step costs one call, the friend
list it needs; the reached node's own label and degree come free; and
exploring a node (labelling all its neighbors) costs ``explore_cost(d)``
profile-batch calls. Sequential reference implementations of
Algorithms 1 and 2, written directly against the API, are what the
vectorized engines in ``repro.core`` are tested against.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR

EXPLORE_BATCH = 10


def explore_cost(degrees: np.ndarray) -> np.ndarray:
    """Profile-batch API calls needed to label all neighbors of a node."""
    return np.ceil(degrees / EXPLORE_BATCH).astype(np.int64)


class RestrictedGraphAPI:
    """Neighbor-list + profile access with call accounting."""

    def __init__(self, csr: CSR, labels: np.ndarray):
        self._csr = csr
        self._labels = np.asarray(labels, dtype=np.int64)
        self.neighbor_calls = 0
        self.profile_calls = 0

    # --- the only graph access the estimators are allowed ---
    def neighbors(self, u: int) -> np.ndarray:
        """Friend list of user u (one API call: one walk step)."""
        self.neighbor_calls += 1
        return self._csr.neighbors(int(u)).copy()

    def degree(self, u: int) -> int:
        """Friend count of the reached node u (free)."""
        return int(self._csr.indptr[u + 1] - self._csr.indptr[u])

    def label(self, u: int) -> int:
        """Own label of the reached node u (free)."""
        return int(self._labels[u])

    def explore(self, u: int) -> np.ndarray:
        """Labels of all of u's neighbors (``explore_cost(d(u))``
        profile-batch calls)."""
        self.profile_calls += int(explore_cost(self.degree(u)))
        return self._labels[self._csr.neighbors(int(u))]

    @property
    def calls(self) -> int:
        """API calls spent since the last reset, of both kinds."""
        return self.neighbor_calls + self.profile_calls

    # --- prior knowledge per the paper's problem statement ---
    @property
    def n_nodes(self) -> int:
        return self._csr.n

    @property
    def n_edges(self) -> int:
        return self._csr.n_edges

    def reset_counters(self) -> None:
        self.neighbor_calls = 0
        self.profile_calls = 0


def simple_random_walk(api: RestrictedGraphAPI, start: int, steps: int,
                       rng: np.random.Generator) -> list[int]:
    """SRW node trajectory of length steps+1 starting at ``start``."""
    path = [int(start)]
    u = int(start)
    for _ in range(steps):
        nbrs = api.neighbors(u)
        u = int(nbrs[rng.integers(0, nbrs.size)])
        path.append(u)
    return path


def _burn_in(api: RestrictedGraphAPI, burnin: int, rng: np.random.Generator) -> int:
    """Node reached ``burnin`` steps from a uniform start, uncharged."""
    u = simple_random_walk(api, int(rng.integers(0, api.n_nodes)), burnin, rng)[-1]
    api.reset_counters()
    return u


def neighbor_sample_ref(api: RestrictedGraphAPI, k: int, burnin: int,
                        rng: np.random.Generator) -> list[tuple[int, int]]:
    """Algorithm 1 (single-walk implementation, §4.1.2): burn in, then
    walk k further steps (k calls) and return the k traversed edges."""
    tail = simple_random_walk(api, _burn_in(api, burnin, rng), k, rng)
    return [(tail[i], tail[i + 1]) for i in range(k)]


def neighbor_exploration_ref(api: RestrictedGraphAPI, budget: int, burnin: int,
                             t1: int, t2: int, rng: np.random.Generator
                             ) -> tuple[list[int], dict[int, int]]:
    """Algorithm 2 (single-walk implementation, §4.2.2) under an API-call
    budget: burn in (uncharged), then walk. A node carrying t1 or t2 is
    explored on its first visit, and T(u) counted from the labels
    ``explore`` returns. The walk stops before the step whose calls
    would exceed ``budget``; the first step is always taken. Returns
    (sampled nodes, T mapping)."""
    u = _burn_in(api, burnin, rng)
    sample: list[int] = []
    t_map: dict[int, int] = {}
    while not sample or api.calls < budget:
        nbrs = api.neighbors(u)
        u = int(nbrs[rng.integers(0, nbrs.size)])
        lu = api.label(u)
        if lu in (t1, t2) and u not in t_map:
            if sample and api.calls + explore_cost(api.degree(u)) > budget:
                break
            t_map[u] = int((api.explore(u) == (t2 if lu == t1 else t1)).sum())
        sample.append(u)
    return sample, t_map
