"""NeighborExploration (paper §4.2): node sampling + neighbor exploration.

Sampling: burn in, then continue the walk under an *API-call budget* —
the paper's tables put "sample size = x% |V| API calls" on the x-axis.
The calls are priced in ``repro.osn.api``: one per walk step, plus
``explore_cost(d(u))`` profile-batch calls on the first visit of a
target-labeled node u; ``osn.api.neighbor_exploration_ref`` is the
step-by-step reference of the cut below. This makes the paper's
crossover: on gender-labeled graphs every node triggers exploration, so
a k-call budget buys NE only ~k/(1 + d/10) steps while NeighborSample
gets k — and NS wins; on rare labels exploration is almost free and
NE's T(u) information wins.

In the simulation T(u) is precomputed for every node from the full
graph (oracle-checked); the estimators only read T at sampled nodes —
exactly what API exploration would return.

Estimators (pi(u) = d(u)/2|E|), over each run's n_steps ≤ budget nodes:
- NE-HH (Eq. 11): F̂ = (1/n) Σ |E| T(u_i) / d(u_i)
- NE-HT (Eq. 13): F̂ = ½ Σ_{distinct u in S} T(u) / (1 - (1 - pi(u))^n)
- NE-RW (Eq. 19): F̂ = |V| (Σ T(u_i)/d(u_i)) / (2 Σ 1/d(u_i))
"""
from __future__ import annotations

import numpy as np

from repro.core import estimators, walks
from repro.graphs.csr import CSR


def budget_cutoffs(nodes: np.ndarray, has_target: np.ndarray,
                   cost_per_node: np.ndarray, budget: int) -> np.ndarray:
    """Per-run number of affordable steps.

    For each row of ``nodes``: step t costs 1 plus, on the *first* visit
    of a target-labeled node, that node's exploration cost. Returns the
    largest n with cumulative cost ≤ budget (at least 1 — the walk
    always takes its first step, as a real crawler would).
    """
    first = estimators.first_visits(nodes)
    cost = 1 + np.where(has_target[nodes] & first, cost_per_node[nodes], 0)
    return np.maximum(1, (np.cumsum(cost, axis=1) <= budget).sum(axis=1))


def sample_nodes_budgeted(csr: CSR, budget: int, burnin: int, n_sims: int,
                          has_target: np.ndarray, cost_per_node: np.ndarray,
                          rng: np.random.Generator
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Budgeted NE runs: walk up to ``budget`` steps (cost ≥ 1 per step
    bounds the useful length), then cut each run where its API spend
    hits the budget. Returns (nodes (n_sims, budget), n_steps (n_sims,))."""
    nodes = csr.indices[walks.srw_runs(csr, burnin, [(budget, n_sims, rng)])[0]]
    n_steps = budget_cutoffs(nodes, has_target, cost_per_node, budget)
    return nodes, n_steps


def _mask(nodes: np.ndarray, n_steps: np.ndarray) -> np.ndarray:
    """(B, L) bool mask of in-budget steps."""
    return np.arange(nodes.shape[1])[None, :] < n_steps[:, None]


def hh_estimate(nodes: np.ndarray, t_counts: np.ndarray, degrees: np.ndarray,
                n_edges: int, n_steps: np.ndarray) -> np.ndarray:
    """NE-HH per run (Eq. 11), averaged over each run's in-budget steps."""
    m = _mask(nodes, n_steps)
    vals = n_edges * t_counts[nodes] / degrees[nodes]
    return (vals * m).sum(axis=1) / m.sum(axis=1)


def ht_estimate(nodes: np.ndarray, t_counts: np.ndarray, degrees: np.ndarray,
                n_edges: int, n_steps: np.ndarray) -> np.ndarray:
    """NE-HT per run (Eq. 13); k in the inclusion probability is the
    run's own in-budget step count. A node's first visit inside the
    budget prefix is its first visit in the whole row, so zeroing T past
    the prefix leaves exactly the prefix's distinct nodes."""
    m = _mask(nodes, n_steps)
    pi = degrees[nodes] / (2.0 * n_edges)
    incl = estimators.ht_inclusion_prob(pi, m.sum(axis=1, keepdims=True))
    return 0.5 * estimators.horvitz_thompson(t_counts[nodes] * m, incl, nodes)


def rw_estimate(nodes: np.ndarray, t_counts: np.ndarray, degrees: np.ndarray,
                n_nodes: int, n_steps: np.ndarray) -> np.ndarray:
    """NE-RW per run (Eq. 19) over in-budget steps."""
    m = _mask(nodes, n_steps)
    t_over_d = t_counts[nodes] / degrees[nodes] * m
    inv_d = 1.0 / degrees[nodes] * m
    return estimators.reweighted_ratio(t_over_d, inv_d, n_nodes / 2.0)
