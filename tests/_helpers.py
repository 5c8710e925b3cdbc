"""Shared tiny fixtures for the test suite: small labeled graphs with
hand-checkable structure, plus brute-force reference computations."""
from __future__ import annotations

import numpy as np

from repro.core.walks import Draws, draw_keys
from repro.graphs.csr import CSR, build_csr
from repro.graphs.generator import LabeledGraph


def triangle() -> LabeledGraph:
    """3-cycle, labels 1-2-1."""
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    return LabeledGraph(3, edges, np.array([1, 2, 1]), "triangle")


def path4() -> LabeledGraph:
    """Path 0-1-2-3, labels 1,2,1,2."""
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    return LabeledGraph(4, edges, np.array([1, 2, 1, 2]), "path4")


def star(n_leaves: int = 5) -> LabeledGraph:
    """Star with hub 0 (label 1) and leaves labeled 2."""
    edges = np.array([[0, i] for i in range(1, n_leaves + 1)])
    labels = np.array([1] + [2] * n_leaves)
    return LabeledGraph(n_leaves + 1, edges, labels, "star")


def small_random(n: int = 60, avg_deg: int = 6, seed: int = 0,
                 n_labels: int = 3) -> LabeledGraph:
    """Connected random graph: a Hamiltonian cycle (guarantees
    connectivity) plus random chords, random labels."""
    rng = np.random.default_rng(seed)
    cyc = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    n_extra = n * (avg_deg - 2) // 2
    extra = rng.integers(0, n, size=(3 * n_extra, 2))
    extra = extra[extra[:, 0] != extra[:, 1]][:n_extra]
    edges = np.concatenate([cyc, extra])
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    labels = rng.integers(1, n_labels + 1, size=n)
    return LabeledGraph(n, edges, labels, "small_random")


def csr_of(g: LabeledGraph) -> CSR:
    return build_csr(g.edges, g.n)


def brute_force_f(g: LabeledGraph, t1: int, t2: int) -> int:
    """Target-edge count by direct enumeration."""
    count = 0
    for u, v in g.edges:
        lu, lv = g.labels[u], g.labels[v]
        if t1 == t2:
            count += int(lu == t1 and lv == t1)
        else:
            count += int((lu == t1 and lv == t2) or (lu == t2 and lv == t1))
    return count


def brute_force_t(g: LabeledGraph, t1: int, t2: int) -> np.ndarray:
    """T(u) by direct enumeration."""
    t = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        lu, lv = g.labels[u], g.labels[v]
        if t1 == t2:
            hit = lu == t1 and lv == t1
        else:
            hit = (lu == t1 and lv == t2) or (lu == t2 and lv == t1)
        if hit:
            t[u] += 1
            t[v] += 1
    return t


def brute_force_line_neighbors(g: LabeledGraph, eid: int) -> set[int]:
    """Edge ids adjacent to edge ``eid`` in the line graph G'."""
    u, v = g.edges[eid]
    out = set()
    for j, (a, b) in enumerate(g.edges):
        if j == eid:
            continue
        if a in (u, v) or b in (u, v):
            out.add(j)
    return out


def draws(rng: np.random.Generator, n: int) -> Draws:
    """The counter-based draws of n walkers keyed from ``rng``."""
    return Draws(draw_keys(rng, n))
