"""CSR adjacency with the arc-level indexes the walk kernels need.

An undirected edge {u, v} is stored as two *arcs* u→v and v→u. Besides
``indptr`` (node u's arcs are ``indptr[u]:indptr[u+1]``) we keep, for
each arc ``a``:

- ``indices[a]``   the head node,
- ``edge_ids[a]``  the undirected edge id (row index into the (E,2)
  edge array) — both arcs of an edge share it,
- ``rev[a]``       the index of the opposite arc.

Everything else is derived where it is read: the tail of ``a`` is
``indices[rev[a]]`` and its position inside the tail's adjacency block
is ``a - indptr[tail]``. ``rev`` exists for the implicit line-graph
walk, which needs both endpoints of the current edge and "a uniform
incident edge of u *excluding* (u,v)" (``repro.baselines.linegraph``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class CSR:
    n: int
    indptr: np.ndarray    # (n+1,) int64
    indices: np.ndarray   # (2E,) int64 — head of each arc
    edge_ids: np.ndarray  # (2E,) int64
    rev: np.ndarray       # (2E,) int64

    @property
    def n_edges(self) -> int:
        return int(self.indices.size // 2)

    @property
    def n_arcs(self) -> int:
        return int(self.indices.shape[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        """(n,) node degrees, computed on first access and kept: the
        line-graph step reads them at every step."""
        return np.diff(self.indptr)

    @property
    def tails(self) -> np.ndarray:
        """(2E,) tail node of every arc. Built on each access in O(|E|),
        so read it once per function, never inside a step kernel."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]: self.indptr[u + 1]]

    def arc_of(self, u: int, v: int) -> int:
        """Arc index of u→v; raises if the edge is absent (test helper)."""
        block = self.neighbors(u)
        hits = np.flatnonzero(block == v)
        if hits.size == 0:
            raise KeyError(f"no edge {u}->{v}")
        return int(self.indptr[u] + hits[0])


def build_csr(edges: np.ndarray, n: int) -> CSR:
    """Build the CSR + arc indexes from an (E,2) undirected edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    e = edges.shape[0]
    eid = np.arange(e, dtype=np.int64)
    tails_raw = np.concatenate([edges[:, 0], edges[:, 1]])
    heads_raw = np.concatenate([edges[:, 1], edges[:, 0]])
    eids_raw = np.concatenate([eid, eid])
    order = np.argsort(tails_raw, kind="stable")
    tails = tails_raw[order]
    indices = heads_raw[order]
    edge_ids = eids_raw[order]
    counts = np.bincount(tails, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Opposite arc: the two arcs of edge id k are the two entries with
    # edge_ids == k; a stable argsort by edge id puts them adjacent.
    by_eid = np.argsort(edge_ids, kind="stable")
    rev = np.empty(2 * e, dtype=np.int64)
    rev[by_eid[0::2]] = by_eid[1::2]
    rev[by_eid[1::2]] = by_eid[0::2]
    return CSR(n=n, indptr=indptr, indices=indices, edge_ids=edge_ids, rev=rev)


def edge_indicator(edges: np.ndarray, labels: np.ndarray, t1: int, t2: int) -> np.ndarray:
    """I(e) per undirected edge: 1 iff endpoint labels match {t1, t2}.

    When t1 == t2 both endpoints must carry that label (the unordered
    pair (t, t) matches only (t, t)).
    """
    lu = labels[edges[:, 0]]
    lv = labels[edges[:, 1]]
    if t1 == t2:
        hit = (lu == t1) & (lv == t1)
    else:
        hit = ((lu == t1) & (lv == t2)) | ((lu == t2) & (lv == t1))
    return hit.astype(np.int64)


def t_counts(edges: np.ndarray, labels: np.ndarray, n: int, t1: int, t2: int) -> np.ndarray:
    """T(u) per node: number of target edges incident to u (paper §4.2)."""
    ind = edge_indicator(edges, labels, t1, t2)
    t = np.bincount(edges[:, 0], weights=ind, minlength=n)
    t += np.bincount(edges[:, 1], weights=ind, minlength=n)
    return t.astype(np.int64)
