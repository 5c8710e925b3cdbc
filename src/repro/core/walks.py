"""The one walk loop, and the simple-random-walk step it runs.

Every sampler is one walk per simulation: burn in, then record k steps
(paper §4.1.2, §4.2.2; the EX-* chains run the same loop on the line
graph). ``run`` is that loop for a lock-step batch of *units*: each unit
is a group of independent walkers with its own start arcs, its own
length k and its own ``numpy.random.Generator``. The units are laid out
one after another, longest first, so the walkers still recording are
always a prefix of the batch: the non-random arithmetic of a step runs
once over that prefix, and every draw is made per unit, from the unit's
own Generator, on the unit's slice (``Draws``). A unit therefore draws
exactly what it draws alone, in the same order, whatever batch it
shares. ``run`` records arcs only: ``edge_ids[arcs]`` is the traversed
edge (NeighborSample, EX-*), ``indices[arcs]`` the reached node
(NeighborExploration).
"""
from __future__ import annotations

from itertools import takewhile
from typing import Callable

import numpy as np

from repro.graphs.csr import CSR


class Draws:
    """The random draws of a batch of units. Unit i owns the walkers
    ``[start_i, stop_i)`` of the batch and draws from its own Generator
    on that slice only. Each method draws for the units that lie in the
    prefix it is given."""

    def __init__(self, rngs: list[np.random.Generator], sizes: list[int]):
        stops = np.cumsum(sizes, dtype=np.int64).tolist()
        self.units = list(zip(rngs, [0, *stops[:-1]], stops))

    def _within(self, p: int):
        return takewhile(lambda u: u[1] < p, self.units)

    def integers(self, high: np.ndarray) -> np.ndarray:
        """``Generator.integers(0, high)``, per unit on its slice."""
        out = np.empty(high.shape, dtype=np.int64)
        for rng, a, b in self._within(high.shape[0]):
            out[a:b] = rng.integers(0, high[a:b])
        return out

    def random(self, drawing: np.ndarray) -> np.ndarray:
        """``Generator.random`` per unit whose walkers are ``drawing``
        (one flag per walker, equal within a unit), and 0.0 for the
        walkers of every other unit, which draw nothing."""
        out = np.zeros(drawing.shape[0])
        for rng, a, b in self._within(drawing.shape[0]):
            if drawing[a]:
                out[a:b] = rng.random(b - a)
        return out


def run(rngs: list[np.random.Generator], starts: list[np.ndarray],
        ks: list[int], step: Callable[[np.ndarray, Draws], np.ndarray],
        burnin: int) -> list[np.ndarray]:
    """Walk a batch of units in lock step: unit i starts from the arcs
    ``starts[i]``, draws from ``rngs[i]`` and records ``ks[i]`` steps.
    ``step(arcs, draws)`` maps the arcs of a prefix of the batch to
    their next arcs. Every unit takes ``burnin`` unrecorded steps, then
    records until its k is reached. Returns each unit's (n_i, k_i)
    recorded arcs. Raises ValueError unless ``ks`` is non-increasing
    (longest unit first)."""
    if any(a < b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"units must come longest first, got k = {ks}")
    if not starts:
        return []
    draws = Draws(rngs, [s.shape[0] for s in starts])
    stops = [b for _, _, b in draws.units]
    arcs = np.concatenate(starts)
    for _ in range(burnin):
        arcs = step(arcs, draws)
    outs = [np.empty((s.shape[0], k), dtype=np.int64) for s, k in zip(starts, ks)]
    active = len(ks)
    for t in range(ks[0]):
        while ks[active - 1] <= t:
            active -= 1
        arcs = step(arcs[:stops[active - 1]], draws)
        for out, (_, a, b) in zip(outs[:active], draws.units):
            out[:, t] = arcs[a:b]
    return outs


def srw_step(csr: CSR, arcs: np.ndarray, draws: Draws) -> np.ndarray:
    """Simple-random-walk step: a uniform arc out of each arc's head."""
    head = csr.indices[arcs]
    return csr.indptr[head] + draws.integers(csr.degrees[head])


def srw_runs(csr: CSR, burnin: int,
             units: list[tuple[int, int, np.random.Generator]]) -> list[np.ndarray]:
    """NS/NE runs for a batch of units (k, n_sims, rng), longest first.
    Each walker starts at a uniform node u, entered by the reverse of
    u's first arc, takes ``burnin`` unrecorded steps, then records k.
    Returns each unit's (n_sims, k) arcs. Raises ValueError on a start
    node with no edges."""
    starts = []
    for _, n, rng in units:
        nodes = rng.integers(0, csr.n, size=n)
        if (isolated := nodes[csr.degrees[nodes] == 0]).size:
            raise ValueError(f"walk starts on node {int(isolated[0])}, which has no edges")
        starts.append(csr.rev[csr.indptr[nodes]])
    return run([rng for *_, rng in units], starts, [k for k, *_ in units],
               lambda a, d: srw_step(csr, a, d), burnin)
