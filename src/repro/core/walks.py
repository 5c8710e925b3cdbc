"""The one walk loop, its counter-based draws, and the simple-random-walk
step it runs.

Every sampler is one walk per simulation: burn in, then record k steps
(paper §4.1.2, §4.2.2; the EX-* chains run the same loop on the line
graph). ``run`` is that loop for a lock-step batch of *units*: each unit
is a group of independent walkers with its own start arcs, its own
length k and its own ``numpy.random.Generator``. A unit's Generator
draws its walkers' starts and then one 64-bit key per walker, and is
never read again. Every later draw is counter-based (``uniforms``): call
c of the batch gives walker w the SplitMix64 finalizer of key_w + c·γ,
hashed as NumPy vector expressions for the whole batch (``Draws``). The
counter advances once per call whether or not a walker uses the value,
so a walker draws the same values whatever batch it shares. The units
are laid out one after another, longest first, so the walkers still
recording are always a prefix of the batch. ``run`` records arcs only:
``edge_ids[arcs]`` is the traversed edge (NeighborSample, EX-*),
``indices[arcs]`` the reached node (NeighborExploration).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.csr import CSR


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the Weyl increment γ
# and the two multipliers of its finalizer.
GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)
# Draw calls hashed at once: the hash is a few NumPy ufuncs, whose fixed
# cost per call exceeds their cost per walker at a batch's width.
BLOCK = 64


def draw_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """n walker keys, the last draw a walker takes from ``rng``."""
    return rng.integers(0, 2**63, size=n).astype(np.uint64)


def uniforms(keys: np.ndarray, calls: np.ndarray) -> np.ndarray:
    """Draws ``calls`` of the walkers keyed by ``keys``, one row per
    call: the SplitMix64 finalizer of key + c·γ (mod 2⁶⁴), its top 53
    bits as u in [0, 1)."""
    z = keys + np.asarray(calls, dtype=np.uint64)[:, None] * GAMMA
    z ^= z >> np.uint64(30)
    z *= MIX1
    z ^= z >> np.uint64(27)
    z *= MIX2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


class Draws:
    """The counter-based draws of a batch of walkers: call c gives each
    walker of the prefix it is asked for its row of ``uniforms(keys,
    [c])``, and advances ``calls`` for the whole batch. Rows are hashed
    BLOCK calls at a time."""

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.calls = 0

    def _next(self, n: int) -> np.ndarray:
        i = self.calls % BLOCK
        if i == 0:
            self._block = uniforms(self.keys, np.arange(self.calls, self.calls + BLOCK))
        self.calls += 1
        return self._block[i, :n]

    def integers(self, high: np.ndarray) -> np.ndarray:
        """⌊u·high⌋ per walker, clamped below ``high`` (bias ≤ high/2⁵³
        against an exactly uniform integer)."""
        return np.minimum((self._next(high.shape[0]) * high).astype(np.int64), high - 1)

    def random(self, drawing: np.ndarray) -> np.ndarray:
        """u for the walkers that are ``drawing``, 0.0 for the others."""
        return np.where(drawing, self._next(drawing.shape[0]), 0.0)


def run(rngs: list[np.random.Generator], starts: list[np.ndarray],
        ks: list[int], step: Callable[[np.ndarray, Draws], np.ndarray],
        burnin: int) -> list[np.ndarray]:
    """Walk a batch of units in lock step: unit i starts from the arcs
    ``starts[i]``, keys its walkers from ``rngs[i]`` and records
    ``ks[i]`` steps. ``step(arcs, draws)`` maps the arcs of a prefix of
    the batch to their next arcs. Every unit takes ``burnin`` unrecorded
    steps, then records until its k is reached. Returns each unit's (n_i, k_i)
    recorded arcs. Raises ValueError unless ``ks`` is non-increasing
    (longest unit first)."""
    if any(a < b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"units must come longest first, got k = {ks}")
    if not starts:
        return []
    draws = Draws(np.concatenate([draw_keys(rng, s.shape[0]) for rng, s in zip(rngs, starts)]))
    stops = np.cumsum([s.shape[0] for s in starts]).tolist()
    arcs = np.concatenate(starts)
    for _ in range(burnin):
        arcs = step(arcs, draws)
    outs = [np.empty((s.shape[0], k), dtype=np.int64) for s, k in zip(starts, ks)]
    active = len(ks)
    for t in range(ks[0]):
        while ks[active - 1] <= t:
            active -= 1
        arcs = step(arcs[:stops[active - 1]], draws)
        for out, a, b in zip(outs[:active], [0, *stops], stops):
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
