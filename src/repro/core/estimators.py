"""Estimator math shared by the samplers — pure NumPy, unit-testable.

Hansen–Hurwitz [10], Horvitz–Thompson [12] and re-weighted /
importance-sampling [17] estimators as used in the paper's Eqs. 2, 3,
11, 13 and 19. Each function maps a *batch* of simulations (rows) to a
vector of per-simulation estimates of F.
"""
from __future__ import annotations

import numpy as np


def hansen_hurwitz(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Generic HH: mean over samples of value/prob, batched over rows.

    ``values``/``probs`` are (B, k). For NS-HH pass values=I(e_i),
    probs=1/|E|; for NE-HH pass values=T(u_i)/2, probs=d(u)/2|E|.
    """
    return (values / probs).mean(axis=1)


def first_visits(ids: np.ndarray) -> np.ndarray:
    """(B, L) bool: True where ``ids[i, j]`` is the first occurrence of
    its value in row i. A stable per-row sort keeps equal ids in step
    order, so the first of each sorted run is the earliest visit."""
    order = np.argsort(ids, axis=1, kind="stable")
    srt = np.take_along_axis(ids, order, axis=1)
    first = np.ones(ids.shape, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    out = np.empty(ids.shape, dtype=bool)
    np.put_along_axis(out, order, first, axis=1)
    return out


def horvitz_thompson(values: np.ndarray, incl_probs: np.ndarray,
                     sample_ids: np.ndarray) -> np.ndarray:
    """Generic HT over a batch: sum of value/incl_prob over *distinct*
    sampled units per row.

    ``sample_ids`` (B, k) are unit ids; ``values``/``incl_probs`` (B, k)
    are per-draw unit attributes (repeated draws of a unit carry equal
    values). Duplicates within a row count once, per H(e in S).
    """
    return np.where(first_visits(sample_ids), values / incl_probs, 0.0).sum(axis=1)


def reweighted_ratio(numer_w: np.ndarray, denom_w: np.ndarray,
                     scale: float) -> np.ndarray:
    """Re-weighted (ratio / self-normalized IS) estimator, batched:
    scale * sum(numer_w) / sum(denom_w) per row. Rows with a zero
    denominator return 0 (cannot happen for k >= 1 with positive
    weights, guarded for safety)."""
    num = numer_w.sum(axis=1)
    den = denom_w.sum(axis=1)
    out = np.zeros_like(num, dtype=np.float64)
    nz = den != 0
    out[nz] = scale * num[nz] / den[nz]
    return out


def ht_inclusion_prob(unit_prob: np.ndarray, k: int) -> np.ndarray:
    """Pr(unit in S) = 1 - (1 - p)^k for k independent draws with
    per-draw probability p (paper §4.1.3 / §4.2.3)."""
    return 1.0 - (1.0 - unit_prob) ** k


def nrmse(estimates: np.ndarray, truth: float) -> float:
    """Paper Eq. 24: sqrt(E[(F̂ - F)^2]) / F — captures bias + variance."""
    est = np.asarray(estimates, dtype=np.float64)
    return float(np.sqrt(np.mean((est - truth) ** 2)) / truth)
