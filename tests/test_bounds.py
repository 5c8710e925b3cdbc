"""Tests for the Theorem 4.1–4.5 sample-size bounds."""
import math

import numpy as np
import pytest

from repro.core import bounds
from repro.graphs import stats
from repro.graphs.csr import edge_indicator
from tests import _helpers as H


@pytest.fixture(scope="module")
def setup(spark):
    g = H.small_random(100, 6, seed=40)
    e = stats.edges_df(spark, g).localCheckpoint()
    l = stats.labels_df(spark, g).localCheckpoint()
    return g, e, l


def _numpy_bounds(g, t1, t2, eps=0.1, delta=0.1):
    """Closed-form reference implementation of all five theorems."""
    ind = edge_indicator(g.edges, g.labels, t1, t2)
    f = ind.sum()
    t = H.brute_force_t(g, t1, t2)
    d = g.degrees
    ne_ = g.n_edges
    nv = g.n
    f2 = float(f) ** 2
    out = {}
    out["NeighborSample-HH"] = (ne_ * f - f2) / (eps**2 * f2 * delta)
    a = 1 - 1 / ne_
    b = delta * eps**2 * f2 / ne_
    out["NeighborSample-HT"] = max(
        math.log((i * i + b) / b) / math.log(1 / a) for i in ind
    )
    s43 = (2.0 * ne_ * t.astype(float) ** 2 / d).sum()
    out["NeighborExploration-HH"] = (s43 - 4 * f2) / (4 * eps**2 * f2 * delta)
    b4 = 4 * delta * eps**2 * f2 / nv
    pi = d / (2.0 * ne_)
    out["NeighborExploration-HT"] = max(
        math.log((tv * tv + b4) / b4) / math.log(1 / (1 - p))
        for tv, p in zip(t.astype(float), pi)
    )
    s_inv = (1.0 / pi).sum()
    out["NeighborExploration-RW"] = max(
        18 * (s43 - 4 * f2) / (4 * eps**2 * f2 * delta),
        18 * (s_inv - nv**2) / (eps**2 * nv**2 * delta),
    )
    return out


class TestBounds:
    @pytest.mark.parametrize("t1,t2", [(1, 2), (2, 2)])
    def test_matches_closed_form(self, spark, setup, t1, t2):
        g, e, l = setup
        got = bounds.all_bounds(e, l, t1, t2)
        exp = _numpy_bounds(g, t1, t2)
        for key, val in exp.items():
            assert got[key] == pytest.approx(val, rel=1e-6), key

    def test_f_reported(self, spark, setup):
        g, e, l = setup
        got = bounds.all_bounds(e, l, 1, 2)
        assert got["F"] == H.brute_force_f(g, 1, 2)

    def test_tighter_eps_needs_more_samples(self, spark, setup):
        g, e, l = setup
        loose = bounds.all_bounds(e, l, 1, 2, eps=0.2, delta=0.1)
        tight = bounds.all_bounds(e, l, 1, 2, eps=0.05, delta=0.1)
        for key in ("NeighborSample-HH", "NeighborExploration-HH",
                    "NeighborExploration-RW"):
            assert tight[key] > loose[key], key

    def test_rarer_pair_needs_more_samples(self, spark, setup):
        """A rarer target pair inflates the NS-HH bound (~|E|/F growth)."""
        g, e, l = setup
        per_pair = {}
        for pair in [(1, 2), (1, 3)]:
            per_pair[pair] = (
                H.brute_force_f(g, *pair),
                bounds.all_bounds(e, l, *pair)["NeighborSample-HH"],
            )
        (f_a, b_a), (f_b, b_b) = per_pair[(1, 2)], per_pair[(1, 3)]
        if f_a != f_b:
            rarer_bound = b_a if f_a < f_b else b_b
            common_bound = b_b if f_a < f_b else b_a
            assert rarer_bound > common_bound

    def test_no_target_edges_raises(self, spark, setup):
        g, e, l = setup
        with pytest.raises(ValueError):
            bounds.all_bounds(e, l, 98, 99)

    def test_ne_hh_bound_below_ns_hh_for_rare_labels(self, spark):
        """The paper's Tables 20–22 show NE-HH bounds orders below
        NS-HH on rare labels — exploration concentrates the estimator."""
        g = H.small_random(150, 6, seed=41, n_labels=12)
        e = stats.edges_df(spark, g)
        l = stats.labels_df(spark, g)
        # pick a rare pair
        from repro.harness.datasets import pair_counts_np
        pairs, counts = pair_counts_np(g)
        rare = pairs[counts.argmin()]
        got = bounds.all_bounds(e, l, int(rare[0]), int(rare[1]))
        assert got["NeighborExploration-HH"] < got["NeighborSample-HH"]
