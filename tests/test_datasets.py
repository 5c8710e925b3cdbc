"""Tests for the dataset registry and target-pair selection."""
import hashlib

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.graphs import stats
from repro.harness import datasets as ds
from repro.harness.experiment import build_context
from repro.harness.paper_numbers import DATASET_STATS


class TestSpecs:
    def test_all_five_paper_networks_present(self):
        assert set(ds.SPECS) == {
            "facebook", "googleplus", "pokec", "orkut", "livejournal"
        }

    @pytest.mark.parametrize("name", list(ds.SPECS))
    def test_loads_and_caches(self, name):
        g1 = ds.load(name)
        g2 = ds.load(name)
        assert g1 is g2
        assert g1.n == ds.SPECS[name].n

    def test_facebook_matches_paper_scale(self):
        g = ds.load("facebook")
        paper = DATASET_STATS["facebook"]
        assert g.n == paper["nv"]
        assert abs(g.n_edges - paper["ne"]) / paper["ne"] < 0.05

    def test_csr_cached(self):
        """One CSR per graph: the one the context build holds."""
        ctx = build_context(ds.load("facebook"), (1, 2), burnin=600)
        assert ds.load_csr("facebook") is ds.load_csr("facebook") is ctx["csr"]


class TestTargetPairs:
    def test_gender_fixed_pairs(self):
        assert ds.target_pairs("facebook") == ((1, 2),)
        assert ds.target_pairs("googleplus") == ((1, 2),)

    @pytest.mark.parametrize("name", ["pokec", "orkut", "livejournal"])
    def test_four_distinct_pairs(self, name):
        pairs = ds.target_pairs(name)
        assert len(pairs) == 4
        assert len(set(pairs)) == 4

    @pytest.mark.parametrize("name", ["pokec", "orkut", "livejournal"])
    def test_frequencies_ascend_with_targets(self, name):
        g = ds.load(name)
        fracs = [ds.exact_f(name, p) / g.n_edges for p in ds.target_pairs(name)]
        assert fracs == sorted(fracs)

    def test_pokec_frequencies_near_paper(self):
        g = ds.load("pokec")
        spec = ds.SPECS["pokec"]
        for pair, target in zip(ds.target_pairs("pokec"), spec.target_fracs):
            got = ds.exact_f("pokec", pair) / g.n_edges
            assert 0.2 * target < got < 5 * target, (pair, target, got)

    def test_facebook_cross_fraction_near_paper(self):
        g = ds.load("facebook")
        frac = ds.exact_f("facebook", (1, 2)) / g.n_edges
        assert abs(frac - 0.424) < 0.03  # paper: 42.4%

    def test_googleplus_cross_fraction_near_paper(self):
        g = ds.load("googleplus")
        frac = ds.exact_f("googleplus", (1, 2)) / g.n_edges
        assert abs(frac - 0.269) < 0.03  # paper: 26.89%


@pytest.fixture(scope="class")
def spark_f(spark):
    """Every target pair's F = sum_u T(u) / 2, from one node table per
    dataset."""
    out = {}
    for name in ("facebook", "pokec"):
        g = ds.load(name)
        pairs = ds.target_pairs(name)
        nodes = stats.node_table(
            stats.edges_df(spark, g), stats.labels_df(spark, g), pairs)
        t_sums = nodes.agg(*(F.sum(f"t_{i}") for i in range(len(pairs)))).collect()[0]
        out[name] = [t_sum // 2 for t_sum in t_sums]
    return out


class TestExactFAgainstSpark:
    @pytest.mark.parametrize("name,pi", [
        ("facebook", 0), ("pokec", 0), ("pokec", 1), ("pokec", 2), ("pokec", 3),
    ])
    def test_matches_catalyst(self, spark_f, name, pi):
        assert ds.exact_f(name, ds.target_pairs(name)[pi]) == spark_f[name][pi]


class TestPokecLocations:
    def test_every_label_named(self):
        g = ds.load("pokec")
        for lab in np.unique(g.labels):
            assert int(lab) in ds.POKEC_LOCATIONS

    def test_names_unique(self):
        names = list(ds.POKEC_LOCATIONS.values())
        assert len(names) == len(set(names))


# sha256 of the int64 edge and label arrays, and the target pairs, of
# every dataset. Any change to the generator's draws or the specs moves
# at least one of these; a change that must keep the datasets the same
# must keep these the same.
PINNED = {
    "facebook": (
        "dc8867af8c57658e7d9c3cd092e59a74d5b4ef4870f357e0c3622d062860a450",
        "d33cf359f2977b708b487053cec99d97794ae39db88d4d1a2d5fffbfe4df1351",
        ((1, 2),),
    ),
    "googleplus": (
        "f2b6bbf7c8441bfa08e3edfb50133ad34ef38ea53d19e02935d1e589399f9b45",
        "073adc8269f7ed6b33f9777bb4b170a3a1c85250e1f8c31b5f5406cfe3915524",
        ((1, 2),),
    ),
    "pokec": (
        "859d23c98cc334f6096a7abac0bb0dd52e8d2efc4597bf36da48ad7c3ed20fa4",
        "1cf3a0038712b89fe3f1ced99bd1fe29b13292a664158fe5ed88012e400b56c5",
        ((4, 19), (0, 30), (0, 7), (0, 0)),
    ),
    "orkut": (
        "d06801cd99e9ca60a00d04e3e1a0281b822b5ac59f2f7d5db3b9b3868dbf570c",
        "6fd4420567f80305cce6c0d68ab8b4450b14e70333763a13ab2c2262bd3ba5bb",
        ((15, 15), (14, 17), (10, 16), (9, 13)),
    ),
    "livejournal": (
        "6d5fc3f018136e549672b87cad5e9ff26b455b321deb99fa3fdacc760f9b5c91",
        "925ab93875e1d8482e7940e8454ea838f84ed1e12e7a221dc81531052c9b9704",
        ((12, 12), (10, 13), (7, 12), (5, 5)),
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_generation_pinned(name):
    g = ds.load(name)
    assert g.edges.dtype == g.labels.dtype == np.int64
    edges, labels, pairs = PINNED[name]
    assert hashlib.sha256(np.ascontiguousarray(g.edges).tobytes()).hexdigest() == edges
    assert hashlib.sha256(np.ascontiguousarray(g.labels).tobytes()).hexdigest() == labels
    assert ds.target_pairs(name) == pairs
