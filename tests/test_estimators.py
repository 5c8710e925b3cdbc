"""Unit tests for the pure estimator math."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimators as E


class TestHansenHurwitz:
    def test_single_row(self):
        vals = np.array([[1.0, 0.0, 1.0, 0.0]])
        probs = np.full((1, 4), 0.25)
        assert E.hansen_hurwitz(vals, probs)[0] == pytest.approx(2.0)

    def test_batched(self):
        vals = np.array([[1.0, 1.0], [0.0, 1.0]])
        probs = np.full((2, 2), 0.5)
        out = E.hansen_hurwitz(vals, probs)
        assert out.tolist() == [2.0, 1.0]

    def test_exactly_unbiased_under_enumeration(self):
        """E[v/p] over the sampling distribution equals the population
        total, by direct enumeration of a 3-unit population."""
        totals = np.array([5.0, 1.0, 2.0])
        probs = np.array([0.5, 0.3, 0.2])
        expectation = sum(p * (t / p) for t, p in zip(totals, probs)) / 1.0
        # single-draw HH: every draw i contributes totals[i]/probs[i]
        assert expectation == pytest.approx(totals.sum() * 1.0 / 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6))
    def test_shape(self, b, k):
        vals = np.ones((b, k))
        probs = np.full((b, k), 0.1)
        assert E.hansen_hurwitz(vals, probs).shape == (b,)


class TestFirstVisits:
    def test_all_distinct(self):
        assert E.first_visits(np.array([[4, 2, 9, 0]])).tolist() == [[True] * 4]

    def test_all_equal(self):
        out = E.first_visits(np.array([[3, 3, 3]]))
        assert out.tolist() == [[True, False, False]]

    def test_single_step(self):
        assert E.first_visits(np.array([[7], [7]])).tolist() == [[True], [True]]

    def test_repeats_rows_independent(self):
        ids = np.array([[5, 1, 5, 2, 1, 5],
                        [1, 1, 2, 2, 3, 1]])
        assert E.first_visits(ids).tolist() == [
            [True, True, False, True, False, False],
            [True, False, True, False, True, False],
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 10_000))
    def test_matches_per_row_unique(self, b, k, seed):
        ids = np.random.default_rng(seed).integers(0, 6, size=(b, k))
        expected = np.zeros((b, k), dtype=bool)
        for i in range(b):
            expected[i, np.unique(ids[i], return_index=True)[1]] = True
        assert (E.first_visits(ids) == expected).all()


class TestHorvitzThompson:
    def test_duplicates_counted_once(self):
        ids = np.array([[7, 7, 7, 3]])
        vals = np.array([[1.0, 1.0, 1.0, 1.0]])
        incl = np.full((1, 4), 0.5)
        # distinct units {7, 3}: 1/0.5 + 1/0.5 = 4
        assert E.horvitz_thompson(vals, incl, ids)[0] == pytest.approx(4.0)

    def test_zero_values_contribute_nothing(self):
        ids = np.array([[1, 2, 3]])
        vals = np.array([[0.0, 0.0, 1.0]])
        incl = np.full((1, 3), 0.25)
        assert E.horvitz_thompson(vals, incl, ids)[0] == pytest.approx(4.0)

    def test_batched_rows_independent(self):
        ids = np.array([[1, 1], [1, 2]])
        vals = np.ones((2, 2))
        incl = np.full((2, 2), 1.0)
        out = E.horvitz_thompson(vals, incl, ids)
        assert out.tolist() == [1.0, 2.0]

    def test_unbiased_small_population(self):
        """HT with k independent uniform draws from m units is unbiased
        for the population total — verified by exhaustive enumeration."""
        m, k = 3, 2
        y = np.array([2.0, 0.0, 1.0])
        p_incl = 1.0 - (1.0 - 1.0 / m) ** k
        total = 0.0
        for a in range(m):
            for b in range(m):
                s = {a, b}
                total += (1 / m**k) * sum(y[u] / p_incl for u in s)
        assert total == pytest.approx(y.sum())


class TestReweighted:
    def test_ratio(self):
        num = np.array([[1.0, 2.0]])
        den = np.array([[1.0, 1.0]])
        assert E.reweighted_ratio(num, den, 4.0)[0] == pytest.approx(6.0)

    def test_zero_denominator_guard(self):
        num = np.array([[1.0]])
        den = np.array([[0.0]])
        assert E.reweighted_ratio(num, den, 4.0)[0] == 0.0

    def test_scale_invariance_of_weights(self):
        """Multiplying all weights by a constant leaves the ratio fixed."""
        rng = np.random.default_rng(0)
        num = rng.random((3, 5))
        den = rng.random((3, 5))
        a = E.reweighted_ratio(num, den, 2.0)
        b = E.reweighted_ratio(10 * num, 10 * den, 2.0)
        assert np.allclose(a, b)


class TestInclusionProb:
    def test_formula(self):
        assert E.ht_inclusion_prob(np.array(0.5), 1) == pytest.approx(0.5)
        assert E.ht_inclusion_prob(np.array(0.5), 2) == pytest.approx(0.75)

    def test_monotone_in_k(self):
        p = np.array(0.01)
        vals = [float(E.ht_inclusion_prob(p, k)) for k in (1, 10, 100, 1000)]
        assert vals == sorted(vals)
        assert 0 < vals[0] < vals[-1] < 1

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-6, 0.999), st.integers(1, 500))
    def test_bounds(self, p, k):
        v = float(E.ht_inclusion_prob(np.array(p), k))
        assert p - 1e-12 <= v <= 1.0


class TestNRMSE:
    def test_exact(self):
        assert E.nrmse(np.array([100.0, 100.0]), 100.0) == 0.0

    def test_constant_bias(self):
        # estimates all 110, truth 100 -> NRMSE = 0.1
        assert E.nrmse(np.full(50, 110.0), 100.0) == pytest.approx(0.1)

    def test_pure_variance(self):
        est = np.array([90.0, 110.0])
        assert E.nrmse(est, 100.0) == pytest.approx(0.1)

    def test_zero_estimator_gives_one(self):
        """An estimator that always returns 0 has NRMSE exactly 1 — the
        signature of the EX-MDRW 1.0 cells in the paper's tables."""
        assert E.nrmse(np.zeros(10), 42.0) == pytest.approx(1.0)
