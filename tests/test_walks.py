"""Unit tests for the walk loop, its counter-based draws and the
simple-random-walk kernels."""
import numpy as np
import pytest

from repro.core import walks
from repro.graphs.csr import build_csr
from tests import _helpers as H


@pytest.fixture(scope="module")
def small():
    g = H.small_random(60, 6, seed=3)
    return g, H.csr_of(g)


class TestRun:
    @pytest.mark.parametrize("burnin,ks", [
        (3, [4]), (0, [3]), (2, [1]), (0, [1]), (3, [4, 4, 2]), (0, [5, 1, 1]),
    ], ids=["3-4", "0-3", "2-1", "0-1", "3-4-4-2", "0-5-1-1"])
    def test_burnin_then_record(self, burnin, ks):
        """With a counting step, burn-in is unrecorded and each unit's k
        recorded steps follow it in order. Every walker steps through
        burn-in; then only the units still recording do, as a prefix."""
        starts = [np.array([0, 10]) + 100 * i for i in range(len(ks))]
        widths = []
        rngs = [np.random.default_rng(i) for i in range(len(ks))]
        outs = walks.run(rngs, starts, ks,
                         lambda a, d: widths.append(a.size) or a + 1, burnin)
        for s, k, out in zip(starts, ks, outs):
            steps = np.arange(burnin + 1, burnin + k + 1)
            assert out.tolist() == [(s[0] + steps).tolist(), (s[1] + steps).tolist()]
        assert widths == [2 * len(ks)] * burnin + [
            2 * sum(k > t for k in ks) for t in range(ks[0])]

    def test_rejects_shorter_unit_first(self):
        with pytest.raises(ValueError, match="longest"):
            walks.run([None, None], [np.array([0]), np.array([1])], [1, 2],
                      lambda a, d: a, 0)


def chi2_z(counts: np.ndarray) -> float:
    """Wilson–Hilferty normal score of the chi-square statistic of
    ``counts`` against equal cell probabilities."""
    df = counts.size - 1
    expected = counts.sum() / counts.size
    chi2 = ((counts - expected) ** 2 / expected).sum()
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / np.sqrt(2 / (9 * df))


class TestDraws:
    @pytest.fixture()
    def keys(self):
        return walks.draw_keys(np.random.default_rng(11), 1000)

    def test_largest_uniform_stays_in_range(self, keys, monkeypatch):
        """At u = 1 - 2⁻⁵³, the largest value ``uniforms`` can give,
        ``integers`` stays below ``high`` and ``random`` below 1."""
        top = (np.uint64(2**64 - 1) >> np.uint64(11)) * 2.0**-53
        assert top == 1 - 2**-53
        monkeypatch.setattr(walks, "uniforms",
                            lambda k, calls: np.full((len(calls), k.size), top))
        high = np.array([1, 2, 3, 7, 1708, 2**31 - 1, 2**40 + 1, 2**52 + 1] * 125)
        draws = walks.Draws(keys)
        assert ((draws.integers(high) == high - 1)).all()
        assert (draws.random(np.ones(keys.size, dtype=bool)) < 1).all()

    # 1708 is the largest node degree of the Orkut dataset, and 3414 the
    # largest line-graph degree there.
    @pytest.mark.parametrize("high", [1, 2, 3, 10, 97, 1708, 3414])
    def test_integers_uniform(self, keys, high):
        """Over 300 calls of 1000 walkers, every value in [0, high)
        comes up as often as a uniform draw's would (chi-square)."""
        draws = walks.Draws(keys)
        highs = np.full(keys.size, high)
        got = np.concatenate([draws.integers(highs) for _ in range(300)])
        assert got.min() >= 0 and got.max() < high
        if high > 1:
            assert abs(chi2_z(np.bincount(got, minlength=high))) < 4.5

    def test_random_in_unit_interval(self, keys):
        draws = walks.Draws(keys)
        drawing = np.arange(keys.size) % 3 > 0
        got = np.stack([draws.random(drawing) for _ in range(200)])
        assert (got[:, ~drawing] == 0).all()
        u = got[:, drawing]
        assert u.min() > 0 and u.max() < 1
        assert abs(chi2_z(np.bincount((u * 50).astype(int).ravel(), minlength=50))) < 4.5

    def test_walker_draws_do_not_depend_on_batch(self, keys):
        """A walker draws the same values alone as inside a 300-walker
        batch whose prefix shrinks past it, over several hash blocks."""
        batch = walks.Draws(keys[:300])
        alone = {j: walks.Draws(keys[j:j + 1]) for j in (0, 17, 150, 299)}
        for c in range(3 * walks.BLOCK + 5):
            width = 300 - c
            if c % 2:
                got = batch.integers(np.full(width, 1000))
                own = {j: d.integers(np.array([1000]))[0] for j, d in alone.items()}
            else:
                got = batch.random(np.ones(width, dtype=bool))
                own = {j: d.random(np.ones(1, dtype=bool))[0] for j, d in alone.items()}
            for j, v in own.items():
                if j < width:
                    assert got[j] == v, (c, j)
        assert batch.calls == alone[0].calls == 3 * walks.BLOCK + 5


class TestSRW:
    def test_step_moves_along_edges(self, small):
        g, csr = small
        rng = np.random.default_rng(0)
        arcs = rng.integers(0, csr.n_arcs, size=200)
        new = walks.srw_step(csr, arcs, H.draws(rng, 200))
        assert (csr.tails[new] == csr.indices[arcs]).all()

    def test_trajectory_shapes_and_validity(self, small):
        g, csr = small
        arcs = walks.srw_runs(csr, 0, [(25, 10, np.random.default_rng(1))])[0]
        assert arcs.shape == (10, 25)
        # the first arc leaves the uniform start; each later arc leaves
        # the head of the one before
        starts = np.random.default_rng(1).integers(0, csr.n, size=10)
        assert (csr.tails[arcs[:, 0]] == starts).all()
        assert (csr.tails[arcs[:, 1:]] == csr.indices[arcs[:, :-1]]).all()

    def test_stationary_distribution(self, small):
        """Long-run visit frequency ~ d(u)/2|E|."""
        g, csr = small
        rng = np.random.default_rng(2)
        nodes = csr.indices[walks.srw_runs(csr, 120, [(120, 600, rng)])[0]]
        freq = np.bincount(nodes.ravel(), minlength=g.n) / nodes.size
        pi = csr.degrees / csr.degrees.sum()
        assert np.abs(freq - pi).max() < 0.01

    def test_deterministic_given_seed(self, small):
        _, csr = small
        a = walks.srw_runs(csr, 5, [(10, 5, np.random.default_rng(9))])[0]
        b = walks.srw_runs(csr, 5, [(10, 5, np.random.default_rng(9))])[0]
        assert (a == b).all()

    def test_isolated_start_raises(self):
        """Node 2 has no edges: a walk cannot start there."""
        csr = build_csr(np.array([[0, 1], [1, 3], [0, 3]]), 4)
        with pytest.raises(ValueError, match="node 2"):
            walks.srw_runs(csr, 0, [(3, 200, np.random.default_rng(0))])
