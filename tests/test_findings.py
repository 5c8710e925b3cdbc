"""The paper's findings (``repro.harness.findings``) on hand-built tables:
each decides at its slack exactly as the benchmark assertions it
replaced, and the EXPERIMENTS.md generator reports a failure as failed."""
import math

import make_experiments_md as M
import numpy as np
import pandas as pd
import pytest

from benchmarks._bench_common import assert_paper_shape
from repro.harness import findings as F
from repro.harness import tables as T
from repro.harness.experiment import ALGORITHM_ORDER, DEFAULT_FRACS

NS_HH, NS_HT, NE_HH, NE_HT, NE_RW = ALGORITHM_ORDER[:5]
HI = DEFAULT_FRACS[-1]
EPS = 1e-9


def table() -> pd.DataFrame:
    """A 10 x 10 NRMSE table, every cell 1."""
    return pd.DataFrame(1.0, index=list(ALGORITHM_ORDER),
                        columns=list(DEFAULT_FRACS))


def random_table(rng) -> pd.DataFrame:
    t = pd.DataFrame(rng.uniform(0.05, 2.0, (10, 10)),
                     index=list(ALGORITHM_ORDER), columns=list(DEFAULT_FRACS))
    # A share of tables sit exactly on a slack boundary or a tie.
    if rng.random() < 0.3:
        t.loc[NS_HH, HI] = t.loc["EX-GMD", HI] * F.OURS_SLACK
    if rng.random() < 0.2:
        t.loc[NE_HH, HI] = t.loc[NS_HH, HI]
    return t


def bounds_table(ne, ns) -> pd.DataFrame:
    return pd.DataFrame({"pair": [str(i) for i in range(len(ne))], "F": 1,
                         NE_HH: ne, NS_HH: ns})


class TestEachFindingAtItsSlack:
    def test_ours_best(self):
        t = table()
        t.loc["EX-RW", HI] = 0.4
        t.loc[NE_HT, HI] = 0.4 * F.OURS_SLACK * (1 - EPS)
        inside = F.ours_best(t)
        t.loc[NE_HT, HI] = 0.4 * F.OURS_SLACK * (1 + EPS)
        outside = F.ours_best(t)
        assert inside.held and not outside.held
        assert math.isclose(outside.margin, F.OURS_SLACK, rel_tol=1e-6)

    def test_beats_at_ns_slack(self):
        t = table()
        t.loc[NE_HH, HI] = 0.2
        t.loc[NS_HT, HI] = 0.2 * F.NS_SLACK * (1 - EPS)
        assert F.beats(t, F.NS, F.NE[:1], F.NS_SLACK).held
        t.loc[NS_HT, HI] = 0.2 * F.NS_SLACK * (1 + EPS)
        r = F.beats(t, F.NS, F.NE[:1], F.NS_SLACK)
        assert not r.held and math.isclose(r.margin, F.NS_SLACK, rel_tol=1e-6)

    def test_beats_strict(self):
        t = table()
        t.loc[NS_HH, HI] = 0.3
        t.loc[NE_RW, HI] = 0.3 * (1 - EPS)
        assert F.beats(t, F.NE, F.NS).held
        t.loc[NE_RW, HI] = 0.3
        r = F.beats(t, F.NE, F.NS)
        assert not r.held and r.margin == 1.0
        # Rows outside ``rows`` and ``over`` do not count.
        t.loc["EX-MDRW", HI] = 0.01
        assert not F.beats(t, F.NE, F.NS).held

    @pytest.mark.parametrize("slack", [F.FALL_SLACK, F.STRICT])
    def test_falls(self, slack):
        t = table()
        limit = 1.0 if slack is F.STRICT else slack
        t.loc["EX-GMD", HI] = limit * (1 - EPS)
        assert F.falls(t, "EX-GMD", slack).held
        t.loc["EX-GMD", HI] = limit * (1 + EPS) if slack else limit
        r = F.falls(t, "EX-GMD", slack)
        assert not r.held and math.isclose(r.margin, limit, rel_tol=1e-6)

    def test_bound_below_every_pair(self):
        assert F.bound_below(bounds_table([1.0, 5.0], [2.0, 6.0]), NE_HH, NS_HH).held
        r = F.bound_below(bounds_table([1.0, 6.0], [2.0, 6.0]), NE_HH, NS_HH)
        assert not r.held and r.margin == 1.0

    def test_failures_names_table_claim_and_margin(self):
        t = table()
        assert F.failures(10, t) != []  # NE ties NS: not a strict win
        t.loc[NE_RW, HI] = 0.5
        assert F.failures(10, t) == []
        t.loc["EX-RW", HI] = 0.1
        (msg,) = F.failures(10, t)
        assert msg.startswith("Table 10: best of the paper's five <= 1.35 x")
        assert msg.endswith("margin 5.000")
        assert F.failures(18, t) == []  # no finding required of Table 18


def _old_paper_shape(t, frac=0.05, slack=1.35):
    ours = [a for a in t.index if not a.startswith("EX-")]
    base = [a for a in t.index if a.startswith("EX-")]
    return float(t.loc[ours, frac].min()) <= float(t.loc[base, frac].min()) * slack


class TestAssertPaperShape:
    def test_raises_exactly_where_ours_best_fails(self):
        rng = np.random.default_rng(0)
        decided = set()
        for _ in range(400):
            t = random_table(rng)
            if rng.random() < 0.1:
                t.iloc[rng.integers(10), -1] = np.nan
            old = _old_paper_shape(t)
            assert F.ours_best(t).held is old
            try:
                assert_paper_shape(t)
                raised = False
            except AssertionError:
                raised = True
            assert raised is not old
            decided.add(old)
        assert decided == {True, False}


# The assertions the per-table-group benchmarks made before the findings
# module, as written there: (paper table, finding, keywords, old check).
_NE_HT_RW = (NE_HH, NE_HT, NE_RW)
OLD_ASSERTIONS = [
    *[(no, "ours_best", {}, _old_paper_shape) for no in range(4, 18)],
    *[(no, "falls", {"row": NS_HH, "slack": 1.25},
       lambda t: t.loc[NS_HH, t.columns.max()] <= t.loc[NS_HH, t.columns.min()] * 1.25)
      for no in (4, 5)],
    (4, "beats", {"rows": (NS_HH, NS_HT), "over": (NE_HH,), "slack": 1.25},
     lambda t: min(t.loc[NS_HH, 0.05], t.loc[NS_HT, 0.05]) <= t.loc[NE_HH, 0.05] * 1.25),
    (5, "beats", {"rows": (NS_HH, NS_HT), "over": (NE_HH,), "slack": None},
     lambda t: min(t.loc[NS_HH, 0.05], t.loc[NS_HT, 0.05]) < t.loc[NE_HH, 0.05]),
    *[(no, "beats", {"rows": _NE_HT_RW, "over": (NS_HH, NS_HT), "slack": None},
       lambda t: t.loc[list(_NE_HT_RW), 0.05].min() < t.loc[[NS_HH, NS_HT], 0.05].min())
      for no in (6, 7, 8, 9)],
    (10, "beats", {"rows": (NE_HH, NE_RW), "over": (NS_HH, NS_HT), "slack": None},
     lambda t: t.loc[[NE_HH, NE_RW], 0.05].min() < t.loc[[NS_HH, NS_HT], 0.05].min()),
    *[(no, "bound_below", {"row": NE_HH, "over": NS_HH},
       lambda bt: (bt[NE_HH] < bt[NS_HH]).all()) for no in (20, 21, 22)],
    (24, "beats", {"rows": _NE_HT_RW, "over": (NS_HH, NS_HT), "slack": None},
     lambda t: T.best_at_frac(t)[0].startswith("NeighborExploration")),
]


class TestMapKeepsTheBenchAssertions:
    def test_one_entry_per_old_assertion(self):
        new = sorted((no, c.func.__name__, repr(sorted(c.keywords.items())))
                     for no, claims in F.REQUIRED.items() for c in claims)
        old = sorted((no, name, repr(sorted(kw.items())))
                     for no, name, kw, _ in OLD_ASSERTIONS)
        assert new == old

    @pytest.mark.parametrize("i", range(len(OLD_ASSERTIONS)))
    def test_entry_decides_as_the_old_assertion(self, i):
        no, name, kw, old = OLD_ASSERTIONS[i]
        (claim,) = [c for c in F.REQUIRED[no]
                    if c.func.__name__ == name and c.keywords == kw]
        rng = np.random.default_rng(i)
        for _ in range(100):
            if name == "bound_below":
                t = bounds_table(rng.uniform(1, 3, 4), rng.uniform(2, 4, 4))
            else:
                t = random_table(rng)
            assert claim(t).held is bool(old(t))


def _measured() -> dict[int, pd.DataFrame]:
    """Tables 4-17 on which every required finding holds and NRMSE falls
    along every row."""
    out = {}
    for no, (name, _) in T.NRMSE_TABLES.items():
        t = pd.DataFrame(np.linspace(1.0, 0.5, 10)[None, :].repeat(10, 0),
                         index=list(ALGORITHM_ORDER), columns=list(DEFAULT_FRACS))
        t.loc[list(F.NE if no > 5 else F.NS), HI] = 0.2
        t.attrs.update(dataset=name, pair=(1, 2), table_no=no, F=10 * no,
                       n_edges=10_000, n_nodes=1_000)
        out[no] = t
    return out


def _bounds() -> dict[int, pd.DataFrame]:
    return {no: bounds_table([1.0], [2.0]) for no in range(18, 23)}


class TestFindingsSection:
    def test_all_held(self):
        md = M.findings_md(_measured(), _bounds(), 100)
        assert "failed" not in md
        assert f"held on Tables {', '.join(map(str, range(4, 18)))} (margin 0.400)" in md
        assert "held on 140 of 140 rows." in md

    def test_a_rising_ex_gmd_row_is_reported(self):
        measured = _measured()
        measured[6].loc["EX-GMD", HI] = 1.1
        md = M.findings_md(measured, _bounds(), 100)
        assert "held on 139 of 140 rows" in md
        assert "5%|V| above 0.5%|V| on Table 6 EX-GMD (1.100)" in md

    def test_a_failed_required_finding_is_reported_with_its_margin(self):
        measured = _measured()
        measured[8].loc[NS_HT, HI] = 0.1
        bounds = _bounds()
        bounds[21] = bounds_table([3.0], [2.0])
        md = M.findings_md(measured, bounds, 100)
        assert ("best of NE-HH, NE-HT, NE-RW < best of NS-HH, NS-HT at 5%|V|: "
                "held on Tables 6, 7, 9 (margin 0.400); "
                "failed on Tables 8, 24 (margin 2.000).") in md
        assert ("NE-HH bound < NS-HH bound on every pair: held on Tables "
                "20, 22 (margin 0.500); failed on Table 21 (margin 1.500).") in md
