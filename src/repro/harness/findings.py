"""The paper's qualitative findings (§5), each written once.

A finding compares two measured values of one table, a against b: it
holds when ``a <= slack * b`` (``a < b`` when the slack is ``STRICT``),
and its margin is ``a / b``. A slack above 1 absorbs the Monte-Carlo
noise of the benchmarks' reduced simulation count. ``REQUIRED`` says
which findings each paper table must show; the benchmarks assert it.
"""
from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np
import pandas as pd

from repro.harness.experiment import DEFAULT_FRACS

STRICT = None
OURS_SLACK = 1.35  # best of the paper's five vs the best EX-* baseline
FALL_SLACK = 1.25  # NRMSE at the largest budget vs at the smallest
NS_SLACK = 1.25    # Table 4: NeighborSample vs NeighborExploration-HH

FULL = DEFAULT_FRACS[-1]  # 5 %|V|, the budget of the paper's Tables 23-26
NS = ("NeighborSample-HH", "NeighborSample-HT")
NE = ("NeighborExploration-HH", "NeighborExploration-HT", "NeighborExploration-RW")


class Result(NamedTuple):
    held: bool
    margin: float  # a / b; the largest one when a and b are per target pair
    text: str      # what was compared, e.g. "NE-HH bound < NS-HH bound on every pair"


def short(names) -> str:
    """``NS-HH, NE-RW`` for ``("NeighborSample-HH", "NeighborExploration-RW")``."""
    names = (names,) if isinstance(names, str) else names
    return ", ".join(a.replace("NeighborSample", "NS")
                     .replace("NeighborExploration", "NE") for a in names)


def _compare(a, b, slack: float | None, text: str) -> Result:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    held = a < b if slack is STRICT else a <= b * slack
    rel = "<" if slack is STRICT else f"<= {slack:g} x"
    return Result(bool(np.all(held)), float(np.max(a / b)), text.format(rel=rel))


def ours_best(t: pd.DataFrame) -> Result:
    """Finding 1: at 5%|V| the best of the paper's five algorithms
    against the best EX-* baseline, within OURS_SLACK."""
    base = t.index.str.startswith("EX-")
    return _compare(t.loc[~base, FULL].min(), t.loc[base, FULL].min(), OURS_SLACK,
                    "best of the paper's five {rel} best EX-* at 5%|V|")


def beats(t: pd.DataFrame, rows: tuple[str, ...], over: tuple[str, ...],
          slack: float | None = STRICT) -> Result:
    """Finding 2: at 5%|V| the best of ``rows`` against the best of
    ``over`` (NeighborExploration wins on rare labels, NeighborSample on
    abundant ones)."""
    return _compare(t.loc[list(rows), FULL].min(), t.loc[list(over), FULL].min(),
                    slack, f"best of {short(rows)} {{rel}} best of {short(over)} at 5%|V|")


def falls(t: pd.DataFrame, row: str, slack: float | None = FALL_SLACK) -> Result:
    """Finding 3: ``row``'s NRMSE at the largest budget against its NRMSE
    at the smallest."""
    return _compare(t.loc[row, t.columns.max()], t.loc[row, t.columns.min()],
                    slack, f"{short(row)} at 5%|V| {{rel}} at 0.5%|V|")


def bound_below(bt: pd.DataFrame, row: str, over: str) -> Result:
    """Finding 4 (Tables 18-22): ``row``'s sample-size bound against
    ``over``'s, on every target pair."""
    return _compare(bt[row], bt[over], STRICT,
                    f"{short(row)} bound {{rel}} {short(over)} bound on every pair")


_OURS = partial(ours_best)
_NS_FALLS = partial(falls, row=NS[0], slack=FALL_SLACK)
_NE_WINS = partial(beats, rows=NE, over=NS, slack=STRICT)

# Paper table -> the findings it must show. Tables 23-26 summarize the
# 5 %|V| column of Tables 4-17, so their findings are checked on each
# NRMSE table of the datasets they summarize (``tables.BEST_TABLES``).
REQUIRED: dict[int, tuple[partial, ...]] = {
    4: (_OURS, _NS_FALLS, partial(beats, rows=NS, over=NE[:1], slack=NS_SLACK)),
    5: (_OURS, _NS_FALLS, partial(beats, rows=NS, over=NE[:1], slack=STRICT)),
    **{no: (_OURS, _NE_WINS) for no in (6, 7, 8, 9)},
    10: (_OURS, partial(beats, rows=NE[::2], over=NS, slack=STRICT)),
    **{no: (_OURS,) for no in range(11, 18)},
    **{no: (partial(bound_below, row=NE[0], over=NS[0]),) for no in (20, 21, 22)},
    24: (_NE_WINS,),
}


def failures(table_no: int, t: pd.DataFrame) -> list[str]:
    """The ``REQUIRED`` findings of paper table ``table_no`` that ``t``
    fails, each with its margin; empty when all held."""
    return [f"Table {table_no}: {r.text} failed, margin {r.margin:.3f}"
            for r in (c(t) for c in REQUIRED.get(table_no, ())) if not r.held]
