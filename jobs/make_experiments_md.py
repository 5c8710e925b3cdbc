"""Generate EXPERIMENTS.md: paper numbers vs measured, for every table.

Runs the full evaluation (Tables 1, 3-26 + §5.1 mixing times) and writes
EXPERIMENTS.md with side-by-side paper/measured blocks.

Usage: spark-submit jobs/make_experiments_md.py [--sims N] [--out PATH]
"""
from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import mixing_time
import pandas as pd
import table01_stats
import table03_labels
import tables18_22_bounds

from repro.harness import datasets as ds
from repro.harness import findings as F
from repro.harness import paper_numbers as P
from repro.harness import tables as T
from repro.harness.experiment import ALGORITHM_ORDER
from repro.harness.session import get_spark

JOBS = Path(__file__).resolve().parent


@contextmanager
def phase(name: str):
    """Print ``name``'s wall time to stderr when the block ends."""
    t0 = time.perf_counter()
    yield
    print(f"[experiments-md] {name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)


def paper_table(no: int) -> pd.DataFrame:
    """The paper's Table ``no`` (4-17) in a measured table's layout."""
    paper = P.NRMSE_TABLES[no]
    return pd.DataFrame({a: paper[a] for a in ALGORITHM_ORDER},
                        index=list(P.SAMPLE_FRACS)).T


def _vs(paper: str, ours: str) -> list[str]:
    """The paper's block, then ours, as two code blocks."""
    return ["Paper:", "```", paper, "```", "Measured:", "```", ours, "```"]


def _nrmse_block(no: int, ours: pd.DataFrame, n_sims: int) -> str:
    paper = P.NRMSE_TABLES[no]
    paper_df, ours_disp = paper_table(no), ours.copy()
    paper_best_alg, paper_best = T.best_at_frac(paper_df)
    paper_df.columns = ours_disp.columns = [f"{f * 100:.1f}%" for f in P.SAMPLE_FRACS]
    ours_best_alg, ours_best = T.best_at_frac(ours)
    lines = [
        f"### Table {no} — {ours.attrs['dataset']}, NRMSE vs sample size",
        "",
        f"Paper: target {paper['pair']}, F={paper['F']:,} "
        f"({paper['F'] / P.DATASET_STATS[paper['dataset']]['ne']:.4%} of |E|), "
        "200 sims.",
        f"Ours: target {ours.attrs['pair']}, F={ours.attrs['F']:,} "
        f"({ours.attrs['F'] / ours.attrs['n_edges']:.4%} of |E|), {n_sims} sims.",
        "",
        *_vs(paper_df.round(3).to_string(), ours_disp.round(3).to_string()),
        f"Best at 5%|V|: paper {paper_best_alg} ({paper_best:.3f}), "
        f"ours {ours_best_alg} ({ours_best:.3f}).",
        "",
    ]
    return "\n".join(lines)


HEADINGS = {  # finding -> the paper's statement of it
    "ours_best": "One of the paper's five algorithms is best (paper finding 1)",
    "beats": "NE wins on rare labels, NS on abundant ones (paper finding 4)",
    "falls": "NRMSE falls as the API budget grows (paper finding 3)",
    "bound_below": "The NE-HH bound sits below the NS-HH bound on rare labels",
}


def _verdict(results: dict[int, F.Result]) -> str:
    """``held on Tables 4, 5 (margin 0.210-0.930); failed on Table 10 (margin 1.4)``."""
    parts = []
    for held in (True, False):
        if nos := [no for no, r in results.items() if r.held is held]:
            lo, hi = min(results[no].margin for no in nos), max(results[no].margin for no in nos)
            span = f"{lo:.3f}" if hi == lo else f"{lo:.3f}-{hi:.3f}"
            parts.append(f"{'held' if held else 'failed'} on Table{'s' if len(nos) > 1 else ''} "
                         f"{', '.join(map(str, nos))} (margin {span})")
    return "; ".join(parts)


def findings_md(measured: dict[int, pd.DataFrame],
                bounds: dict[int, pd.DataFrame], n_sims: int) -> str:
    """The Findings section, from the tables just measured (``measured``:
    Tables 4-17, ``bounds``: Tables 18-22): each ``findings.REQUIRED``
    finding, where it held and where it failed, with its margins."""
    tables = {**measured, **bounds}
    grouped: dict[str, dict[str, dict[int, F.Result]]] = {}
    for no, claims in F.REQUIRED.items():
        # Tables 23-26 are checked on each NRMSE table they summarize.
        on = [tables[no]] if no in tables else [
            t for t in measured.values() if t.attrs["dataset"] in T.BEST_TABLES.get(no, ())]
        for c in claims:
            rs = [c(t) for t in on]
            grouped.setdefault(c.func.__name__, {}).setdefault(rs[0].text, {})[no] = (
                F.Result(all(r.held for r in rs), max(r.margin for r in rs), rs[0].text))
    rises = [f"Table {no} {F.short(a)} ({r.margin:.3f})" for no, t in measured.items()
             for a in t.index if not (r := F.falls(t, a, F.STRICT)).held]
    n_rows = sum(len(t) for t in measured.values())
    out = ["## Findings: what reproduced, what deviated", "",
           f"Computed by `repro.harness.findings` from the tables above ({n_sims} sims).",
           "A finding compares measured values a and b: it holds when a <= slack x b",
           "(a < b with no slack), and its margin is a / b. The benchmarks assert the",
           "same findings on the same tables at `BENCH_SIMS`.", ""]
    for i, (name, heading) in enumerate(HEADINGS.items(), 1):
        out.append(f"{i}. **{heading}**")
        out += [f"   - {text}: {_verdict(r)}." for text, r in grouped.get(name, {}).items()]
        if name == "falls":
            where = f"; NRMSE at 5%|V| above 0.5%|V| on {', '.join(rises)}" if rises else ""
            out.append(f"   - Every algorithm on every table, with no slack: held on "
                       f"{n_rows - len(rises)} of {n_rows} rows{where}.")
    return "\n".join(out + [""] + deviations_md(measured, n_sims))


def deviations_md(measured: dict[int, pd.DataFrame], n_sims: int) -> list[str]:
    """Where the reproduction departs from the paper: each "ours" number
    measured on ``measured``, each "paper" number from ``paper_numbers``."""
    sides = {"paper": {no: paper_table(no) for no in measured}, "ours": measured}
    gap = {s: 1 / F.beats(tabs[5], F.NS, F.NE[:1]).margin for s, tabs in sides.items()}
    ns_wins = {s: ", ".join(str(no) for no, t in tabs.items()
                            if F.beats(t, F.NS, F.NE).held) or "none"
               for s, tabs in sides.items()}
    return [
        "Deviations (documented, understood):", "",
        f"- **Google+ NS/NE margin**: at 5%|V| the paper's NE-HH NRMSE is {gap['paper']:.1f}x",
        f"  its best NS NRMSE; ours is {gap['ours']:.2f}x. The paper's margin is not",
        "  explainable by its own variance bounds (its Table 19 NE-HH bound of 1714 samples",
        "  contradicts an NRMSE of 0.49 at 5400 samples under independence) and likely",
        "  encodes label-topology correlation specific to the Google+ crawl.",
        "- **Crossover location**: at 5%|V| NeighborSample beats every NeighborExploration",
        f"  variant on the paper's tables {ns_wins['paper']} and on our tables {ns_wins['ours']}.",
        "  Where it falls depends on the exploration-cost profile of the label sets",
        "  (DESIGN.md §4.3).",
        "- **Rarity tiers** preserve the paper's difficulty ladder (expected NeighborSample",
        "  hits per run), not its raw F/|E| (DESIGN.md §4.2).",
        f"- **Simulation count**: {n_sims} sims per cell vs the paper's 200, so a cell's",
        f"  relative Monte-Carlo error is at least 1/sqrt(2 x {n_sims}) = "
        f"{(2 * n_sims) ** -0.5:.0%}, more for heavy-tailed estimators.",
    ]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sims", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=str(JOBS.parent / "EXPERIMENTS.md"))
    ap.add_argument("--skip-mixing", action="store_true")
    args = ap.parse_args()
    spark = get_spark("experiments-md")

    out: list[str] = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Reproduction of every table in the evaluation section of Wu et al.,",
        '"Counting Edges with Target Labels in Online Social Networks via',
        'Random Walk" (EDBT 2018). Generated by '
        "`python jobs/make_experiments_md.py --sims "
        f"{args.sims}`; regenerate any block with the job named in "
        "DESIGN.md §3.",
        "",
        "Datasets are synthetic substitutes (DESIGN.md §4): absolute NRMSE",
        "values are not expected to match the paper, the *shape* is — which",
        "algorithm wins, by roughly what factor, and where the",
        "NeighborSample/NeighborExploration crossover falls.",
        "",
    ]

    # Table 1.
    with phase("Table 1"):
        t01 = table01_stats.table01(spark)
    scale = ", ".join(f"{r.network} {r.paper_nv / r.n_nodes:.3g}x ({r.n_edges / r.n_nodes:.3g} "
                      f"vs {r.paper_ne / r.paper_nv:.3g})" for r in t01.itertuples())
    out += ["## Table 1 — dataset statistics", "", "```",
            t01.to_string(index=False), "```", "",
            f"The paper's |V| over ours, with |E|/|V| ours vs the paper's: {scale}",
            "(see DESIGN.md §4.1).", ""]

    # Mixing times (§5.1).
    if not args.skip_mixing:
        with phase("mixing"):
            mix = mixing_time.mixing_table(list(ds.SPECS), eps=1e-3)
        out += ["## §5.1 — mixing times T(1e-3)", "", "```",
                mix.to_string(index=False), "```", ""]

    # Table 3.
    t03 = table03_labels.table03()
    out += ["## Table 3 — Pokec target labels and locations", "",
            "Synthetic location names (the paper maps labels to Slovak",
            "locations; our Pokec labels are Zipf-distributed integers).",
            "", "```", t03.to_string(index=False), "```", ""]

    # Tables 4-17.
    out += ["## Tables 4-17 — NRMSE vs sample size (API-call budget)", ""]
    with phase("Tables 4-17"):
        measured = T.reproduce_nrmse_tables(spark, T.NRMSE_TABLES, args.sims, args.seed)
    out += [_nrmse_block(no, t, args.sims) for no, t in measured.items()]

    # Tables 18-22.
    out += ["## Tables 18-22 — (0.1,0.1)-approximation sample-size bounds",
            ""]
    bounds = {}
    with phase("Tables 18-22"):
        for name, no in tables18_22_bounds.TABLE_NO.items():
            bt = bounds[no] = tables18_22_bounds.bounds_table(spark, name)
            paper_df = pd.DataFrame(
                [{"pair": k, **dict(zip(P.BOUND_COLS, v))}
                 for k, v in P.BOUND_TABLES[name].items()]
            )
            fmt = {c: (lambda v: f"{v:.3g}") for c in P.BOUND_COLS}
            out += [f"### Table {no} — {name}", "",
                    *_vs(paper_df.to_string(index=False, formatters=fmt),
                         bt.to_string(index=False, formatters=fmt)), ""]

    # Tables 23-26.
    out += ["## Tables 23-26 — best algorithm at 5%|V| API calls", ""]
    for best_no, summary in T.best_summaries(list(measured.values())).items():
        paper_df = pd.DataFrame(
            P.BEST_TABLES[best_no],
            columns=["dataset", "pair", "best_algorithm", "nrmse"],
        )
        out += [f"### Table {best_no}", "", *_vs(paper_df.to_string(index=False),
                                                 summary.to_string(index=False)), ""]

    out += [findings_md(measured, bounds, args.sims)]
    Path(args.out).write_text("\n".join(out) + "\n")
    print(f"wrote {args.out}")
    spark.stop()


if __name__ == "__main__":
    main()
