"""Estimate the mixing time T(eps=1e-3) of each dataset (paper §5.1).

The paper reports 3200 / 200 / 100 / 800 / 900 for Facebook / Google+ /
Pokec / Orkut / LiveJournal. We estimate T(eps) from a sample of start
nodes (the exact max over all starts is intractable at these sizes) —
a lower bound on the exact T(eps); burn-ins in the harness are padded
above these estimates.

Usage: spark-submit jobs/mixing_time.py [dataset|all] [--eps 1e-3]
"""
from __future__ import annotations

import argparse

import pandas as pd

from repro.harness import datasets as ds
from repro.harness.paper_numbers import MIXING_TIMES
from repro.osn.mixing import mixing_time_estimate


def mixing_table(names: list[str], eps: float, n_starts: int = 6) -> pd.DataFrame:
    rows = []
    for name in names:
        csr = ds.load_csr(name)
        t = mixing_time_estimate(csr, eps=eps, n_starts=n_starts, seed=1)
        rows.append(
            {
                "network": name, "mixing_time_est": t,
                "paper_mixing_time": MIXING_TIMES[name],
                "harness_burnin": ds.SPECS[name].burnin,
            }
        )
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("dataset", nargs="?", default="all",
                    choices=[*MIXING_TIMES, "all"])
    ap.add_argument("--eps", type=float, default=1e-3)
    args = ap.parse_args()
    names = list(MIXING_TIMES) if args.dataset == "all" else [args.dataset]
    print(f"Mixing times T(eps={args.eps}) (sampled-start estimate)")
    print(mixing_table(names, args.eps).to_string(index=False))


if __name__ == "__main__":
    main()
