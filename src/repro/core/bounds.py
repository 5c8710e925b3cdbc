"""Theorems 4.1–4.5: (eps, delta)-approximation sample-size bounds.

Tables 18–22 of the paper list, for each dataset and target pair, the
number of samples each estimator needs to guarantee an
(eps, delta) = (0.1, 0.1) approximation. The bounds are closed-form
aggregates over the full graph. All five are read from one node table
(node, d(u), T(u)) built by ``stats.node_table`` (oracle-checked in
tests), in two Spark aggregations:

- 4.1 NS-HH:  k >= (sum_e |E| I(e) - F^2) / (eps^2 F^2 delta)
              = (|E| F - F^2) / (eps^2 F^2 delta)
- 4.2 NS-HT:  k >= max_e log((I(e)^2 + B)/B) / log(1/A)
              = log((1 + B)/B) / log(1/A),
              A = 1 - 1/|E|,  B = delta eps^2 F^2 / |E|
- 4.3 NE-HH:  k >= (sum_u 2|E| T(u)^2 / d(u) - 4 F^2) / (4 eps^2 F^2 delta)
- 4.4 NE-HT:  k >= max_u log((T(u)^2 + B)/B) / log(1/(1 - pi_u)),
              pi_u = d(u)/2|E|,  B = 4 delta eps^2 F^2 / |V|
- 4.5 NE-RW:  k >= max(18 (sum_u T(u)^2/pi_u - 4F^2) / (4 eps^2 F^2 delta),
                       18 (sum_u 1/pi_u - |V|^2) / (eps^2 |V|^2 delta))

The node table gives |V|, |E| = sum_u d(u) / 2 and F = sum_u T(u) / 2.
The 4.1 sum is |E| F because I(e) is 0 or 1, and the 4.2 maximum is
taken at a target edge (I = 1), which exists because F > 0.
"""
from __future__ import annotations

import math

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs import stats


def all_bounds(edges: DataFrame, labels: DataFrame, t1: int, t2: int,
               eps: float = 0.1, delta: float = 0.1) -> dict[str, float]:
    """All five Theorem-4.x bounds for one target pair.

    Returns a dict keyed by the paper's algorithm abbreviations, plus
    the exact target-edge count ``F``. Raises ``ValueError`` when the
    pair has no target edge.
    """
    nodes = stats.node_table(edges, labels, t1, t2).localCheckpoint()
    t, d = F.col("t_count"), F.col("degree")
    n_nodes, deg_sum, t_sum, s_t2_d, s_inv_d = nodes.agg(
        F.count("*"), F.sum(d), F.sum(t), F.sum(t * t / d), F.sum(1.0 / d)
    ).collect()[0]
    if not t_sum:
        raise ValueError(f"no target edges for pair ({t1},{t2})")
    n_edges, f_count = deg_sum // 2, t_sum // 2
    f2 = float(f_count) ** 2
    e2d2 = eps * eps * delta

    # 4.1 and 4.2 — closed forms in (|E|, F).
    ns_hh = (float(n_edges * f_count) - f2) / (e2d2 * f2)
    b42 = delta * eps * eps * f2 / n_edges
    ns_ht = math.log((1.0 + b42) / b42) / math.log(1.0 / (1.0 - 1.0 / n_edges))

    # 4.3 — sum_u 2|E| T^2 / d; 4.5 reuses it as sum_u T^2 / pi_u.
    s43 = 2.0 * n_edges * s_t2_d
    ne_hh = (s43 - 4.0 * f2) / (4.0 * e2d2 * f2)

    # 4.4 — max over nodes; pi_u = d/2|E|.
    b44 = 4.0 * delta * eps * eps * f2 / n_nodes
    ne_ht = float(
        nodes.agg(
            F.max(F.log((t * t + b44) / b44) / -F.log(1.0 - d / (2.0 * n_edges)))
        ).collect()[0][0]
    )

    # 4.5 — two Chebyshev conditions.
    s_inv_pi = 2.0 * n_edges * s_inv_d
    ne_rw = max(
        18.0 * (s43 - 4.0 * f2) / (4.0 * e2d2 * f2),
        18.0 * (s_inv_pi - float(n_nodes) ** 2) / (e2d2 * float(n_nodes) ** 2),
    )

    return {
        "NeighborSample-HH": ns_hh,
        "NeighborSample-HT": ns_ht,
        "NeighborExploration-HH": ne_hh,
        "NeighborExploration-HT": ne_ht,
        "NeighborExploration-RW": ne_rw,
        "F": float(f_count),
    }
