"""T6 — pruning effectiveness inside Core-Exact.

Usage: spark-submit jobs/table_pruning.py [--sets xs-er,...]
Reports, per dataset: candidate-ratio space size vs ratios actually
solved / skipped via empty cores, min-cut calls, and the largest flow
network ever built relative to a whole-graph network (the paper's
"flow network shrinks" figure, as a table).
"""
from __future__ import annotations

import argparse

from _util import get_spark, print_table

from repro import datasets
from repro.core.exact import core_exact
from repro.core.ratios import all_candidate_ratios

DEFAULT = ["xs-er", "xs-pl", "xs-plant", "s-er", "s-pl", "m-pl", "m-plant"]


def run(spark, names: list[str]) -> list[dict]:
    rows = []
    for name in names:
        e = datasets.load_local(name)
        r = core_exact(e)
        st = r.stats
        # s, t and one node per source and destination, as in the pruned networks
        full_nodes = 2 + e.n_src + e.n_dst
        # candidate-space size: count distinct reduced fractions (exact for
        # the small tier; estimated via the Farey ~3/π² density for large)
        n_s, n_t = e.n_src, e.n_dst
        if n_s * n_t <= 4_000_000:
            n_cand = len(all_candidate_ratios(n_s, n_t))
        else:
            n_cand = int(n_s * n_t * 6 / 3.1415926**2)
        rows.append(
            {
                "dataset": name,
                "m": e.m,
                "candidate_ratios": n_cand,
                "ratios_solved": st["ratios_solved"],
                "ratios_skipped": st["ratios_skipped_empty_core"],
                "cuts": st.get("cuts", 0),
                "flow_nodes_max": st.get("max_flow_nodes", 0),
                "flow_nodes_full": full_nodes,
                "shrink": round(
                    st.get("max_flow_nodes", 0) / full_nodes, 4
                ),
                "min_core_m": st.get("min_core_m", ""),
                "rho_opt": round(r.rho, 4),
            }
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", default=",".join(DEFAULT))
    args = ap.parse_args()
    spark = get_spark("table-pruning")
    rows = run(spark, [s for s in args.sets.split(",") if s])
    print_table(rows, "T6: Core-Exact pruning effectiveness")
    spark.stop()


if __name__ == "__main__":
    main()
