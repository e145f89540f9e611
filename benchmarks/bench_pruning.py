"""T6 bench — Core-Exact with pruning instrumentation on the record."""
import pytest

from repro import datasets
from repro.core.exact import core_exact


@pytest.mark.parametrize("name", ["xs-er", "s-pl", "m-plant"])
def test_bench_core_exact_instrumented(benchmark, name):
    benchmark.group = "T6-pruning"
    e = datasets.load_local(name)
    r = benchmark.pedantic(core_exact, args=(e,), rounds=1, iterations=1)
    full_nodes = 2 + e.n_src + e.n_dst
    benchmark.extra_info.update(
        {
            "dataset": name,
            "ratios_solved": r.stats["ratios_solved"],
            "ratios_skipped": r.stats["ratios_skipped_empty_core"],
            "cuts": r.stats.get("cuts", 0),
            "flow_nodes_max": r.stats.get("max_flow_nodes", 0),
            "flow_nodes_full": full_nodes,
            "shrink": round(r.stats.get("max_flow_nodes", 0) / full_nodes, 4),
        }
    )
    assert r.stats.get("max_flow_nodes", 0) <= full_nodes
