"""Which program functions the traced run wraps, and the per-layer metrics.

Each probe names the function at the place its caller looks it up (see
``tracer``). Functions that ``repro.core.exact`` imports by name are
wrapped in ``repro.core.exact``; methods are wrapped on their class.
"""
from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracer import Probe, Span, self_times


def _edges_io(args, kwargs, result):  # LocalEngine.core(self, state, x, y)
    return {"edges_in": len(args[1].src), "edges_out": len(result.src)}


def _network_size(args, kwargs, result):  # build_dds_network -> DDSNetwork
    return {"nodes": result.dinic.n, "arcs": len(result.dinic.to) // 2}


def _rows(args, kwargs, result):  # collect_edges -> EdgeArrays
    return {"rows": len(result.src)}


def _stats(*keys):
    def counts(args, kwargs, result):
        return {k: result.stats.get(k, 0) for k in keys}

    return counts


_DF = "repro.core.xycore:DataFrameEngine"
_CORE_STATS = _stats("core_probes", "x_evaluated", "x_skipped")

PROBES = [
    Probe("repro.flow.dinic:Dinic.max_flow", "flow.maxflow"),
    Probe("repro.flow.dinic:Dinic.min_cut_source_side", "flow.mincut"),
    Probe("repro.flow.network:build_dds_network", "flow.build", _network_size),
    Probe("repro.core.exact:solve_level", "flow.level"),
    Probe("repro.core.exact:candidate_in", "ratios.pick"),
    Probe("repro.core.exact:solve_ratio", "exact.dinkelbach"),
    # constructed once per cut that raises the Dinkelbach level
    Probe("repro.core.exact:RatioSolution.__init__", "exact.improve"),
    Probe("repro.core.exact:core_approx", "approx.core", _CORE_STATS),
    Probe("repro.core.approx:core_approx", "approx.core", _CORE_STATS),
    Probe("repro.core.approx:bs_approx_np", "approx.bs", _stats("peel_rounds")),
    Probe("repro.core.xycore:LocalEngine.core", "xycore.local", _edges_io),
    Probe(f"{_DF}.core", "xycore.df"),
    Probe(f"{_DF}.m", "xycore.df_aux"),
    Probe(f"{_DF}.counts", "xycore.df_aux"),
    Probe(f"{_DF}.max_in_degree", "xycore.df_aux"),
    Probe(f"{_DF}.max_out_degree", "xycore.df_aux"),
    Probe("repro.core.xycore:collect_edges", "graph.collect", _rows),
]

# per-layer metric -> unit, in the order BENCHMARK.json lists them
METRICS: dict[str, str] = {
    "flow.maxflow.calls": "count",
    "flow.maxflow.self_s": "s",
    "flow.mincut.self_s": "s",
    "flow.build.calls": "count",
    "flow.build.self_s": "s",
    "flow.build.nodes_max": "count",
    "flow.build.arcs_sum": "count",
    "flow.level.self_s": "s",
    "ratios.pick.calls": "count",
    "ratios.pick.self_s": "s",
    "xycore.local.calls": "count",
    "xycore.local.self_s": "s",
    "xycore.local.edges_in": "count",
    "xycore.local.edges_out": "count",
    "xycore.df.calls": "count",
    "xycore.df.self_s": "s",
    "xycore.df_aux.calls": "count",
    "xycore.df_aux.self_s": "s",
    "graph.collect.calls": "count",
    "graph.collect.self_s": "s",
    "graph.collect.rows": "count",
    "approx.core.self_s": "s",
    "approx.core_probes": "count",
    "approx.x_evaluated": "count",
    "approx.x_skipped": "count",
    "approx.bs.self_s": "s",
    "approx.bs.peel_rounds": "count",
    "exact.dinkelbach.calls": "count",
    "exact.dinkelbach.self_s": "s",
    "exact.cuts": "count",
    "exact.ratios_solved": "count",
    "exact.ratios_skipped": "count",
    "exact.improving_cut_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# span name -> layer metrics summed from its spans' counts
_SUMS = {
    "flow.build": {"arcs": "flow.build.arcs_sum"},
    "xycore.local": {"edges_in": "xycore.local.edges_in", "edges_out": "xycore.local.edges_out"},
    "graph.collect": {"rows": "graph.collect.rows"},
    "approx.core": {
        "core_probes": "approx.core_probes",
        "x_evaluated": "approx.x_evaluated",
        "x_skipped": "approx.x_skipped",
    },
    "approx.bs": {"peel_rounds": "approx.bs.peel_rounds"},
}


def result_counts(results: dict) -> dict[str, float]:
    """Counts read from Core-Exact's ``DDSResult.stats``, kept on the root span."""
    r = results.get("core_exact")
    if r is None:
        return {}
    return {
        "exact.cuts": r.stats.get("cuts", 0),
        "exact.ratios_solved": r.stats.get("ratios_solved", 0),
        "exact.ratios_skipped": r.stats.get("ratios_skipped_empty_core", 0),
    }


def per_solve(spans: list[Span]) -> list[dict[str, float]]:
    """The per-layer metrics of each traced solve (one root span each).

    ``trace.overhead_frac`` needs the untraced solves and is left out.
    """
    own = self_times(spans)
    by_run: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_run[s.run].append(i)
    out = []
    for idx in by_run.values():
        root = next(i for i in idx if spans[i].parent is None)
        m = {k: 0.0 for k in METRICS if k != "trace.overhead_frac"}
        m.update(spans[root].counts)
        covered = 0.0
        for i in idx:
            s = spans[i]
            if i == root:
                continue
            if s.parent == root:
                covered += s.seconds
            if f"{s.name}.calls" in m:
                m[f"{s.name}.calls"] += 1
            if f"{s.name}.self_s" in m:
                m[f"{s.name}.self_s"] += own[i]
            for key, metric in _SUMS.get(s.name, {}).items():
                m[metric] += s.counts[key]
            if s.name == "flow.build":
                m["flow.build.nodes_max"] = max(m["flow.build.nodes_max"], s.counts["nodes"])
        improving = sum(1 for i in idx if spans[i].name == "exact.improve")
        m["exact.improving_cut_frac"] = improving / m["exact.cuts"] if m["exact.cuts"] else 0.0
        m["trace.covered_frac"] = covered / spans[root].seconds
        out.append(m)
    return out


def summarize(spans: list[Span], untraced_s: list[float]) -> dict[str, float]:
    """Median of each per-layer metric over the traced solves."""
    solves = per_solve(spans)
    traced_s = [spans[i].seconds for i, s in enumerate(spans) if s.parent is None]
    out = {k: median(m[k] for m in solves) for k in solves[0]}
    out["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0
    return out
