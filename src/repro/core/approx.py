"""Approximation algorithms for DDS.

- ``core_approx`` — the paper's contribution: return the nonempty
  [x,y]-core maximizing x·y. Guarantee (DESIGN.md §2): that core has
  ρ ≥ sqrt(xy) ≥ ρ_opt/2 — a deterministic 2-approximation whose cost
  is a handful of core fixpoints instead of any flow or ratio sweep.

- ``ks_approx`` — baseline: exact greedy peeling (Charikar-style,
  adapted to the directed objective per Khuller–Saha) for every ratio in
  a (1+ε) geometric grid. 2(1+ε)-approximation; the per-vertex peel is
  inherently sequential, so it runs on the driver (it is the *baseline*;
  the paper's point is precisely that this sweep is wasteful).

- ``bs_approx`` — baseline: Bahmani-style *batch* peeling per grid
  ratio: every round removes all S-vertices with out-degree ≤
  (1+ε)·2m·c_S/D and all T-vertices with in-degree ≤ (1+ε)·2m·c_T/D
  (D = c_S|S| + c_T|T|). If no vertex qualifies, summing the two
  negations gives 2m > (1+ε)·2m — contradiction — so every round makes
  progress and the peel finishes in O(log n) rounds, which is what makes
  it a dataflow algorithm. 2(1+ε)²-approximation (grid × peel losses).

Every algorithm reports the best snapshot under the *true* density ρ
(exact Fraction comparisons), which only tightens the guarantees since
ρ ≥ ρ_a for every ratio a.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from math import sqrt

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.density import rho2_frac
from repro.core.ratios import geometric_grid
from repro.core.result import DDSResult
from repro.core.xycore import CoreEngine, DataFrameEngine, max_xy_core
from repro.graph.local import EdgeArrays, relabel
from repro.graph.schema import DST, SRC


def core_approx(edges, *, engine: CoreEngine | None = None) -> DDSResult:
    """The paper's 2-approximation: the max-x·y nonempty [x,y]-core."""
    core = max_xy_core(edges, engine=engine)
    e = core.edges
    s_set = np.unique(e.src)
    t_set = np.unique(e.dst)
    stats = dict(core.stats)
    stats.update({"x": core.x, "y": core.y, "xy": core.x * core.y})
    return DDSResult(S=s_set, T=t_set, edges_st=e.m, stats=stats)


# ---------------------------------------------------------------------------
# KS-Approx: exact sequential peel per grid ratio (baseline)
# ---------------------------------------------------------------------------


def _csr(ids: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids grouped by endpoint id, and each id's start offset in them."""
    return np.argsort(ids, kind="stable"), np.concatenate([[0], np.cumsum(deg)])


def _peel_one_ratio(e: EdgeArrays, adj: tuple, a: float):
    """Exact greedy peel for skewed density at ratio ``a``, on dense ids.

    Repeatedly removes the vertex-role minimizing degree/cost, where the
    S-role of u costs c_S = 1/(2√a) and the T-role of v costs c_T = √a/2.
    ``adj`` = (out-degrees, in-degrees, out-CSR, in-CSR), built once per
    graph. Returns the snapshot (S mask, T mask, m) with the best *true* ρ.
    """
    c_s = 1.0 / (2.0 * sqrt(a))
    c_t = sqrt(a) / 2.0
    src, dst = e.src, e.dst
    deg_s, deg_t, (order_s, start_s), (order_t, start_t) = adj
    out_deg, in_deg = deg_s.copy(), deg_t.copy()
    alive_edge = np.ones(e.m, dtype=bool)
    alive_s, alive_t = deg_s > 0, deg_t > 0
    # (score, side, id, deg-at-push); ids sort like labels, so ties break as on labels
    heap = [(out_deg[k] / c_s, 0, k, out_deg[k]) for k in np.flatnonzero(alive_s).tolist()]
    heap += [(in_deg[k] / c_t, 1, k, in_deg[k]) for k in np.flatnonzero(alive_t).tolist()]
    heapq.heapify(heap)

    m_alive, ns_alive, nt_alive = e.m, int(alive_s.sum()), int(alive_t.sum())
    best = rho2_frac(m_alive, ns_alive, nt_alive)
    best_step = 0
    removals: list[tuple[int, int]] = []
    while m_alive > 0 and heap:
        _, side, k, d = heapq.heappop(heap)
        if side == 0:
            if not alive_s[k] or d != out_deg[k]:
                continue
            alive_s[k] = False
            ns_alive -= 1
            for eid in order_s[start_s[k] : start_s[k + 1]]:
                if alive_edge[eid]:
                    alive_edge[eid] = False
                    m_alive -= 1
                    tk = dst[eid]
                    in_deg[tk] -= 1
                    if alive_t[tk]:
                        heapq.heappush(heap, (in_deg[tk] / c_t, 1, tk, in_deg[tk]))
        else:
            if not alive_t[k] or d != in_deg[k]:
                continue
            alive_t[k] = False
            nt_alive -= 1
            for eid in order_t[start_t[k] : start_t[k + 1]]:
                if alive_edge[eid]:
                    alive_edge[eid] = False
                    m_alive -= 1
                    sk = src[eid]
                    out_deg[sk] -= 1
                    if alive_s[sk]:
                        heapq.heappush(heap, (out_deg[sk] / c_s, 0, sk, out_deg[sk]))
        removals.append((side, k))
        cur = rho2_frac(m_alive, ns_alive, nt_alive)
        if cur > best:
            best = cur
            best_step = len(removals)
    # rebuild the best snapshot
    alive_s, alive_t = deg_s > 0, deg_t > 0
    for side, k in removals[:best_step]:
        (alive_s if side == 0 else alive_t)[k] = False
    return alive_s, alive_t, int(np.count_nonzero(alive_s[src] & alive_t[dst]))


def ks_approx(e: EdgeArrays, *, eps: float = 0.5) -> DDSResult:
    """Baseline 2(1+ε)-approx: exact peel per ratio of a (1+ε) grid."""
    if e.m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, {"ratios": 0})
    ns, nt = e.n_src, e.n_dst
    grid = geometric_grid(1.0 / nt, float(ns), eps)
    ids, labels = relabel(e)
    deg_s = np.bincount(ids.src, minlength=len(labels))
    deg_t = np.bincount(ids.dst, minlength=len(labels))
    adj = (deg_s, deg_t, _csr(ids.src, deg_s), _csr(ids.dst, deg_t))
    best: DDSResult | None = None
    for a in grid:
        s_mask, t_mask, m = _peel_one_ratio(ids, adj, a)
        cand = DDSResult(labels[s_mask], labels[t_mask], m, {})
        if cand.better_than(best):
            best = cand
    assert best is not None
    best.stats = {"ratios": len(grid), "eps": eps}
    return best


# ---------------------------------------------------------------------------
# BS-Approx: batch peel (numpy + DataFrame variants)
# ---------------------------------------------------------------------------


def _bs_peel_np(e: EdgeArrays, a: float, eps: float):
    """One batch peel at ratio ``a`` on dense ids; returns best-true-ρ snapshot."""
    c_s = 1.0 / (2.0 * sqrt(a))
    c_t = sqrt(a) / 2.0
    src, dst = e.src, e.dst
    best, best_at = Fraction(-1), None
    rounds = 0
    while len(src):
        d_out = np.bincount(src)
        d_in = np.bincount(dst)
        ns, nt, m = np.count_nonzero(d_out), np.count_nonzero(d_in), len(src)
        cur = rho2_frac(m, ns, nt)
        if cur > best:
            best, best_at = cur, (d_out, d_in, m)
        denom = c_s * ns + c_t * nt
        thr_out = (1.0 + eps) * 2.0 * m * c_s / denom
        thr_in = (1.0 + eps) * 2.0 * m * c_t / denom
        keep = (d_out[src] > thr_out) & (d_in[dst] > thr_in)
        if keep.all():  # cannot happen (see module docstring) — safety only
            break
        src, dst = src[keep], dst[keep]
        rounds += 1
    d_out, d_in, m = best_at
    return (np.flatnonzero(d_out), np.flatnonzero(d_in), m), rounds


def bs_approx_np(e: EdgeArrays, *, eps: float = 0.5) -> DDSResult:
    """Batch-peel baseline on local arrays (parity twin of the DF path)."""
    if e.m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, {"ratios": 0})
    grid = geometric_grid(1.0 / e.n_dst, float(e.n_src), eps)
    ids, labels = relabel(e)
    best: DDSResult | None = None
    rounds = 0
    for a in grid:
        (s_set, t_set, m), r = _bs_peel_np(ids, a, eps)
        rounds += r
        cand = DDSResult(labels[s_set], labels[t_set], m, {})
        if cand.better_than(best):
            best = cand
    assert best is not None
    best.stats = {"ratios": len(grid), "eps": eps, "peel_rounds": rounds}
    return best


def bs_approx_df(edges: DataFrame, *, eps: float = 0.5) -> DDSResult:
    """Batch-peel baseline as a Catalyst program.

    Each round: two degree aggregations, two semijoins, one count —
    O(log n) rounds per grid ratio. Snapshot bookkeeping keeps only
    (m, ns, nt) per round; the winning snapshot's vertex sets are
    re-materialized by replaying the peel for the winning (ratio, round).
    """
    eng = DataFrameEngine()
    ns0, nt0, m0 = eng.counts(edges)
    if m0 == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, {"ratios": 0})
    grid = geometric_grid(1.0 / nt0, float(ns0), eps)

    def _peel(a: float, stop_round: int | None):
        """Peel at ratio a; returns (best_round, best_rho2) or the state at stop_round."""
        c_s = 1.0 / (2.0 * sqrt(a))
        c_t = sqrt(a) / 2.0
        e = edges
        best_round, best = 0, rho2_frac(m0, ns0, nt0)
        rnd = 0
        ns, nt, m = ns0, nt0, m0
        while m > 0:
            if stop_round is not None and rnd == stop_round:
                return e
            thr = (1.0 + eps) * 2.0 * m / (c_s * ns + c_t * nt)
            s_ok = (
                e.groupBy(SRC).agg(F.count(F.lit(1)).alias("d"))
                .filter(F.col("d") > thr * c_s)
                .select(SRC)
            )
            t_ok = (
                e.groupBy(DST).agg(F.count(F.lit(1)).alias("d"))
                .filter(F.col("d") > thr * c_t)
                .select(DST)
            )
            e = (
                e.join(s_ok, SRC, "left_semi")
                .join(t_ok, DST, "left_semi")
                .localCheckpoint(eager=True)
            )
            rnd += 1
            ns, nt, m = eng.counts(e)
            if m > 0:
                cur = rho2_frac(m, ns, nt)
                if cur > best:
                    best_round, best = rnd, cur
        return best_round, best

    best_a, best_round, best_rho2 = grid[0], 0, rho2_frac(m0, ns0, nt0)
    for a in grid:
        r, b = _peel(a, None)
        if b > best_rho2:
            best_a, best_round, best_rho2 = a, r, b
    state = edges if best_round == 0 else _peel(best_a, best_round)
    local = eng.to_local(state)
    return DDSResult(
        np.unique(local.src),
        np.unique(local.dst),
        local.m,
        {"ratios": len(grid), "eps": eps, "engine": "dataframe"},
    )
