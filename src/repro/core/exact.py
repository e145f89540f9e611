"""Exact DDS algorithms: Exact (baseline), DC-Exact, Core-Exact.

All three share one subroutine, ``solve_ratio``: Dinkelbach iteration on
the fixed-ratio objective λ(S,T) = |E(S,T)|/(j|S|+i|T|), which orders
pairs like the skewed density ρ_a = 2√(ij)·λ (see DESIGN.md §2).
Dinkelbach's levels are exact rationals and strictly increase, so it
terminates at F(a) = max ρ_a together with an argmax pair. The
algorithms differ *only* in how much of the candidate-ratio space they
solve and on how small a subgraph each flow network is built — exactly
the axes of the paper's contribution:

- ``exact_dds`` (baseline, Khuller–Saha style): every candidate ratio
  i/j, flow networks on the whole graph.

- ``dc_exact``: divide-and-conquer on the ratio space. **DC lemma**
  (proved here): let (S,T) attain F(a) and c = |S|/|T|. For any pair P
  with true ratio r, ρ(P) = ρ_a(P)·q(a,r) where
  q(a,r) = ½(√(r/a)+√(a/r)) is ≥ 1 and increases with |log(r/a)|.
  Hence for r between a and c:
  ρ(P) ≤ F(a)·q(a,r) ≤ F(a)·q(a,c) = ρ(S,T) — one exact solve settles
  the whole closed ratio interval [min(a,c), max(a,c)].

- ``core_exact``: DC plus the paper's core optimizations: ρ_best is
  seeded by Core-Approx (≥ ρ_opt/2); any h-argmax at level λ lives in
  the [⌈λj⌉, ⌈λi⌉]-core (removing a lower-degree vertex from an argmax
  would strictly raise h), so each ratio's network is built only on
  that core, the core is re-shrunk as Dinkelbach's level grows,
  and a ratio whose core at level ρ_best is already empty is skipped
  outright (it cannot contain the optimum unless ρ_best = ρ_opt
  already, because the DDS itself satisfies the degree bounds at its
  own ratio).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt, sqrt

import numpy as np

from repro.core.approx import core_approx
from repro.core.ratios import all_candidate_ratios, candidate_in
from repro.core.result import DDSResult
from repro.core.xycore import CoreEngine, LocalEngine, engine_state
from repro.flow.network import solve_level
from repro.graph.local import EdgeArrays, relabel


def _thresholds(lam: Fraction, i: int, j: int) -> tuple[int, int]:
    """Degree bounds (x, y) every h-argmax at level λ satisfies.

    Dropping u from S changes |E(S,T)| − λ(j|S|+i|T|) by λj − d_T(u), so
    every u in an argmax has d_T(u) ≥ λj; likewise d_S(v) ≥ λi for v in T.
    """
    return max(1, ceil(lam * j)), max(1, ceil(lam * i))


def _level_below(rho2: Fraction, i: int, j: int) -> Fraction:
    """A rational level λ with 4ij·λ² ≤ ρ², i.e. ρ_a-level 2√(ij)·λ ≤ ρ.

    Exact when √(ρ²/(4ij)) is rational, otherwise below it by less than 2⁻⁶⁴.
    """
    x = rho2 / (4 * i * j)
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d << 128), d << 64)


@dataclass
class RatioSolution:
    """Outcome of one fixed-ratio solve: the F(a)-argmax witness."""

    S: np.ndarray
    T: np.ndarray
    edges_st: int
    skewed2: Fraction  # F(a)² (exact)

    @property
    def ratio(self) -> Fraction:
        return Fraction(len(self.S), len(self.T))

    def as_result(self, labels: np.ndarray | None = None) -> DDSResult:
        """The witness as a DDSResult, its ids mapped through ``labels`` if given."""
        S, T = (self.S, self.T) if labels is None else (labels[self.S], labels[self.T])
        return DDSResult(S, T, self.edges_st, {})


def solve_ratio(
    e: EdgeArrays,
    i: int,
    j: int,
    lam0: Fraction,
    *,
    prune_cores: bool = False,
    stats: dict | None = None,
) -> RatioSolution | None:
    """Dinkelbach on λ = |E(S,T)|/(j|S|+i|T|), a = i/j, from level ``lam0``.

    ``e``, and so the returned S and T, are on dense ids (``relabel``).
    Returns the argmax of ρ_a = 2√(ij)·λ if some pair has λ > ``lam0``,
    else None (meaning F(a) ≤ 2√(ij)·lam0 — the caller settles just the
    point a). With ``prune_cores`` every iteration first shrinks the graph
    to the [⌈λj⌉,⌈λi⌉]-core; cores are nested as λ grows, so shrinking
    the *current* core is valid.
    """
    st = stats if stats is not None else {}
    cur = e
    lam = lam0
    best: RatioSolution | None = None
    while True:
        if prune_cores:
            x, y = _thresholds(lam, i, j)
            cur = LocalEngine().core(cur, x, y)
            st["min_core_m"] = min(st.get("min_core_m", cur.m), cur.m)
        if cur.m == 0:
            return best
        _, s_sel, t_sel = solve_level(cur.src, cur.dst, i, j, lam)
        st["cuts"] = st.get("cuts", 0) + 1
        d_out, d_in = np.bincount(cur.src), np.bincount(cur.dst)
        nodes = 2 + np.count_nonzero(d_out) + np.count_nonzero(d_in)
        st["max_flow_nodes"] = max(st.get("max_flow_nodes", 0), nodes)
        if len(s_sel) == 0 or len(t_sel) == 0:
            return best
        in_s = np.bincount(s_sel, minlength=len(d_out)) > 0
        in_t = np.bincount(t_sel, minlength=len(d_in)) > 0
        m_st = int(np.count_nonzero(in_s[cur.src] & in_t[cur.dst]))
        lam_new = Fraction(m_st, j * len(s_sel) + i * len(t_sel))
        if lam_new <= lam:  # no strict improvement — converged
            return best
        best = RatioSolution(s_sel, t_sel, m_st, 4 * i * j * lam_new**2)
        lam = lam_new


def _full_graph_pair(e: EdgeArrays) -> DDSResult:
    return DDSResult(np.unique(e.src), np.unique(e.dst), e.m, {})


def exact_dds(e: EdgeArrays) -> DDSResult:
    """Baseline Exact: solve *every* candidate ratio on the whole graph."""
    if e.m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, {"ratios_solved": 0})
    stats: dict = {"algo": "exact"}
    best = _full_graph_pair(e)
    ids, labels = relabel(e)
    ratios = all_candidate_ratios(e.n_src, e.n_dst)
    for a in ratios:
        i, j = a.numerator, a.denominator
        sol = solve_ratio(ids, i, j, _level_below(best.rho2, i, j), stats=stats)
        if sol is not None:
            cand = sol.as_result(labels)
            if cand.better_than(best):
                best = cand
    stats["ratios_solved"] = len(ratios)
    best.stats = stats
    return best


def dc_exact(e: EdgeArrays) -> DDSResult:
    """Divide-and-conquer over the ratio space (no core pruning)."""
    if e.m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, {"ratios_solved": 0})
    stats: dict = {"algo": "dc-exact", "ratios_solved": 0}
    best = _full_graph_pair(e)
    ids, labels = relabel(e)
    ns, nt = e.n_src, e.n_dst

    def full_solve(a: Fraction) -> Fraction:
        """Solve ratio a to its F(a)-argmax; returns the argmax ratio c."""
        nonlocal best
        i, j = a.numerator, a.denominator
        # the full graph's own level: a witness-backed start for Dinkelbach
        sol = solve_ratio(ids, i, j, Fraction(e.m, j * ns + i * nt), stats=stats)
        stats["ratios_solved"] += 1
        if sol is None:
            # the full graph itself attains F(a)
            c = Fraction(ns, nt)
        else:
            c = sol.ratio
            cand = sol.as_result(labels)
            if cand.better_than(best):
                best = cand
        return c

    a_min, a_max = Fraction(1, nt), Fraction(ns, 1)
    c1 = full_solve(a_min)
    c2 = full_solve(a_max) if a_max != a_min else c1
    work = [(max(a_min, c1), min(a_max, c2))]
    while work:
        lo, hi = work.pop()
        a = candidate_in(lo, hi, ns, nt)
        if a is None:
            continue
        c = full_solve(a)
        work.append((lo, min(a, c)))
        work.append((max(a, c), hi))
    best.stats = stats
    return best


def _widen_factor(rho_ratio: float) -> Fraction:
    """Largest β with q(a, a·β) ≤ rho_ratio (conservatively rounded down).

    From q(a,r) = ½(√(r/a)+√(a/r)) = rho_ratio one gets
    r/a = (rho_ratio + sqrt(rho_ratio²−1))². Settling a *smaller* radius
    is always safe, so the float result is shrunk by 1e-9 before use.
    """
    if rho_ratio <= 1.0:
        return Fraction(1)
    root = rho_ratio + sqrt(rho_ratio * rho_ratio - 1.0)
    return Fraction(root * root * (1.0 - 1e-9)).limit_denominator(10**12)


def core_exact(
    edges, *, engine: CoreEngine | None = None, delta: float = 0.2
) -> DDSResult:
    """Core-Exact: Core-Approx seeding + core-pruned DC (the paper's best).

    ``edges`` may be an EdgeArrays or an edge DataFrame; with a DataFrame
    the core fixpoints run as Catalyst programs and only the (small)
    pruned cores are ever collected to the driver for flow.

    Each ratio is probed at a rational level λ with
    ``g = 2√(ij)·λ ≤ ρ_best·(1−δ)``, rounded down by `_level_below` (a
    lower level only enlarges the probed core). A failed probe (empty
    level-core, or min-cut finds nothing above λ) proves
    F(a) ≤ g ≤ ρ_best·(1−δ), and then every pair with ratio r satisfies
    ρ ≤ F(a)·q(a,r) ≤ ρ_best for q(a,r) ≤ 1/(1−δ) — settling the whole
    multiplicative interval [a/β, a·β] with β = `_widen_factor(1/(1−δ))`
    instead of the single point a. A successful probe runs Dinkelbach to
    the exact F(a)-argmax and settles the union of the DC-lemma interval
    [min(a,c), max(a,c)] and the (possibly wider) radius
    β = `_widen_factor(ρ_best/F(a))`.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must be in [0, 1)")
    eng, graph, labels = engine_state(edges, engine)
    ns, nt, m = eng.counts(graph)
    if m == 0:
        z = np.array([], dtype=np.int64)
        return DDSResult(z, z, 0, {"ratios_solved": 0})
    stats: dict = {
        "algo": "core-exact",
        "ratios_solved": 0,
        "ratios_skipped_empty_core": 0,
    }
    approx = core_approx(edges, engine=eng)
    stats["approx_rho"] = approx.rho
    stats["approx_core_probes"] = approx.stats.get("core_probes")
    best: DDSResult = approx
    # the trivial full pair can beat the max-xy core on near-regular graphs
    full_rho2 = Fraction(m * m, ns * nt)
    if full_rho2 > best.rho2:
        local_all = eng.to_local(edges)
        best = _full_graph_pair(local_all)

    fail_beta = _widen_factor(1.0 / (1.0 - delta)) if delta > 0 else Fraction(1)

    def core_solve(a: Fraction) -> tuple[Fraction, Fraction]:
        """Probe/solve ratio a; returns the settled closed ratio interval."""
        nonlocal best
        i, j = a.numerator, a.denominator
        lam = _level_below(best.rho2 * (1 - Fraction(delta)) ** 2, i, j)
        x, y = _thresholds(lam, i, j)
        core_state = eng.core(graph, x, y)
        stats["core_probes_exact"] = stats.get("core_probes_exact", 0) + 1
        sol = None
        if eng.m(core_state) == 0:
            stats["ratios_skipped_empty_core"] += 1
        else:
            local, core_labels = eng.to_local(core_state), labels
            if core_labels is None:  # a collected DataFrame core: ids per core
                local, core_labels = relabel(local)
            sol = solve_ratio(local, i, j, lam, prune_cores=True, stats=stats)
            stats["ratios_solved"] += 1
        if sol is None:  # F(a) <= ρ_best·(1−δ): settle the δ-radius around a
            return a / fail_beta, a * fail_beta
        cand = sol.as_result(core_labels)
        if cand.better_than(best):
            best = cand
        c = sol.ratio
        # exact DC interval ∪ widened radius from ρ_best/F(a) ≥ 1
        beta = _widen_factor(best.rho / sqrt(float(sol.skewed2)) * (1.0 - 1e-12))
        return min(a / beta, a, c), max(a * beta, a, c)

    a_min, a_max = Fraction(1, nt), Fraction(ns, 1)
    # seed slightly beyond the candidate range so the extreme candidates
    # themselves are reachable through the open-interval search
    work: list[tuple[Fraction, Fraction]] = [(a_min / 2, a_max * 2)]
    while work:
        lo, hi = work.pop()
        a = candidate_in(lo, hi, ns, nt)
        if a is None:
            continue
        s_lo, s_hi = core_solve(a)
        work.append((lo, s_lo))
        work.append((s_hi, hi))
    best.stats = {**best.stats, **stats}
    return best
