"""[x,y]-cores: fixpoint computation and the max-``x·y`` core search.

Definition (paper): the ``[x,y]``-core of a directed graph is the
*largest* pair ``(S,T)`` such that every ``u ∈ S`` has ≥ x out-edges
into ``T`` and every ``v ∈ T`` has ≥ y in-edges from ``S``.

Feasible pairs are closed under union (degrees only grow), so the
maximal core is unique and equals the fixpoint of batch-deleting
violators. That batch fixpoint is exactly one DataFrame round: two
degree aggregations + two semijoins — the dataflow formulation the
reproduction hint asks for. A numpy engine with identical semantics
serves the driver-side inner loops; tests assert engine parity.

The module also implements the search used by Core-Approx:
``y_max(x)`` (the largest y with nonempty [x,y]-core) is non-increasing
in x, so the exact maximizer of ``x·y_max(x)`` is found by an ascending
scan with a monotone upper-bound skip (branch-and-bound) after geometric
seeding — no core is ever decomposed that provably cannot win.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.local import EdgeArrays, collect_edges, empty_edges, relabel
from repro.graph.schema import DST, SRC

# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


class CoreEngine(Protocol):
    """The minimal surface the core searches need from a graph engine."""

    def core(self, state, x: int, y: int):  # -> state
        ...

    def m(self, state) -> int: ...

    def counts(self, state) -> tuple[int, int, int]:  # (n_src, n_dst, m)
        ...

    def max_out_degree(self, state) -> int: ...

    def max_in_degree(self, state) -> int: ...

    def to_local(self, state) -> EdgeArrays: ...


class LocalEngine:
    """numpy batch-fixpoint engine; state = EdgeArrays on dense ids
    (``repro.graph.local.relabel``), so each degree count is a ``bincount``."""

    def core(self, state: EdgeArrays, x: int, y: int) -> EdgeArrays:
        src, dst = state.src, state.dst
        while len(src):
            keep = (np.bincount(src)[src] >= x) & (np.bincount(dst)[dst] >= y)
            if keep.all():
                return EdgeArrays(src, dst)
            src, dst = src[keep], dst[keep]
        return empty_edges()

    def m(self, state: EdgeArrays) -> int:
        return state.m

    def counts(self, state: EdgeArrays) -> tuple[int, int, int]:
        return state.n_src, state.n_dst, state.m

    def max_out_degree(self, state: EdgeArrays) -> int:
        return int(np.bincount(state.src).max()) if state.m else 0

    def max_in_degree(self, state: EdgeArrays) -> int:
        return int(np.bincount(state.dst).max()) if state.m else 0

    def to_local(self, state: EdgeArrays) -> EdgeArrays:
        return state


class DataFrameEngine:
    """Catalyst batch-fixpoint engine; state = edge DataFrame.

    Each round is two aggregations + two semijoins, with an eager
    ``localCheckpoint`` to cut lineage (iterative DataFrame plans grow
    exponentially otherwise) and a count to detect the fixpoint.
    """

    def __init__(self, max_rounds: int = 10_000) -> None:
        self.max_rounds = max_rounds

    def core(self, state: DataFrame, x: int, y: int) -> DataFrame:
        e = state
        m_prev = e.count()
        for _ in range(self.max_rounds):
            if m_prev == 0:
                return e
            s_ok = (
                e.groupBy(SRC).agg(F.count(F.lit(1)).alias("d"))
                .filter(F.col("d") >= x)
                .select(SRC)
            )
            t_ok = (
                e.groupBy(DST).agg(F.count(F.lit(1)).alias("d"))
                .filter(F.col("d") >= y)
                .select(DST)
            )
            e2 = (
                e.join(s_ok, SRC, "left_semi")
                .join(t_ok, DST, "left_semi")
                .select(SRC, DST)
                .localCheckpoint(eager=True)
            )
            m_new = e2.count()
            e = e2
            if m_new == m_prev:
                return e
            m_prev = m_new
        raise RuntimeError("xy-core fixpoint did not converge (impossible)")

    def m(self, state: DataFrame) -> int:
        return state.count()

    def counts(self, state: DataFrame) -> tuple[int, int, int]:
        row = state.agg(
            F.countDistinct(SRC).alias("ns"),
            F.countDistinct(DST).alias("nt"),
            F.count(F.lit(1)).alias("m"),
        ).collect()[0]
        return row["ns"], row["nt"], row["m"]

    def max_out_degree(self, state: DataFrame) -> int:
        row = (
            state.groupBy(SRC).agg(F.count(F.lit(1)).alias("d"))
            .agg(F.max("d").alias("mx"))
            .collect()[0]
        )
        return row["mx"] or 0

    def max_in_degree(self, state: DataFrame) -> int:
        row = (
            state.groupBy(DST).agg(F.count(F.lit(1)).alias("d"))
            .agg(F.max("d").alias("mx"))
            .collect()[0]
        )
        return row["mx"] or 0

    def to_local(self, state: DataFrame) -> EdgeArrays:
        return collect_edges(state)


def engine_state(edges, engine: CoreEngine | None):
    """``(engine, state, labels)``: local input on dense ids with the id -> label
    array, or a DataFrame as it is with ``labels`` None."""
    if isinstance(edges, EdgeArrays):
        ids, labels = relabel(edges)
        return engine or LocalEngine(), ids, labels
    return engine or DataFrameEngine(), edges, None


def _labelled(state, labels: np.ndarray | None):
    return state if labels is None else EdgeArrays(labels[state.src], labels[state.dst])


def xy_core(edges, x: int, y: int, *, engine: CoreEngine | None = None):
    """The [x,y]-core of ``edges`` (EdgeArrays or DataFrame), same type out."""
    eng, state, labels = engine_state(edges, engine)
    return _labelled(eng.core(state, x, y), labels)


# ---------------------------------------------------------------------------
# y_max(x) frontier and the max-x·y core
# ---------------------------------------------------------------------------


@dataclass
class XYCoreResult:
    """A located core: parameters, its edge set (local), and search stats."""

    x: int
    y: int
    edges: EdgeArrays
    stats: dict


def y_max_for_x(edges, x: int, *, engine: CoreEngine | None = None, stats: dict | None = None):
    """Largest y with nonempty [x,y]-core, plus that core (engine state).

    Binary search on y over the nested family ``[x,y]-core ⊆ [x,y-1]-core``;
    every probe runs inside the previously found nonempty core, so probes
    get cheaper as y grows. Returns ``(0, empty)`` when even [x,1] is empty.
    """
    eng, state, labels = engine_state(edges, engine)
    y, core = _y_max_for_x(eng, state, x, stats if stats is not None else {})
    return y, _labelled(core, labels)


def _y_max_for_x(eng: CoreEngine, edges, x: int, st: dict):
    base = eng.core(edges, x, 1)
    st["core_probes"] = st.get("core_probes", 0) + 1
    if eng.m(base) == 0:
        return 0, base
    lo, lo_core = 1, base  # invariant: [x,lo]-core nonempty, held in lo_core
    hi = eng.max_in_degree(base)  # [x,y]-core empty for y > max in-degree
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probe = eng.core(lo_core, x, mid)
        st["core_probes"] = st.get("core_probes", 0) + 1
        if eng.m(probe) == 0:
            hi = mid - 1
        else:
            lo, lo_core = mid, probe
    return lo, lo_core


def max_xy_core(edges, *, engine: CoreEngine | None = None) -> XYCoreResult:
    """The nonempty [x,y]-core maximizing x·y (exact, branch-and-bound).

    Correctness of the skip rule: ``y_max`` is non-increasing, so for any
    x' ≥ x_eval, ``x'·y_max(x') ≤ x'·y_max(x_eval)``; an x' is only
    skipped when that bound cannot beat the best product found. Geometric
    seeding (x = 1,2,4,…) establishes a good incumbent early so the
    ascending scan skips almost everything on skewed graphs.
    """
    eng, edges, labels = engine_state(edges, engine)
    stats: dict = {"core_probes": 0, "x_evaluated": 0, "x_skipped": 0}
    x_ub = eng.max_out_degree(edges)
    best: XYCoreResult | None = None
    ymax_at: dict[int, int] = {}  # evaluated x -> y_max(x)

    def evaluate(x: int) -> int:
        y, core = _y_max_for_x(eng, edges, x, stats)
        stats["x_evaluated"] += 1
        ymax_at[x] = y
        nonlocal best
        if y > 0 and (best is None or x * y > best.x * best.y):
            best = XYCoreResult(x, y, eng.to_local(core), stats)
        return y

    if x_ub == 0:
        return XYCoreResult(0, 0, empty_edges(), stats)
    # geometric seeding
    x = 1
    while x <= x_ub:
        if evaluate(x) == 0:
            break
        x *= 2
    # ascending scan with monotone-bound skip
    evaluated = sorted(ymax_at)
    for x in range(1, x_ub + 1):
        if x in ymax_at:
            continue
        # tightest known bound: y_max at the largest evaluated x' <= x
        below = [e for e in evaluated if e < x]
        ub = x * ymax_at[max(below)] if below else None
        if best is not None and ub is not None and ub <= best.x * best.y:
            stats["x_skipped"] += 1
            continue
        if evaluate(x) == 0:
            break
        evaluated = sorted(ymax_at)
    if best is None:
        return XYCoreResult(0, 0, empty_edges(), stats)
    best.stats = stats
    best.edges = _labelled(best.edges, labels)
    return best
