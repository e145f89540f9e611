"""Local (driver-side) mirror of an edge set, as numpy arrays.

The exact DDS algorithms interleave min-cut solves (inherently
sequential, see DESIGN.md) with core pruning. After core pruning the
residual graphs are small — the paper's central observation — so they
are mirrored to the driver as two int64 arrays and processed with
vectorized numpy kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.graph.schema import DST, SRC


@dataclass(frozen=True)
class EdgeArrays:
    """An immutable edge list: parallel ``src``/``dst`` integer label arrays."""

    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        # uint64 with a signed type promotes to float64, which would round labels
        dtypes = [np.asarray(a).dtype for a in (self.src, self.dst)]
        if not all(np.issubdtype(t, np.integer) for t in [*dtypes, np.result_type(*dtypes)]):
            raise TypeError(f"vertex labels must share an integer type, got {dtypes}")
        if len(self.src) != len(self.dst):
            raise ValueError("src/dst length mismatch")

    @property
    def m(self) -> int:
        return len(self.src)

    @property
    def n_src(self) -> int:
        return len(np.unique(self.src))

    @property
    def n_dst(self) -> int:
        return len(np.unique(self.dst))

    def out_degree_max(self) -> int:
        if self.m == 0:
            return 0
        _, counts = np.unique(self.src, return_counts=True)
        return int(counts.max())

    def in_degree_max(self) -> int:
        if self.m == 0:
            return 0
        _, counts = np.unique(self.dst, return_counts=True)
        return int(counts.max())

    def edges_between(self, s_set: np.ndarray, t_set: np.ndarray) -> int:
        """|E(S,T)| — edges whose source is in S and destination in T."""
        if self.m == 0 or len(s_set) == 0 or len(t_set) == 0:
            return 0
        mask = np.isin(self.src, s_set) & np.isin(self.dst, t_set)
        return int(mask.sum())


def relabel(e: EdgeArrays) -> tuple[EdgeArrays, np.ndarray]:
    """The graph on dense vertex ids, and the id -> label array.

    Ids are ``0..n-1`` over ``src ∪ dst`` (a vertex on both sides keeps
    one id) and order-preserving: they sort like the labels, so every
    sort order and tie-break taken on ids is the one taken on labels.
    Per-round degree counts on ids are ``np.bincount``s, not sorts.
    """
    labels, ids = np.unique(np.concatenate([e.src, e.dst]), return_inverse=True)
    return EdgeArrays(ids[: e.m], ids[e.m :]), labels


def empty_edges() -> EdgeArrays:
    z = np.array([], dtype=np.int64)
    return EdgeArrays(z, z)


def dedup(e: EdgeArrays) -> EdgeArrays:
    """Remove duplicate (src, dst) pairs."""
    if e.m == 0:
        return e
    pairs = np.stack([e.src, e.dst], axis=1)
    uniq = np.unique(pairs, axis=0)
    return EdgeArrays(uniq[:, 0].copy(), uniq[:, 1].copy())


def collect_edges(edges: DataFrame) -> EdgeArrays:
    """Mirror an edge DataFrame to the driver (Arrow path via toPandas)."""
    pdf = edges.select(SRC, DST).toPandas()
    return EdgeArrays(
        pdf[SRC].to_numpy(dtype=np.int64), pdf[DST].to_numpy(dtype=np.int64)
    )
