"""DDS decision network for a fixed ratio ``a = i/j`` and level ``λ``.

For fixed ``a = i/j`` the skewed density of a pair ``(S,T)`` is

    rho_a(S,T) = 2*sqrt(i*j)*|E(S,T)| / (j*|S| + i*|T|)      (see DESIGN.md)

so maximising ``rho_a`` is maximising the rational
``λ(S,T) = |E(S,T)| / (j*|S| + i*|T|)``, and the decision "does some pair
have λ above the level ``λ = p/q``" is whether

    q*h(λ) = max_{S,T} [ q*|E(S,T)| - p*(j*|S| + i*|T|) ]  >  0.

This is Goldberg's vertex network in the directed form of Khuller–Saha:
one node per source ``u_out`` and per destination ``v_in``, with

    s --(q*d_out(u))--> u_out --(q per edge)--> v_in --(p*i)--> t
                        u_out --(p*j)--> t

A cut whose source side holds ``S`` and ``T`` costs
``q*m - (q*|E(S,T)| - p*(j|S| + i|T|))``, so ``q*h = q*m - mincut`` exactly,
in integers, and the maximising pair is read off the source side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.flow.dinic import Dinic


@dataclass
class DDSNetwork:
    """A built decision network plus the label maps needed to decode cuts."""

    dinic: Dinic
    src_labels: np.ndarray  # u_out node k+2        -> vertex label src_labels[k]
    dst_labels: np.ndarray  # v_in node k+2+len(S)  -> vertex label dst_labels[k]
    lam: Fraction  # the level p/q
    source_cap: int  # q*m, the capacity out of s

    def solve(self) -> tuple[Fraction, np.ndarray, np.ndarray]:
        """Max-flow; returns ``(h, S, T)`` where ``h = m - mincut/q``.

        ``S``/``T`` are vertex-label arrays of the maximizing pair (empty
        when the maximizer is the empty selection, i.e. ``h <= 0``).
        """
        cut_value = self.dinic.max_flow(0, 1)
        h = Fraction(self.source_cap - cut_value, self.lam.denominator)
        side = self.dinic.min_cut_source_side(0)
        ns = len(self.src_labels)
        s_sel = [k - 2 for k in side if 2 <= k < 2 + ns]
        t_sel = [k - 2 - ns for k in side if k >= 2 + ns]
        return h, self.src_labels[s_sel], self.dst_labels[t_sel]


def build_dds_network(
    src: np.ndarray, dst: np.ndarray, i: int, j: int, lam: Fraction
) -> DDSNetwork:
    """Build the decision network for edge arrays ``(src, dst)`` at level ``lam``.

    ``src``/``dst`` hold arbitrary integer vertex labels; S-side and
    T-side candidate sets are the distinct sources and destinations.
    """
    if len(src) != len(dst):
        raise ValueError("src/dst length mismatch")
    p, q = lam.numerator, lam.denominator
    src_labels, s_idx, d_out = np.unique(src, return_inverse=True, return_counts=True)
    dst_labels, t_idx = np.unique(dst, return_inverse=True)
    ns, nt = len(src_labels), len(dst_labels)
    # node ids: 0=s, 1=t, 2..2+ns-1 = u_out, 2+ns..2+ns+nt-1 = v_in
    net = Dinic(2 + ns + nt)
    for k, d in enumerate(d_out.tolist()):
        net.add_edge(0, 2 + k, q * d)
        net.add_edge(2 + k, 1, p * j)
    for k in range(nt):
        net.add_edge(2 + ns + k, 1, p * i)
    for u, v in zip((s_idx + 2).tolist(), (t_idx + 2 + ns).tolist()):
        net.add_edge(u, v, q)
    return DDSNetwork(net, src_labels, dst_labels, lam, q * len(src))


def solve_level(
    src: np.ndarray, dst: np.ndarray, i: int, j: int, lam: Fraction
) -> tuple[Fraction, np.ndarray, np.ndarray]:
    """One-shot: build the network and return ``(h, S, T)`` at level ``lam``."""
    if len(src) == 0:
        z = np.array([], dtype=np.int64)
        return Fraction(0), z, z
    return build_dds_network(src, dst, i, j, lam).solve()
