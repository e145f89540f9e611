"""Tests for the DDS decision network (vertex-node reduction)."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.flow.network import build_dds_network, solve_level
from repro.graph.local import EdgeArrays


def _brute_qh(src, dst, i, j, lam):
    """max over all (S,T) of q*|E(S,T)| - p*(j|S| + i|T|) at lam = p/q."""
    p, q = lam.numerator, lam.denominator
    s_all = sorted(set(src.tolist()))
    t_all = sorted(set(dst.tolist()))
    best = 0  # empty selection
    for ks in range(len(s_all) + 1):
        for S in itertools.combinations(s_all, ks):
            for kt in range(len(t_all) + 1):
                for T in itertools.combinations(t_all, kt):
                    m = sum(1 for u, v in zip(src, dst) if u in S and v in T)
                    best = max(best, q * m - p * (j * len(S) + i * len(T)))
    return best


def _tiny_graph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 9))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return pairs[:, 0].copy(), pairs[:, 1].copy()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 3), (3, 2)])
# each level given as g = 2λ, which is the ρ_a level when i = j
@pytest.mark.parametrize(
    "g", [Fraction(3, 10), Fraction(1), Fraction(5, 2)], ids=["0.3", "1.0", "2.5"]
)
def test_h_matches_bruteforce(seed, i, j, g):
    src, dst = _tiny_graph(seed)
    lam = g / 2
    h, S, T = solve_level(src, dst, i, j, lam)
    assert h * lam.denominator == _brute_qh(src, dst, i, j, lam)


@pytest.mark.parametrize("seed", range(6))
def test_witness_attains_h(seed):
    """The decoded (S,T) must itself achieve the reported objective."""
    src, dst = _tiny_graph(seed + 50)
    i, j, lam = 2, 3, Fraction(1, 6)
    h, S, T = solve_level(src, dst, i, j, lam)
    if len(S) == 0:
        assert h == 0
        return
    e = EdgeArrays(src.astype(np.int64), dst.astype(np.int64))
    m_st = e.edges_between(S, T)
    val = m_st - lam * (j * len(S) + i * len(T))
    assert val == h


def test_high_level_selects_nothing():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    h, S, T = solve_level(src, dst, 1, 1, lam=Fraction(100))
    assert h == 0
    assert len(S) == 0 and len(T) == 0


def test_zero_level_selects_everything():
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    h, S, T = solve_level(src, dst, 1, 1, lam=Fraction(0))
    # at level 0 selecting all edges costs nothing and earns m
    assert h == 3
    assert set(S) == {0, 1, 2} and set(T) == {0, 1, 2}


def test_empty_graph():
    z = np.array([], dtype=np.int64)
    h, S, T = solve_level(z, z, 1, 1, Fraction(1))
    assert h == 0.0 and len(S) == 0 and len(T) == 0


def test_network_shape():
    src = np.array([0, 0, 1], dtype=np.int64)
    dst = np.array([1, 2, 2], dtype=np.int64)
    net = build_dds_network(src, dst, 1, 2, Fraction(1, 2))
    # nodes: s, t, 2 sources, 2 destinations
    assert net.dinic.n == 2 + 2 + 2
    # arcs: s->u_out and u_out->t per source, v_in->t per destination, one per edge
    assert len(net.dinic.to) // 2 == 2 * 2 + 2 + 3
    assert net.source_cap == 2 * 3  # q*m
    assert list(net.src_labels) == [0, 1]
    assert list(net.dst_labels) == [1, 2]


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        build_dds_network(
            np.array([0, 1]), np.array([1]), 1, 1, Fraction(1)
        )
