"""Unit tests for the Dinic max-flow substrate."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.flow.dinic import Dinic


def test_single_edge():
    d = Dinic(2)
    d.add_edge(0, 1, 3)
    assert d.max_flow(0, 1) == 3


def test_two_parallel_edges():
    d = Dinic(2)
    d.add_edge(0, 1, 3)
    d.add_edge(0, 1, 4)
    assert d.max_flow(0, 1) == 7


def test_series_bottleneck():
    d = Dinic(3)
    d.add_edge(0, 1, 5)
    d.add_edge(1, 2, 2)
    assert d.max_flow(0, 2) == 2


def test_disconnected():
    d = Dinic(3)
    d.add_edge(0, 1, 5)
    assert d.max_flow(0, 2) == 0


def test_no_edges():
    d = Dinic(2)
    assert d.max_flow(0, 1) == 0


def test_classic_diamond():
    # s=0, a=1, b=2, t=3
    d = Dinic(4)
    d.add_edge(0, 1, 10)
    d.add_edge(0, 2, 10)
    d.add_edge(1, 2, 1)
    d.add_edge(1, 3, 5)
    d.add_edge(2, 3, 10)
    assert d.max_flow(0, 3) == 15


def test_big_capacity_passthrough():
    d = Dinic(3)
    d.add_edge(0, 1, 7)
    k = d.add_edge(1, 2, 10**30)
    assert d.max_flow(0, 2) == 7
    assert d.cap[k] == 10**30 - 7  # exact: a float would round this to 1e30


def test_negative_capacity_rejected():
    d = Dinic(2)
    with pytest.raises(ValueError):
        d.add_edge(0, 1, -1)


@pytest.mark.parametrize(
    "cap",
    [1.0, Fraction(5, 2), True, np.int64(1)],
    ids=["float", "Fraction", "bool", "int64"],
)
def test_non_int_capacity_rejected(cap):
    d = Dinic(2)
    with pytest.raises(TypeError):
        d.add_edge(0, 1, cap)


def test_cut_side_contains_source_only_when_saturated():
    d = Dinic(2)
    d.add_edge(0, 1, 2)
    d.max_flow(0, 1)
    assert d.min_cut_source_side(0) == [0]


def _brute_min_cut(n, edges, s, t):
    """Enumerate all s/t bipartitions; min total capacity of crossing edges."""
    best = float("inf")
    others = [v for v in range(n) if v not in (s, t)]
    for bits in itertools.product([0, 1], repeat=len(others)):
        side = {s}
        for v, b in zip(others, bits):
            if b:
                side.add(v)
        cap = sum(c for (u, v, c) in edges if u in side and v not in side)
        best = min(best, cap)
    return best


@pytest.mark.parametrize("seed", range(12))
def test_random_networks_match_bruteforce_mincut(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    n_edges = int(rng.integers(4, 16))
    edges = []
    d = Dinic(n)
    for _ in range(n_edges):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        c = int(rng.integers(1, 10))
        edges.append((int(u), int(v), c))
        d.add_edge(int(u), int(v), c)
    flow = d.max_flow(0, n - 1)
    assert flow == _brute_min_cut(n, edges, 0, n - 1)


@pytest.mark.parametrize("seed", range(8))
def test_min_cut_source_side_is_valid_cut(seed):
    """The residual-reachable set must form a cut whose capacity == flow."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 9))
    edges = []
    d = Dinic(n)
    for _ in range(int(rng.integers(5, 20))):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        c = int(rng.integers(1, 8))
        edges.append((int(u), int(v), c))
        d.add_edge(int(u), int(v), c)
    flow = d.max_flow(0, n - 1)
    side = set(d.min_cut_source_side(0))
    assert 0 in side and (n - 1) not in side or flow == 0
    cap = sum(c for (u, v, c) in edges if u in side and v not in side)
    assert cap == flow
