"""Property tests of the theory the algorithms rest on (DESIGN.md §2).

These do not test code paths so much as the *lemmas*: if one of them
were false, the fast algorithms would be quietly wrong on some input,
so each is checked against exhaustive enumeration on random graphs.
"""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_dds
from repro.core.density import q_factor, rho, skewed
from repro.core.exact import solve_ratio
from repro.core.xycore import max_xy_core, xy_core
from repro.graph.local import EdgeArrays


def _random_tiny(seed, n_hi=8, m_hi=20):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_hi))
    m = int(rng.integers(2, m_hi))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())


def _all_pairs(e):
    s_all = np.unique(e.src).tolist()
    t_all = np.unique(e.dst).tolist()
    for ks in range(1, len(s_all) + 1):
        for S in itertools.combinations(s_all, ks):
            for kt in range(1, len(t_all) + 1):
                for T in itertools.combinations(t_all, kt):
                    yield np.array(S), np.array(T)


@pytest.mark.parametrize("seed", range(10))
def test_dc_lemma(seed):
    """After solving ratio a to its argmax (S,T) with c=|S|/|T|, no pair
    with true ratio in [min(a,c), max(a,c)] is denser than (S,T)."""
    e = _random_tiny(seed)
    i, j = (2, 1) if seed % 2 else (1, 2)
    sol = solve_ratio(e, i, j, Fraction(0))
    assert sol is not None
    a = Fraction(i, j)
    c = sol.ratio
    lo, hi = min(a, c), max(a, c)
    settled_rho2 = sol.as_result().rho2
    for S, T in _all_pairs(e):
        r = Fraction(len(S), len(T))
        if lo <= r <= hi:
            m = e.edges_between(S, T)
            assert Fraction(m * m, len(S) * len(T)) <= settled_rho2


@pytest.mark.parametrize("seed", range(10))
def test_width_lemma(seed):
    """If F(a) <= g, any pair with q(a, ratio) <= rho_best/g has
    rho <= rho_best — the radius-settling rule of Core-Exact."""
    e = _random_tiny(seed + 40)
    i, j = 1, 1
    a = 1.0
    # exact F(a)
    sol = solve_ratio(e, i, j, Fraction(0))
    f_a = float(sol.skewed2) ** 0.5
    rho_best = f_a * 1.3  # pretend the incumbent is 30% above F(a)
    for S, T in _all_pairs(e):
        r = len(S) / len(T)
        if q_factor(a, r) <= rho_best / f_a:
            m = e.edges_between(S, T)
            assert rho(m, len(S), len(T)) <= rho_best + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_rho_equals_skewed_times_q(seed):
    """The identity rho = rho_a * q(a, own_ratio) for every pair."""
    e = _random_tiny(seed + 80)
    for S, T in itertools.islice(_all_pairs(e), 50):
        m = e.edges_between(S, T)
        for i, j in [(1, 1), (2, 3)]:
            lhs = rho(m, len(S), len(T))
            rhs = skewed(m, len(S), len(T), i, j) * q_factor(
                i / j, len(S) / len(T)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_dds_contained_in_its_core(seed):
    """Containment lemma: the DDS lies in the [⌈ρ/(2√a)⌉,⌈ρ√a/2⌉]-core."""
    from math import ceil, sqrt

    e = _random_tiny(seed + 120)
    opt = brute_force_dds(e)
    if opt.edges_st == 0:
        return
    a = len(opt.S) / len(opt.T)
    x = max(1, ceil(opt.rho / (2 * sqrt(a)) - 1e-9))
    y = max(1, ceil(opt.rho * sqrt(a) / 2 - 1e-9))
    core = xy_core(e, x, y)
    assert set(opt.S.tolist()) <= set(core.src.tolist())
    assert set(opt.T.tolist()) <= set(core.dst.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_max_xy_core_is_2_approximation(seed):
    """sqrt(max xy) >= rho_opt / 2 — the Core-Approx guarantee."""
    e = _random_tiny(seed + 160)
    opt = brute_force_dds(e)
    best = max_xy_core(e)
    assert (best.x * best.y) ** 0.5 >= opt.rho / 2 - 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_core_density_lower_bound_lemma(seed):
    """rho([x,y]-core) >= sqrt(xy) for every nonempty core."""
    e = _random_tiny(seed + 200, n_hi=10, m_hi=30)
    for x in range(1, 4):
        for y in range(1, 4):
            c = xy_core(e, x, y)
            if c.m:
                assert rho(c.m, c.n_src, c.n_dst) >= (x * y) ** 0.5 - 1e-9
