"""The exact algorithms against brute force and against each other."""
from fractions import Fraction

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_dds
from repro.core.exact import (
    _level_below,
    _thresholds,
    _widen_factor,
    core_exact,
    dc_exact,
    exact_dds,
    solve_ratio,
)
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays, dedup, empty_edges


def _random_tiny(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 22))
    pairs = np.unique(
        np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], 1), axis=0
    )
    return EdgeArrays(pairs[:, 0].copy(), pairs[:, 1].copy())


@pytest.mark.parametrize("seed", range(25))
def test_exact_matches_bruteforce(seed):
    e = _random_tiny(seed)
    assert exact_dds(e).rho2 == brute_force_dds(e).rho2


@pytest.mark.parametrize("seed", range(25))
def test_dc_exact_matches_bruteforce(seed):
    e = _random_tiny(seed + 1000)
    assert dc_exact(e).rho2 == brute_force_dds(e).rho2


@pytest.mark.parametrize("seed", range(25))
def test_core_exact_matches_bruteforce(seed):
    e = _random_tiny(seed + 2000)
    assert core_exact(e).rho2 == brute_force_dds(e).rho2


def test_exact_algorithms_match_bruteforce_sweep():
    """300 seeded tiny graphs, self-loops kept: every exact answer is exact."""
    for seed in range(300):
        rng = np.random.default_rng(10_000 + seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 20))
        e = dedup(EdgeArrays(rng.integers(0, n, m), rng.integers(0, n, m)))
        opt = brute_force_dds(e).rho2
        for algo in (exact_dds, dc_exact, core_exact):
            assert algo(e).rho2 == opt, (seed, algo.__name__)


@pytest.mark.parametrize("delta", [0.0, 0.05, 0.2, 0.5])
def test_core_exact_delta_invariance(delta):
    """The probe depth δ trades work for pruning but never the answer."""
    e = gen.powerlaw_directed(40, 200, seed=12)
    assert core_exact(e, delta=delta).rho2 == dc_exact(e).rho2


def test_core_exact_rejects_bad_delta():
    with pytest.raises(ValueError):
        core_exact(_random_tiny(0), delta=1.0)


@pytest.mark.parametrize(
    "name,builder",
    [
        ("xs-er", lambda: gen.er_directed(40, 160, seed=11)),
        ("xs-pl", lambda: gen.powerlaw_directed(40, 200, seed=12)),
        ("xs-plant", lambda: gen.planted_dds(40, 80, s_size=6, t_size=8, seed=13)),
    ],
)
def test_all_exact_algorithms_agree(name, builder):
    e = builder()
    ex, dc, ce = exact_dds(e), dc_exact(e), core_exact(e)
    assert ex.rho2 == dc.rho2 == ce.rho2


def test_exact_on_planted_block_finds_it():
    e = gen.planted_dds(60, 60, s_size=5, t_size=6, p_block=1.0, seed=3)
    r = core_exact(e)
    assert set(np.arange(5)) <= set(r.S.tolist())
    assert r.rho >= (5 * 6) ** 0.5 - 1e-9


def test_exact_empty_graph():
    for algo in (exact_dds, dc_exact, core_exact):
        r = algo(empty_edges())
        assert r.rho == 0.0


def test_exact_single_edge():
    e = EdgeArrays(np.array([3]), np.array([7]))
    for algo in (exact_dds, dc_exact, core_exact):
        assert algo(e).rho == pytest.approx(1.0)


def test_dc_solves_far_fewer_ratios_than_exact():
    e = gen.er_directed(40, 160, seed=11)
    ex, dc = exact_dds(e), dc_exact(e)
    assert dc.stats["ratios_solved"] < ex.stats["ratios_solved"] / 3


def test_core_exact_solves_fewest_ratios():
    e = gen.er_directed(40, 160, seed=11)
    dc, ce = dc_exact(e), core_exact(e)
    assert ce.stats["ratios_solved"] < dc.stats["ratios_solved"]


def test_core_exact_stats_present():
    e = gen.powerlaw_directed(40, 200, seed=12)
    st = core_exact(e).stats
    for key in ("ratios_solved", "ratios_skipped_empty_core", "cuts", "approx_rho"):
        assert key in st


# --- subroutine-level tests -------------------------------------------------


def test_thresholds_are_exact_at_the_boundary():
    # at λ=2, a=1: every argmax vertex has degree >= 2 → x=y=2
    assert _thresholds(Fraction(2), 1, 1) == (2, 2)
    # just below an integer still rounds up to it, never past it
    assert _thresholds(2 - Fraction(1, 10**12), 1, 1) == (2, 2)
    assert _thresholds(Fraction(1, 10), 1, 1) == (1, 1)
    # x = ⌈λj⌉ for S, y = ⌈λi⌉ for T
    assert _thresholds(Fraction(7, 3), 1, 3) == (7, 3)


def test_level_below_never_exceeds_the_true_level():
    """4ij·λ² ≤ ρ², exactly when the root is rational, within 2⁻⁶⁴ otherwise."""
    assert _level_below(Fraction(16), 1, 1) == 2
    assert _level_below(Fraction(9, 4) * 4 * 6, 2, 3) == Fraction(3, 2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        rho2 = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**4)))
        i, j = (int(v) for v in rng.integers(1, 50, 2))
        lam = _level_below(rho2, i, j)
        assert 4 * i * j * lam**2 <= rho2
        assert 4 * i * j * (lam + Fraction(1, 2**64)) ** 2 > rho2


def test_widen_factor_monotone_and_safe():
    assert _widen_factor(1.0) == Fraction(1)
    b1, b2 = _widen_factor(1.1), _widen_factor(1.5)
    assert 1 < b1 < b2
    # q(a, a*beta) must stay <= rho_ratio (the safety direction)
    from repro.core.density import q_factor

    for rr in (1.01, 1.25, 2.0):
        beta = float(_widen_factor(rr))
        assert q_factor(1.0, beta) <= rr + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_solve_ratio_returns_fixed_ratio_optimum(seed):
    """Dinkelbach must find max skewed density for the given ratio."""
    import itertools

    from repro.core.density import skewed2_frac

    e = _random_tiny(seed + 300)
    i, j = 2, 1
    sol = solve_ratio(e, i, j, Fraction(0))
    # brute force F(a)
    s_all = np.unique(e.src).tolist()
    t_all = np.unique(e.dst).tolist()
    best = Fraction(0)
    for ks in range(1, len(s_all) + 1):
        for S in itertools.combinations(s_all, ks):
            for kt in range(1, len(t_all) + 1):
                for T in itertools.combinations(t_all, kt):
                    m = e.edges_between(np.array(S), np.array(T))
                    best = max(best, skewed2_frac(m, ks, kt, i, j))
    assert sol is not None
    assert sol.skewed2 == best
