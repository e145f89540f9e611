"""Local algorithms answer the same on any integer labels and edge order.

The graph's labels go through an order-preserving injective map onto
negative values and values ≥ 2**40, and its edges are shuffled. Order is
kept so that every tie-break falls the same way; what changes is every
label's value, which no degree count may index by (``np.bincount`` of a
raw label fails or allocates ~2**40 counters).
"""
import numpy as np
import pytest

from repro.core.approx import bs_approx_np, core_approx, ks_approx
from repro.core.exact import core_exact, dc_exact, exact_dds
from repro.core.xycore import max_xy_core, xy_core, y_max_for_x
from repro.graph import generators as gen
from repro.graph.local import EdgeArrays

GRAPHS = {
    "er": lambda: gen.er_directed(20, 90, seed=5, self_loops=True),
    "pl": lambda: gen.powerlaw_directed(30, 140, seed=6),
    "planted": lambda: gen.planted_dds(30, 60, s_size=4, t_size=6, p_block=1.0, seed=7),
}


def _mapped(e: EdgeArrays, seed: int):
    """``(e through f, f)`` with f increasing, f < 0 or f ≥ 2**40, edges shuffled."""
    n = int(max(e.src.max(), e.dst.max())) + 1
    f = (np.arange(n, dtype=np.int64) - n // 2) * 2**41 + 2**40
    order = np.random.default_rng(seed).permutation(e.m)
    return EdgeArrays(f[e.src[order]], f[e.dst[order]]), f


def _pairs(e: EdgeArrays) -> set:
    return set(zip(e.src.tolist(), e.dst.tolist()))


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    e = GRAPHS[request.param]()
    return (e, *_mapped(e, seed=len(request.param)))


@pytest.mark.parametrize(
    "algo", [core_approx, bs_approx_np, ks_approx, exact_dds, dc_exact, core_exact]
)
def test_dds_answer_is_label_invariant(graph, algo):
    e, g, f = graph
    r, rg = algo(e), algo(g)
    assert rg.rho2 == r.rho2
    assert np.array_equal(np.sort(rg.S), np.sort(f[r.S]))
    assert np.array_equal(np.sort(rg.T), np.sort(f[r.T]))
    for key in ("cuts", "ratios_solved"):
        assert rg.stats.get(key) == r.stats.get(key)


def test_cores_are_label_invariant(graph):
    e, g, f = graph
    for x, y in [(1, 1), (2, 2), (3, 1), (1, 4)]:
        c = xy_core(e, x, y)
        assert _pairs(xy_core(g, x, y)) == _pairs(EdgeArrays(f[c.src], f[c.dst]))
    for x in (1, 2, 3):
        (y, c), (yg, cg) = y_max_for_x(e, x), y_max_for_x(g, x)
        assert yg == y
        assert _pairs(cg) == _pairs(EdgeArrays(f[c.src], f[c.dst]))
    b, bg = max_xy_core(e), max_xy_core(g)
    assert (bg.x, bg.y, bg.stats) == (b.x, b.y, b.stats)
    assert _pairs(bg.edges) == _pairs(EdgeArrays(f[b.edges.src], f[b.edges.dst]))
