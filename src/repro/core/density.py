"""Exact density arithmetic.

Kannan–Vinay density ρ(S,T)=|E(S,T)|/sqrt(|S||T|) is irrational, but
its square is rational with denominator ≤ n², and for a fixed ratio
``a = i/j`` the skewed density

    rho_a(S,T) = 2*sqrt(i*j)*|E| / (j*|S| + i*|T|)

also has a rational square. All "is this pair better" comparisons are
therefore done on exact Fractions, and the flow solver runs on the
rational level ``ρ_a/(2*sqrt(i*j))`` in integers. Floats appear only for
reporting and in the ratio-space search (``candidate_in``, ``_widen_factor``).
"""
from __future__ import annotations

from fractions import Fraction
from math import sqrt

import numpy as np

from repro.graph.local import EdgeArrays


def rho(m: int, n_s: int, n_t: int) -> float:
    """ρ = m / sqrt(n_s·n_t); 0 for an empty side."""
    if m == 0 or n_s == 0 or n_t == 0:
        return 0.0
    return m / sqrt(n_s * n_t)


def rho2_frac(m: int, n_s: int, n_t: int) -> Fraction:
    """Exact ρ² as a Fraction."""
    if m == 0 or n_s == 0 or n_t == 0:
        return Fraction(0)
    return Fraction(m * m, n_s * n_t)


def skewed(m: int, n_s: int, n_t: int, i: int, j: int) -> float:
    """ρ_a for ratio a=i/j — equals ρ when n_s/n_t == i/j, else smaller."""
    if m == 0 or n_s == 0 or n_t == 0:
        return 0.0
    return 2.0 * sqrt(i * j) * m / (j * n_s + i * n_t)


def skewed2_frac(m: int, n_s: int, n_t: int, i: int, j: int) -> Fraction:
    """Exact ρ_a² as a Fraction."""
    if m == 0 or n_s == 0 or n_t == 0:
        return Fraction(0)
    return Fraction(4 * i * j * m * m, (j * n_s + i * n_t) ** 2)


def q_factor(a: float, r: float) -> float:
    """q(a,r) = ½(sqrt(r/a) + sqrt(a/r)) ≥ 1 — the DC-lemma stretch factor."""
    x = sqrt(r / a)
    return 0.5 * (x + 1.0 / x)


def pair_density(e: EdgeArrays, s_set: np.ndarray, t_set: np.ndarray) -> float:
    """True ρ of an explicit (S,T) pair over an edge list."""
    return rho(e.edges_between(s_set, t_set), len(s_set), len(t_set))
