"""Gaussian quadrature rules (Hermite, generalized Laguerre, Legendre)
and a generic integration driver.

Nodes are located without any eigensolver: a sign-change scan of the
normalized weighted polynomial brackets every root, and a vectorized
safeguarded bisection/Newton hybrid polishes them to machine precision.
Weights come from the Christoffel identity

    w_k = 1 / sum_{j<K} p_j(x_k)^2

evaluated through the bounded normalized functions, which gives both the
ordinary weights (in log space, since extreme Hermite/Laguerre weights
fall below the double range for very large rules) and the "modified"
weights w_k / w(x_k) used to integrate functions that keep their
exponential decay in the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrandError, QuadratureError
from .special import (
    _hermite_engine,
    _laguerre_engine,
    hermite_function_table,
    laguerre_function_table,
    legendre_p,
)

__all__ = [
    "MAX_NODES",
    "QuadratureRule",
    "gauss_hermite",
    "gauss_laguerre",
    "gauss_legendre",
    "integrate",
]

MAX_NODES = 512

GAUSS_HERMITE = "gauss-hermite"
GAUSS_LAGUERRE = "gauss-laguerre"
GAUSS_LEGENDRE = "gauss-legendre"

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable Gaussian rule.

    ``weights`` integrate against the family weight function; they are
    exp(``log_weights``) and can round to subnormal/zero at the extreme
    nodes of very large Hermite/Laguerre rules (the log form is exact).
    ``modified_weights`` are w_k / weightfn(x_k), for integrands that
    already contain the exponential decay; they are O(node spacing) for
    every supported rule size.
    """

    family: str
    count: int
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    modified_weights: np.ndarray
    alpha: float | None = None
    interval: tuple[float, float] | None = None

    @property
    def exactness_degree(self) -> int:
        return 2 * self.count - 1

    @property
    def total_mass(self) -> float:
        """Integral of the weight function: sqrt(pi), Gamma(alpha+1), b-a."""
        if self.family == GAUSS_HERMITE:
            return math.sqrt(math.pi)
        if self.family == GAUSS_LAGUERRE:
            from .special import log_gamma

            return math.exp(log_gamma(self.alpha + 1.0))
        a, b = self.interval
        return b - a


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _check_count(count):
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise QuadratureError(f"node count must be a positive integer, got {count!r}")
    if count > MAX_NODES:
        raise QuadratureError(f"node count {count} exceeds the supported maximum {MAX_NODES}")
    return int(count)


# ---------------------------------------------------------------------------
# root machinery
# ---------------------------------------------------------------------------


def _bracket_by_scan(fn, lo, hi, n_roots, m0):
    """Bracket n_roots sign changes of fn on (lo, hi) by grid refinement."""
    m = m0
    for _ in range(8):
        grid = np.linspace(lo, hi, m)
        vals = fn(grid)
        if np.any(vals == 0.0):
            # nudge the grid rather than handling exact zeros
            grid = np.linspace(lo + 0.25 * (hi - lo) / m, hi, m)
            vals = fn(grid)
        flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if flips.size == n_roots:
            return grid[flips], grid[flips + 1]
        m *= 2
    raise RuntimeError(
        f"failed to bracket {n_roots} roots on ({lo}, {hi}); found {flips.size}"
    )


def _polish(fn_df, lo, hi, f_lo_sign):
    """Vectorized safeguarded Newton within brackets.

    fn_df(x) returns (f, df) up to a common per-point positive scale, so
    the Newton step f/df and the sign of f are exact even when the true
    values over/underflow.
    """
    x = 0.5 * (lo + hi)
    for _ in range(120):
        f, df = fn_df(x)
        same_as_lo = np.sign(f) == f_lo_sign
        lo = np.where(same_as_lo, x, lo)
        hi = np.where(same_as_lo, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - f / df
        # an iterate on a bracket end is kept: once a step lands on the
        # root, that end is the root and the next iterate repeats it
        bad = ~np.isfinite(xn) | (xn < lo) | (xn > hi)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        done = np.abs(xn - x) <= 8.0 * _EPS * np.maximum(1.0, np.abs(xn))
        x = xn
        if np.all(done):
            break
    return x


# ---------------------------------------------------------------------------
# Gauss-Hermite
# ---------------------------------------------------------------------------


def gauss_hermite(count: int) -> QuadratureRule:
    """Gaussian rule for integral f(x) exp(-x^2) dx over the real line.

    Nodes are the roots of H_count; weights follow the Christoffel
    identity through the normalized Hermite functions.
    """
    count = _check_count(count)
    if count == 1:
        nodes = np.array([0.0])
    else:
        n_pos = count // 2
        upper = math.sqrt(2.0 * count + 1.0) + 0.5

        def h_top(x):
            v, _, _ = _hermite_engine(count, x)
            return v

        def h_pair(x):
            v, vm1, _ = _hermite_engine(count, x)
            # h_K' = sqrt(2K) h_{K-1} - x h_K, same hidden scale
            return v, math.sqrt(2.0 * count) * vm1 - x * v

        lo, hi = _bracket_by_scan(h_top, upper * 1e-9, upper, n_pos, 4 * count + 64)
        f_lo_sign = np.sign(h_top(lo))
        pos = _polish(h_pair, lo, hi, f_lo_sign)
        pos.sort()
        if count % 2:
            nodes = np.concatenate([-pos[::-1], [0.0], pos])
        else:
            nodes = np.concatenate([-pos[::-1], pos])

    table = hermite_function_table(count - 1, nodes)
    christoffel = np.sum(table * table, axis=0)
    modified = 1.0 / christoffel
    log_w = -nodes * nodes - np.log(christoffel)
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return QuadratureRule(
        family=GAUSS_HERMITE,
        count=count,
        nodes=_freeze(nodes),
        weights=_freeze(weights),
        log_weights=_freeze(log_w),
        modified_weights=_freeze(modified),
    )


# ---------------------------------------------------------------------------
# Gauss-Laguerre
# ---------------------------------------------------------------------------


def gauss_laguerre(count: int, alpha: float) -> QuadratureRule:
    """Gaussian rule for integral f(rho) rho^alpha exp(-rho) drho on (0, inf).

    Root scanning runs in s = sqrt(rho), which spreads the near-origin
    clustering of Laguerre zeros into nearly uniform spacing; polishing
    runs in rho with the normalized-function derivative identity.
    """
    count = _check_count(count)
    alpha = float(alpha)
    if not alpha > -1.0:
        raise QuadratureError(f"Laguerre alpha must exceed -1, got {alpha}")

    upper = 2.0 * (2.0 * count + alpha + 1.0) + 2.0

    def lf_top_s(svals):
        v, _, _ = _laguerre_engine(count, alpha, svals * svals)
        return v

    def lf_pair_rho(rho):
        v, vm1, _ = _laguerre_engine(count, alpha, rho)
        # d lf_K/drho = lf_K (K/rho + alpha/(2 rho) - 1/2)
        #               - sqrt(K(K+alpha)) lf_{K-1} / rho
        df = v * (count / rho + 0.5 * alpha / rho - 0.5) - (
            math.sqrt(count * (count + alpha)) * vm1 / rho
        )
        return v, df

    s_hi = math.sqrt(upper)
    m0 = max(128, 2 * int(math.ceil(upper)))
    s_lo, s_hi_b = _bracket_by_scan(lf_top_s, s_hi * 1e-9, s_hi, count, m0)
    lo, hi = s_lo * s_lo, s_hi_b * s_hi_b
    f_lo_sign = np.sign(lf_top_s(s_lo))
    nodes = _polish(lf_pair_rho, lo, hi, f_lo_sign)
    nodes.sort()

    table = laguerre_function_table(count - 1, alpha, nodes)
    christoffel = np.sum(table * table, axis=0)
    modified = 1.0 / christoffel
    log_w = alpha * np.log(nodes) - nodes - np.log(christoffel)
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
    return QuadratureRule(
        family=GAUSS_LAGUERRE,
        count=count,
        nodes=_freeze(nodes),
        weights=_freeze(weights),
        log_weights=_freeze(log_w),
        modified_weights=_freeze(modified),
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------


def gauss_legendre(count: int, a: float, b: float) -> QuadratureRule:
    """Gaussian rule for integral f(x) dx on [a, b] (affinely mapped
    Legendre rule)."""
    count = _check_count(count)
    a, b = float(a), float(b)
    if not b > a:
        raise QuadratureError(f"interval must satisfy b > a, got [{a}, {b}]")

    if count == 1:
        ref = np.array([0.0])
    else:
        # classical cosine initial guess, then Newton
        i = np.arange(count, dtype=float)
        x = np.cos(math.pi * (i + 0.75) / (count + 0.5))
        for _ in range(100):
            pk, pkm1 = legendre_p(count, x), legendre_p(count - 1, x)
            dp = count * (pkm1 - x * pk) / (1.0 - x * x)
            dx = pk / dp
            x = x - dx
            if np.all(np.abs(dx) <= 4.0 * _EPS):
                break
        ref = np.sort(x)
        ref = 0.5 * (ref - ref[::-1])  # enforce exact symmetry
        if count % 2:
            ref[count // 2] = 0.0

    # Christoffel weights via orthonormal Legendre p_j = sqrt(j+1/2) P_j
    christoffel = np.zeros_like(ref)
    pkm1 = np.ones_like(ref)
    christoffel += 0.5 * pkm1 * pkm1
    if count > 1:
        pk = ref.copy()
        christoffel += 1.5 * pk * pk
        for k in range(2, count):
            pkm1, pk = pk, ((2 * k - 1) * ref * pk - (k - 1) * pkm1) / k
            christoffel += (k + 0.5) * pk * pk
    ref_w = 1.0 / christoffel

    half = 0.5 * (b - a)
    nodes = a + half * (ref + 1.0)
    weights = ref_w * half
    log_w = np.log(weights)
    return QuadratureRule(
        family=GAUSS_LEGENDRE,
        count=count,
        nodes=_freeze(nodes),
        weights=_freeze(weights),
        log_weights=_freeze(log_w),
        modified_weights=_freeze(weights),
        interval=(a, b),
    )


# ---------------------------------------------------------------------------
# integration driver
# ---------------------------------------------------------------------------


def integrate(rule: QuadratureRule, f) -> float:
    """Sum w_k f(x_k) with compensated (exact) summation.

    For the Hermite and Laguerre families, f must be the integrand with
    the weight function divided out: the result approximates
    integral f(x) exp(-x^2) dx resp. integral f(rho) rho^alpha exp(-rho) drho.
    A non-finite f at any node raises IntegrandError.
    """
    values = np.array([float(f(x)) for x in rule.nodes])
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = rule.nodes[bad][0]
        raise IntegrandError(f"integrand is not finite at node {where!r}")
    return math.fsum(values * rule.weights)
