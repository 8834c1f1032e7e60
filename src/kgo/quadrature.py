"""Gaussian quadrature rules (Hermite, generalized Laguerre, Legendre)
and a generic integration driver.

Nodes are located without any eigensolver: a sign-change scan of the
normalized weighted polynomial brackets every Hermite and Laguerre root,
Bruns' inequality (Szego, Orthogonal Polynomials, Thm 6.21.2) brackets
the k-th largest Legendre root in closed form,

    arccos x_k in ((k - 1/2) pi, k pi) / (K + 1/2),

and one vectorized safeguarded bisection/Newton hybrid polishes every
bracket to machine precision.  Symmetric rules polish only their
positive roots and mirror them.

Weights come from the Christoffel identity

    w_k = 1 / sum_{j<K} p_j(x_k)^2

evaluated through the bounded normalized functions, which gives both the
ordinary weights (in log space, since extreme Hermite/Laguerre weights
fall below the double range for very large rules) and the "modified"
weights w_k / w(x_k) used to integrate functions that keep their
exponential decay in the integrand.  Gauss-Legendre weights use the
closed form of the same identity,

    w_k = 2 (1 - x_k^2) / (K (P_{K-1}(x_k) - x_k P_K(x_k)))^2,

with P_K and P_{K-1} from one Legendre recurrence sweep.

A Hermite or Laguerre rule keeps its table of normalized functions at the
nodes, count^2 doubles (2 MB at 512 nodes), and the operators that work
at the rule's nodes (Gram matrices, projections, the closure driver and
the Green's coefficient check) slice its first rows through _node_table
instead of building them again.

Nodes depend only on (count, alpha), so each process memoizes them:
_hermite_nodes and _laguerre_nodes are functools.lru_cache'd at the default
maxsize of 128 entries, at most 512 KB of nodes each.  They hand out
read-only views, which numpy refuses to make writeable again, so no rule can
alter the nodes later rules share.  Every gauss_hermite and gauss_laguerre
call still checks its arguments and assembles its own rule, weights and
Christoffel table; the tables, count^2 doubles each, are not memoized.

Bad arguments raise QuadratureError: a node count outside [1, MAX_NODES],
a Laguerre alpha that is not finite or not above -1, and a Legendre
interval that is not finite with a < b.  So does a Hermite or Laguerre
scan grid that brackets another number of roots than the rule has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrandError, QuadratureError
from .special import (
    _check_degree,
    _hermite_engine,
    _laguerre_engine,
    _legendre_pair,
    hermite_function_table,
    laguerre_function_table,
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
    nodes of very large Hermite/Laguerre rules, or to inf for Laguerre
    alpha >= about 171, where Gamma(alpha + 1) exceeds the double range
    (the log form is exact).
    ``modified_weights`` are w_k / weightfn(x_k), for integrands that
    already contain the exponential decay; they are O(node spacing) for
    every supported rule size.

    A Hermite or Laguerre rule built here also keeps the read-only table of
    its normalized functions of orders 0..count-1 at its nodes, which its
    weights came from (count^2 doubles, 2 MB at 512 nodes); every operator
    at the rule's nodes slices its rows.  It is not part of the signature,
    the repr or equality.
    """

    family: str
    count: int
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    modified_weights: np.ndarray
    alpha: float | None = None
    interval: tuple[float, float] | None = None
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def exactness_degree(self) -> int:
        return 2 * self.count - 1

    @property
    def total_mass(self) -> float:
        """Integral of the weight function: sqrt(pi), Gamma(alpha+1), b-a."""
        if self.family == GAUSS_HERMITE:
            return math.sqrt(math.pi)
        if self.family == GAUSS_LAGUERRE:
            return math.gamma(self.alpha + 1.0)
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


def _bracket_by_scan(fn, lo, hi, n_roots, m):
    """Bracket n_roots sign changes of fn on an m-point grid over [lo, hi].

    Returns the lower and upper bracket ends and the sign of fn at the
    lower ends.  A grid that shows another number of sign changes (a root
    pair between two points, or fn exactly 0 at a point) raises
    QuadratureError.
    """
    grid = np.linspace(lo, hi, m)
    signs = np.sign(fn(grid))
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size != n_roots:
        raise QuadratureError(f"scan found {flips.size} of {n_roots} roots on ({lo}, {hi}) with {m} points")
    return grid[flips], grid[flips + 1], signs[flips]


def _polish(fn_df, lo, hi, f_lo_sign):
    """Vectorized safeguarded Newton within brackets.

    fn_df(x) returns (f, df) up to a common per-point positive scale, so
    the Newton step f/df and the sign of f are exact even when the true
    values over/underflow.  Returns the polished roots in ascending order.
    """
    x = 0.5 * (lo + hi)
    for _ in range(120):
        f, df = fn_df(x)
        same_as_lo = np.sign(f) == f_lo_sign
        lo = np.where(same_as_lo, x, lo)
        hi = np.where(same_as_lo, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - f / df
        # keep an iterate strictly inside the bracket, or one that repeats x
        # (a step that landed on the root made it a bracket end); a step
        # onto the far end at rounding-noise f would flip x between the ends
        inside = ((xn > lo) & (xn < hi)) | (xn == x)
        xn = np.where(inside, xn, 0.5 * (lo + hi))
        done = np.abs(xn - x) <= 8.0 * _EPS * np.maximum(1.0, np.abs(xn))
        x = xn
        if np.all(done):
            break
    return np.sort(x)


def _rule(family, nodes, weights, log_weights, modified_weights, table=None, **fields):
    """The one place a QuadratureRule is assembled: every array read-only,
    and the Christoffel table, when there is one, kept for :func:`_node_table`."""
    arrays = map(_freeze, (nodes, weights, log_weights, modified_weights))
    rule = QuadratureRule(family, nodes.size, *arrays, **fields)
    if table is not None:
        object.__setattr__(rule, "_table", _freeze(table))
    return rule


def _christoffel_rule(family, nodes, table, log_weight, alpha=None):
    """Rule from the Christoffel identity, given the table of normalized
    weighted functions of orders 0..count-1 at the nodes and the log of the
    family weight function there.  The modified weights are 1 / (column sum
    of squares); the weights are those times the weight function."""
    christoffel = np.sum(table * table, axis=0)
    log_w = log_weight - np.log(christoffel)
    # beyond the double range a weight rounds to 0 or inf; log_w stays exact
    with np.errstate(under="ignore", over="ignore"):
        weights = np.exp(log_w)
    return _rule(family, nodes, weights, log_w, 1.0 / christoffel, table, alpha=alpha)


def _node_table(rule: QuadratureRule, n_max: int) -> np.ndarray:
    """Normalized functions of orders 0..n_max at a Hermite or Laguerre
    rule's nodes, shape (n_max + 1, count): a read-only view of the rule's
    Christoffel table when it has those rows, else a fresh table.  Both are
    the same bits, because a table's rows do not depend on its size."""
    _check_degree(n_max)
    if rule._table is not None and n_max < rule.count:
        return rule._table[: n_max + 1]
    if rule.family == GAUSS_HERMITE:
        return hermite_function_table(n_max, rule.nodes)
    return laguerre_function_table(n_max, rule.alpha, rule.nodes)


# ---------------------------------------------------------------------------
# Gauss-Hermite
# ---------------------------------------------------------------------------


@functools.lru_cache
def _hermite_nodes(count):
    """Read-only roots of H_count, ascending (memoized per process)."""
    upper = math.sqrt(2.0 * count + 1.0) + 0.5

    def h_pair(x):
        v, vm1, _ = _hermite_engine(count, x)
        # h_K' = sqrt(2K) h_{K-1} - x h_K, same hidden scale
        return v, math.sqrt(2.0 * count) * vm1 - x * v

    brackets = _bracket_by_scan(lambda x: h_pair(x)[0], upper * 1e-9, upper, count // 2, 4 * count + 64)
    pos = _polish(h_pair, *brackets)
    nodes = np.concatenate([-pos[::-1], [0.0], pos] if count % 2 else [-pos[::-1], pos])
    return _freeze(nodes).view()


def gauss_hermite(count: int) -> QuadratureRule:
    """Gaussian rule for integral f(x) exp(-x^2) dx over the real line.

    Nodes are the roots of H_count; weights follow the Christoffel
    identity through the normalized Hermite functions.
    """
    count = _check_count(count)
    nodes = _hermite_nodes(count)
    return _christoffel_rule(GAUSS_HERMITE, nodes, hermite_function_table(count - 1, nodes), -nodes * nodes)


# ---------------------------------------------------------------------------
# Gauss-Laguerre
# ---------------------------------------------------------------------------


@functools.lru_cache
def _laguerre_nodes(count, alpha):
    """Read-only roots of L_count^(alpha), ascending (memoized per process).

    Root scanning runs in s = sqrt(rho), which spreads the near-origin
    clustering of Laguerre zeros into nearly uniform spacing; polishing
    runs in rho with the normalized-function derivative identity.
    """
    upper = 2.0 * (2.0 * count + alpha + 1.0) + 2.0

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
    s_lo, s_hi_b, f_lo_sign = _bracket_by_scan(lambda s: lf_pair_rho(s * s)[0], s_hi * 1e-9, s_hi, count, m0)
    return _freeze(_polish(lf_pair_rho, s_lo * s_lo, s_hi_b * s_hi_b, f_lo_sign)).view()


def gauss_laguerre(count: int, alpha: float) -> QuadratureRule:
    """Gaussian rule for integral f(rho) rho^alpha exp(-rho) drho on (0, inf).

    Nodes are the roots of L_count^(alpha); weights follow the Christoffel
    identity through the normalized Laguerre functions.
    """
    count = _check_count(count)
    alpha = float(alpha)
    if not -1.0 < alpha < math.inf:
        raise QuadratureError(f"Laguerre alpha must be finite and exceed -1, got {alpha}")
    nodes = _laguerre_nodes(count, alpha)
    table = laguerre_function_table(count - 1, alpha, nodes)
    return _christoffel_rule(GAUSS_LAGUERRE, nodes, table, alpha * np.log(nodes) - nodes, alpha=alpha)


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------


def gauss_legendre(count: int, a: float, b: float) -> QuadratureRule:
    """Gaussian rule for integral f(x) dx on [a, b] (affinely mapped
    Legendre rule); any finite a < b, up to the whole double range."""
    count = _check_count(count)
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise QuadratureError(f"interval must be finite with b > a, got [{a}, {b}]")

    def p_pair(x):
        pk, pkm1 = _legendre_pair(count, x)
        # P_K and P_K' = K (P_{K-1} - x P_K) / (1 - x^2), both times
        # 1 - x^2 > 0; (1 - x)(1 + x) is exact near +-1, where 1 - x*x cancels
        return pk * (1.0 - x) * (1.0 + x), count * (pkm1 - x * pk)

    # Bruns brackets (module docstring) of the positive roots: k roots lie
    # above the lower end of the k-th, so P_K has the sign (-1)^k there
    k = np.arange(count // 2, 0, -1)
    lo, hi = np.cos(k * math.pi / (count + 0.5)), np.cos((k - 0.5) * math.pi / (count + 0.5))
    pos = _polish(p_pair, lo, hi, (-1.0) ** k)
    ref = np.concatenate([-pos[::-1], [0.0], pos] if count % 2 else [-pos[::-1], pos])
    ref_w = 2.0 * (1.0 - ref) * (1.0 + ref) / p_pair(ref)[1] ** 2

    # midpoint and half-width in halves, so b - a cannot overflow
    half = 0.5 * b - 0.5 * a
    nodes = (0.5 * a + 0.5 * b) + half * ref
    weights = ref_w * half
    return _rule(GAUSS_LEGENDRE, nodes, weights, np.log(weights), weights, interval=(a, b))


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
