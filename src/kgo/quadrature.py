"""Gaussian quadrature rules (Hermite, generalized Laguerre, Legendre)
and a generic integration driver.

Nodes are located without any eigensolver: a sign-change scan of the
normalized weighted polynomial brackets every Hermite and Laguerre root,
Bruns' inequality (Szego, Orthogonal Polynomials, Thm 6.21.2) brackets
the k-th largest Legendre root in closed form,

    arccos x_k in ((k - 1/2) pi, k pi) / (K + 1/2),

and one vectorized polish serves all three families.  It starts a scanned
root where the chord through the two scan values crosses zero (a Bruns
bracket at its midpoint), runs a safeguarded bisection/Newton hybrid in
double until every step is at most 1e-9 of its node, and ends with one
Newton step on np.longdouble points through the same recurrences.  With
80-bit long double (x86-64 Linux) a sampled Hermite or Laguerre node of
up to 512 points is within 4 ulp of its root, where the double recurrence
alone left the smallest Laguerre nodes up to 8,218 ulp off; where
np.longdouble is plain double the last step is one more double step.  A
cold rule costs 3-5 recurrence sweeps besides its scan, and no sweep for
its weights.  Symmetric rules polish only their positive roots (and the
root 0 of an odd rule) and mirror them.

Weights come from the Christoffel identity

    w_k = 1 / sum_{j<K} p_j(x_k)^2

in its Christoffel-Darboux closed form at a root, from the slope that the
last long-double step evaluates: the sum is h_K'^2 / 2 for the normalized
Hermite functions and rho lf_K'^2 for the normalized Laguerre functions,
and for Legendre

    w_k = 2 (1 - x_k^2) / ((1 - x_k^2) P_K'(x_k))^2,

with the root in long double.  Each slope is taken so that its derivative
vanishes at a root, so its value one Newton step away is its value at the
root to second order.  This gives both the ordinary weights (in log space,
since extreme Hermite/Laguerre weights fall below the double range for
very large rules) and the "modified" weights w_k / w(x_k) used to
integrate functions that keep their exponential decay in the integrand.
The Hermite and Laguerre weights carry the double rounding of the log
offset that a rule's table starts each node's column from, so that it
cancels from the sums over the table (:func:`_christoffel_arrays`).

A Hermite or Laguerre rule keeps its table of normalized functions at the
nodes, count^2 doubles (2 MB at 512 nodes), and the operators that work
at the rule's nodes (Gram matrices, projections, the closure driver and
the Green's coefficient check) slice its first rows through _node_table
instead of building them again.

Nodes and weights depend only on (count, alpha), so each process memoizes
them: _hermite_nodes and _laguerre_nodes are functools.lru_cache'd at the
default maxsize of 128 entries, at most 1.5 MB of nodes, log weights and
modified weights each.  They hand out read-only views, which numpy refuses
to make writeable again, so no rule can alter the arrays later rules share.
Every gauss_hermite and gauss_laguerre call still checks its arguments and
assembles its own rule and table; the tables, count^2 doubles each, are not
memoized.

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
    _hermite_offset,
    _laguerre_engine,
    _laguerre_offset,
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
    its normalized functions of orders 0..count-1 at its nodes (count^2
    doubles, 2 MB at 512 nodes); every operator at the rule's nodes slices
    its rows.  It is not part of the signature,
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

    fn(x) returns the mantissas v and per-point log offsets s of its values
    v exp(s), as the engines do.  Returns the lower and upper bracket ends,
    the sign of fn at the lower ends and the secant start in each bracket
    (a, b): the point a + (b - a) f(a) / (f(a) - f(b)) where the chord
    through the two scan values crosses zero, with
    f(a) / f(b) = (v_a / v_b) exp(s_a - s_b).  A grid that shows another
    number of sign changes (a root pair between two points, or fn exactly 0
    at a point) raises QuadratureError.
    """
    grid = np.linspace(lo, hi, m)
    v, s = fn(grid)
    signs = np.sign(v)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size != n_roots:
        raise QuadratureError(f"scan found {flips.size} of {n_roots} roots on ({lo}, {hi}) with {m} points")
    # |f| at both ends over the larger of their scales, so neither overflows
    a, b = flips, flips + 1
    top = np.maximum(s[a], s[b])
    fa, fb = np.abs(v[a]) * np.exp(s[a] - top), np.abs(v[b]) * np.exp(s[b] - top)
    return grid[a], grid[b], signs[a], grid[a] + (grid[b] - grid[a]) * (fa / (fa + fb))


def _polish(fn_df, lo, hi, f_lo_sign, x):
    """Roots in the brackets (lo, hi), ascending, from the start points x,
    as np.longdouble, and log |df| at each.

    fn_df(x) returns (f, df, s): a function f and a slope df, both times
    exp(-s) per point, so the Newton step f/df and the sign of f are exact
    even when the true values over/underflow; it must accept np.longdouble
    points.  Each family picks df = f' times a positive factor such that
    df' = 0 wherever f = 0, so one evaluation next to a root gives df at
    the root to second order, and with it the weights in closed form.

    A safeguarded Newton loop in double runs until every step is at most
    1e-9 |x|; what error is left is then far below that step and near the
    double recurrence's rounding noise.  One Newton step on long-double
    points takes the roots within a few double ulp (where np.longdouble is
    plain double it is one more double step).  It is refused only where it
    leaves (lo, hi): the loop's own brackets close around the noisy double
    root, not around the root.

    The long-double points are the double ones rounded to a multiple of the
    long-double spacing at the top bracket end.  Then every c_k - rho of the
    Laguerre recurrence (c_k = 2k + 1 + alpha) is exact where rho < c_k;
    otherwise it drops the low bits of a small rho, the rounding that puts
    the smallest Laguerre nodes thousands of ulp off in double.  In 80-bit
    long double the rounding moves no node above 1/2048 of the top end,
    which is every Hermite and Legendre node.
    """
    a, b = lo, hi
    for _ in range(120):
        f, df, _ = fn_df(x)
        same_as_lo = np.sign(f) == f_lo_sign
        a = np.where(same_as_lo, x, a)
        b = np.where(same_as_lo, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        xn = x - step
        # a step this small is taken even where rounding noise has closed the
        # bracket around it; a larger one must stay strictly inside
        small = np.abs(step) <= 1e-9 * np.abs(x)
        x = np.where(small | ((xn > a) & (xn < b)), xn, 0.5 * (a + b))
        if np.all(small):
            break
    quantum = np.spacing(np.longdouble(np.max(hi, initial=0.0)))
    wide = (np.round(x / quantum) * quantum).astype(np.longdouble)
    f, df, s = fn_df(wide)
    with np.errstate(divide="ignore", invalid="ignore"):
        final = wide - f / df
        log_d = np.log(np.abs(df)) + s
    roots = np.where((final > lo) & (final < hi), final, x)
    order = np.argsort(roots)
    return roots[order], log_d[order]


def _symmetric_roots(fn_df, lo, hi, f_lo_sign, x, odd):
    """:func:`_polish` for an even or odd f from brackets of its positive
    roots, mirrored to every root.  The root 0 of an odd f, an exact 0 of
    its recurrence, joins the polish at 0 for its slope."""
    if odd:
        t = lo[0] if lo.size else 1.0
        lo, hi, f_lo_sign, x = np.r_[-t, lo], np.r_[t, hi], np.r_[1.0, f_lo_sign], np.r_[0.0, x]
    roots, log_d = _polish(fn_df, lo, hi, f_lo_sign, x)
    pos = slice(1 if odd else 0, None)
    return np.concatenate([-roots[pos][::-1], roots]), np.concatenate([log_d[pos][::-1], log_d])


def _rule(family, nodes, weights, log_weights, modified_weights, table=None, **fields):
    """The one place a QuadratureRule is assembled: every array read-only,
    and the table of normalized functions at the nodes, when there is one,
    kept for :func:`_node_table`."""
    arrays = map(_freeze, (nodes, weights, log_weights, modified_weights))
    rule = QuadratureRule(family, nodes.size, *arrays, **fields)
    if table is not None:
        object.__setattr__(rule, "_table", _freeze(table))
    return rule


def _christoffel_arrays(roots, log_weight, log_christoffel, offset):
    """Read-only nodes, log weights and modified weights, rounded to double,
    from the long-double roots, the log of the family weight function there
    and the log of the Christoffel sum sum_{j<K} p_j^2 of the normalized
    functions there, whose reciprocal is the modified weight.

    A rule's double table starts each column from offset(node), the log of
    its order-0 function, rounded to double: every entry of the column
    carries that rounding, up to 5e-14 relative at the outer nodes of a
    512-point rule.  The Christoffel sum carries it too, so that it cancels
    from every sum_k w_k t_m(x_k) t_n(x_k) over the table, as it did when
    the weights were the table's own column sums of squares.
    """
    nodes = roots.astype(float)
    rounding = offset(nodes) - offset(nodes.astype(np.longdouble))
    log_christoffel = log_christoffel + 2.0 * rounding
    arrays = (nodes, log_weight - log_christoffel, np.exp(-log_christoffel))
    return tuple(_freeze(arr).view() for arr in arrays)


def _christoffel_rule(family, arrays, table, alpha=None):
    """Rule from the memoized :func:`_christoffel_arrays` and the table of
    normalized functions of orders 0..count-1 at the nodes."""
    nodes, log_w, modified = arrays
    # beyond the double range a weight rounds to 0 or inf; log_w stays exact
    with np.errstate(under="ignore", over="ignore"):
        weights = np.exp(log_w)
    return _rule(family, nodes, weights, log_w, modified, table, alpha=alpha)


def _node_table(rule: QuadratureRule, n_max: int) -> np.ndarray:
    """Normalized functions of orders 0..n_max at a Hermite or Laguerre
    rule's nodes, shape (n_max + 1, count): a read-only view of the rule's
    table when it has those rows, else a fresh table.  Both are
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
    """Read-only roots of H_count, ascending, with their log weights and
    modified weights (memoized per process)."""
    upper = math.sqrt(2.0 * count + 1.0) + 0.5

    def h_pair(x):
        v, vm1, s = _hermite_engine(count, x)
        # h_K' = sqrt(2K) h_{K-1} - x h_K, in x's dtype; h_K'' = (x^2 - 2K - 1) h_K is 0 at a root
        return v, np.sqrt(x.dtype.type(2 * count)) * vm1 - x * v, s

    brackets = _bracket_by_scan(
        lambda x: _hermite_engine(count, x)[::2], upper * 1e-9, upper, count // 2, 4 * count + 64
    )
    x, log_d = _symmetric_roots(h_pair, *brackets, count % 2)
    # sum_{j<K} h_j^2 = h_K'^2 / 2 at a root of h_K
    return _christoffel_arrays(x, -x * x, 2.0 * log_d - np.log(np.longdouble(2.0)), _hermite_offset)


def gauss_hermite(count: int) -> QuadratureRule:
    """Gaussian rule for integral f(x) exp(-x^2) dx over the real line.

    Nodes are the roots of H_count; weights follow the Christoffel
    identity through the normalized Hermite functions.
    """
    count = _check_count(count)
    arrays = _hermite_nodes(count)
    return _christoffel_rule(GAUSS_HERMITE, arrays, hermite_function_table(count - 1, arrays[0]))


# ---------------------------------------------------------------------------
# Gauss-Laguerre
# ---------------------------------------------------------------------------


@functools.lru_cache
def _laguerre_nodes(count, alpha):
    """Read-only roots of L_count^(alpha), ascending, with their log weights
    and modified weights (memoized per process).

    Root scanning runs in s = sqrt(rho), which spreads the near-origin
    clustering of Laguerre zeros into nearly uniform spacing; polishing
    runs in rho with the normalized-function derivative identity.
    """
    upper = 2.0 * (2.0 * count + alpha + 1.0) + 2.0

    def lf_pair_rho(rho):
        v, vm1, s = _laguerre_engine(count, alpha, rho)
        # lf_K and rho lf_K' = lf_K (K + alpha/2 - rho/2) - sqrt(K(K+alpha)) lf_{K-1},
        # both times rho, in rho's dtype; by the Laguerre function equation
        # (rho lf_K')' = (alpha^2/(4 rho) + rho/4 - K - (alpha+1)/2) lf_K
        k = rho.dtype.type(count)
        return rho * v, v * (k + 0.5 * alpha - 0.5 * rho) - np.sqrt(k * (k + alpha)) * vm1, s

    s_hi = math.sqrt(upper)
    m0 = max(128, 2 * int(math.ceil(upper)))
    s_lo, s_hi_b, f_lo_sign, s_start = _bracket_by_scan(
        lambda s: _laguerre_engine(count, alpha, s * s)[::2], s_hi * 1e-9, s_hi, count, m0
    )
    rho, log_d = _polish(lf_pair_rho, s_lo * s_lo, s_hi_b * s_hi_b, f_lo_sign, s_start * s_start)
    # sum_{j<K} lf_j^2 = rho lf_K'^2 = (rho lf_K')^2 / rho at a root of lf_K
    return _christoffel_arrays(
        rho, alpha * np.log(rho) - rho, 2.0 * log_d - np.log(rho), functools.partial(_laguerre_offset, alpha)
    )


def gauss_laguerre(count: int, alpha: float) -> QuadratureRule:
    """Gaussian rule for integral f(rho) rho^alpha exp(-rho) drho on (0, inf).

    Nodes are the roots of L_count^(alpha); weights follow the Christoffel
    identity through the normalized Laguerre functions.
    """
    count = _check_count(count)
    alpha = float(alpha)
    if not -1.0 < alpha < math.inf:
        raise QuadratureError(f"Laguerre alpha must be finite and exceed -1, got {alpha}")
    arrays = _laguerre_nodes(count, alpha)
    table = laguerre_function_table(count - 1, alpha, arrays[0])
    return _christoffel_rule(GAUSS_LAGUERRE, arrays, table, alpha=alpha)


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
        return pk * (1.0 - x) * (1.0 + x), count * (pkm1 - x * pk), np.zeros_like(x)

    # Bruns brackets (module docstring) of the positive roots: k roots lie
    # above the lower end of the k-th, so P_K has the sign (-1)^k there
    k = np.arange(count // 2, 0, -1)
    lo, hi = np.cos(k * math.pi / (count + 0.5)), np.cos((k - 0.5) * math.pi / (count + 0.5))
    ref, log_d = _symmetric_roots(p_pair, lo, hi, (-1.0) ** k, 0.5 * (lo + hi), count % 2)
    # w = 2 (1 - x^2) / ((1 - x^2) P_K')^2 at the long-double root, where
    # ((1 - x^2) P_K')' = -K (K + 1) P_K
    ref_w = (2.0 * (1.0 - ref) * (1.0 + ref) / np.exp(2.0 * log_d)).astype(float)
    ref = ref.astype(float)

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
