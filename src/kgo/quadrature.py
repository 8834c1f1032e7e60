"""Gaussian quadrature rules (Hermite, generalized Laguerre, Legendre)
and a generic integration driver.

Nodes are located without any eigensolver: a sign-change scan of the
normalized weighted polynomial brackets every Hermite and Laguerre root,
Bruns' inequality (Szego, Orthogonal Polynomials, Thm 6.21.2) brackets
the k-th largest Legendre root in closed form,

    arccos x_k in ((k - 1/2) pi, k pi) / (K + 1/2),

and one vectorized polish serves all three families.  The scan already
returns each grid point's slope with its value (every engine returns
v_{K-1} with v_K), so a scanned root starts where the cubic through both
bracket ends' values and slopes crosses zero (a Bruns bracket at its
midpoint).  A safeguarded bisection/Newton hybrid then runs in double
until every step is at most 1e-4 of its bracket, and on np.longdouble
points through the same recurrences until every step is at most 1e-8 of
it: one long-double step for every rule of 1-512 nodes.  With 80-bit long
double (x86-64 Linux) every Hermite, Laguerre (alpha -0.5 to 64.5) and
Legendre node of up to 512 points is within 4 ulp of its root (the node
audit, tools/node_audit.py, checks every one), where the
double recurrence alone left the smallest Laguerre nodes up to 8,218 ulp
off; where np.longdouble is plain double the last steps are double steps.
A cold Hermite rule costs 3 recurrence sweeps, its scan included, a
Laguerre rule at most 4 and a Legendre rule at most 4, and none for
weights.  Symmetric rules polish only their positive roots (and the root 0
of an odd rule) and mirror them.

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

A rule keeps no table of its functions at the nodes.  Each operator that
works at a rule's nodes (Gram matrices, projections, the closure driver and
the Green's coefficient check) builds the n_max + 1 rows it reads through
_node_table, the same bits as the first rows of any taller table.

Nodes and weights depend only on (count, alpha), so each process memoizes
them: _hermite_nodes and _laguerre_nodes are functools.lru_cache'd at the
default maxsize of 128 entries, at most 1.5 MB of nodes, log weights and
modified weights each.  They hand out read-only views, which numpy refuses
to make writeable again, so no rule can alter the arrays later rules share.
Every gauss_hermite and gauss_laguerre call still checks its arguments and
assembles its own rule from them.

Bad arguments raise QuadratureError: a node count outside [1, MAX_NODES],
a Laguerre alpha that is not finite or not above -1, and a Legendre
interval that is not finite with a < b.  So does a Hermite or Laguerre
scan grid that brackets another number of roots than the rule has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


# Newton steps on the cubic that starts each scanned root.  From the chord
# point two reach the cubic's root at every rule measured (Hermite, and
# Laguerre at alpha -0.5 to 64.5, of 2 to 512 nodes); the other two are
# margin, at a cost of a few operations per root beside a sweep's K per root.
_CUBIC_STEPS = 4

# Stop tests of _polish, as fractions of each root's starting bracket hi - lo.
# Newton's error obeys e' ~ (f'' / 2 f') e^2, and f'' / f' is of the order of
# one over the root spacing, of which a scan or Bruns bracket is a fixed
# fraction: e' ~ e^2 / (hi - lo).  A double step of at most 1e-4 (hi - lo)
# leaves an error of about 1e-8 (hi - lo), so the long-double step that
# follows is at most 1e-8 (hi - lo) and leaves about 1e-16 (hi - lo).  Every
# bracket is at most about its root's magnitude (or holds the root 0), so that
# is within a double ulp of the root.  A long-double step larger than the
# second bound is not yet in that regime and is followed by another.
_DOUBLE_STOP = 1e-4
_WIDE_STOP = 1e-8


def _bracket_by_scan(fn_df, grid, n_roots):
    """Bracket n_roots sign changes of a function p on the ascending grid,
    and start each root where the cubic through both bracket ends' values
    and slopes crosses zero.

    fn_df(grid) returns (p, p', s), p and its derivative in the grid's
    variable, both times exp(-s) per point, as the engines give them: the
    slopes cost no sweep, since every engine returns v_{K-1} with v_K.
    Returns the lower and upper bracket ends, the sign of p at the lower
    ends and the start in each bracket (a, b): the root of the cubic
    Hermite interpolant through p and p' at a and b, from _CUBIC_STEPS
    Newton steps on the cubic from the point where the chord crosses zero
    (a step that would leave the bracket is not taken).  A grid that shows
    another number of sign changes (a root pair between two points, or p
    exactly 0 at a point) raises QuadratureError.
    """
    f, df, s = fn_df(grid)
    signs = np.sign(f)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size != n_roots:
        raise QuadratureError(
            f"scan found {flips.size} of {n_roots} roots on ({grid[0]}, {grid[-1]}) with {grid.size} points"
        )
    a, b = flips, flips + 1
    h = grid[b] - grid[a]
    # both ends over the larger of their scales, so neither overflows, with
    # slopes per unit of t = (x - grid[a]) / h
    top = np.maximum(s[a], s[b])
    at_a, at_b = np.exp(s[a] - top), np.exp(s[b] - top)
    pa, pb, da, db = f[a] * at_a, f[b] * at_b, h * df[a] * at_a, h * df[b] * at_b
    # p(t) = pa + t (da + t (c2 + t c3)), with p(1) = pb and p'(1) = db
    c2, c3 = 3.0 * (pb - pa) - 2.0 * da - db, 2.0 * (pa - pb) + da + db
    t = pa / (pa - pb)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_CUBIC_STEPS):
            tn = t - (pa + t * (da + t * (c2 + t * c3))) / (da + t * (2.0 * c2 + 3.0 * t * c3))
            t = np.where((tn >= 0.0) & (tn <= 1.0), tn, t)
    return grid[a], grid[b], signs[a], grid[a] + h * t


def _polish(fn_df, lo, hi, f_lo_sign, x):
    """Roots in the brackets (lo, hi), ascending, from the start points x,
    as np.longdouble, and log |df| at each.

    fn_df(x) returns (f, df, s): a function f and a slope df, both times
    exp(-s) per point, so the Newton step f/df and the sign of f are exact
    even when the true values over/underflow; it must accept np.longdouble
    points.  Each family picks df = f' times a positive factor such that
    df' = 0 wherever f = 0, so one evaluation next to a root gives df at
    the root to second order, and with it the weights in closed form.

    One safeguarded Newton loop measures every step against its bracket
    width hi - lo.  It runs in double until every step is at most
    _DOUBLE_STOP of it, then on np.longdouble points until every step is at
    most _WIDE_STOP of it (the derivation is at the constants): one
    long-double step for every rule of 1-512 nodes, which takes the roots
    within a few double ulp.  Where np.longdouble is plain double these are
    double steps, and the two dtypes compare equal, so a flag, not the
    dtype, marks the second stage.  A step that small is taken even where rounding noise
    has closed the loop's bracket around the noisy double root; a larger
    one must stay strictly inside the bracket, or the loop bisects.

    The long-double points are the double ones rounded to a multiple of the
    long-double spacing at the top bracket end.  Then every c_k - rho of the
    Laguerre recurrence (c_k = 2k + 1 + alpha) is exact where rho < c_k;
    otherwise it drops the low bits of a small rho, the rounding that puts
    the smallest Laguerre nodes thousands of ulp off in double.  In 80-bit
    long double the rounding moves no node above 1/2048 of the top end,
    which is every Hermite and Legendre node.
    """
    a, b = lo, hi
    stop, wide = _DOUBLE_STOP * (hi - lo), False
    for _ in range(120):
        f, df, s = fn_df(x)
        same_as_lo = np.sign(f) == f_lo_sign
        a = np.where(same_as_lo, x, a)
        b = np.where(same_as_lo, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        xn = x - step
        small = np.abs(step) <= stop
        x = np.where(small | ((xn > a) & (xn < b)), xn, 0.5 * (a + b))
        if not np.all(small):
            continue
        if wide:
            break
        quantum = np.spacing(np.longdouble(np.max(hi, initial=0.0)))
        x = (np.round(x / quantum) * quantum).astype(np.longdouble)
        stop, wide = _WIDE_STOP * (hi - lo), True
    with np.errstate(divide="ignore"):
        log_d = np.log(np.abs(df)) + s
    order = np.argsort(x)
    return x[order], log_d[order]


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


def _hermite_fn_df(count, x):
    """h_K and its slope h_K' = sqrt(2K) h_{K-1} - x h_K at x, in x's dtype,
    for _polish; h_K'' = (x^2 - 2K - 1) h_K is 0 at a root."""
    v, vm1, s = _hermite_engine(count, x)
    return v, np.sqrt(x.dtype.type(2 * count)) * vm1 - x * v, s


def _laguerre_fn_df(count, alpha, rho):
    """lf_K and rho lf_K' = lf_K (K + alpha/2 - rho/2) - sqrt(K(K+alpha)) lf_{K-1},
    both times rho, at rho, in rho's dtype, for _polish; by the Laguerre
    function equation (rho lf_K')' = (alpha^2/(4 rho) + rho/4 - K - (alpha+1)/2) lf_K."""
    v, vm1, s = _laguerre_engine(count, alpha, rho)
    k = rho.dtype.type(count)
    return rho * v, v * (k + 0.5 * alpha - 0.5 * rho) - np.sqrt(k * (k + alpha)) * vm1, s


def _laguerre_fn_df_s(count, alpha, s):
    """lf_K(s^2) and its slope in s, 2 s lf_K' = 2 (rho lf_K') / s, for the scan."""
    f, df, log_scale = _laguerre_fn_df(count, alpha, s * s)
    return f / (s * s), 2.0 * df / s, log_scale


def _legendre_fn_df(count, x):
    """P_K and P_K' = K (P_{K-1} - x P_K) / (1 - x^2), both times 1 - x^2 > 0,
    for _polish; (1 - x)(1 + x) is exact near +-1, where 1 - x*x cancels,
    and ((1 - x^2) P_K')' = -K (K + 1) P_K."""
    pk, pkm1 = _legendre_pair(count, x)
    return pk * (1.0 - x) * (1.0 + x), count * (pkm1 - x * pk), np.zeros_like(x)


def _rule(family, nodes, weights, log_weights, modified_weights, **fields):
    """The one place a QuadratureRule is assembled, every array read-only."""
    arrays = map(_freeze, (nodes, weights, log_weights, modified_weights))
    return QuadratureRule(family, nodes.size, *arrays, **fields)


def _christoffel_arrays(roots, log_weight, log_christoffel, offset):
    """Read-only nodes, log weights and modified weights, rounded to double,
    from the long-double roots, the log of the family weight function there
    and the log of the Christoffel sum sum_{j<K} p_j^2 of the normalized
    functions there, whose reciprocal is the modified weight.

    A double table at the nodes (:func:`_node_table`) starts each column
    from offset(node), the log of its order-0 function, rounded to double:
    every entry of the column carries that rounding, up to 5e-14 relative at
    the outer nodes of a 512-point rule.  The Christoffel sum carries it
    too, so that it cancels from every sum_k w_k t_m(x_k) t_n(x_k) over the
    table, as it did when the weights were the table's own column sums of
    squares.
    """
    nodes = roots.astype(float)
    rounding = offset(nodes) - offset(nodes.astype(np.longdouble))
    log_christoffel = log_christoffel + 2.0 * rounding
    arrays = (nodes, log_weight - log_christoffel, np.exp(-log_christoffel))
    return tuple(_freeze(arr).view() for arr in arrays)


def _christoffel_rule(family, arrays, alpha=None):
    """Rule from the memoized :func:`_christoffel_arrays`."""
    nodes, log_w, modified = arrays
    # beyond the double range a weight rounds to 0 or inf; log_w stays exact
    with np.errstate(under="ignore", over="ignore"):
        weights = np.exp(log_w)
    return _rule(family, nodes, weights, log_w, modified, alpha=alpha)


def _node_table(rule: QuadratureRule, n_max: int) -> np.ndarray:
    """Normalized functions of orders 0..n_max at a Hermite or Laguerre
    rule's nodes, shape (n_max + 1, count): exactly the rows asked for.
    A table's rows do not depend on its size, so they are the same bits
    as the first rows of any taller table."""
    _check_degree(n_max)
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
    h_pair = functools.partial(_hermite_fn_df, count)
    brackets = _bracket_by_scan(h_pair, np.linspace(upper * 1e-9, upper, 4 * count + 64), count // 2)
    x, log_d = _symmetric_roots(h_pair, *brackets, count % 2)
    # sum_{j<K} h_j^2 = h_K'^2 / 2 at a root of h_K
    return _christoffel_arrays(x, -x * x, 2.0 * log_d - np.log(np.longdouble(2.0)), _hermite_offset)


def gauss_hermite(count: int) -> QuadratureRule:
    """Gaussian rule for integral f(x) exp(-x^2) dx over the real line.

    Nodes are the roots of H_count; weights follow the Christoffel
    identity through the normalized Hermite functions.
    """
    return _christoffel_rule(GAUSS_HERMITE, _hermite_nodes(_check_count(count)))


# ---------------------------------------------------------------------------
# Gauss-Laguerre
# ---------------------------------------------------------------------------


@functools.lru_cache
def _laguerre_nodes(count, alpha):
    """Read-only roots of L_count^(alpha), ascending, with their log weights
    and modified weights (memoized per process).

    Root scanning and the cubic start run in s = sqrt(rho), which spreads
    the near-origin clustering of Laguerre zeros into nearly uniform
    spacing (the cubic in rho cost one more sweep at alpha 0 to 5.5);
    polishing runs in rho with the normalized-function derivative identity.
    """
    upper = 2.0 * (2.0 * count + alpha + 1.0) + 2.0
    lf_pair_rho = functools.partial(_laguerre_fn_df, count, alpha)
    lf_pair_s = functools.partial(_laguerre_fn_df_s, count, alpha)
    s_hi = math.sqrt(upper)
    grid = np.linspace(s_hi * 1e-9, s_hi, max(128, 2 * int(math.ceil(upper))))
    s_lo, s_hi_b, f_lo_sign, s_start = _bracket_by_scan(lf_pair_s, grid, count)
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
    return _christoffel_rule(GAUSS_LAGUERRE, _laguerre_nodes(count, alpha), alpha=alpha)


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

    # Bruns brackets (module docstring) of the positive roots: k roots lie
    # above the lower end of the k-th, so P_K has the sign (-1)^k there
    k = np.arange(count // 2, 0, -1)
    lo, hi = np.cos(k * math.pi / (count + 0.5)), np.cos((k - 0.5) * math.pi / (count + 0.5))
    p_pair = functools.partial(_legendre_fn_df, count)
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
