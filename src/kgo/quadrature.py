"""Gaussian quadrature rules (Hermite, generalized Laguerre, Legendre)
and a generic integration driver.

Nodes are located without any eigensolver: a sign-change scan of the
normalized weighted polynomial brackets every Hermite and Laguerre root,
on a grid whose step is at most half the lower bound that Sturm's
comparison theorem puts on the root spacing, and Bruns' inequality
(Szego, Orthogonal Polynomials, Thm 6.21.2) brackets the k-th largest
Legendre root in closed form,

    arccos x_k in ((k - 1/2) pi, k pi) / (K + 1/2),

and one vectorized polish serves all three families.  The scan already
returns each grid point's slope with its value (every engine returns
v_{K-1} with v_K), so a scanned root starts from the Taylor series of its
function's differential equation about the nearer bracket end (after
Glaser, Liu & Rokhlin, SIAM J. Sci. Comput. 29, 2007, used here for the
start only), within 3e-12 of its bracket (the node audit records the
worst start per family).  A Legendre root starts from Tricomi's asymptotic
form (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013),

    x_k ~ (1 - (1 - 1/K) / (8 K^2)) cos((k - 1/4) pi / (K + 1/2)),

which lies inside its Bruns bracket.  From either start a safeguarded
bisection/Newton hybrid on np.longdouble points, through the same
recurrences, takes one step (Hermite, Laguerre) or at most 3 (Legendre).
With 80-bit long double (x86-64 Linux) every Hermite, Laguerre (alpha -0.5
to 64.5) and Legendre node of up to 512 points is within 4 ulp of its root
(the node audit, tools/node_audit.py, checks every one); where
np.longdouble is plain double every step is a double step.  A cold
Hermite or Laguerre rule costs 2 recurrence sweeps, the scan and the
long-double step, and a Legendre rule at most 3, and none for weights.
Symmetric rules polish only their positive roots (and the root 0 of an odd
rule) and mirror them.

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

Nodes and weights depend only on (count, alpha), so each process memoizes
them: _hermite_nodes and _laguerre_nodes are functools.lru_cache'd at the
default maxsize of 128 entries of nodes, weights, log weights and modified
weights, at most 2 MB per memo.  They hand out read-only views, which numpy
refuses to make writeable again, so no rule can alter the arrays later rules
share.  Every gauss_hermite and gauss_laguerre call still checks its
arguments and assembles its own rule from them.

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
from .special import _hermite_engine, _hermite_offset, _laguerre_engine, _laguerre_offset, _legendre_pair

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


# The Taylor start of each scanned root: _TAYLOR_TERMS terms of the series
# of the function's differential equation about the bracket end nearer the
# chord point, and Newton steps on it from the chord point, _TAYLOR_STEPS at
# most.  A scan step spans at most half a root spacing (at the grid helpers),
# a phase of at most pi/2, so a root about a quarter of a spacing from its
# end leaves a truncation error of about (pi/4)^16 / 16!, 1e-15 of the
# function's amplitude.  Every start measured was within 3.0e-12 of its
# bracket from its long-double root (Hermite 6.0e-14, at 482 nodes; Laguerre
# 2.99e-12, at 502 nodes and alpha 4.5, over alpha -0.9 to 1000 and 2 to 512
# nodes), where the double scan values' rounding noise is the limit, inside
# the long-double stop below.  The steps stop as the long-double ones do, at
# _STOP min(hi - lo, |x|), after 3 or 4 at most rules.  A Laguerre root
# in the grid's first interval is started from the series about the origin
# (:func:`_laguerre_series`); near alpha -1 it lies far below the chord point,
# and Newton steps on a function even about the origin halve the distance
# until they are close: up to 19 steps (1 + alpha = 1e-10).  Both cost a few
# operations per root beside a sweep's K per root.
_TAYLOR_TERMS = 16
_TAYLOR_STEPS = 40

# Stop test of _polish.  Newton's error obeys e' ~ (f'' / 2 f') e^2, and
# f'' / f' is of the order of one over the root spacing, of which a scan or
# Bruns bracket is a fixed fraction, or over |x| where a root lies much
# closer to the origin than the width of its bracket (the first Laguerre
# bracket near alpha -1): e' ~ e^2 / min(hi - lo, |x|).  A long-double step
# of at most 1e-8 min(hi - lo, |x|) thus leaves about 1e-16 min(hi - lo, |x|),
# within a double ulp of the root; a larger one is not yet in that regime
# and is followed by another.
_STOP = 1e-8


def _taylor_start(series, x0, v, dv, lo, hi, x):
    """Roots in (lo, hi) of the Taylor series about x0 of a function with
    value v and slope dv at x0, by Newton steps on the series from x until
    every step is at most _STOP min(hi - lo, |x|), _TAYLOR_STEPS at
    most (a step that would leave the bracket ends at it).  series(x0, v, dv)
    returns the _TAYLOR_TERMS coefficients, vectorized over the roots, from
    the function's differential equation."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.array(series(x0, v, dv))
        dc = c[1:] * np.arange(1, _TAYLOR_TERMS)[:, np.newaxis]
        t, t_lo, t_hi = x - x0, lo - x0, hi - x0
        for _ in range(_TAYLOR_STEPS):
            powers = np.cumprod(np.broadcast_to(t, (_TAYLOR_TERMS - 1, t.size)), axis=0)
            y = c[0] + np.einsum("ij,ij->j", c[1:], powers)
            dy = dc[0] + np.einsum("ij,ij->j", dc[1:], powers[:-1])
            step = y / dy
            t = np.clip(t - step, t_lo, t_hi)
            if np.all(np.abs(step) <= _STOP * np.minimum(hi - lo, np.abs(x0 + t))):
                break
    return x0 + t


def _bracket_by_scan(fn_df, grid, n_roots, series):
    """Bracket n_roots sign changes of a function y on the ascending grid,
    and start each root from the Taylor series of y's differential equation
    about the bracket end nearer the chord point.

    fn_df(grid) returns (y, y', e), y and its derivative in the grid's
    variable, both times 2^-e per point, as the engines give them: the
    slopes cost no sweep, since every engine returns v_{K-1} with v_K.
    Returns the lower and upper bracket ends, the sign of y at the lower
    ends and the start in each bracket (a, b): the root of the series about
    a or b (:func:`_taylor_start` with series), from the point where the chord
    through both ends crosses zero.  The series is taken about the end with
    the smaller |y|, except in the grid's first interval, where it is taken
    about the origin, which the grid starts just above: the origin may be a
    singular point of the equation (Laguerre), where a series about a point
    that close cancels, and only the series' root is used, so y's value at
    the first point serves as the scale.  The grid step is at most half the
    Sturm bound on the root spacing, so each interval holds at most one
    root; a grid that shows another number of sign changes (y exactly 0 at
    a point, say) raises QuadratureError.
    """
    f, df, e = fn_df(grid)
    signs = np.sign(f)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flips.size != n_roots:
        raise QuadratureError(
            f"scan found {flips.size} of {n_roots} roots on ({grid[0]}, {grid[-1]}) with {grid.size} points"
        )
    a, b = flips, flips + 1
    # both values over the larger of their scales, so neither overflows
    top = np.maximum(e[a], e[b])
    pa, pb = np.ldexp(f[a], e[a] - top), np.ldexp(f[b], e[b] - top)
    chord = grid[a] + (grid[b] - grid[a]) * (pa / (pa - pb))
    end = np.where((np.abs(pb) < np.abs(pa)) & (a > 0), b, a)
    x0 = np.where(a > 0, grid[end], 0.0)
    start = _taylor_start(series, x0, f[end], df[end], grid[a], grid[b], chord)
    return grid[a], grid[b], signs[a], start


def _polish(fn_df, lo, hi, f_lo_sign, x):
    """Roots in the brackets (lo, hi), in bracket order, from the start
    points x, as np.longdouble, and log |df| at each.

    fn_df(x) returns (f, df, e): a function f and a slope df, both times
    2^-e per point, so the Newton step f/df and the sign of f are exact
    even when the true values over/underflow; it must accept np.longdouble
    points.  Each family picks df = f' times a positive factor such that
    df' = 0 wherever f = 0, so one evaluation next to a root gives df at
    the root to second order, and with it the weights in closed form.

    One safeguarded Newton loop runs on np.longdouble points until every
    step is at most _STOP min(hi - lo, |x|) (the derivation is at the
    constant), which takes the roots within a few double ulp: one step
    from the Hermite and Laguerre Taylor starts of every rule measured,
    1-512 nodes and alpha from -1 + 1.1e-16 to 1e4, and at most 3 from the
    Legendre starts.  Where np.longdouble is plain double every step is a
    double step.  A step under the stop is taken even where rounding noise
    has closed the loop's bracket around the noisy double root; a larger
    one must stay strictly inside the bracket, or the loop bisects.

    Every long-double point at least 1/_STOP long-double spacings at the
    top bracket end from the origin is rounded to a multiple of that
    spacing.  Then every c_k - rho of the Laguerre recurrence
    (c_k = 2k + 1 + alpha) is exact where rho < c_k; otherwise it drops the
    low bits of a small rho, the rounding that puts the smallest Laguerre
    nodes thousands of ulp off in double.  In 80-bit long double the
    rounding moves no node above 1/2048 of the top end, which is every
    Hermite and Legendre node.  The last step, from a rounded point up to
    half a spacing e off, leaves about e^2 / |x|, at most 0.1 double ulp at
    that threshold.  A smaller root (the first Laguerre root near alpha -1,
    below about 2.2e-8 at 512 nodes) keeps its unrounded points: there a
    step from the spacing grid never passes the stop, and the last one would
    leave up to about 4e-4 of the root.  The rounding of c_k - rho then
    biases that node by up to about 22 double ulp at 480-512 nodes (README,
    "Numerical notes").  A loop that has not stopped after 120 sweeps raises
    QuadratureError.
    """
    a, b = lo, hi
    quantum = np.spacing(np.longdouble(np.max(hi, initial=0.0)))
    for _ in range(120):
        x = np.where(np.abs(x) < quantum / _STOP, x, np.round(x / quantum) * quantum)
        stop = _STOP * np.minimum(hi - lo, np.abs(x))
        f, df, e = fn_df(x)
        same_as_lo = np.sign(f) == f_lo_sign
        a = np.where(same_as_lo, x, a)
        b = np.where(same_as_lo, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        xn = x - step
        small = np.abs(step) <= stop
        x = np.where(small | ((xn > a) & (xn < b)), xn, 0.5 * (a + b))
        if np.all(small):
            break
    else:
        raise QuadratureError(f"polish of {x.size} roots did not converge in 120 sweeps")
    with np.errstate(divide="ignore"):
        log_d = np.log(np.ldexp(np.abs(df), e))
    return x, log_d


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
    v, vm1, e = _hermite_engine(count, x)
    return v, np.sqrt(x.dtype.type(2 * count)) * vm1 - x * v, e


def _laguerre_fn_df(count, alpha, rho):
    """lf_K and rho lf_K' = lf_K (K + alpha/2 - rho/2) - sqrt(K(K+alpha)) lf_{K-1},
    both times rho, at rho, in rho's dtype, for _polish; by the Laguerre
    function equation (rho lf_K')' = (alpha^2/(4 rho) + rho/4 - K - (alpha+1)/2) lf_K."""
    v, vm1, e = _laguerre_engine(count, alpha, rho)
    k = rho.dtype.type(count)
    return rho * v, v * (k + 0.5 * alpha - 0.5 * rho) - np.sqrt(k * (k + alpha)) * vm1, e


def _laguerre_fn_df_s(count, alpha, s):
    """lf_K(s^2) and its slope in s, 2 s lf_K' = 2 (rho lf_K') / s, for the scan."""
    f, df, e = _laguerre_fn_df(count, alpha, s * s)
    return f / (s * s), 2.0 * df / s, e


# Scan grids.  Sturm's comparison theorem: where u'' + Q u = 0 and Q <= w^2,
# consecutive zeros of u are at least pi / w apart.  Each grid step is at most
# half that bound, so every interval holds at most one root and the Taylor
# start is taken at most about a quarter of a spacing from its end.  A grid
# starts at 1e-9 of a step, above the origin, which is the root 0 of an odd
# Hermite rule and the singular point of the Laguerre equation.


def _hermite_grid(count):
    """Scan grid of the positive roots of h_K, up to u = sqrt(2K + 1) + 1/2,
    above the largest root: h_K'' + (2K + 1 - x^2) h_K = 0, so w^2 = 2K + 1."""
    upper = math.sqrt(2.0 * count + 1.0) + 0.5
    step = 0.5 * math.pi / math.sqrt(2.0 * count + 1.0)
    return np.linspace(step * 1e-9, upper, math.ceil(upper / step) + 1)


def _laguerre_grid(count, alpha):
    """Scan grid of the roots of y(s) = lf_K(s^2), s = sqrt(rho), up to
    sqrt(4K + 2 alpha + 4), above the largest root: u = sqrt(s) y obeys
    u'' + (4K + 2 alpha + 2 - s^2 - (alpha^2 - 1/4) / s^2) u = 0, so
    w^2 = 4K + 2 alpha + 2 where |alpha| >= 1/2.  For |alpha| < 1/2 the last
    term is positive near the origin, where the roots approach the Bessel
    zeros j_{alpha,i} / w, and j_{alpha,2} - j_{alpha,1} is down to 0.991 pi
    (alpha about -0.1; every rule of 2 to 512 nodes measured the same): the
    step is at most half of 0.99 times the bound."""
    s_hi = math.sqrt(4.0 * count + 2.0 * alpha + 4.0)
    step = 0.495 * math.pi / math.sqrt(4.0 * count + 2.0 * alpha + 2.0)
    return np.linspace(step * 1e-9, s_hi, math.ceil(s_hi / step) + 1)


def _hermite_series(count, x, v, dv):
    """Taylor coefficients of h_K about x from h_K(x) = v and h_K'(x) = dv:
    h_K'' = (x^2 - 2K - 1) h_K gives, in powers of the distance from x,
    (n + 2)(n + 1) c_{n+2} = (x^2 - 2K - 1) c_n + 2 x c_{n-1} + c_{n-2}."""
    a, b = x * x - (2 * count + 1), 2.0 * x
    c = [0.0, 0.0, v, dv]  # c_{-2} to c_1
    for n in range(_TAYLOR_TERMS - 2):
        c.append((a * c[n + 2] + b * c[n + 1] + c[n]) / ((n + 2) * (n + 1)))
    return c[2:]


def _laguerre_series(count, alpha, s, v, dv):
    """Taylor coefficients about s of g = s^(-alpha) y, y = lf_K(s^2), up to
    the factor s^(-alpha) > 0, from y(s) = v and y'(s) = dv.  The series of
    y converges only within s of the origin; g, a constant times
    exp(-s^2/2) L_K^(alpha)(s^2), is entire.  It obeys
    s g'' + (2 alpha + 1) g' + (4 kappa s - s^3) g = 0, kappa = K + (alpha + 1)/2,
    so in powers of the distance from s
    s (n + 2)(n + 1) c_{n+2} = -(n + 1)(n + 2 alpha + 1) c_{n+1} - (4 kappa s - s^3) c_n
    - (4 kappa - 3 s^2) c_{n-1} + 3 s c_{n-2} + c_{n-3}.
    That divides by s, and near the origin c_1 = dv - alpha v / s cancels,
    so the first interval's roots take the series about s = 0 itself
    (:func:`_bracket_by_scan`), scaled to g(0) = v: in powers of s the
    equation gives (n + 1)(n + 2 alpha + 1) c_{n+1} = c_{n-3} - k4 c_{n-1},
    k4 = 4 kappa, with c_1 = 0 (g is even)."""
    k4 = 4 * count + 2 * alpha + 2
    a, b, d = k4 * s - s**3, k4 - 3.0 * s * s, 3.0 * s
    c = [0.0, 0.0, 0.0, v, dv - alpha * v / s]  # c_{-3} to c_1
    for n in range(_TAYLOR_TERMS - 2):
        total = (n + 1) * (n + 2 * alpha + 1) * c[n + 4] + a * c[n + 3] + b * c[n + 2] - d * c[n + 1] - c[n]
        c.append(-total / (s * ((n + 2) * (n + 1))))
    c = np.array(c[3:])
    origin = s == 0.0
    if np.any(origin):
        g = [0.0, 0.0, 0.0, v[origin], np.zeros_like(v[origin])]  # c_{-3} to c_1
        for n in range(1, _TAYLOR_TERMS - 1):
            g.append((g[n] - k4 * g[n + 2]) / ((n + 1) * (n + 2 * alpha + 1)))
        c[:, origin] = g[3:]
    return c


def _legendre_fn_df(count, x):
    """P_K and P_K' = K (P_{K-1} - x P_K) / (1 - x^2), both times 1 - x^2 > 0,
    for _polish; (1 - x)(1 + x) is exact near +-1, where 1 - x*x cancels,
    and ((1 - x^2) P_K')' = -K (K + 1) P_K."""
    pk, pkm1 = _legendre_pair(count, x)
    return pk * (1.0 - x) * (1.0 + x), count * (pkm1 - x * pk), np.zeros(x.shape, np.intc)


def _rule(family, nodes, weights, log_weights, modified_weights, **fields):
    """The one place a QuadratureRule is assembled, every array read-only."""
    arrays = map(_freeze, (nodes, weights, log_weights, modified_weights))
    return QuadratureRule(family, nodes.size, *arrays, **fields)


def _christoffel_arrays(roots, log_weight, log_christoffel, offset):
    """Read-only nodes, weights, log weights and modified weights, rounded to
    double, from the long-double roots, the log of the family weight function
    there and the log of the Christoffel sum sum_{j<K} p_j^2 of the
    normalized functions there, whose reciprocal is the modified weight.  The
    weights are exp of the log weights after those are rounded to double.

    A double table at the nodes, which the operator sectors build, starts each
    column from offset(node), the log of its order-0 function, rounded to double:
    every entry of the column carries that rounding, up to 5e-14 relative at
    the outer nodes of a 512-point rule.  The Christoffel sum carries it
    too, so that it cancels from every sum_k w_k t_m(x_k) t_n(x_k) over the
    table, as it did when the weights were the table's own column sums of
    squares.
    """
    nodes = roots.astype(float)
    rounding = offset(nodes) - offset(nodes.astype(np.longdouble))
    log_christoffel = log_christoffel + 2.0 * rounding
    log_w = (log_weight - log_christoffel).astype(float)
    # beyond the double range a weight rounds to 0 or inf; log_w stays exact
    with np.errstate(under="ignore", over="ignore"):
        arrays = (nodes, np.exp(log_w), log_w, np.exp(-log_christoffel))
    return tuple(_freeze(arr).view() for arr in arrays)


# ---------------------------------------------------------------------------
# Gauss-Hermite
# ---------------------------------------------------------------------------


@functools.lru_cache
def _hermite_nodes(count):
    """Read-only roots of H_count, ascending, with their weights, log weights
    and modified weights (memoized per process)."""
    h_pair = functools.partial(_hermite_fn_df, count)
    brackets = _bracket_by_scan(h_pair, _hermite_grid(count), count // 2, functools.partial(_hermite_series, count))
    x, log_d = _symmetric_roots(h_pair, *brackets, count % 2)
    # sum_{j<K} h_j^2 = h_K'^2 / 2 at a root of h_K
    return _christoffel_arrays(x, -x * x, 2.0 * log_d - np.log(np.longdouble(2.0)), _hermite_offset)


def gauss_hermite(count: int) -> QuadratureRule:
    """Gaussian rule for integral f(x) exp(-x^2) dx over the real line.

    Nodes are the roots of H_count; weights follow the Christoffel
    identity through the normalized Hermite functions.
    """
    return _rule(GAUSS_HERMITE, *_hermite_nodes(_check_count(count)))


# ---------------------------------------------------------------------------
# Gauss-Laguerre
# ---------------------------------------------------------------------------


@functools.lru_cache
def _laguerre_nodes(count, alpha):
    """Read-only roots of L_count^(alpha), ascending, with their weights, log
    weights and modified weights (memoized per process).

    Root scanning and the Taylor start run in s = sqrt(rho), which spreads
    the near-origin clustering of Laguerre zeros into nearly uniform
    spacing; polishing runs in rho with the normalized-function derivative
    identity.
    """
    lf_pair_rho = functools.partial(_laguerre_fn_df, count, alpha)
    lf_pair_s = functools.partial(_laguerre_fn_df_s, count, alpha)
    series = functools.partial(_laguerre_series, count, alpha)
    s_lo, s_hi, f_lo_sign, s_start = _bracket_by_scan(lf_pair_s, _laguerre_grid(count, alpha), count, series)
    rho, log_d = _polish(lf_pair_rho, s_lo * s_lo, s_hi * s_hi, f_lo_sign, s_start * s_start)
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
    return _rule(GAUSS_LAGUERRE, *_laguerre_nodes(count, alpha), alpha=alpha)


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
    # above the lower end of the k-th, so P_K has the sign (-1)^k there;
    # each starts from Tricomi's asymptotic form, inside its bracket
    k = np.arange(count // 2, 0, -1)
    theta = math.pi / (count + 0.5)
    lo, hi = np.cos(k * theta), np.cos((k - 0.5) * theta)
    start = (1.0 - (1.0 - 1.0 / count) / (8.0 * count * count)) * np.cos((k - 0.25) * theta)
    p_pair = functools.partial(_legendre_fn_df, count)
    ref, log_d = _symmetric_roots(p_pair, lo, hi, (-1.0) ** k, start, count % 2)
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
