"""Stable evaluation of the classical special functions the oscillator
eigenbases are built from: Hermite and generalized Laguerre polynomials,
their L2-normalized weighted companions, log-gamma, Legendre polynomials,
and spherical harmonics.

Evaluation strategy
-------------------
Raw orthogonal-polynomial values grow factorially with the degree, so all
production paths run recurrences on the *normalized* weighted functions

    h_n(xi)  = (sqrt(pi) 2^n n!)^(-1/2) H_n(xi) exp(-xi^2/2)
    lf_n(rho) = sqrt(n!/Gamma(n+alpha+1)) rho^(alpha/2) exp(-rho/2)
                L_n^(alpha)(rho)

whose values stay O(1) throughout the oscillatory region.  Each point
additionally carries a scale c 2^e, so the far tails (where even the
normalized start values leave the double range) remain correct instead of
flushing to zero prematurely.  The start offset, the log of the order-0
function, is split once per point into the factor c = exp(r), r in
[0, ln 2), and the integer exponent e, with ln 2 in two parts (Cody & Waite,
*Software Manual for the Elementary Functions*, 1980); the mantissa pair
starts at (1, 0).  A point whose offset is below _MIN_OFFSET, or nan, is
dead, 0 at every order: its offset is clamped there and its recurrence runs
at a stand-in point, which adds nothing to the growth bound.  The exponent
is adjusted on a growth budget, not on every step: the recurrence
coefficients bound how far any point's mantissa pair can move in each step,
and only before a step that could take one of them out of [2^-930, 2^929] is
each pair rescaled by the power of two that puts its larger magnitude in
[1/2, 1), a power that moves into e.  A power-of-two rescale changes no
mantissa bit, so a value's bits do not depend on when its point was
rescaled, nor on the other points of its call, which set the schedule.  One
loop serves both families: each engine supplies only its start offset, its
dead-point stand-in, the coefficient arrays that the growth bound spends,
and a function that forms the steps' arrays a_k from those arrays, a block
of steps at a time into one buffer that the loop reuses.  The engines run in
the dtype of their points, so long-double points get long-double
coefficients and values; the public evaluators pass doubles.  A table
receives each order's raw mantissa as the recurrence runs, and its rows are
turned into values in place, with the scale they share, at each rescale and
once at the end: a product by c and one np.ldexp by e, with no temporary the
size of the rows.  A single evaluation turns the engine's returned mantissa
into its value with the same call as the table's last row, so it has that
row's bits.  The raw polynomials share one loop too, ``_raw_recurrence``:
each family supplies only the coefficients of its plain recurrence, and the
loop renormalizes the pair by a power of two at every step and counts the
exponent apart; ``*_poly`` returns the float (OverflowError outside the
double range), ``*_poly_scaled`` a ``PolyValue`` mantissa/log pair there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolyValue",
    "AngularPoint",
    "hermite_poly",
    "hermite_poly_scaled",
    "hermite_function",
    "hermite_function_table",
    "laguerre_poly",
    "laguerre_poly_scaled",
    "laguerre_function",
    "laguerre_function_table",
    "log_gamma",
    "legendre_p",
    "sph_harm",
    "sph_harm_all",
]

# A rescale puts the larger magnitude of each point's mantissa pair in
# [1/2, 1).  From there the recurrence lets a pair's log grow or shrink by at
# most this budget, 929 ln 2 (about 644), before it rescales again, so every
# pair stays within [2^-930, 2^929]: normal doubles, with 2^94 of room above
# for the callers' arithmetic on the returned pair.
_HEADROOM = 929 * math.log(2.0)

# Values per block of recurrence coefficients: the coefficient buffer stays
# at 256 KB whatever the size of the table.
_MATERIALIZE_CELLS = 2**15

# ln 2 in two parts (Cody & Waite): _LN2_HI has 32 significant bits, so
# e * _LN2_HI is exact for |e| < 2^21, and _LN2_HI + _LN2_LO is ln 2 to
# about 2^-86.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# Start offsets are clamped to this many nats, an exponent of about -1.55e9,
# so an exponent stays within np.intc through more than 600,000 rescales,
# each of which moves it by at most 930.
# From there the recurrence would need about 10^9 nats of growth, over a
# million steps, to reach the double range, so every order of such a point
# is 0.  The engines call a point dead when its offset is below this or nan
# (rho = inf): |xi| above about 46,341, or rho above about 2^31 at moderate
# alpha.  They run the recurrence at a stand-in point there, so that dead
# points stay out of the growth bound: one step's bound is then at most about
# 12 nats for Hermite and 23 for Laguerre at alpha = -0.9.
_MIN_OFFSET = -(2.0**30)


@dataclass(frozen=True)
class PolyValue:
    """A real value carried as ``value * exp(log_scale)``.

    Used when a raw polynomial magnitude exceeds the double range; for
    in-range results ``log_scale`` is 0 and ``value`` is the plain number.
    """

    value: float
    log_scale: float = 0.0

    def reconstruct(self) -> float:
        """Collapse to a plain float (may overflow/underflow by design)."""
        if self.value == 0.0:
            return 0.0
        return self.value * math.exp(self.log_scale)


@dataclass(frozen=True)
class AngularPoint:
    """Direction on the unit sphere: theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (the standard library's lgamma)."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Hermite
# ---------------------------------------------------------------------------


def hermite_poly(n: int, xi: float) -> float:
    """Physicists' Hermite polynomial H_n(xi) by the raw three-term
    recurrence H_{k+1} = 2 xi H_k - 2 k H_{k-1}.

    Raises OverflowError once values leave the double range (large n or
    |xi|); use :func:`hermite_function` for the normalized, bounded form.
    """
    xi = float(xi)
    return _as_float(*_hermite_raw(n, xi), f"H_{n}({xi})", "hermite_function")


def hermite_poly_scaled(n: int, xi: float) -> PolyValue:
    """H_n(xi) as a PolyValue, valid for every finite xi: a plain float
    where H_n(xi) is a normal double, else a mantissa and a log offset."""
    return _poly_value(*_hermite_raw(n, xi))


def _hermite_raw(n, xi):
    """(m, e) with H_n(xi) = m 2^e, for finite xi.

    The recurrence runs on q_k = H_k / 2^k, q_{k+1} = xi q_k - k q_{k-1} / 2,
    which rounds exactly as the raw one (the two differ by powers of two)
    but never forms 2 xi; the pair is renormalized by a power of two at
    every step, so no |xi| below the largest double overflows it.
    """
    _check_degree(n)
    xi = _check_finite(xi)
    return _raw_recurrence(((xi, 0.5 * k, 1) for k in range(n)), n)


def hermite_function(n: int, xi):
    """Normalized Hermite function h_n(xi) = (sqrt(pi) 2^n n!)^(-1/2)
    H_n(xi) exp(-xi^2/2).

    Bounded by ~0.816 for all n; safe for n up to several hundred and any
    real xi (far-tail values that truly underflow return 0).  Accepts a
    scalar or an ndarray.
    """
    _check_degree(n)
    arr = _check_not_nan(np.asarray(xi, dtype=float))
    v, _, c, e = _hermite_engine(n, arr.ravel())
    out = _materialize(v, c, e).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def hermite_function_table(n_max: int, xi) -> np.ndarray:
    """All rows h_0..h_{n_max} at points of any shape, raveled: shape (n_max+1, size)."""
    _check_degree(n_max)
    arr = _check_not_nan(np.ravel(np.asarray(xi, dtype=float)))
    table = np.empty((n_max + 1, arr.size))
    _hermite_engine(n_max, arr, table)
    return table


def _hermite_offset(xi):
    """log h_0(xi) = -xi^2/2 - log(pi)/4, the log offset the Hermite engine
    starts from, in the dtype of xi."""
    return -0.5 * xi * xi - 0.25 * math.log(math.pi)


def _hermite_engine(n_max, xi, table=None):
    """Run the normalized Hermite recurrence with per-point rescaling.

    Returns (v_n, v_{n-1}, c, e): the top two orders as raw mantissas
    sharing the per-point factor c and integer exponent e, h_n = v_n c 2^e,
    so ratios of same-point values are exact.  A given ``table`` of shape
    (n_max+1, npts) receives every order's values.  Dead points, whose
    offset is below _MIN_OFFSET, run the recurrence at xi = 0.
    """
    with np.errstate(over="ignore"):
        s = _hermite_offset(xi)
    xi = np.where(s >= _MIN_OFFSET, xi, 0.0)
    steps = np.arange(n_max, dtype=np.result_type(xi, float))
    q = np.sqrt(2.0 / (steps + 1))
    a_max = np.max(np.abs(xi), initial=0.0) * q

    def fill(k0, k1, out):
        np.multiply.outer(q[k0:k1], xi, out=out)

    return _recurrence(s, fill, np.sqrt(steps / (steps + 1.0)), a_max, table)


# ---------------------------------------------------------------------------
# Generalized Laguerre
# ---------------------------------------------------------------------------


def laguerre_poly(n: int, alpha: float, rho: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(rho) by the raw
    recurrence (k+1) L_{k+1} = (2k+1+alpha-rho) L_k - (k+alpha) L_{k-1}."""
    return _as_float(*_laguerre_raw(n, alpha, rho), f"L_{n}^({alpha})({float(rho)})", "laguerre_function")


def laguerre_poly_scaled(n: int, alpha: float, rho: float) -> PolyValue:
    """L_n^(alpha)(rho) as a PolyValue, valid for every finite rho >= 0: a
    plain float where it is a normal double, else a mantissa and a log
    offset."""
    return _poly_value(*_laguerre_raw(n, alpha, rho))


def _laguerre_raw(n, alpha, rho):
    """(m, e) with L_n^(alpha)(rho) = m 2^e, for finite rho >= 0."""
    _check_degree(n)
    _check_alpha(alpha)
    alpha, rho = float(alpha), float(rho)
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    _check_finite(rho)
    return _raw_recurrence(((2 * k + 1 + alpha - rho, k + alpha, k + 1) for k in range(n)), 0)


def laguerre_function(n: int, alpha: float, rho):
    """Normalized Laguerre function
    sqrt(n!/Gamma(n+alpha+1)) exp(-rho/2) rho^(alpha/2) L_n^(alpha)(rho).

    Finite for all rho >= 0 when alpha >= 0 (for -1 < alpha < 0 the value
    diverges at rho = 0 and +inf is returned there).  Accepts a scalar or
    an ndarray.
    """
    rho, origin, at_origin = _laguerre_points(n, alpha, rho)
    v, _, c, e = _laguerre_engine(n, alpha, rho.ravel())
    out = np.where(origin, at_origin, _materialize(v, c, e).reshape(rho.shape))
    return float(out) if rho.ndim == 0 else out


def laguerre_function_table(n_max: int, alpha: float, rho) -> np.ndarray:
    """All normalized Laguerre functions of order 0..n_max at points of any
    shape, raveled: shape (n_max+1, size)."""
    rho, origin, at_origin = _laguerre_points(n_max, alpha, np.ravel(rho))
    table = np.empty((n_max + 1, rho.size))
    _laguerre_engine(n_max, alpha, rho, table)
    table[:, origin] = at_origin
    return table


def _laguerre_points(n, alpha, rho):
    """Check a normalized Laguerre order, alpha and points rho >= 0; return
    the points with the stand-in 1.0 at the origin, the origin mask and the
    value there: lf_k(0) = rho^(alpha/2) * positive factor as rho -> 0+, and
    for alpha = 0 the normalization makes every order exactly 1."""
    _check_degree(n)
    _check_alpha(alpha)
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho >= 0):  # a nan point fails too
        raise ValueError("rho must be >= 0")
    origin = rho == 0.0
    at_origin = 0.0 if alpha > 0 else 1.0 if alpha == 0 else math.inf
    return np.where(origin, 1.0, rho), origin, at_origin


def _laguerre_offset(alpha, rho):
    """log lf_0(rho) = -rho/2 + (alpha/2) log rho - log Gamma(alpha + 1)/2,
    the log offset the Laguerre engine starts from, in the dtype of rho."""
    return -0.5 * rho + 0.5 * alpha * np.log(rho) - 0.5 * log_gamma(alpha + 1.0)


def _laguerre_engine(n_max, alpha, rho, table=None):
    """Normalized Laguerre recurrence with per-point rescaling (requires
    rho > 0 elementwise), returning and filling ``table`` as
    :func:`_hermite_engine` does.  Dead points, whose offset is below
    _MIN_OFFSET or nan (rho = inf), run the recurrence at rho = 1.

    lf_{k+1} = A_k lf_k - B_k lf_{k-1} with
    A_k = (2k+1+alpha-rho)/sqrt((k+1)(k+1+alpha)) and
    B_k = sqrt(k(k+alpha)/((k+1)(k+1+alpha))).
    """
    with np.errstate(invalid="ignore"):
        s = _laguerre_offset(alpha, rho)
    rho = np.where(s >= _MIN_OFFSET, rho, 1.0)
    # |A_k| is largest at an end of the rho range, since A_k is linear in rho
    steps = np.arange(n_max, dtype=np.result_type(rho, float))
    lo, hi = (rho.min(), rho.max()) if rho.size else (1.0, 1.0)
    c = 2 * steps + 1 + alpha
    norm = (steps + 1) * (steps + 1 + alpha)
    d = np.sqrt(norm)
    a_max = np.maximum(np.abs(c - lo), np.abs(c - hi)) / d

    def fill(k0, k1, out):
        np.subtract.outer(c[k0:k1], rho, out=out)
        out /= d[k0:k1, None]

    return _recurrence(s, fill, np.sqrt(steps * (steps + alpha) / norm), a_max, table)


# ---------------------------------------------------------------------------
# Legendre polynomials and spherical harmonics
# ---------------------------------------------------------------------------


def legendre_p(ell: int, x):
    """Legendre polynomial P_ell(x) on [-1, 1] via the standard recurrence.

    Accepts a scalar or an ndarray.
    """
    _check_degree(ell)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-12):  # a nan point fails too
        raise ValueError("legendre_p requires x in [-1, 1]")
    pk = _legendre_pair(ell, arr)[0]
    return float(pk) if arr.ndim == 0 else pk


def _legendre_pair(ell, x):
    """(P_ell(x), P_{ell-1}(x)) from one upward recurrence, P_{-1} = 0."""
    pkm1, pk = np.zeros_like(x), np.ones_like(x)
    # 2k - 1, k - 1 and k as scalars of x's dtype: the same bits as Python
    # ints, and faster steps
    j = np.arange(2 * ell, dtype=x.dtype)
    for odd, km1, k in zip(j[1::2], j[:ell], j[1 : ell + 1]):
        pkm1, pk = pk, (odd * x * pk - km1 * pkm1) / k
    return pk, pkm1


def sph_harm(ell: int, m: int, point: AngularPoint) -> complex:
    """Spherical harmonic Y_ell^m(theta, phi) with the Condon-Shortley
    phase, via the fully normalized associated-Legendre recurrence
    (no raw factorials appear)."""
    _check_degree(ell)
    _check_degree(abs(m), "|m|")
    if abs(m) > ell:
        raise ValueError(f"|m| = {abs(m)} exceeds ell = {ell}")
    am = abs(m)
    nlm = _norm_assoc_legendre_column(ell, am, point.theta)[-1]
    return _ylm(nlm, am, complex(math.cos(am * point.phi), math.sin(am * point.phi)))[m >= 0]


def sph_harm_all(ell_max: int, point: AngularPoint) -> list[np.ndarray]:
    """All Y_ell^m for ell <= ell_max at one point.

    Returns a list indexed by ell; entry ell is a complex array of length
    2*ell+1 ordered m = -ell..ell.
    """
    _check_degree(ell_max)
    rows = [np.empty(2 * ell + 1, dtype=complex) for ell in range(ell_max + 1)]
    for m in range(ell_max + 1):
        phase = complex(math.cos(m * point.phi), math.sin(m * point.phi))
        for ell, nlm in enumerate(_norm_assoc_legendre_column(ell_max, m, point.theta), m):
            # Y_ell^m last, so that at m = 0 the entry is Y_ell^0 itself
            rows[ell][ell - m], rows[ell][ell + m] = _ylm(nlm, m, phase)
    return rows


def _ylm(nlm, m, phase):
    """(Y_ell^-m, Y_ell^m) for m >= 0 from N_ell^m and phase = e^{i m phi}:
    Y_ell^m = N_ell^m e^{i m phi} and Y_ell^-m = (-1)^m conj(Y_ell^m)."""
    y = nlm * phase
    return (-1.0) ** m * y.conjugate(), y


def _norm_assoc_legendre_column(ell_max, m, theta):
    """N_ell^m(cos theta) for ell = m..ell_max, where Y_ell^m = N_ell^m e^{i m phi}.

    Diagonal seed N_m^m = -sqrt((2m+1)/(2m)) sin(theta) N_{m-1}^{m-1} from
    N_0^0 = 1/sqrt(4 pi) (the minus sign is the Condon-Shortley phase), then
    the stable upward recurrence
    N_ell^m = a_ell (cos(theta) N_{ell-1}^m - N_{ell-2}^m / a_{ell-1}) with
    a_ell = sqrt((4 ell^2-1)/(ell^2-m^2)), for ell = m+1..ell_max.  It starts
    from N_{m-1}^m = 0 and a_m = inf, the coefficient's limit at ell = m,
    so the first step's second term is exactly 0.
    """
    x, sx = math.cos(theta), math.sin(theta)
    pk = 1.0 / math.sqrt(4.0 * math.pi)
    for k in range(1, m + 1):
        pk *= -math.sqrt((2 * k + 1.0) / (2.0 * k)) * sx
    out, pkm1, a = [pk], 0.0, math.inf
    for ell in range(m + 1, ell_max + 1):
        am1, a = a, math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        pkm1, pk = pk, a * (x * pk - pkm1 / am1)
        out.append(pk)
    return out


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_degree(n, name="degree"):
    """The library's one check of an order, quantum number or truncation."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")


def _check_alpha(alpha):
    if not -1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed -1, got {alpha}")


def _check_not_nan(arr):
    if np.any(np.isnan(arr)):
        raise ValueError("argument must not be nan")
    return arr


def _check_finite(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    return x


def _as_float(m, e, what, fallback):
    """m 2^e as a float; OverflowError naming the normalized evaluator."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise OverflowError(
            f"{what} exceeds the double range; use {fallback} for the normalized evaluation"
        ) from None


def _poly_value(m, e):
    """m 2^e as a PolyValue: log_scale 0 where it is a normal double (or 0)."""
    mant, exp = math.frexp(m)
    exp += e
    if mant == 0.0 or sys.float_info.min_exp <= exp <= sys.float_info.max_exp:
        return PolyValue(math.ldexp(mant, exp))
    return PolyValue(mant, exp * math.log(2.0))


def _raw_recurrence(steps, e):
    """(m, e') with v_n = m 2^e', for v_{k+1} = (a_k v_k - b_k v_{k-1}) / c_k
    over the (a_k, b_k, c_k) that ``steps`` yields, from v_0 = 2^e and
    v_{-1} = 0.  After every step the pair is scaled by the power of two
    that puts its larger magnitude in [1/2, 1), and that power moves into
    the exponent."""
    vkm1, vk = 0.0, 1.0
    for a, b, c in steps:
        vkm1, vk = vk, (a * vk - b * vkm1) / c
        shift = math.frexp(max(abs(vk), abs(vkm1)))[1]
        vk, vkm1, e = math.ldexp(vk, -shift), math.ldexp(vkm1, -shift), e + shift
    return vk, e


def _recurrence(s, fill, b, a_max, table=None):
    """The one loop of both engines: v_{k+1} = a_k v_k - b_k v_{k-1} from
    v_0 = 1, v_{-1} = 0 at the points of the log offset s, where
    ``fill(k0, k1, out)`` writes the arrays a_k of steps k0 <= k < k1 into
    the rows of ``out`` and |a_k| <= a_max[k].  The a_k are made a block of
    rows at a time in one buffer, in the dtype of b, that every block reuses:
    at most _MATERIALIZE_CELLS values, or one row where the points alone are
    more.  Each offset, clamped to _MIN_OFFSET (a nan offset too), is split
    once into c 2^e (module docstring).

    In one step max(|v_k|, |v_{k-1}|) grows by at most a_max + b and shrinks
    by at most 2 max(1, a_max) / b (on step 0, where b = 0, it cannot
    shrink).  The logs of these bounds are spent from a budget of _HEADROOM;
    before a step that would overspend it, every pair is renormalized and
    the budget refilled, so no pair leaves [2^-930, 2^929].  The public
    evaluators refuse nan points, so every bound is a number.  A table
    receives each order's raw mantissa as the loop runs, and its rows become
    values in place, with the exponent they share, at each rescale and once
    at the end.  Returns (v_n, v_{n-1}, c, e): the top two orders as
    mantissas, with the per-point factor and exponent they share, so that
    the order-n value is v_n c 2^e, and fills ``table`` as
    :func:`_hermite_engine` documents."""
    s = np.fmax(s, _MIN_OFFSET)
    e = np.floor(s / math.log(2.0))
    c, e = np.exp(s - e * _LN2_HI - e * _LN2_LO), e.astype(np.intc)
    vk, vkm1 = np.ones_like(c), np.zeros_like(c)
    if table is not None:
        table[0] = vk
    shrink = np.divide(2.0 * np.maximum(1.0, a_max), b, out=np.ones_like(b), where=b > 0.0)
    growth, budget = np.log(np.maximum(a_max + b, shrink)).tolist(), _HEADROOM
    rows = max(1, _MATERIALIZE_CELLS // max(1, s.size))
    block = np.empty((min(rows, b.size), s.size), dtype=b.dtype)
    start = 0  # first table row still holding a raw mantissa
    for k0 in range(0, b.size, rows):
        k1 = min(k0 + rows, b.size)
        fill(k0, k1, block[: k1 - k0])
        # tolist gives Python floats for doubles, np.longdouble for long doubles
        for k, a, bk in zip(range(k0, k1), block, b[k0:k1].tolist()):
            if not growth[k] <= budget:
                if table is not None:
                    _materialize(table[start : k + 1], c, e)
                    start = k + 1
                vk, vkm1, e = _renormalize(vk, vkm1, e)
                budget = _HEADROOM
            budget -= growth[k]
            vk, vkm1 = a * vk - bk * vkm1, vk
            if table is not None:
                table[k + 1] = vk
    if table is not None:
        _materialize(table[start:], c, e)
    return vk, vkm1, c, e


def _renormalize(vk, vkm1, e):
    """Scale each point's mantissa pair by the power of two that puts its
    larger magnitude in [1/2, 1), np.frexp's exponent of that magnitude, and
    add that power to the point's exponent.  A zero pair stays as it is.
    The power-of-two rescale changes no mantissa bit (unless it takes the
    smaller value of a pair below the normal range, where np.ldexp rounds
    to even).
    """
    shift = np.frexp(np.maximum(np.abs(vk), np.abs(vkm1)))[1]
    return np.ldexp(vk, -shift), np.ldexp(vkm1, -shift), e + shift


def _materialize(v, c, e):
    """Turn raw mantissas v (a row, or rows) that share the per-point factor
    c and exponent e into the values v c 2^e in place, and return v: one
    product by c, then one np.ldexp by e, which rounds only where the value
    leaves the normal range, with no temporary the size of v.  A zero
    mantissa gives +0.0 whatever its sign; a negative value that underflows
    gives -0.0."""
    v += 0.0
    v *= c
    return np.ldexp(v, e, out=v)
