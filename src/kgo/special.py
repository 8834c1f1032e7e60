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
additionally carries a base-e log offset, so the far tails (where even the
normalized start values leave the double range) remain correct instead of
flushing to zero prematurely.  The offset is adjusted on a growth budget,
not on every step: before each step the recurrence coefficients give a
bound on how far any point's mantissa pair can move, and the pairs are
rescaled by the power of two ``_RESCALE`` (which changes no mantissa bit)
only before a step that could take one of them out of the normal double
range.  One loop serves both families: each engine supplies only its start
offset, its far-point stand-in and the coefficient arrays that both the
growth bound and the steps use.  A table receives each order's raw mantissa
as the recurrence runs.  The rows between two rescales share one offset, so
each such block is turned into values in place, once, at the rescale that
ends it (or at the end), a bounded chunk of rows at a time.  The raw
polynomials run their plain recurrences with the pair renormalized by a
power of two at every step and the exponent counted apart; ``*_poly``
returns the float (OverflowError outside the double range),
``*_poly_scaled`` a ``PolyValue`` mantissa/log pair there.
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

# Mantissa pairs are renormalized into [1/_RESCALE, _RESCALE] as recurrences
# run; a power of two, so a rescale of a normal double is exact.
_RESCALE = 2.0**930
_LOG_RESCALE = 930 * math.log(2.0)
# Log growth or shrinkage a renormalized pair can take before it could leave
# the normal double range: about 63.7 (shrinking, to the smallest normal
# double) against 65.2 (growing, to the largest).
_HEADROOM = min(
    math.log(sys.float_info.max / _RESCALE), math.log(1.0 / (_RESCALE * sys.float_info.min))
)

# The engines give points with |xi| or rho above this the value 0 (log offset
# -inf, recurrence run at a stand-in point): there exp(-xi^2/2) or
# exp(-rho/2) puts every order the recurrence can reach below the double
# range, and one step from a mantissa near _RESCALE could overflow.
_FAR_ARG = 1e28

# Values per chunk in which _materialize turns table rows into values, so
# its one temporary stays at 256 KB whatever the size of the table.
_MATERIALIZE_CELLS = 2**15


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
    qkm1, qk, e = 0.0, 1.0, n
    for k in range(n):
        qkm1, qk = qk, xi * qk - 0.5 * k * qkm1
        qk, qkm1, e = _rescale_pair(qk, qkm1, e)
    return qk, e


def hermite_function(n: int, xi):
    """Normalized Hermite function h_n(xi) = (sqrt(pi) 2^n n!)^(-1/2)
    H_n(xi) exp(-xi^2/2).

    Bounded by ~0.816 for all n; safe for n up to several hundred and any
    real xi (far-tail values that truly underflow return 0).  Accepts a
    scalar or an ndarray.
    """
    _check_degree(n)
    arr = _check_not_nan(np.asarray(xi, dtype=float))
    v, _, s = _hermite_engine(n, arr.ravel())
    _materialize(v[np.newaxis], s)
    out = v.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def hermite_function_table(n_max: int, xi) -> np.ndarray:
    """All rows h_0..h_{n_max} at the given points, shape (n_max+1, npts)."""
    _check_degree(n_max)
    arr = _check_not_nan(np.atleast_1d(np.asarray(xi, dtype=float)))
    table = np.empty((n_max + 1, arr.size))
    _hermite_engine(n_max, arr, table)
    return table


def _hermite_engine(n_max, xi, table=None):
    """Run the normalized Hermite recurrence with per-point log rescaling.

    Returns (v_n, v_{n-1}, s): mantissas of the top two orders sharing the
    per-point log offset s, so ratios of same-point values are exact.  A
    given ``table`` of shape (n_max+1, npts) receives every order's values.
    """
    far = np.abs(xi) > _FAR_ARG
    xi = np.where(far, 0.0, xi)
    s = np.where(far, -np.inf, -0.5 * xi * xi - 0.25 * math.log(math.pi))
    steps = np.arange(n_max)
    q = np.sqrt(2.0 / (steps + 1))
    a_max = np.max(np.abs(xi), initial=0.0) * q
    a_steps = (xi * qk for qk in q.tolist())
    return _recurrence(s, a_steps, np.sqrt(steps / (steps + 1.0)), a_max, table)


# ---------------------------------------------------------------------------
# Generalized Laguerre
# ---------------------------------------------------------------------------


def laguerre_poly(n: int, alpha: float, rho: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(rho) by the raw
    recurrence (k+1) L_{k+1} = (2k+1+alpha-rho) L_k - (k+alpha) L_{k-1}."""
    _check_degree(n)
    _check_alpha(alpha)
    rho = float(rho)
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return _as_float(*_laguerre_raw(n, alpha, rho), f"L_{n}^({alpha})({rho})", "laguerre_function")


def laguerre_poly_scaled(n: int, alpha: float, rho: float) -> PolyValue:
    """L_n^(alpha)(rho) as a PolyValue, valid for every finite rho > 0: a
    plain float where it is a normal double, else a mantissa and a log
    offset."""
    _check_degree(n)
    _check_alpha(alpha)
    rho = float(rho)
    if rho <= 0.0:
        raise ValueError("scaled Laguerre evaluation requires rho > 0")
    return _poly_value(*_laguerre_raw(n, alpha, rho))


def _laguerre_raw(n, alpha, rho):
    """(m, e) with L_n^(alpha)(rho) = m 2^e for finite alpha and rho, by
    the raw recurrence with the pair renormalized by a power of two at
    every step."""
    alpha, rho = _check_finite(alpha), _check_finite(rho)
    lkm1, lk, e = 0.0, 1.0, 0
    for k in range(n):
        lkm1, lk = lk, ((2 * k + 1 + alpha - rho) * lk - (k + alpha) * lkm1) / (k + 1)
        lk, lkm1, e = _rescale_pair(lk, lkm1, e)
    return lk, e


def laguerre_function(n: int, alpha: float, rho):
    """Normalized Laguerre function
    sqrt(n!/Gamma(n+alpha+1)) exp(-rho/2) rho^(alpha/2) L_n^(alpha)(rho).

    Finite for all rho >= 0 when alpha >= 0 (for -1 < alpha < 0 the value
    diverges at rho = 0 and +inf is returned there).  Accepts a scalar or
    an ndarray.
    """
    _check_degree(n)
    _check_alpha(alpha)
    arr = np.asarray(rho, dtype=float)
    if not np.all(arr >= 0):  # a nan point fails too
        raise ValueError("rho must be >= 0")
    flat = arr.ravel()
    origin = flat == 0.0
    v, _, s = _laguerre_engine(n, alpha, np.where(origin, 1.0, flat))
    _materialize(v[np.newaxis], s)
    if np.any(origin):
        v[origin] = _laguerre_origin_value(alpha)
    out = v.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def laguerre_function_table(n_max: int, alpha: float, rho) -> np.ndarray:
    """All normalized Laguerre functions of order 0..n_max at the given
    points, shape (n_max+1, npts)."""
    _check_degree(n_max)
    _check_alpha(alpha)
    arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all(arr >= 0):  # a nan point fails too
        raise ValueError("rho must be >= 0")
    origin = arr == 0.0
    table = np.empty((n_max + 1, arr.size))
    _laguerre_engine(n_max, alpha, np.where(origin, 1.0, arr), table)
    table[:, origin] = _laguerre_origin_value(alpha)
    return table


def _laguerre_origin_value(alpha):
    # lf_k(0) = rho^(alpha/2) * positive factor as rho -> 0+; for alpha = 0
    # the normalization makes every order exactly 1 at the origin.
    if alpha > 0:
        return 0.0
    if alpha == 0:
        return 1.0
    return math.inf


def _laguerre_engine(n_max, alpha, rho, table=None):
    """Normalized Laguerre recurrence with per-point log rescaling
    (requires rho > 0 elementwise), returning and filling ``table`` as
    :func:`_hermite_engine` does.

    lf_{k+1} = A_k lf_k - B_k lf_{k-1} with
    A_k = (2k+1+alpha-rho)/sqrt((k+1)(k+1+alpha)) and
    B_k = sqrt(k(k+alpha)/((k+1)(k+1+alpha))).
    """
    far = rho > _FAR_ARG
    rho = np.where(far, 1.0, rho)
    s = np.where(far, -np.inf, -0.5 * rho + 0.5 * alpha * np.log(rho) - 0.5 * log_gamma(alpha + 1.0))
    # |A_k| is largest at an end of the rho range, since A_k is linear in rho
    steps = np.arange(n_max)
    lo, hi = (rho.min(), rho.max()) if rho.size else (1.0, 1.0)
    c = 2 * steps + 1 + alpha
    norm = (steps + 1) * (steps + 1 + alpha)
    d = np.sqrt(norm)
    a_max = np.maximum(np.abs(c - lo), np.abs(c - hi)) / d
    a_steps = ((ck - rho) / dk for ck, dk in zip(c.tolist(), d.tolist()))
    return _recurrence(s, a_steps, np.sqrt(steps * (steps + alpha) / norm), a_max, table)


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
    for k in range(1, ell + 1):
        pkm1, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pkm1) / k
    return pk, pkm1


def sph_harm(ell: int, m: int, point: AngularPoint) -> complex:
    """Spherical harmonic Y_ell^m(theta, phi) with the Condon-Shortley
    phase, via the fully normalized associated-Legendre recurrence
    (no raw factorials appear)."""
    _check_degree(ell)
    if abs(m) > ell:
        raise ValueError(f"|m| = {abs(m)} exceeds ell = {ell}")
    am = abs(m)
    x = math.cos(point.theta)
    sx = math.sin(point.theta)
    nlm = _norm_assoc_legendre_column(ell, am, x, sx)[ell - am]
    y = nlm * complex(math.cos(am * point.phi), math.sin(am * point.phi))
    if m < 0:
        y = (-1.0) ** am * y.conjugate()
    return y


def sph_harm_all(ell_max: int, point: AngularPoint) -> list[np.ndarray]:
    """All Y_ell^m for ell <= ell_max at one point.

    Returns a list indexed by ell; entry ell is a complex array of length
    2*ell+1 ordered m = -ell..ell.
    """
    _check_degree(ell_max)
    x = math.cos(point.theta)
    sx = math.sin(point.theta)
    # cols[m][ell] = N_ell^m
    cols = [_norm_assoc_legendre_column(ell_max, m, x, sx) for m in range(ell_max + 1)]
    rows = []
    for ell in range(ell_max + 1):
        row = np.empty(2 * ell + 1, dtype=complex)
        for m in range(ell + 1):
            y = cols[m][ell - m] * complex(math.cos(m * point.phi), math.sin(m * point.phi))
            row[ell + m] = y
            if m:
                row[ell - m] = (-1.0) ** m * y.conjugate()
        rows.append(row)
    return rows


def _norm_assoc_legendre_column(ell_max, m, x, sx):
    """N_ell^m(x) for ell = m..ell_max, where Y_ell^m = N_ell^m e^{i m phi}.

    Diagonal seed N_m^m = -sqrt((2m+1)/(2m)) sin(theta) N_{m-1}^{m-1}
    (the minus sign is the Condon-Shortley phase), then the stable upward
    recurrence in ell with coefficients a_ell = sqrt((4 ell^2-1)/(ell^2-m^2)).
    """
    pmm = 1.0 / math.sqrt(4.0 * math.pi)
    for k in range(1, m + 1):
        pmm *= -math.sqrt((2 * k + 1.0) / (2.0 * k)) * sx
    out = [pmm]
    if ell_max == m:
        return out
    pk = x * math.sqrt(2.0 * m + 3.0) * pmm
    out.append(pk)
    pkm1 = pmm
    for ell in range(m + 2, ell_max + 1):
        a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        am1 = math.sqrt((4.0 * (ell - 1) ** 2 - 1.0) / ((ell - 1) ** 2 - m * m))
        pkm1, pk = pk, a * (x * pk - pkm1 / am1)
        out.append(pk)
    return out


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"degree must be a non-negative integer, got {n!r}")


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


def _rescale_pair(vk, vkm1, e):
    """Scale a raw recurrence pair by the power of two that puts its larger
    magnitude in [1/2, 1), moving that power into the exponent e."""
    shift = math.frexp(max(abs(vk), abs(vkm1)))[1]
    return math.ldexp(vk, -shift), math.ldexp(vkm1, -shift), e + shift


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


def _rescale_steps(a_max, b):
    """Steps k before which a recurrence v_{k+1} = a_k v_k - b_k v_{k-1},
    with |a_k| <= a_max[k] at every point, renormalizes.

    In one step max(|v_k|, |v_{k-1}|) grows by at most a_max + b and shrinks
    by at most 2 max(1, a_max) / b (on step 0, where b = 0, it cannot
    shrink).  The logs of these bounds are spent from a budget of _HEADROOM
    that each renormalization refills, so no pair leaves the normal double
    range.  The public evaluators refuse nan points, so every bound is a
    number.
    """
    shrink = np.divide(2.0 * np.maximum(1.0, a_max), b, out=np.ones_like(b), where=b > 0.0)
    steps, budget = set(), _HEADROOM
    for k, growth in enumerate(np.log(np.maximum(a_max + b, shrink)).tolist()):
        if not growth <= budget:
            steps.add(k)
            budget = _HEADROOM
        budget -= growth
    return steps


def _recurrence(s, a_steps, b, a_max, table=None):
    """The one loop of both engines: v_{k+1} = a_k v_k - b_k v_{k-1} from
    v_0 = 1, v_{-1} = 0 at the points of the log offset s, where
    ``a_steps`` yields each step's array a_k and |a_k| <= a_max[k], the
    bound the growth budget spends.  Returns and fills ``table`` as
    :func:`_hermite_engine` documents."""
    vk, vkm1 = np.ones_like(s), np.zeros_like(s)
    if table is not None:
        table[0] = vk
    rescale = _rescale_steps(a_max, b)
    start = 0  # first row of the block that shares the offset s
    for k, (a, bk) in enumerate(zip(a_steps, b.tolist())):
        if k in rescale:
            if table is not None:
                _materialize(table[start : k + 1], s)
                start = k + 1
            vk, vkm1, s = _renormalize(vk, vkm1, s)
        vk, vkm1 = a * vk - bk * vkm1, vk
        if table is not None:
            table[k + 1] = vk
    if table is not None:
        _materialize(table[start:], s)
    return _renormalize(vk, vkm1, s)


def _renormalize(vk, vkm1, s):
    """Pull mantissa pairs back into [1/_RESCALE, _RESCALE] per point.

    The recurrence loop calls this only when its growth budget runs out and
    once before returning; a pair then lies within one factor _RESCALE of that
    range, and the power-of-two rescale changes no mantissa bit (unless it
    takes the smaller value of a pair below the normal range).
    """
    mag = np.maximum(np.abs(vk), np.abs(vkm1))
    big = mag > _RESCALE
    if np.any(big):
        vk = np.where(big, vk / _RESCALE, vk)
        vkm1 = np.where(big, vkm1 / _RESCALE, vkm1)
        s = np.where(big, s + _LOG_RESCALE, s)
    small = (mag < 1.0 / _RESCALE) & (mag > 0.0)
    if np.any(small):
        vk = np.where(small, vk * _RESCALE, vk)
        vkm1 = np.where(small, vkm1 * _RESCALE, vkm1)
        s = np.where(small, s - _LOG_RESCALE, s)
    return vk, vkm1, s


def _materialize(rows, s):
    """Turn mantissa rows that share the per-point log offset s into values
    in place: v exp(s) computed as sign(v) exp(s + log|v|), safe for extreme
    offsets; 0 where v is 0 (np.sign keeps that 0 positive for a -0.0
    mantissa, where np.copysign would not).

    The rows go through in chunks of about _MATERIALIZE_CELLS values, so
    the one temporary, reused by every chunk, stays small next to a table.
    """
    step = max(1, _MATERIALIZE_CELLS // max(1, rows.shape[1]))
    buf = np.empty((min(step, rows.shape[0]), rows.shape[1]))
    with np.errstate(divide="ignore"):
        for lo in range(0, rows.shape[0], step):
            v = rows[lo : lo + step]
            e = np.abs(v, out=buf[: len(v)])
            np.log(e, out=e)
            np.add(s, e, out=e)
            np.exp(e, out=e)
            np.sign(v, out=v)
            v *= e
