"""Three-dimensional Klein-Gordon oscillator: radial solutions, spectrum
and degeneracy, full eigenfunctions, radial orthonormality/closure
machinery, and the spherical-harmonic completeness kernel.

After separation Psi = (R(r)/r) Y_ell^m(rhat), the reduced radial
problem

    [-d^2/dr^2 + ell(ell+1)/r^2 + m^2 w^2 r^2] R = (E^2 - m^2 + 3 m w) R

has the normalized solutions

    R_{n_r ell}(r) = sqrt(2 lambda^(2 ell + 3) n_r! / Gamma(n_r+ell+3/2))
                     r^(ell+1) e^(-lambda^2 r^2 / 2)
                     L_{n_r}^(ell+1/2)(lambda^2 r^2)

with principal quantum number N = 2 n_r + ell.  All radial integrals are
carried out in rho = lambda^2 r^2, where products of radial functions
are polynomials against the Laguerre weight rho^(ell+1/2) e^(-rho), so
Gauss-Laguerre rules of sufficient size are exact up to rounding.

None of the closure/projection operations here takes an energy: spatial
completeness is a property of the eigenfunctions alone, and the
interfaces keep it that way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .oscillator1d import (
    Branch,
    OscillatorParams,
    SpectralProjection,
    _energy_sq,
    _evaluate,
    _gram,
    _pair_sum,
    _project,
    _require_count,
)
from .quadrature import GAUSS_LAGUERRE, QuadratureRule, gauss_legendre
from .special import (
    AngularPoint,
    _check_degree,
    laguerre_function,
    laguerre_function_table,
    legendre_p,
    log_gamma,
    sph_harm,
    sph_harm_all,
)

__all__ = [
    "MAX_ELL",
    "RadialMode",
    "Mode3D",
    "Point3",
    "radial_mode",
    "energy_3d",
    "degeneracy",
    "shell_modes",
    "radial_eigenfunction",
    "radial_gram",
    "radial_closure_kernel",
    "project_radial",
    "reconstruct_radial",
    "full_eigenfunction",
    "full_eigenfunction_origin",
    "angular_kernel",
    "angular_kernel_addition",
    "angular_product_grid",
]

MAX_ELL = 64
MAX_RADIAL_ORDER = 200


@dataclass(frozen=True)
class RadialMode:
    """Radial and orbital quantum numbers with N = 2 n_r + ell derived."""

    n_r: int
    ell: int
    N: int
    branch: Branch

    def __post_init__(self):
        _check_degree(self.n_r, "n_r")
        _check_degree(self.ell, "ell")
        if self.N != 2 * self.n_r + self.ell:
            raise ValueError("N must equal 2 n_r + ell")
        # a value string such as "positive" becomes its member; others raise ValueError
        object.__setattr__(self, "branch", Branch(self.branch))


def radial_mode(n_r: int, ell: int, branch: Branch = Branch.POSITIVE) -> RadialMode:
    return RadialMode(n_r=n_r, ell=ell, N=2 * n_r + ell, branch=branch)


@dataclass(frozen=True)
class Mode3D:
    """Full index (n_r, ell, m) of a three-dimensional eigenfunction."""

    radial: RadialMode
    m: int

    def __post_init__(self):
        _check_degree(abs(self.m), "|m|")
        if abs(self.m) > self.radial.ell:
            raise ValueError(f"|m| = {abs(self.m)} exceeds ell = {self.radial.ell}")


@dataclass(frozen=True)
class Point3:
    """Spherical-coordinate point: radius plus direction."""

    r: float
    angular: AngularPoint

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise ValueError(f"r must be finite and >= 0, got {self.r}")


def energy_3d(params: OscillatorParams, N: int, branch: Branch) -> float:
    """Branch-signed energy of shell N under the configured convention:
    ode-derived E^2 = m^2 + 2 m w N, as-printed E^2 = m^2 + m w (2N + 3)."""
    _check_degree(N, "N")
    return Branch(branch).sign * math.sqrt(_energy_sq(params, N, 3))


def degeneracy(N: int) -> int:
    """Number of (ell, m) states in shell N: (N+1)(N+2)/2."""
    _check_degree(N, "N")
    return (N + 1) * (N + 2) // 2


def shell_modes(N: int) -> list[tuple[int, int]]:
    """All (n_r, ell) with 2 n_r + ell = N, sorted by descending ell."""
    _check_degree(N, "N")
    return [((N - ell) // 2, ell) for ell in range(N, -1, -2)]


def _check_in_range(value, name, top):
    """Refuse a value that is not an integer in [0, top], naming it: an
    integer outside the range gets the range message, and anything else
    _check_degree's, before any comparison that would raise TypeError."""
    if isinstance(value, (int, np.integer)) and not 0 <= value <= top:
        raise ValueError(f"{name} must lie in [0, {top}], got {value}")
    _check_degree(value, name)


def radial_eigenfunction(params: OscillatorParams, n_r: int, ell: int, r):
    """Normalized reduced radial eigenfunction R_{n_r ell}(r); R(0) = 0.

    Evaluated as sqrt(2 lambda) rho^(1/4) lf_{n_r}^(ell+1/2)(rho) with
    rho = lambda^2 r^2 and lf the normalized Laguerre function, which
    keeps every factor bounded.  Accepts a scalar or an ndarray of radii
    r >= 0; a negative radius raises ValueError.
    """
    _check_in_range(ell, "ell", MAX_ELL)
    _check_in_range(n_r, "n_r", MAX_RADIAL_ORDER)
    rho, factor = _radial_argument(params, r)
    return factor * laguerre_function(n_r, ell + 0.5, rho)


def _radial_argument(params: OscillatorParams, r):
    """rho = lambda^2 r^2 and the factor sqrt(2 lambda) rho^(1/4) of
    R(r) = factor * lf(rho).  A huge finite r overflows rho to inf, where lf
    is 0; the factor is taken at the largest double instead, so R is 0 there
    rather than inf * 0.  A negative r is refused (-0.0 is the origin)."""
    lam = params.lam
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError(f"r must be >= 0, got {np.min(r)}")
    with np.errstate(over="ignore"):
        rho = r**2 * lam * lam
    return rho, math.sqrt(2.0 * lam) * np.minimum(rho, sys.float_info.max) ** 0.25


@dataclass(frozen=True)
class _Radial:
    """The radial sector of one ell: R_n(r) = sqrt(2 lambda) rho^(1/4) lf_n(rho),
    rho = lambda^2 r^2, on Gauss-Laguerre rules of alpha = ell + 1/2 in rho.
    Like ``oscillator1d._Line`` it builds the table at a rule's nodes itself,
    exactly the n_max + 1 rows an operator reads, with the table at any
    further points in the same engine call, each column with the bits of its
    own call."""

    params: OscillatorParams
    ell: int
    name = "r"

    def __post_init__(self):
        _check_in_range(self.ell, "ell", MAX_ELL)

    def require(self, rule: QuadratureRule, min_count: int):
        _check_in_range(min_count - 1, "n_r", MAX_RADIAL_ORDER)
        if rule.family != GAUSS_LAGUERRE:
            raise QuadratureError(f"need a Gauss-Laguerre rule, got {rule.family}")
        if rule.alpha != self.ell + 0.5:
            raise QuadratureError(
                f"rule has alpha = {rule.alpha} but the ell = {self.ell} sector requires "
                f"alpha = {self.ell + 0.5}"
            )
        _require_count(rule, min_count)

    def nodes(self, rule: QuadratureRule, n_max: int, r):
        """Nodes r_k = sqrt(rho_k) / lambda, the table lf_n(rho_k) for n <= n_max,
        s_k = sqrt(2 lambda) rho_k^(1/4): R_n(r_k) = s_k lf_n(rho_k) and, as
        dr = drho / (2 lambda sqrt(rho)), int R_n f dr = sum_k (w_k / s_k) lf_n(rho_k) f(r_k),
        and ``table(n_max, r)`` at the further radii r (may be empty), all from one engine call."""
        lam = self.params.lam
        points, scale = np.sqrt(rule.nodes) / lam, math.sqrt(2.0 * lam) * rule.nodes**0.25
        rho, factor = _radial_argument(self.params, np.ravel(r))
        table = laguerre_function_table(n_max, self.ell + 0.5, np.concatenate([rule.nodes, rho]))
        return points, table[:, : rule.count], scale, factor * table[:, rule.count :]

    def table(self, n_max: int, r) -> np.ndarray:
        rho, factor = _radial_argument(self.params, np.ravel(r))
        return factor * laguerre_function_table(n_max, self.ell + 0.5, rho)


def radial_gram(params: OscillatorParams, ell: int, n_max: int, rule: QuadratureRule) -> np.ndarray:
    """Matrix of radial inner products integral R_i R_j dr for i, j <= n_max.

    In rho = lambda^2 r^2 the integrand is exactly the product of two
    normalized Laguerre functions, so an alpha = ell + 1/2 rule with
    count >= n_max + 1 reproduces the identity up to rounding.
    """
    _check_in_range(n_max, "n_max", MAX_RADIAL_ORDER)
    _Radial(params, ell).require(rule, n_max + 1)
    return _gram(laguerre_function_table(n_max, ell + 0.5, rule.nodes), rule.modified_weights)


def radial_closure_kernel(params: OscillatorParams, ell: int, N_max: int, r: float, r2: float) -> float:
    """Truncated radial closure kernel sum_{n_r<=N_max} R(r) R(r')."""
    _check_in_range(N_max, "N_max", MAX_RADIAL_ORDER)
    return _pair_sum(_Radial(params, ell), N_max, r, r2)


def project_radial(params: OscillatorParams, ell: int, N_max: int, f, rule: QuadratureRule) -> SpectralProjection:
    """Radial coefficients c_{n_r} = integral R_{n_r ell} f dr for
    n_r = 0..N_max, by Gauss-Laguerre quadrature in rho."""
    _check_in_range(N_max, "N_max", MAX_RADIAL_ORDER)
    return _project(_Radial(params, ell), N_max, f, rule)


def reconstruct_radial(projection: SpectralProjection, r):
    """Evaluate sum_{n_r} c_{n_r} R_{n_r ell}(r).

    Accepts a scalar or an ndarray; the projection must carry its ell.
    """
    if projection.ell is None:
        raise ValueError("projection does not carry an ell sector")
    table = _Radial(projection.params, projection.ell).table(projection.truncation, r)
    return _evaluate(projection.coefficients, table, r)


def full_eigenfunction(params: OscillatorParams, mode: Mode3D, p: Point3) -> complex:
    """Full eigenfunction Psi = (R_{n_r ell}(r)/r) Y_ell^m(rhat).

    The quotient form requires r > 0; for the finite ell = 0 limit at the
    origin use :func:`full_eigenfunction_origin`.
    """
    if p.r <= 0:
        raise ValueError("full_eigenfunction requires r > 0 (see full_eigenfunction_origin)")
    radial = radial_eigenfunction(params, mode.radial.n_r, mode.radial.ell, p.r) / p.r
    return radial * sph_harm(mode.radial.ell, mode.m, p.angular)


def full_eigenfunction_origin(params: OscillatorParams, n_r: int) -> complex:
    """Value of Psi_{n_r, 0, 0} at the origin (the only finite-limit case):
    lim_{r->0} R_{n_r 0}(r)/r times Y_0^0."""
    _check_in_range(n_r, "n_r", MAX_RADIAL_ORDER)
    lam = params.lam
    # R/r -> sqrt(2 lambda^3 n_r!/Gamma(n_r+3/2)) L_{n_r}^(1/2)(0) and
    # L_{n_r}^(1/2)(0) = Gamma(n_r+3/2)/(n_r! Gamma(3/2))
    log_l0 = log_gamma(n_r + 1.5) - log_gamma(n_r + 1.0) - log_gamma(1.5)
    limit = math.sqrt(2.0 * lam**3) * math.exp(
        0.5 * (log_gamma(n_r + 1.0) - log_gamma(n_r + 1.5)) + log_l0
    )
    return complex(limit / math.sqrt(4.0 * math.pi))


def angular_kernel(ell_max: int, a: AngularPoint, b: AngularPoint) -> float:
    """Truncated spherical-harmonic completeness kernel
    sum_{ell<=ell_max} sum_m Y_ell^m(a) conj(Y_ell^m(b)) by the direct
    m-sum (the m and -m terms pair into conjugates, so the sum is real)."""
    _check_degree(ell_max, "ell_max")
    ya = sph_harm_all(ell_max, a)
    yb = sph_harm_all(ell_max, b)
    terms = np.concatenate([ya[ell] * np.conj(yb[ell]) for ell in range(ell_max + 1)])
    return math.fsum(terms.real)


def angular_kernel_addition(ell_max: int, a: AngularPoint, b: AngularPoint) -> float:
    """Same kernel through the Legendre addition theorem:
    sum_ell (2 ell + 1)/(4 pi) P_ell(cos gamma) with gamma the angle
    between the two directions."""
    _check_degree(ell_max, "ell_max")
    cos_gamma = math.cos(a.theta) * math.cos(b.theta) + math.sin(a.theta) * math.sin(
        b.theta
    ) * math.cos(a.phi - b.phi)
    cos_gamma = min(1.0, max(-1.0, cos_gamma))
    terms = [
        (2 * ell + 1) / (4.0 * math.pi) * legendre_p(ell, cos_gamma)
        for ell in range(ell_max + 1)
    ]
    return math.fsum(terms)


def angular_product_grid(n_theta: int, n_phi: int):
    """Quadrature grid over the unit sphere: Gauss-Legendre in cos(theta)
    crossed with a uniform (trapezoid) rule in phi, exact for
    spherical-harmonic products of bandwidth below the rule sizes.

    Returns flat arrays (theta, phi, weight) with sum(weight) = 4 pi.
    """
    _check_degree(n_phi, "n_phi")
    if n_phi == 0:
        raise ValueError("n_phi must be a positive integer, got 0")
    gl = gauss_legendre(n_theta, -1.0, 1.0)
    theta = np.arccos(gl.nodes)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    th_grid, ph_grid = np.meshgrid(theta, phi, indexing="ij")
    w_grid = np.broadcast_to((gl.weights * (2.0 * math.pi / n_phi))[:, None], th_grid.shape)
    return th_grid.ravel(), ph_grid.ravel(), w_grid.ravel().copy()
