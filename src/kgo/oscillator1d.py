"""One-dimensional Klein-Gordon oscillator: spectrum, normalized
eigenfunctions, Feshbach-Villars components, orthonormality checks,
truncated closure kernels, and projection/reconstruction operators.

The squared-energy eigenproblem

    [-d^2/dx^2 + m^2 w^2 x^2 - m w] psi = (E^2 - m^2) psi

is the non-relativistic harmonic oscillator in disguise, so the
eigenfunctions are psi_n(x) = sqrt(lambda) h_n(lambda x) with
lambda = sqrt(m w) and h_n the normalized Hermite functions.  Two
spectrum conventions circulate for the same eigenproblem and are kept
behind a flag:

* ``ode-derived`` (default): E^2 = m^2 + 2 m w n, the unique value
  consistent with the differential operator above (its harmonic-form
  right-hand side must equal 2n).
* ``as-printed``: E^2 = m^2 + m w (2n + 1), the closed form commonly
  quoted for this model.

The finite-difference residual check :func:`ode_residual_1d` lets the
two be adjudicated numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrandError, QuadratureError
from .quadrature import GAUSS_HERMITE, QuadratureRule
from .special import _check_degree, hermite_function, hermite_function_table

__all__ = [
    "SpectrumConvention",
    "Branch",
    "OscillatorParams",
    "Mode1D",
    "SpectralProjection",
    "mode_1d",
    "energy_1d",
    "nonrel_energy",
    "eigenfunction_1d",
    "fv_components",
    "gram_matrix_1d",
    "closure_kernel_1d",
    "project_1d",
    "reconstruct_1d",
    "ode_residual_1d",
]


class SpectrumConvention(enum.Enum):
    """Which closed form supplies E_n^2 (see module docstring)."""

    ODE_DERIVED = "ode-derived"
    AS_PRINTED = "as-printed"


class Branch(enum.Enum):
    """Sign of the energy: the spectrum is two-sheeted, E = +-|E_n|."""

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @property
    def sign(self) -> float:
        return 1.0 if self is Branch.POSITIVE else -1.0


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator configuration in natural units (hbar = c = 1)."""

    mass: float
    frequency: float
    convention: SpectrumConvention = SpectrumConvention.ODE_DERIVED

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be positive and finite, got {self.frequency}")
        if self.mass * self.frequency == 0.0:
            raise ValueError(f"mass * frequency underflows to 0 (mass {self.mass}, frequency {self.frequency})")
        # a value string such as "ode-derived" becomes its member; others raise ValueError
        object.__setattr__(self, "convention", SpectrumConvention(self.convention))

    @property
    def lam(self) -> float:
        """Inverse oscillator length lambda = sqrt(mass * frequency)."""
        return math.sqrt(self.mass * self.frequency)


@dataclass(frozen=True)
class Mode1D:
    """Quantum number, energy branch, and the branch-signed energy."""

    n: int
    branch: Branch
    energy: float

    def __post_init__(self):
        _check_degree(self.n, "n")
        # a value string such as "positive" becomes its member; others raise ValueError
        object.__setattr__(self, "branch", Branch(self.branch))
        if self.energy * self.branch.sign < 0:
            raise ValueError("energy sign must match the branch")


@dataclass(frozen=True)
class SpectralProjection:
    """Coefficients of a function in a truncated eigenbasis.

    ``ell`` is None for 1D projections and carries the angular-momentum
    sector for radial ones (needed to reconstruct).
    """

    coefficients: np.ndarray
    truncation: int
    params: OscillatorParams
    quadrature_count: int
    ell: int | None = None

    def __post_init__(self):
        _check_degree(self.truncation, "truncation")
        if self.ell is not None:
            _check_degree(self.ell, "ell")
        if len(self.coefficients) != self.truncation + 1:
            raise ValueError("coefficient count must equal truncation + 1")


def _energy_sq(params: OscillatorParams, shell, dimension: int):
    """E^2 of shell N (scalar or ndarray) in D = 1 or 3 spatial dimensions:
    ode-derived m^2 + 2 m w N, as-printed m^2 + m w (2N + D)."""
    m, w = params.mass, params.frequency
    if params.convention is SpectrumConvention.ODE_DERIVED:
        return m * m + 2.0 * m * w * shell
    return m * m + m * w * (2 * shell + dimension)


def energy_1d(params: OscillatorParams, n: int, branch: Branch) -> float:
    """Branch-signed energy of level n under the configured convention."""
    _check_degree(n, "n")
    return Branch(branch).sign * math.sqrt(_energy_sq(params, n, 1))


def mode_1d(params: OscillatorParams, n: int, branch: Branch) -> Mode1D:
    return Mode1D(n=n, branch=branch, energy=energy_1d(params, n, branch))


def nonrel_energy(params: OscillatorParams, n: int) -> float:
    """Non-relativistic limit value m + w (n + 1/2) of the positive branch."""
    _check_degree(n, "n")
    return params.mass + params.frequency * (n + 0.5)


def eigenfunction_1d(params: OscillatorParams, n: int, x):
    """Normalized eigenfunction psi_n(x) = sqrt(lambda) h_n(lambda x).

    Accepts a scalar or an ndarray.  Beyond |lambda x| ~ 38 the value
    underflows to 0 (the Gaussian factor is below the double range).
    """
    _check_degree(n, "n")
    return math.sqrt(params.lam) * hermite_function(n, _line_argument(params, x))


def _line_argument(params: OscillatorParams, x):
    """xi = lambda x, the argument of h_n in psi_n(x) = sqrt(lambda) h_n(xi).
    A huge finite x overflows xi to inf, where h_n is 0."""
    with np.errstate(over="ignore"):
        return params.lam * np.asarray(x, dtype=float)


def fv_components(params: OscillatorParams, mode: Mode1D, x):
    """Feshbach-Villars components of the two-component state:
    phi = (1 + 1/E)/2 psi_n, chi = (1 - 1/E)/2 psi_n, so phi + chi = psi_n.

    The coefficients are used exactly in this 1/E form (note they add a
    pure number to an inverse energy; the convention is kept as is rather
    than silently rescaled to E/m).  E = 0 is a domain error.
    """
    if mode.energy == 0.0:
        raise ValueError("Feshbach-Villars split is undefined at zero energy")
    psi = eigenfunction_1d(params, mode.n, x)
    inv = 1.0 / mode.energy
    return 0.5 * (1.0 + inv) * psi, 0.5 * (1.0 - inv) * psi


def _require_count(rule: QuadratureRule, min_count: int):
    if rule.count < min_count:
        raise QuadratureError(
            f"rule has {rule.count} nodes but {min_count} are required for an "
            "exact result; refusing to return a silently inexact value"
        )


@dataclass(frozen=True)
class _Line:
    """The 1D sector: psi_n(x) = sqrt(lambda) h_n(lambda x) on Gauss-Hermite
    rules in xi = lambda x.  ``oscillator3d._Radial`` has the same interface.

    A rule keeps no table of its functions at the nodes.  Each operator that
    works at a rule's nodes (Gram matrices, projections, the closure driver
    and the Green's coefficient check) builds the n_max + 1 rows it reads
    through its sector's ``nodes``, the same bits as the first rows of any
    taller table.  ``nodes`` builds the table at any further points in the
    same engine call: the closure driver's grid and the Green's check's x'
    join the nodes, and a projection passes none.  Every column keeps its
    bits in such a joint call: the points of a call set its rescale
    schedule, and a rescale moves only a column's exponent."""

    params: OscillatorParams
    ell = None
    name = "x"

    def require(self, rule: QuadratureRule, min_count: int):
        if rule.family != GAUSS_HERMITE:
            raise QuadratureError(f"need a Gauss-Hermite rule, got {rule.family}")
        _require_count(rule, min_count)

    def nodes(self, rule: QuadratureRule, n_max: int, x):
        """Nodes x_k = xi_k / lambda, the table h_n(xi_k) for n <= n_max, the
        factor s = sqrt(lambda): psi_n(x_k) = s h_n(xi_k), <psi_n, f> = sum_k (w_k / s) h_n(xi_k) f(x_k),
        and ``table(n_max, x)`` at the further points x (may be empty), all from one engine call."""
        lam = self.params.lam
        points, scale = rule.nodes / lam, math.sqrt(lam)
        table = hermite_function_table(n_max, np.concatenate([rule.nodes, np.ravel(_line_argument(self.params, x))]))
        return points, table[:, : rule.count], scale, scale * table[:, rule.count :]

    def table(self, n_max: int, x) -> np.ndarray:
        return math.sqrt(self.params.lam) * hermite_function_table(n_max, _line_argument(self.params, x))


def _gram(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Quadrature Gram matrix sum_k w_k t_i(x_k) t_j(x_k) of a basis table."""
    return (table * weights) @ table.T


def _coefficients(table: np.ndarray, weights: np.ndarray, values: np.ndarray, points, name: str) -> np.ndarray:
    """Quadrature inner products sum_k w_k t_n(x_k) v_k of every basis row
    with values sampled at the nodes; refuses non-finite samples."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(points[~finite][0])
        raise IntegrandError(f"projected function is not finite at {name} = {bad!r}")
    return table @ (weights * values)


def _spectral_sum(table_a: np.ndarray, table_b: np.ndarray, denom=1.0) -> np.ndarray:
    """sum_n a_n b_n / d_n down the order axis of two tables (either may be one
    column): the closure kernel for d = 1, the Green's sum for d_n = E^2 - E_n^2.
    Multiplying before dividing keeps the sum exactly symmetric in a and b."""
    return np.sum(table_a * table_b / np.reshape(denom, (-1, 1)), axis=0)


def _pair_sum(sector, n_max: int, x: float, x2: float, denom=1.0) -> float:
    """sum_{n<=n_max} t_n(x) t_n(x') / d_n over a sector's functions t_n."""
    table = sector.table(n_max, [x, x2])
    return float(_spectral_sum(table[:, :1], table[:, 1:], denom)[0])


def _project(sector, N: int, f, rule: QuadratureRule) -> SpectralProjection:
    """Coefficients of f on a sector's functions t_0..t_N by quadrature."""
    sector.require(rule, N + 1)
    points, table, scale, _ = sector.nodes(rule, N, ())
    values = np.array([float(f(p)) for p in points])
    return SpectralProjection(
        coefficients=_coefficients(table, rule.modified_weights / scale, values, points, sector.name),
        truncation=N,
        params=sector.params,
        quadrature_count=rule.count,
        ell=sector.ell,
    )


def _evaluate(coefficients: np.ndarray, table: np.ndarray, x):
    """sum_n c_n t_n(x) in the shape of x; a float for scalar x."""
    out = (coefficients @ table).reshape(np.shape(x))
    return float(out) if np.ndim(x) == 0 else out


def gram_matrix_1d(params: OscillatorParams, n_max: int, rule: QuadratureRule) -> np.ndarray:
    """Matrix of inner products <psi_i, psi_j> for i, j <= n_max.

    Computed in the dimensionless variable xi = lambda x, where the
    integrand is polynomial times the Hermite weight, so a rule with
    count >= n_max + 1 is exact up to rounding and the result must be the
    identity matrix.  Entries with i + j odd are exactly zero.
    """
    _check_degree(n_max, "n_max")
    _Line(params).require(rule, n_max + 1)
    # h_i h_j has parity (-1)^(i+j) and the rule is symmetric: fold it onto
    # xi >= 0 (weights doubled, xi = 0 counted once) and zero the odd entries
    half = rule.nodes >= 0.0
    weights = np.where(rule.nodes[half] > 0.0, 2.0, 1.0) * rule.modified_weights[half]
    gram = _gram(hermite_function_table(n_max, rule.nodes[half]), weights)
    order = np.arange(n_max + 1)
    gram[(order[:, None] + order) % 2 == 1] = 0.0
    return gram


def closure_kernel_1d(params: OscillatorParams, N: int, x: float, x2: float) -> float:
    """Truncated closure kernel K_N(x, x') = sum_{n<=N} psi_n(x) psi_n(x')."""
    _check_degree(N, "N")
    return _pair_sum(_Line(params), N, x, x2)


def project_1d(params: OscillatorParams, N: int, f, rule: QuadratureRule) -> SpectralProjection:
    """Coefficients c_n = <psi_n, f> for n = 0..N by Gauss-Hermite
    quadrature in xi = lambda x."""
    _check_degree(N, "N")
    return _project(_Line(params), N, f, rule)


def reconstruct_1d(projection: SpectralProjection, x):
    """Evaluate sum_n c_n psi_n(x).

    Accepts a scalar or an ndarray; the projection must be a 1D one.
    """
    if projection.ell is not None:
        raise ValueError(f"projection carries the radial ell = {projection.ell} sector")
    table = _Line(projection.params).table(projection.truncation, x)
    return _evaluate(projection.coefficients, table, x)


def ode_residual_1d(params: OscillatorParams, n: int, grid, h: float) -> float:
    """Max residual of the squared-energy eigenproblem on a uniform grid:

        | -D2_h psi_n + (m^2 w^2 x^2 - m w) psi_n - (E_n^2 - m^2) psi_n |

    with D2_h the central second difference and E_n taken from the
    params' convention.  O(h^2) for the ode-derived convention; bounded
    away from zero (at the m*w*|psi_n| scale) for the other one.

    The grid must be 1-D with at least 3 points, h positive and finite, and
    every grid step within 1e-9 relative of h; otherwise ValueError.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError(f"grid must be 1-D with at least 3 points, got shape {grid.shape}")
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is refused below
        step_error = float(np.max(np.abs(np.diff(grid) - h)))
    if not step_error <= 1e-9 * h:
        raise ValueError(f"grid steps differ from h = {h} by up to {step_error}")
    m, w = params.mass, params.frequency
    psi = eigenfunction_1d(params, n, grid)
    d2 = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / (h * h)
    esq = energy_1d(params, n, Branch.POSITIVE) ** 2
    x_in = grid[1:-1]
    resid = -d2 + (m * m * w * w * x_in * x_in - m * w) * psi[1:-1] - (esq - m * m) * psi[1:-1]
    return float(np.max(np.abs(resid)))
