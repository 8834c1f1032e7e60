"""Truncated spectral Green's functions built on the oscillator
eigenbases:

    G_N(x, x'; E^2) = sum_{n<=N} psi_n(x) psi_n(x') / (E^2 - E_n^2)

in one dimension, and the fixed-ell radial reduction with R_{n_r ell} in
three dimensions (the angular factor of the full 3D sum is supplied by
the spherical-harmonic kernel).  Only the truncated form is exposed; the
probe energy must stay a configurable guard distance away from every
eigenvalue in the truncation window, and no i*epsilon prescription is
applied (denominators are real).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximityError
from .quadrature import QuadratureRule
from .oscillator1d import (
    OscillatorParams,
    _coefficients,
    _energy_sq,
    _Line,
    _pair_sum,
    _spectral_sum,
)
from .oscillator3d import _Radial
from .special import _check_degree

__all__ = [
    "GreensQuery",
    "greens_1d",
    "greens_3d_partial_wave",
    "coefficient_deviation_1d",
    "coefficient_deviation_radial",
]


@dataclass(frozen=True)
class GreensQuery:
    """Probe energy squared, truncation order, and minimum allowed
    distance |E^2 - E_n^2| to any eigenvalue in the window."""

    probe_energy_sq: float
    truncation: int
    pole_guard: float

    def __post_init__(self):
        if not math.isfinite(self.probe_energy_sq):
            raise ValueError(f"probe energy squared must be finite, got {self.probe_energy_sq}")
        _check_degree(self.truncation, "truncation")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be positive")


def _denominators(params: OscillatorParams, query: GreensQuery, ell: int | None = None) -> np.ndarray:
    """E^2 - E_n^2 over a Green's truncation window (levels n in 1D, shells
    2 n_r + ell for a radial ell); OverflowError if an E_n^2 is not finite,
    PoleProximityError inside the pole guard."""
    n = np.arange(query.truncation + 1)
    # a huge m w overflows E_n^2 to inf (inf * 0 = nan at shell 0); refused below
    with np.errstate(over="ignore", invalid="ignore"):
        esq = _energy_sq(params, n, 1) if ell is None else _energy_sq(params, 2 * n + ell, 3)
    if not np.all(np.isfinite(esq)):
        raise OverflowError("E_n^2 exceeds the double range")
    denom = query.probe_energy_sq - esq
    worst = int(np.argmin(np.abs(denom)))
    if abs(denom[worst]) < query.pole_guard:
        raise PoleProximityError(worst, ell, distance=float(abs(denom[worst])), guard=query.pole_guard)
    return denom


def greens_1d(params: OscillatorParams, query: GreensQuery, x: float, x2: float) -> float:
    """Truncated 1D spectral Green's function at (x, x')."""
    return _pair_sum(_Line(params), query.truncation, x, x2, _denominators(params, query))


def greens_3d_partial_wave(
    params: OscillatorParams, ell: int, query: GreensQuery, r: float, r2: float
) -> float:
    """Fixed-ell radial Green's function
    sum_{n_r<=N} R_{n_r ell}(r) R_{n_r ell}(r') / (E^2 - E_{2 n_r + ell}^2)."""
    return _pair_sum(_Radial(params, ell), query.truncation, r, r2, _denominators(params, query, ell))


def coefficient_deviation_1d(
    params: OscillatorParams,
    query: GreensQuery,
    x2: float,
    rule: QuadratureRule,
    k_max: int,
) -> float:
    """Max over k <= k_max of |<psi_k, G(., x')> - psi_k(x')/(E^2 - E_k^2)|.

    The spectral representation makes the projection of G onto basis
    element k exactly the k-th term's coefficient; this is the residual
    of that identity under quadrature.
    """
    return _coefficient_deviation(_Line(params), query, x2, rule, k_max)


def coefficient_deviation_radial(
    params: OscillatorParams,
    ell: int,
    query: GreensQuery,
    r2: float,
    rule: QuadratureRule,
    k_max: int,
) -> float:
    """Radial analogue of :func:`coefficient_deviation_1d` at fixed ell."""
    return _coefficient_deviation(_Radial(params, ell), query, r2, rule, k_max)


def _coefficient_deviation(sector, query: GreensQuery, x2: float, rule: QuadratureRule, k_max: int) -> float:
    _check_degree(k_max, "k_max")
    k_max = min(k_max, query.truncation)
    denom = _denominators(sector.params, query, sector.ell)
    sector.require(rule, k_max + 1)
    points, table, scale, at_x2 = sector.nodes(rule, query.truncation, x2)
    greens = _spectral_sum(scale * table, at_x2, denom)
    coeffs = _coefficients(table[: k_max + 1], rule.modified_weights / scale, greens, points, sector.name)
    return float(np.max(np.abs(coeffs - at_x2[: k_max + 1, 0] / denom[: k_max + 1])))
