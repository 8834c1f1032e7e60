"""Spectral Green's functions: single-term checks, the coefficient
identity under quadrature, pole-guard behavior, residue extraction by
Richardson extrapolation, and the sign structure below the ground level."""

import math

import pytest

from kgo import (
    Branch,
    GreensQuery,
    PoleProximityError,
    coefficient_deviation_1d,
    coefficient_deviation_radial,
    eigenfunction_1d,
    energy_1d,
    energy_3d,
    gauss_laguerre,
    greens_1d,
    greens_3d_partial_wave,
    radial_eigenfunction,
)


def test_query_validation():
    for bad in (-1, 2.5):
        with pytest.raises(ValueError) as info:
            GreensQuery(1.0, bad, 0.1)
        assert str(info.value) == f"truncation must be a non-negative integer, got {bad!r}"
    with pytest.raises(ValueError):
        GreensQuery(1.0, 5, 0.0)
    with pytest.raises(ValueError):
        GreensQuery(math.nan, 5, 0.1)
    with pytest.raises(ValueError):
        GreensQuery(math.inf, 5, 0.1)


def test_single_term_1d(unit_params):
    query = GreensQuery(probe_energy_sq=5.0, truncation=0, pole_guard=0.5)
    x, x2 = 0.3, -0.9
    e0sq = energy_1d(unit_params, 0, Branch.POSITIVE) ** 2
    expected = (
        eigenfunction_1d(unit_params, 0, x)
        * eigenfunction_1d(unit_params, 0, x2)
        / (5.0 - e0sq)
    )
    assert greens_1d(unit_params, query, x, x2) == pytest.approx(expected, rel=1e-15)


def test_single_term_radial(unit_params):
    query = GreensQuery(probe_energy_sq=5.5, truncation=0, pole_guard=0.5)
    r, r2 = 0.7, 1.4
    e0sq = energy_3d(unit_params, 0, Branch.POSITIVE) ** 2
    expected = (
        radial_eigenfunction(unit_params, 0, 0, r)
        * radial_eigenfunction(unit_params, 0, 0, r2)
        / (5.5 - e0sq)
    )
    assert greens_3d_partial_wave(unit_params, 0, query, r, r2) == pytest.approx(
        expected, rel=1e-15
    )


def test_symmetry(unit_params, rng):
    query = GreensQuery(7.3, 25, 0.05)
    for _ in range(5):
        x, x2 = rng.uniform(-2.5, 2.5, 2)
        assert greens_1d(unit_params, query, float(x), float(x2)) == greens_1d(
            unit_params, query, float(x2), float(x)
        )
    rquery = GreensQuery(9.7, 20, 0.05)
    for _ in range(5):
        r, r2 = rng.uniform(0.2, 3.0, 2)
        assert greens_3d_partial_wave(
            unit_params, 1, rquery, float(r), float(r2)
        ) == greens_3d_partial_wave(unit_params, 1, rquery, float(r2), float(r))


def test_coefficient_identity_1d(unit_params, gh64):
    query = GreensQuery(7.3, 25, 0.05)
    assert coefficient_deviation_1d(unit_params, query, 0.3, gh64, 10) <= 1e-9


def test_coefficient_identity_radial(unit_params):
    rule = gauss_laguerre(64, 2.5)
    query = GreensQuery(9.7, 20, 0.05)
    assert coefficient_deviation_radial(unit_params, 2, query, 0.7, rule, 10) <= 1e-9


@pytest.mark.parametrize("k_max", [-3, -1, 2.5])
def test_coefficient_deviation_checks_k_max(unit_params, gh64, k_max):
    """k_max is an order: a negative or fractional one is refused by name in
    both sectors, not turned into a silent slice or a numpy error."""
    query = GreensQuery(7.3, 25, 1e-6)
    message = f"k_max must be a non-negative integer, got {k_max!r}"
    with pytest.raises(ValueError) as info:
        coefficient_deviation_1d(unit_params, query, 0.3, gh64, k_max)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        coefficient_deviation_radial(unit_params, 2, query, 0.3, gauss_laguerre(41, 2.5), k_max)
    assert str(info.value) == message


def test_pole_guard_names_level(unit_params):
    # ode-derived: E_n^2 = 1 + 2n, so 7.05 sits 0.05 from n = 3
    with pytest.raises(PoleProximityError) as info:
        greens_1d(unit_params, GreensQuery(7.05, 25, 0.1), 0.0, 0.1)
    assert info.value.n == 3
    assert info.value.ell is None


def test_pole_guard_radial_names_pair(unit_params):
    # ell = 2: E^2 = 1 + 2(2 n_r + 2); n_r = 1 gives 9
    with pytest.raises(PoleProximityError) as info:
        greens_3d_partial_wave(unit_params, 2, GreensQuery(9.001, 10, 0.01), 0.5, 0.5)
    assert info.value.n == 1
    assert info.value.ell == 2


def test_pole_guard_respects_truncation(unit_params):
    # a pole beyond the truncation window is not guarded
    query = GreensQuery(probe_energy_sq=61.0000001, truncation=5, pole_guard=0.01)
    value = greens_1d(unit_params, query, 0.2, 0.2)
    assert math.isfinite(value)


def test_sign_structure_below_ground(unit_params):
    query = GreensQuery(0.5, 30, 1e-3)
    for x in (0.0, 0.4, 1.3):
        assert greens_1d(unit_params, query, x, x) < 0.0


def test_residue_extraction_radial(unit_params):
    # (E^2 - E_N^2) G -> R(r) R(r') as E^2 -> E_N^2; Richardson on a
    # 4-point epsilon sequence removes the analytic background
    ell, n_r = 1, 2
    target = energy_3d(unit_params, 2 * n_r + ell, Branch.POSITIVE) ** 2
    r, r2 = 0.9, 1.6
    expected = radial_eigenfunction(unit_params, n_r, ell, r) * radial_eigenfunction(
        unit_params, n_r, ell, r2
    )
    eps0 = 0.1
    samples = []
    for j in range(4):
        eps = eps0 / 2**j
        query = GreensQuery(target + eps, 20, eps / 2)
        samples.append(eps * greens_3d_partial_wave(unit_params, ell, query, r, r2))
    # successive Richardson elimination of the eps, eps^2, eps^3 terms
    work = list(samples)
    for level in range(1, 4):
        work = [
            (2**level * work[i + 1] - work[i]) / (2**level - 1)
            for i in range(len(work) - 1)
        ]
    assert work[0] == pytest.approx(expected, abs=1e-6)


def test_residue_extraction_1d(unit_params):
    n = 3
    target = energy_1d(unit_params, n, Branch.POSITIVE) ** 2
    x, x2 = 0.4, -0.2
    expected = eigenfunction_1d(unit_params, n, x) * eigenfunction_1d(unit_params, n, x2)
    eps0 = 0.1
    samples = []
    for j in range(4):
        eps = eps0 / 2**j
        query = GreensQuery(target + eps, 25, eps / 2)
        samples.append(eps * greens_1d(unit_params, query, x, x2))
    work = list(samples)
    for level in range(1, 4):
        work = [
            (2**level * work[i + 1] - work[i]) / (2**level - 1)
            for i in range(len(work) - 1)
        ]
    assert work[0] == pytest.approx(expected, abs=1e-6)


def _term_magnitudes(params, x, x2, probe, n_max):
    out = []
    for n in range(n_max + 1):
        esq = energy_1d(params, n, Branch.POSITIVE) ** 2
        term = (
            eigenfunction_1d(params, n, x) * eigenfunction_1d(params, n, x2) / (probe - esq)
        )
        out.append(abs(term))
    return out


def _stride4_onset(terms):
    n_max = len(terms) - 1
    for n_star in range(4, n_max + 1):
        ok = True
        for n in range(n_star, n_max + 1):
            if terms[n - 4] > 0 and not terms[n] < terms[n - 4]:
                ok = False
                break
            if terms[n - 4] == 0 and terms[n] > 0:
                ok = False
                break
        if ok:
            return n_star
    return None


def test_term_decay_recorded(unit_params):
    # the stride-4 decay onset is configuration-specific, not universal:
    # at the origin parity suppresses the oscillating terms and the even
    # envelope decreases strictly, while generic points keep oscillating
    terms = _term_magnitudes(unit_params, 0.0, 0.0, 0.5, 60)
    onset = _stride4_onset(terms)
    assert onset is not None
    print(f"term-decay onset at (0, 0): n* = {onset}")
    generic = _stride4_onset(_term_magnitudes(unit_params, 0.8, -0.5, 0.5, 60))
    print(f"term-decay onset at (0.8, -0.5): {generic} (None = no onset in window)")
