"""1D oscillator: spectrum under both conventions, eigenfunctions
against explicit polynomial formulas, Feshbach-Villars identities,
quadrature-exact orthonormality, weak closure, and the finite-difference
residual that adjudicates the spectrum conventions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgo import (
    Branch,
    IntegrandError,
    Mode1D,
    OscillatorParams,
    QuadratureError,
    SpectralProjection,
    SpectrumConvention,
    closure_kernel_1d,
    eigenfunction_1d,
    energy_1d,
    fv_components,
    gauss_hermite,
    gauss_laguerre,
    gram_matrix_1d,
    mode_1d,
    nonrel_energy,
    ode_residual_1d,
    project_1d,
    reconstruct_1d,
)

PRINTED = SpectrumConvention.AS_PRINTED


@pytest.fixture(scope="module")
def printed_params():
    return OscillatorParams(1.0, 1.0, PRINTED)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_energy_values(unit_params, printed_params):
    assert energy_1d(unit_params, 0, Branch.POSITIVE) == 1.0
    assert energy_1d(printed_params, 0, Branch.POSITIVE) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert energy_1d(unit_params, 3, Branch.POSITIVE) == pytest.approx(math.sqrt(7), rel=1e-15)


def test_branch_symmetry_exact(unit_params, printed_params):
    for params in (unit_params, printed_params):
        for n in range(0, 40, 7):
            assert energy_1d(params, n, Branch.NEGATIVE) == -energy_1d(params, n, Branch.POSITIVE)


def test_positive_branch_strictly_positive():
    params = OscillatorParams(0.25, 3.0)
    printed = OscillatorParams(0.25, 3.0, PRINTED)
    for n in range(30):
        assert energy_1d(params, n, Branch.POSITIVE) > 0
        assert energy_1d(printed, n, Branch.POSITIVE) > 0


def test_energy_above_rest_mass(unit_params, printed_params):
    m = unit_params.mass
    for n in range(1, 20):
        assert energy_1d(unit_params, n, Branch.POSITIVE) ** 2 > m * m
        assert energy_1d(printed_params, n, Branch.POSITIVE) ** 2 > m * m
    # equality only in the ode-derived ground state
    assert energy_1d(unit_params, 0, Branch.POSITIVE) ** 2 == m * m
    assert energy_1d(printed_params, 0, Branch.POSITIVE) ** 2 > m * m


def test_nonrel_energy(unit_params):
    assert nonrel_energy(unit_params, 0) == 1.5
    assert nonrel_energy(OscillatorParams(10.0, 1.0), 2) == 12.5


def test_nonrel_limit_taylor_bound():
    # |E_printed - m - w(n+1/2)| <= w^2 (2n+1)^2 / (8m) * 1.01; the 1%
    # headroom absorbs the cancellation noise of the E - m subtraction
    m, w = 1.0e6, 1.0
    params = OscillatorParams(m, w, PRINTED)
    for n in range(6):
        diff = abs(energy_1d(params, n, Branch.POSITIVE) - nonrel_energy(params, n))
        bound = w * w * (2 * n + 1) ** 2 / (8.0 * m)
        assert diff <= bound * 1.01


def test_mode_factory_and_validation(unit_params):
    mode = mode_1d(unit_params, 2, Branch.NEGATIVE)
    assert mode.energy == pytest.approx(-math.sqrt(5), rel=1e-15)
    with pytest.raises(ValueError):
        Mode1D(n=-1, branch=Branch.POSITIVE, energy=1.0)
    with pytest.raises(ValueError):
        Mode1D(n=0, branch=Branch.NEGATIVE, energy=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, -2.0)
    with pytest.raises(ValueError):
        OscillatorParams(math.inf, 1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, math.nan)
    with pytest.raises(ValueError):
        OscillatorParams(1e-24, 1e-300)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, 1.0, "printed")


def test_params_convention_accepts_its_value_string():
    """A convention given by its value is the member itself, so "ode-derived"
    gives the ode-derived spectrum."""
    for convention in SpectrumConvention:
        params = OscillatorParams(1.0, 1.0, convention.value)
        assert params.convention is convention
        assert params == OscillatorParams(1.0, 1.0, convention)
    assert energy_1d(OscillatorParams(1.0, 1.0, "ode-derived"), 3, Branch.POSITIVE) == math.sqrt(7.0)
    assert energy_1d(OscillatorParams(1.0, 1.0, "as-printed"), 3, Branch.POSITIVE) == math.sqrt(8.0)


def test_branch_accepts_its_value_string(unit_params):
    """A branch given by its value acts as the member in energy_1d and
    Mode1D; an unknown value raises ValueError."""
    for branch in Branch:
        assert energy_1d(unit_params, 3, branch.value) == energy_1d(unit_params, 3, branch)
        mode = mode_1d(unit_params, 3, branch.value)
        assert mode.branch is branch
        assert mode == mode_1d(unit_params, 3, branch)
    with pytest.raises(ValueError, match="energy sign"):
        Mode1D(n=0, branch="negative", energy=1.0)
    with pytest.raises(ValueError, match="is not a valid Branch"):
        energy_1d(unit_params, 3, "up")
    with pytest.raises(ValueError, match="is not a valid Branch"):
        Mode1D(n=3, branch="up", energy=1.0)


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_orders_are_refused_by_name(unit_params, bad):
    """A level or truncation that is not a non-negative integer raises
    ValueError naming the argument."""
    rule = gauss_hermite(8)
    calls = [
        ("n", lambda: Mode1D(n=bad, branch=Branch.POSITIVE, energy=1.0)),
        ("n", lambda: energy_1d(unit_params, bad, Branch.POSITIVE)),
        ("n", lambda: nonrel_energy(unit_params, bad)),
        ("N", lambda: closure_kernel_1d(unit_params, bad, 0.1, 0.2)),
        ("n_max", lambda: gram_matrix_1d(unit_params, bad, rule)),
        ("N", lambda: project_1d(unit_params, bad, math.cos, rule)),
        ("n", lambda: eigenfunction_1d(unit_params, bad, 0.3)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be a non-negative integer, got {bad!r}"


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_eigenfunction_ground_state(unit_params):
    assert eigenfunction_1d(unit_params, 0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)
    lam2 = OscillatorParams(2.0, 2.0)  # lambda = 2
    assert eigenfunction_1d(lam2, 0, 0.0) == pytest.approx(
        math.sqrt(2.0) * math.pi ** -0.25, rel=1e-15
    )


def test_eigenfunction_explicit_h4(unit_params):
    # psi_4(x) against the explicit H_4 = 16 xi^4 - 48 xi^2 + 12
    x = 0.5
    h4 = 16 * x**4 - 48 * x**2 + 12
    expected = h4 * math.exp(-x * x / 2) / math.sqrt(math.sqrt(math.pi) * 2**4 * math.factorial(4))
    assert eigenfunction_1d(unit_params, 4, x) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 50), x=st.floats(-8, 8, allow_nan=False))
def test_eigenfunction_parity(n, x):
    params = OscillatorParams(1.0, 2.0)
    assert eigenfunction_1d(params, n, -x) == (-1.0) ** n * eigenfunction_1d(params, n, x)


def test_fv_components_sum_identity(unit_params, rng):
    for n in (0, 1, 5):
        for branch in (Branch.POSITIVE, Branch.NEGATIVE):
            mode = mode_1d(unit_params, n, branch)
            for x in rng.uniform(-3, 3, 5):
                phi, chi = fv_components(unit_params, mode, float(x))
                psi = eigenfunction_1d(unit_params, n, float(x))
                assert abs(phi + chi - psi) <= 1e-15 * max(1.0, abs(psi))


def test_fv_components_unit_energy(unit_params):
    # ode-derived ground state has E = m = 1, so chi vanishes identically
    mode = mode_1d(unit_params, 0, Branch.POSITIVE)
    phi, chi = fv_components(unit_params, mode, 0.7)
    assert chi == 0.0
    assert phi == eigenfunction_1d(unit_params, 0, 0.7)


def test_fv_components_ratio(unit_params):
    mode = mode_1d(unit_params, 2, Branch.POSITIVE)  # E = sqrt(5)
    phi, chi = fv_components(unit_params, mode, 0.0)
    e = math.sqrt(5)
    assert phi / chi == pytest.approx((1 + 1 / e) / (1 - 1 / e), rel=1e-14)


def test_fv_zero_energy_rejected(unit_params):
    broken = Mode1D(n=0, branch=Branch.POSITIVE, energy=0.0)
    with pytest.raises(ValueError):
        fv_components(unit_params, broken, 0.0)


# ---------------------------------------------------------------------------
# orthonormality
# ---------------------------------------------------------------------------


def test_gram_single_mode(unit_params, gh32):
    gram = gram_matrix_1d(unit_params, 0, gh32)
    assert gram.shape == (1, 1)
    assert abs(gram[0, 0] - 1.0) <= 1e-13


def test_gram_identity(unit_params, gh32):
    gram = gram_matrix_1d(unit_params, 10, gh32)
    assert np.max(np.abs(gram - np.eye(11))) <= 1e-12


def test_gram_parity_offdiagonal_exact_zero(unit_params, gh32):
    # symmetric nodes and mirrored weights cancel the odd integrand
    # exactly, before any rounding residue
    gram = gram_matrix_1d(unit_params, 1, gh32)
    assert gram[0, 1] == 0.0
    gram = gram_matrix_1d(unit_params, 31, gh32)
    order = np.arange(32)
    assert np.all(gram[(order[:, None] + order) % 2 == 1] == 0.0)


def test_gram_at_documented_limits(unit_params):
    # orders up to 500 on the largest (512-node) rule
    gram = gram_matrix_1d(unit_params, 500, gauss_hermite(512))
    assert np.max(np.abs(gram - np.eye(501))) <= 1e-10


def test_gram_lambda_independent(gh32):
    gram = gram_matrix_1d(OscillatorParams(3.0, 0.5), 6, gh32)
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


def test_gram_insufficient_rule(unit_params):
    with pytest.raises(QuadratureError):
        gram_matrix_1d(unit_params, 40, gauss_hermite(32))


def test_gram_wrong_family(unit_params):
    with pytest.raises(QuadratureError):
        gram_matrix_1d(unit_params, 4, gauss_laguerre(16, 0.5))


# ---------------------------------------------------------------------------
# closure kernel
# ---------------------------------------------------------------------------


def test_kernel_single_term(unit_params):
    x, x2 = 0.4, -1.1
    expected = eigenfunction_1d(unit_params, 0, x) * eigenfunction_1d(unit_params, 0, x2)
    assert closure_kernel_1d(unit_params, 0, x, x2) == pytest.approx(expected, rel=1e-15)


def test_kernel_symmetry(unit_params, rng):
    for _ in range(10):
        x, x2 = rng.uniform(-4, 4, 2)
        a = closure_kernel_1d(unit_params, 35, float(x), float(x2))
        b = closure_kernel_1d(unit_params, 35, float(x2), float(x))
        assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def test_kernel_origin_term_by_term(unit_params):
    # independent oracle: h_{2k}(0)^2 = (2k)! / (4^k k!^2 sqrt(pi)),
    # assembled in log space and summed exactly
    terms = []
    for k in range(0, 26):
        log_sq = (
            math.lgamma(2 * k + 1)
            - 2 * k * math.log(2.0)
            - 2 * math.lgamma(k + 1)
            - 0.5 * math.log(math.pi)
        )
        terms.append(math.exp(log_sq))
    oracle = math.fsum(terms)
    assert closure_kernel_1d(unit_params, 50, 0.0, 0.0) == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# projection / reconstruction (weak closure)
# ---------------------------------------------------------------------------


def test_project_basis_element(unit_params, gh32):
    proj = project_1d(unit_params, 10, lambda x: eigenfunction_1d(unit_params, 3, x), gh32)
    assert proj.coefficients[3] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(proj.coefficients, 3)
    assert np.max(np.abs(others)) <= 1e-12


def test_project_ladder_identity(gh32):
    # xi h_0 = h_1/sqrt(2) implies <psi_1, x psi_0> = 1/(lambda sqrt(2))
    params = OscillatorParams(2.0, 2.0)  # lambda = 2
    proj = project_1d(params, 6, lambda x: x * eigenfunction_1d(params, 0, x), gh32)
    assert proj.coefficients[1] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)
    others = np.delete(proj.coefficients, 1)
    assert np.max(np.abs(others)) <= 1e-13


def test_project_zero_function(unit_params, gh32):
    proj = project_1d(unit_params, 8, lambda x: 0.0, gh32)
    assert np.all(proj.coefficients == 0.0)


def test_project_requires_enough_nodes(unit_params):
    with pytest.raises(QuadratureError):
        project_1d(unit_params, 40, lambda x: 0.0, gauss_hermite(16))


def test_project_rejects_nan(unit_params, gh32):
    with pytest.raises(IntegrandError):
        project_1d(unit_params, 4, lambda x: float("nan"), gh32)


def test_reconstruct_basis_element(unit_params, gh32):
    proj = project_1d(unit_params, 10, lambda x: eigenfunction_1d(unit_params, 2, x), gh32)
    grid = np.linspace(-6, 6, 101)
    err = np.abs(reconstruct_1d(proj, grid) - eigenfunction_1d(unit_params, 2, grid))
    assert np.max(err) <= 1e-11


def test_reconstruct_in_span_random(unit_params, gh64, rng):
    # weak closure on the span: expand-and-reconstruct is the identity
    coeffs = rng.standard_normal(21)
    f = lambda x: float(np.dot(coeffs, [eigenfunction_1d(unit_params, n, x) for n in range(21)]))
    proj = project_1d(unit_params, 20, f, gh64)
    grid = np.linspace(-5.5, 5.5, 61)
    rec = reconstruct_1d(proj, grid)
    ref = np.array([f(float(x)) for x in grid])
    assert np.max(np.abs(rec - ref)) <= 1e-10


def test_reconstruct_gaussian_error_decreases(unit_params, gh128):
    f = lambda x: math.exp(-x * x)
    grid = np.linspace(-6, 6, 101)
    ref = np.array([f(float(x)) for x in grid])
    errs = []
    for n in (10, 40):
        proj = project_1d(unit_params, n, f, gh128)
        errs.append(np.max(np.abs(reconstruct_1d(proj, grid) - ref)))
    assert errs[1] < errs[0]


def test_project_coefficients_vs_high_resolution_rule(unit_params, gh128):
    # the production-size rule must already agree with a much larger one,
    # i.e. the coefficient integrals are converged, not just consistent
    f = lambda x: math.exp(-x * x)
    coarse = project_1d(unit_params, 40, f, gh128)
    dense = project_1d(unit_params, 40, f, gauss_hermite(320))
    assert np.max(np.abs(coarse.coefficients - dense.coefficients)) <= 1e-13


def test_reconstruct_keeps_the_shape_of_x(unit_params, gh32):
    """A 2-D point set reconstructs in its own shape, to the same bytes as its
    ravel."""
    proj = project_1d(unit_params, 10, lambda x: math.exp(-x * x), gh32)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    rec = reconstruct_1d(proj, x)
    assert rec.shape == (3, 4)
    assert rec.tobytes() == reconstruct_1d(proj, x.ravel()).tobytes()


def test_reconstruct_zero_projection(unit_params, gh32):
    proj = project_1d(unit_params, 8, lambda x: 0.0, gh32)
    assert reconstruct_1d(proj, 0.3) == 0.0


def test_reconstruct_1d_refuses_radial_projection(unit_params, laguerre_rule_cache):
    from kgo import project_radial

    proj = project_radial(unit_params, 2, 4, lambda r: 0.0, laguerre_rule_cache(8, 2.5))
    with pytest.raises(ValueError):
        reconstruct_1d(proj, 1.0)


def test_parseval_bound(unit_params, gh64):
    f = lambda x: math.exp(-((x - 0.5) ** 2))
    proj = project_1d(unit_params, 30, f, gh64)
    # discrete norm with the same rule
    lam = unit_params.lam
    fx = np.array([f(float(x)) for x in gh64.nodes / lam])
    norm_sq = math.fsum(gh64.modified_weights * fx * fx / lam)
    assert np.sum(proj.coefficients**2) <= norm_sq + 1e-12


def test_spectral_projection_validation(unit_params):
    with pytest.raises(ValueError):
        SpectralProjection(
            coefficients=np.zeros(3), truncation=4, params=unit_params, quadrature_count=8
        )
    for bad in (2.0, -1):
        with pytest.raises(ValueError) as info:
            SpectralProjection(coefficients=np.zeros(3), truncation=bad, params=unit_params, quadrature_count=8)
        assert str(info.value) == f"truncation must be a non-negative integer, got {bad!r}"


# ---------------------------------------------------------------------------
# differential-operator residual
# ---------------------------------------------------------------------------


def test_ode_residual_ground_state(unit_params):
    grid = np.arange(-8.0, 8.0 + 1e-12, 0.01)
    assert ode_residual_1d(unit_params, 0, grid, 0.01) <= 1e-3


def test_ode_residual_second_order(unit_params):
    for n in (0, 1, 2):
        coarse = ode_residual_1d(unit_params, n, np.arange(-8.0, 8.0 + 1e-12, 0.01), 0.01)
        fine = ode_residual_1d(unit_params, n, np.arange(-8.0, 8.0 + 1e-12, 0.005), 0.005)
        assert 3.5 <= coarse / fine <= 4.5


def test_ode_residual_flags_printed_convention(printed_params):
    # the printed E_n^2 = m^2 + m w (2n+1) misses the operator's
    # eigenvalue by exactly m w, so the residual sits at that scale
    grid = np.arange(-8.0, 8.0 + 1e-12, 0.01)
    psi_scale = float(np.max(np.abs(eigenfunction_1d(printed_params, 0, grid))))
    resid = ode_residual_1d(printed_params, 0, grid, 0.01)
    assert resid >= 0.5 * printed_params.mass * printed_params.frequency * psi_scale


def test_ode_residual_needs_grid(unit_params):
    with pytest.raises(ValueError):
        ode_residual_1d(unit_params, 0, np.array([0.0, 1.0]), 1.0)


@pytest.mark.parametrize(
    "grid, h, message",
    [
        (np.linspace(-3, 3, 61), 0.0, "h must be positive and finite, got 0.0"),
        (np.linspace(-3, 3, 61), math.nan, "h must be positive and finite, got nan"),
        (np.linspace(-3, 3, 61), math.inf, "h must be positive and finite, got inf"),
        (np.linspace(-3, 3, 61), -0.1, "h must be positive and finite, got -0.1"),
        (np.linspace(-3, 3, 61), 1.0, "grid steps differ from h = 1.0"),
        (np.linspace(-3, 3, 61), 0.1 * (1 + 2e-9), "grid steps differ from h"),
        (np.linspace(-3, 3, 61)[::-1], 0.1, "grid steps differ from h"),
        (np.geomspace(1, 7, 61), 0.1, "grid steps differ from h"),
        (np.array([0.0, 0.1, math.inf, math.inf]), 0.1, "grid steps differ from h = 0.1 by up to nan"),
        (np.linspace(-3, 3, 60).reshape(3, 20), 0.1, "grid must be 1-D with at least 3 points, got shape (3, 20)"),
        (np.linspace(-3, 3, 61)[None, :], 0.1, "grid must be 1-D with at least 3 points, got shape (1, 61)"),
    ],
)
def test_ode_residual_refuses_a_step_its_grid_does_not_have(unit_params, grid, h, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ode_residual_1d(unit_params, 0, grid, h)
