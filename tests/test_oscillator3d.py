"""3D oscillator: spectrum/degeneracy bookkeeping, radial eigenfunctions
against closed forms and a term-by-term scipy oracle, quadrature-exact
radial orthonormality, weak radial closure, full eigenfunctions on
product grids, and the dual-path spherical-harmonic kernel."""

import math

import numpy as np
import pytest
import scipy.special

from kgo import (
    AngularPoint,
    Branch,
    GreensQuery,
    Mode3D,
    OscillatorParams,
    Point3,
    QuadratureError,
    RadialMode,
    SpectralProjection,
    SpectrumConvention,
    angular_kernel,
    angular_kernel_addition,
    angular_product_grid,
    closure_kernel_1d,
    coefficient_deviation_radial,
    degeneracy,
    eigenfunction_1d,
    energy_3d,
    full_eigenfunction,
    full_eigenfunction_origin,
    gauss_hermite,
    gauss_laguerre,
    greens_3d_partial_wave,
    hermite_function_table,
    laguerre_function_table,
    legendre_p,
    project_radial,
    radial_closure_kernel,
    radial_eigenfunction,
    radial_gram,
    radial_mode,
    reconstruct_radial,
    shell_modes,
    sph_harm,
)

PRINTED = SpectrumConvention.AS_PRINTED


def radial_oracle(params, n_r, ell, r):
    """R_{n_r ell}(r) from the raw closed form (scipy Laguerre + lgamma)."""
    lam = params.lam
    log_norm = 0.5 * (
        math.log(2.0)
        + (2 * ell + 3) * math.log(lam)
        + math.lgamma(n_r + 1)
        - math.lgamma(n_r + ell + 1.5)
    )
    rho = lam * lam * r * r
    return (
        math.exp(log_norm)
        * r ** (ell + 1)
        * math.exp(-rho / 2.0)
        * scipy.special.eval_genlaguerre(n_r, ell + 0.5, rho)
    )


# ---------------------------------------------------------------------------
# spectrum, degeneracy, shells
# ---------------------------------------------------------------------------


def test_energy_values(unit_params):
    printed = OscillatorParams(1.0, 1.0, PRINTED)
    assert energy_3d(unit_params, 0, Branch.POSITIVE) == 1.0
    assert energy_3d(printed, 0, Branch.POSITIVE) == 2.0
    assert energy_3d(unit_params, 2, Branch.POSITIVE) == pytest.approx(math.sqrt(5), rel=1e-15)
    assert energy_3d(unit_params, 2, Branch.NEGATIVE) == -energy_3d(unit_params, 2, Branch.POSITIVE)


def test_energy_depends_only_on_shell(unit_params):
    # (n_r, ell) enters only through N = 2 n_r + ell
    for n_r, ell in shell_modes(6):
        mode = radial_mode(n_r, ell)
        assert mode.N == 6
        assert energy_3d(unit_params, mode.N, Branch.POSITIVE) == energy_3d(
            unit_params, 6, Branch.POSITIVE
        )


def test_degeneracy_values():
    assert degeneracy(0) == 1
    assert degeneracy(2) == 6
    assert degeneracy(5) == 21
    assert degeneracy(5) == sum(2 * ell + 1 for _, ell in shell_modes(5))


def test_shell_modes():
    assert shell_modes(0) == [(0, 0)]
    assert shell_modes(3) == [(0, 3), (1, 1)]
    assert shell_modes(6) == [(0, 6), (1, 4), (2, 2), (3, 0)]
    assert sum(2 * ell + 1 for _, ell in shell_modes(6)) == degeneracy(6) == 28


def test_shell_parity_and_counting():
    for N in range(31):
        modes = shell_modes(N)
        for n_r, ell in modes:
            assert 2 * n_r + ell == N
            assert ell % 2 == N % 2
        assert sum(2 * ell + 1 for _, ell in modes) == degeneracy(N)


def test_mode_validation():
    with pytest.raises(ValueError):
        RadialMode(n_r=1, ell=2, N=3, branch=Branch.POSITIVE)  # N != 2n_r + ell
    with pytest.raises(ValueError):
        Mode3D(radial=radial_mode(0, 1), m=2)
    with pytest.raises(ValueError):
        Point3(-0.5, AngularPoint(0.1, 0.1))
    with pytest.raises(ValueError):
        Point3(math.inf, AngularPoint(0.1, 0.1))


def test_branch_accepts_its_value_string(unit_params):
    """A branch given by its value acts as the member in energy_3d and
    RadialMode; an unknown value raises ValueError."""
    for branch in Branch:
        assert energy_3d(unit_params, 3, branch.value) == energy_3d(unit_params, 3, branch)
        mode = radial_mode(1, 2, branch.value)
        assert mode.branch is branch
        assert mode == radial_mode(1, 2, branch)
    assert energy_3d(unit_params, 3, "negative") == -math.sqrt(7.0)
    with pytest.raises(ValueError, match="is not a valid Branch"):
        energy_3d(unit_params, 3, "up")
    with pytest.raises(ValueError, match="is not a valid Branch"):
        radial_mode(1, 2, "up")


def _refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_quantum_numbers_are_refused_by_name(unit_params, bad):
    """A shell or radial quantum number, or an angular truncation, that is
    not a non-negative integer raises ValueError naming the argument."""
    a, b = AngularPoint(0.3, 1.0), AngularPoint(1.2, 2.0)
    calls = [
        ("n_r", lambda: radial_mode(bad, 2)),
        ("ell", lambda: radial_mode(1, bad)),
        ("N", lambda: energy_3d(unit_params, bad, Branch.POSITIVE)),
        ("N", lambda: degeneracy(bad)),
        ("N", lambda: shell_modes(bad)),
        ("ell_max", lambda: angular_kernel(bad, a, b)),
        ("ell_max", lambda: angular_kernel_addition(bad, a, b)),
    ]
    for name, call in calls:
        assert _refusal(call) == f"{name} must be a non-negative integer, got {bad!r}"


def test_fractional_orders_are_refused(unit_params):
    """A fractional n_r, ell or m inside the supported range is refused rather
    than run (a fractional ell would change the Laguerre alpha); values
    outside the range keep the range message."""
    non_integer = "{} must be a non-negative integer, got {}"
    cases = [
        (lambda: radial_closure_kernel(unit_params, 1.5, 3, 0.4, 0.5), non_integer.format("ell", 1.5)),
        (lambda: radial_closure_kernel(unit_params, 1, 2.5, 0.4, 0.5), non_integer.format("N_max", 2.5)),
        (lambda: radial_eigenfunction(unit_params, 1, 1.5, 0.4), non_integer.format("ell", 1.5)),
        (lambda: full_eigenfunction_origin(unit_params, 1.5), non_integer.format("n_r", 1.5)),
        (lambda: Mode3D(radial_mode(1, 2), 1.5), non_integer.format("|m|", 1.5)),
        (lambda: Mode3D(radial_mode(1, 2), -1.5), non_integer.format("|m|", 1.5)),
        (lambda: radial_eigenfunction(unit_params, 1, 65, 0.4), "ell must lie in [0, 64], got 65"),
        (lambda: radial_eigenfunction(unit_params, -1, 1, 0.4), "n_r must lie in [0, 200], got -1"),
    ]
    for call, message in cases:
        assert _refusal(call) == message


@pytest.mark.parametrize("bad", [-1, 2.5, "3", None])
def test_radial_orders_are_refused_by_name(unit_params, bad):
    """Each radial entry point refuses a quantum number or truncation that is
    not an integer in its range with ValueError naming the argument, the
    type checked before any comparison: an integer outside the range gets
    the range message, anything else the non-negative-integer one."""
    rule = gauss_laguerre(8, 0.5)
    calls = [
        ("n_r", 200, lambda: radial_eigenfunction(unit_params, bad, 2, 1.0)),
        ("ell", 64, lambda: radial_eigenfunction(unit_params, 2, bad, 1.0)),
        ("n_r", 200, lambda: full_eigenfunction_origin(unit_params, bad)),
        ("n_max", 200, lambda: radial_gram(unit_params, 0, bad, rule)),
        ("N_max", 200, lambda: radial_closure_kernel(unit_params, 0, bad, 0.1, 0.2)),
        ("N_max", 200, lambda: project_radial(unit_params, 0, bad, math.cos, rule)),
    ]
    for name, top, call in calls:
        if bad == -1:
            expected = f"{name} must lie in [0, {top}], got -1"
        else:
            expected = f"{name} must be a non-negative integer, got {bad!r}"
        assert _refusal(call) == expected


@pytest.mark.parametrize(
    "ell, message",
    [
        (1.5, "ell must be a non-negative integer, got 1.5"),
        (-1, "ell must lie in [0, 64], got -1"),
        (65, "ell must lie in [0, 64], got 65"),
    ],
)
def test_every_radial_entry_point_refuses_a_bad_ell(unit_params, ell, message):
    """The radial sector checks its ell once, so the Green's sums and the
    reconstruction refuse it as the eigenfunction does (a fractional ell
    would run the recurrence at another Laguerre alpha)."""
    rule, query = gauss_laguerre(8, 0.5), GreensQuery(7.3, 4, 1e-6)
    calls = [
        lambda: radial_eigenfunction(unit_params, 1, ell, 0.4),
        lambda: radial_gram(unit_params, ell, 3, rule),
        lambda: radial_closure_kernel(unit_params, ell, 3, 0.4, 0.5),
        lambda: project_radial(unit_params, ell, 3, lambda r: math.exp(-r * r), rule),
        lambda: greens_3d_partial_wave(unit_params, ell, query, 0.2, 0.3),
        lambda: coefficient_deviation_radial(unit_params, ell, query, 0.3, rule, 3),
    ]
    for call in calls:
        assert _refusal(call) == message
    # a projection refuses an ell that is not a non-negative integer itself;
    # one above the range is refused when it is reconstructed
    if ell == 65:
        projection = SpectralProjection(np.ones(3), 2, unit_params, 10, ell=ell)
        assert _refusal(lambda: reconstruct_radial(projection, 0.4)) == message
    else:
        expected = f"ell must be a non-negative integer, got {ell!r}"
        assert _refusal(lambda: SpectralProjection(np.ones(3), 2, unit_params, 10, ell=ell)) == expected


@pytest.mark.parametrize(
    "n_phi, message",
    [
        (2.5, "n_phi must be a non-negative integer, got 2.5"),
        (-1, "n_phi must be a non-negative integer, got -1"),
        (0, "n_phi must be a positive integer, got 0"),
    ],
)
def test_angular_grid_refuses_a_bad_phi_count(n_phi, message):
    assert _refusal(lambda: angular_product_grid(4, n_phi)) == message


# ---------------------------------------------------------------------------
# radial eigenfunctions
# ---------------------------------------------------------------------------


def test_radial_vanishes_at_origin(unit_params):
    for ell in (0, 1, 4):
        assert radial_eigenfunction(unit_params, 0, ell, 0.0) == 0.0


def test_radial_ground_closed_form(unit_params):
    # R_00(1) = sqrt(2/Gamma(3/2)) e^{-1/2} = 2 e^{-1/2} / pi^{1/4}
    expected = 2.0 * math.exp(-0.5) / math.pi**0.25
    assert radial_eigenfunction(unit_params, 0, 0, 1.0) == pytest.approx(expected, rel=1e-13)


def test_radial_against_scipy_oracle(unit_params, rng):
    for _ in range(40):
        n_r = int(rng.integers(0, 12))
        ell = int(rng.integers(0, 8))
        r = float(rng.uniform(0.05, 5.0))
        oracle = radial_oracle(unit_params, n_r, ell, r)
        mine = radial_eigenfunction(unit_params, n_r, ell, r)
        assert mine == pytest.approx(oracle, rel=1e-11, abs=1e-13)


def test_radial_unit_norm(laguerre_rule_cache):
    # integral R^2 dr = 1 with dr = drho / (2 lambda sqrt(rho))
    for params in (OscillatorParams(1.0, 1.0), OscillatorParams(2.0, 1.5)):
        for n_r, ell in ((0, 0), (3, 2), (10, 5)):
            rule = laguerre_rule_cache(n_r + 8, ell + 0.5)
            vals = radial_eigenfunction(params, n_r, ell, np.sqrt(rule.nodes) / params.lam)
            norm = math.fsum(
                rule.modified_weights * vals * vals / (2.0 * params.lam * np.sqrt(rule.nodes))
            )
            assert norm == pytest.approx(1.0, abs=1e-12)


def test_radial_order_limits(unit_params):
    with pytest.raises(ValueError):
        radial_eigenfunction(unit_params, 0, 65, 1.0)
    with pytest.raises(ValueError):
        radial_eigenfunction(unit_params, 201, 0, 1.0)


def test_negative_radius_is_refused(unit_params, laguerre_rule_cache):
    """A radius below 0 is refused, not evaluated at |r|, by every radial
    evaluator; -0.0 is the origin."""
    with pytest.raises(ValueError, match="r must be >= 0"):
        radial_eigenfunction(unit_params, 1, 1, -0.7)
    with pytest.raises(ValueError, match="r must be >= 0"):
        radial_eigenfunction(unit_params, 1, 1, np.array([0.7, -0.2]))
    proj = project_radial(unit_params, 1, 6, lambda r: r * r * math.exp(-r * r), laguerre_rule_cache(16, 1.5))
    with pytest.raises(ValueError, match="r must be >= 0"):
        reconstruct_radial(proj, np.array([0.3, -0.3]))
    with pytest.raises(ValueError, match="r must be >= 0"):
        radial_closure_kernel(unit_params, 1, 4, 0.5, -0.5)
    assert radial_eigenfunction(unit_params, 1, 1, -0.0) == radial_eigenfunction(unit_params, 1, 1, 0.0) == 0.0
    assert reconstruct_radial(proj, -0.0) == reconstruct_radial(proj, 0.0)


# ---------------------------------------------------------------------------
# radial orthonormality
# ---------------------------------------------------------------------------


def test_radial_gram_single(unit_params, laguerre_rule_cache):
    gram = radial_gram(unit_params, 0, 0, laguerre_rule_cache(8, 0.5))
    assert abs(gram[0, 0] - 1.0) <= 1e-13


def test_radial_gram_identity(unit_params, laguerre_rule_cache):
    gram = radial_gram(unit_params, 3, 20, laguerre_rule_cache(64, 3.5))
    assert np.max(np.abs(gram - np.eye(21))) <= 1e-11


def test_radial_gram_at_documented_limits(unit_params):
    # ell = 64 and n_r = 200, the largest supported sector and order
    gram = radial_gram(unit_params, 64, 200, gauss_laguerre(201, 64.5))
    assert np.max(np.abs(gram - np.eye(201))) <= 1e-10


def test_radial_gram_every_small_ell(unit_params, laguerre_rule_cache):
    for ell in range(11):
        gram = radial_gram(unit_params, ell, 60, laguerre_rule_cache(72, ell + 0.5))
        assert np.max(np.abs(gram - np.eye(61))) <= 1e-10


def test_radial_gram_wrong_alpha(unit_params):
    rule = gauss_laguerre(32, 4.0)  # ell + 1 instead of ell + 1/2
    with pytest.raises(QuadratureError):
        radial_gram(unit_params, 3, 10, rule)


def test_radial_gram_refuses_a_hermite_rule(unit_params):
    with pytest.raises(QuadratureError, match="need a Gauss-Laguerre rule"):
        radial_gram(unit_params, 1, 3, gauss_hermite(8))


def test_radial_gram_insufficient_count(unit_params, laguerre_rule_cache):
    with pytest.raises(QuadratureError):
        radial_gram(unit_params, 0, 30, laguerre_rule_cache(8, 0.5))


# ---------------------------------------------------------------------------
# radial closure
# ---------------------------------------------------------------------------


def test_radial_kernel_single_term(unit_params):
    r, r2 = 0.8, 1.7
    expected = radial_eigenfunction(unit_params, 0, 2, r) * radial_eigenfunction(
        unit_params, 0, 2, r2
    )
    assert radial_closure_kernel(unit_params, 2, 0, r, r2) == pytest.approx(expected, rel=1e-14)


def test_radial_kernel_symmetry(unit_params, rng):
    for _ in range(8):
        r, r2 = rng.uniform(0.1, 4.0, 2)
        a = radial_closure_kernel(unit_params, 1, 25, float(r), float(r2))
        b = radial_closure_kernel(unit_params, 1, 25, float(r2), float(r))
        assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def test_radial_kernel_term_by_term(unit_params):
    # independent summation through the scipy-based closed form
    oracle = math.fsum(
        radial_oracle(unit_params, n, 1, 1.0) ** 2 for n in range(31)
    )
    mine = radial_closure_kernel(unit_params, 1, 30, 1.0, 1.0)
    assert mine == pytest.approx(oracle, rel=1e-12)


# Christoffel-Darboux (Szego, Orthogonal Polynomials, Thm 3.2.2) gives each
# truncated kernel from its two top orders alone, independent of the term
# by term sum.  Off the diagonal only: near x = x' the formula cancels.
# Measured: at most 1.7e-15 in 1D and 8.3e-16 radial, relative to sqrt(N)
# times the largest squared eigenfunction value in the table.
CHRISTOFFEL_DARBOUX_TOL = 1e-14
RADIAL_PAIRS = [(0.1, 5.47), (1.0, 2.5), (3.0, 5.47), (10.0, 20.0), (25.0, 29.5), (2.0, 28.0)]


@pytest.mark.parametrize(
    "ell, N, pairs",
    [
        (None, 500, [(1.0, 2.0), (20.0, 21.5), (29.0, -29.5), (-30.0, 12.25), (0.0, 30.0)]),
        (0, 200, RADIAL_PAIRS),
        (64, 200, RADIAL_PAIRS),
    ],
    ids=["1d", "radial-ell0", "radial-ell64"],
)
def test_closure_kernel_matches_christoffel_darboux(unit_params, ell, N, pairs):
    """1D: sum h_n(x) h_n(x') = sqrt((N+1)/2) (h_{N+1}(x) h_N(x') - h_N(x) h_{N+1}(x')) / (x - x').
    Radial, in rho = r^2: sum lf_n(rho) lf_n(rho') = -sqrt((N+1)(N+1+alpha))
    (lf_{N+1}(rho) lf_N(rho') - lf_N(rho) lf_{N+1}(rho')) / (rho - rho'), and
    R_n(r) = sqrt(2) rho^(1/4) lf_n(rho) at unit params."""
    for x, x2 in pairs:
        if ell is None:
            kernel = closure_kernel_1d(unit_params, N, x, x2)
            args = np.array([x, x2])
            table, factor = hermite_function_table(N + 1, args), np.ones(2)
            top = math.sqrt((N + 1) / 2)
        else:
            kernel = radial_closure_kernel(unit_params, ell, N, x, x2)
            args = np.array([x, x2]) ** 2
            table, factor = laguerre_function_table(N + 1, ell + 0.5, args), np.sqrt(2.0) * args**0.25
            top = -math.sqrt((N + 1) * (N + 1.5 + ell))
        cross = table[N + 1, 0] * table[N, 1] - table[N, 0] * table[N + 1, 1]
        formula = factor[0] * factor[1] * top * cross / (args[0] - args[1])
        scale = math.sqrt(N) * np.max((factor * table) ** 2)
        assert abs(kernel - formula) <= CHRISTOFFEL_DARBOUX_TOL * scale, (x, x2)


def test_project_radial_basis_element(unit_params, laguerre_rule_cache):
    rule = laguerre_rule_cache(32, 0.5)
    proj = project_radial(
        unit_params, 0, 10, lambda r: radial_eigenfunction(unit_params, 2, 0, r), rule
    )
    assert proj.coefficients[2] == pytest.approx(1.0, abs=1e-11)
    assert np.max(np.abs(np.delete(proj.coefficients, 2))) <= 1e-11
    assert proj.ell == 0


def test_project_radial_zero(unit_params, laguerre_rule_cache):
    proj = project_radial(unit_params, 2, 6, lambda r: 0.0, laguerre_rule_cache(16, 2.5))
    assert np.all(proj.coefficients == 0.0)


def test_reconstruct_radial_error_decreases(unit_params, laguerre_rule_cache):
    ell = 2
    f = lambda r: r ** (ell + 1) * math.exp(-r * r)
    rule = laguerre_rule_cache(104, ell + 0.5)
    grid = np.linspace(0.05, 6.0, 101)
    ref = np.array([f(float(r)) for r in grid])
    errs = []
    for n in (10, 40):
        proj = project_radial(unit_params, ell, n, f, rule)
        errs.append(np.max(np.abs(reconstruct_radial(proj, grid) - ref)))
    assert errs[1] < errs[0]


def test_reconstruct_radial_keeps_input_shape(unit_params, laguerre_rule_cache):
    proj = project_radial(unit_params, 1, 6, lambda r: r * r * math.exp(-r * r), laguerre_rule_cache(16, 1.5))
    grid = np.linspace(0.1, 3.0, 6)
    flat = reconstruct_radial(proj, grid)
    assert np.array_equal(reconstruct_radial(proj, grid.reshape(2, 3)), flat.reshape(2, 3))
    assert reconstruct_radial(proj, 0.7) == reconstruct_radial(proj, np.array([0.7]))[0]


def test_reconstruct_radial_requires_ell(unit_params, gh32):
    from kgo import project_1d

    proj = project_1d(unit_params, 4, lambda x: 0.0, gh32)
    with pytest.raises(ValueError):
        reconstruct_radial(proj, 1.0)


# Shell-projector bound, in eps times the summed magnitudes of both forms'
# terms: at 20 pairs each of seeds 0-109 the error reached 157 (16 at the
# pairs below).
SHELL_EPS = 400.0


def test_shell_projector_cartesian_equals_spherical():
    """The projector onto shell N = 2 n_r + ell, N <= 64, written two ways:
    sum_{n1+n2+n3=N} prod_i psi_{n_i}(x_i) psi_{n_i}(x'_i), the coefficient of
    z^N in the product of the three axes' series sum_n psi_n(x_i) psi_n(x'_i) z^n,
    equals sum_ell R_{n_r ell}(r) R_{n_r ell}(r') / (r r') (2 ell + 1) / (4 pi)
    P_ell(cos gamma), at 20 point pairs with m = 1.3, w = 0.7, within
    SHELL_EPS eps times the summed magnitudes of both forms' terms.  It ties
    the 1D sector to the radial one at every ell up to 64 and n_r up to 32,
    through public functions only."""
    params, top = OscillatorParams(1.3, 0.7), 64
    p, q = np.random.default_rng(2026).uniform(-6.0, 6.0, (2, 20, 3))
    psi = np.array([eigenfunction_1d(params, n, np.stack([p, q])) for n in range(top + 1)])
    axes = psi[:, 0] * psi[:, 1]  # (n, pair, axis)
    cartesian, cartesian_mag = np.empty((2, top + 1, 20))
    for j in range(20):
        for out, a in ((cartesian, axes[:, j]), (cartesian_mag, np.abs(axes[:, j]))):
            out[:, j] = np.convolve(np.convolve(a[:, 0], a[:, 1]), a[:, 2])[: top + 1]
    r, r2 = np.linalg.norm(p, axis=1), np.linalg.norm(q, axis=1)
    cos_gamma = np.clip(np.sum(p * q, axis=1) / (r * r2), -1.0, 1.0)
    spherical, spherical_mag = np.zeros((2, top + 1, 20))
    for ell in range(top + 1):
        angular = (2 * ell + 1) / (4 * math.pi) * legendre_p(ell, cos_gamma) / (r * r2)
        for n_r in range((top - ell) // 2 + 1):
            radial = radial_eigenfunction(params, n_r, ell, np.concatenate([r, r2]))
            term = radial[:20] * radial[20:] * angular
            spherical[2 * n_r + ell] += term
            spherical_mag[2 * n_r + ell] += np.abs(term)
    bound = SHELL_EPS * np.finfo(float).eps * (cartesian_mag + spherical_mag)
    error = np.abs(cartesian - spherical)
    assert np.all(error <= bound), np.max(error / bound)


# ---------------------------------------------------------------------------
# full eigenfunctions
# ---------------------------------------------------------------------------


def test_full_eigenfunction_s_wave_real(unit_params):
    p = Point3(1.3, AngularPoint(0.7, 2.0))
    psi = full_eigenfunction(unit_params, Mode3D(radial_mode(1, 0), 0), p)
    expected = radial_eigenfunction(unit_params, 1, 0, 1.3) / 1.3 / math.sqrt(4 * math.pi)
    assert psi.imag == 0.0
    assert psi.real == pytest.approx(expected, rel=1e-14)


def test_full_eigenfunction_conjugation(unit_params, rng):
    for _ in range(10):
        ell = int(rng.integers(0, 5))
        m = int(rng.integers(0, ell + 1))
        n_r = int(rng.integers(0, 4))
        p = Point3(
            float(rng.uniform(0.2, 3.0)),
            AngularPoint(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0, 6.2))),
        )
        plus = full_eigenfunction(unit_params, Mode3D(radial_mode(n_r, ell), m), p)
        minus = full_eigenfunction(unit_params, Mode3D(radial_mode(n_r, ell), -m), p)
        assert abs(np.conj(minus) - (-1.0) ** m * plus) <= 1e-13


def test_full_eigenfunction_norm_product_grid(unit_params, laguerre_rule_cache):
    # <Psi, Psi> = 1 for (n_r, ell, m) = (1, 2, 1) on a 20-node radial x
    # 16x32 angular product grid
    mode = Mode3D(radial_mode(1, 2), 1)
    rule = laguerre_rule_cache(20, 2.5)
    theta, phi, w_ang = angular_product_grid(16, 32)
    r_nodes = np.sqrt(rule.nodes) / unit_params.lam
    # radial measure: |Psi|^2 r^2 dr with dr = drho/(2 lam^2 r)
    total = 0.0
    for th, ph, wa in zip(theta, phi, w_ang):
        vals = np.array(
            [
                full_eigenfunction(unit_params, mode, Point3(float(r), AngularPoint(float(th), float(ph))))
                for r in r_nodes
            ]
        )
        radial_sum = np.sum(
            rule.modified_weights
            * np.abs(vals) ** 2
            * r_nodes**2
            / (2.0 * unit_params.lam**2 * r_nodes)
        )
        total += wa * radial_sum
    assert total == pytest.approx(1.0, abs=1e-9)


def test_full_eigenfunction_origin_limit(unit_params):
    with pytest.raises(ValueError):
        full_eigenfunction(unit_params, Mode3D(radial_mode(0, 0), 0), Point3(0.0, AngularPoint(0.1, 0.1)))
    for n_r in (0, 1, 4):
        lim = full_eigenfunction_origin(unit_params, n_r)
        near = full_eigenfunction(
            unit_params, Mode3D(radial_mode(n_r, 0), 0), Point3(1e-7, AngularPoint(0.4, 0.4))
        )
        assert abs(lim - near) <= 1e-8 * abs(lim)


# ---------------------------------------------------------------------------
# angular kernel
# ---------------------------------------------------------------------------


def test_angular_kernel_single_term():
    a = AngularPoint(0.3, 1.0)
    b = AngularPoint(2.2, 4.4)
    assert angular_kernel(0, a, b) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)


def test_angular_kernel_coincident():
    a = AngularPoint(1.1, 0.7)
    assert angular_kernel(10, a, a) == pytest.approx(121.0 / (4 * math.pi), rel=1e-13)


def test_angular_kernel_dual_path(rng):
    for _ in range(12):
        a = AngularPoint(float(rng.uniform(0.05, math.pi - 0.05)), float(rng.uniform(0, 2 * math.pi)))
        b = AngularPoint(float(rng.uniform(0.05, math.pi - 0.05)), float(rng.uniform(0, 2 * math.pi)))
        direct = angular_kernel(8, a, b)
        addition = angular_kernel_addition(8, a, b)
        assert abs(direct - addition) <= 1e-11


def test_angular_product_grid_mass_and_orthonormality():
    theta, phi, w = angular_product_grid(16, 32)
    assert math.fsum(w) == pytest.approx(4 * math.pi, rel=1e-13)
    vals = np.array(
        [sph_harm(2, 1, AngularPoint(float(t), float(p))) for t, p in zip(theta, phi)]
    )
    assert np.sum(w * np.abs(vals) ** 2) == pytest.approx(1.0, abs=1e-13)
    cross = np.array(
        [
            sph_harm(3, 1, AngularPoint(float(t), float(p)))
            * np.conj(sph_harm(2, 1, AngularPoint(float(t), float(p))))
            for t, p in zip(theta, phi)
        ]
    )
    assert abs(np.sum(w * cross)) <= 1e-13
