"""Quadrature rules against closed-form moments, classical interlacing,
and the reference implementations in numpy/scipy (oracle side only)."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

from kgo import (
    GreensQuery,
    IntegrandError,
    QuadratureError,
    coefficient_deviation_1d,
    coefficient_deviation_radial,
    gauss_hermite,
    gauss_laguerre,
    gauss_legendre,
    gram_matrix_1d,
    hermite_function,
    hermite_function_table,
    integrate,
    laguerre_function,
    laguerre_function_table,
    project_1d,
    project_radial,
    radial_gram,
)
from kgo import oscillator1d, oscillator3d, quadrature
from kgo.quadrature import MAX_NODES, _node_table


def hermite_moment(j):
    """integral xi^j exp(-xi^2) dxi = Gamma((j+1)/2) for even j, 0 odd."""
    if j % 2:
        return 0.0
    return math.exp(math.lgamma((j + 1) / 2.0))


def laguerre_moment(j, alpha):
    return math.exp(math.lgamma(j + alpha + 1.0))


def legendre_moment(j, a, b):
    return (b ** (j + 1) - a ** (j + 1)) / (j + 1)


# ---------------------------------------------------------------------------
# trivial rules
# ---------------------------------------------------------------------------


def test_hermite_one_point():
    rule = gauss_hermite(1)
    assert rule.nodes == pytest.approx([0.0], abs=0)
    assert rule.weights == pytest.approx([math.sqrt(math.pi)], rel=1e-15)


def test_hermite_two_point():
    rule = gauss_hermite(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-15)
    assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)


def test_laguerre_one_point():
    rule = gauss_laguerre(1, 0.0)
    assert rule.nodes == pytest.approx([1.0], rel=1e-14)
    assert rule.weights == pytest.approx([1.0], rel=1e-14)
    rule = gauss_laguerre(1, 0.5)
    assert rule.nodes == pytest.approx([1.5], rel=1e-14)
    assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2], rel=1e-14)


def test_legendre_small_rules():
    rule = gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes == pytest.approx([0.0], abs=0)
    assert rule.weights == pytest.approx([2.0], abs=0)
    rule = gauss_legendre(2, -1.0, 1.0)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-14)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 7, 32, 128, 201])
def test_structure_hermite(count):
    rule = gauss_hermite(count)
    assert rule.count == count
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert np.all(np.isfinite(rule.log_weights))
    assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert rule.exactness_degree == 2 * count - 1
    assert not rule.nodes.flags.writeable


@pytest.mark.parametrize("count,alpha", [(1, 0.0), (3, 2.5), (17, 0.5), (64, 10.5), (160, 0.5)])
def test_structure_laguerre(count, alpha):
    rule = gauss_laguerre(count, alpha)
    assert np.all(rule.nodes > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(math.exp(math.lgamma(alpha + 1)), rel=1e-13)


@pytest.mark.parametrize(
    "factory", [lambda: gauss_hermite(512), lambda: gauss_laguerre(201, 0.5)]
)
def test_structure_huge_rules(factory):
    # true edge weights of very large Hermite/Laguerre rules fall below
    # the double range; the log form must stay exact and positive-signed
    rule = factory()
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights >= 0)
    assert np.all(np.isfinite(rule.log_weights))
    assert np.all(rule.modified_weights > 0)


@pytest.mark.parametrize("count,a,b", [(1, -1, 1), (2, 0, 5), (33, -2.5, 0.5), (201, -1, 1), (512, -1, 1)])
def test_structure_legendre(count, a, b):
    rule = gauss_legendre(count, a, b)
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > a and rule.nodes[-1] < b
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(b - a, rel=1e-14)


def test_legendre_on_the_widest_interval():
    # b - a overflows; the midpoint/half-width map must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_legendre(5, -1e308, 1e308)
    unit = gauss_legendre(5, -1.0, 1.0)
    assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > -1e308 and rule.nodes[-1] < 1e308
    assert np.array_equal(rule.nodes, 1e308 * unit.nodes)
    assert np.array_equal(rule.weights, 1e308 * unit.weights)


@pytest.mark.parametrize("a,b", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0)])
def test_legendre_refuses_non_finite_interval(a, b):
    with pytest.raises(QuadratureError):
        gauss_legendre(4, a, b)


def test_laguerre_refuses_infinite_alpha():
    with pytest.raises(QuadratureError):
        gauss_laguerre(4, math.inf)


@pytest.mark.parametrize("alpha", [171.0, 200.0])
def test_laguerre_weights_past_the_double_range(alpha):
    # Gamma(alpha + 1) exceeds the double range: weights may round to inf,
    # but the modified weights are finite and the log weights exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_laguerre(16, alpha)
    assert np.all(np.isfinite(rule.modified_weights))
    assert np.all(rule.modified_weights > 0)
    assert scipy.special.logsumexp(rule.log_weights) == pytest.approx(math.lgamma(alpha + 1.0), rel=1e-13)


def test_count_limits():
    with pytest.raises(QuadratureError):
        gauss_hermite(0)
    with pytest.raises(QuadratureError):
        gauss_hermite(MAX_NODES + 1)
    with pytest.raises(QuadratureError):
        gauss_laguerre(10, -1.0)
    with pytest.raises(QuadratureError):
        gauss_legendre(4, 1.0, 1.0)
    # the maximum itself must work
    rule = gauss_hermite(MAX_NODES)
    assert rule.count == MAX_NODES
    assert np.all(np.isfinite(rule.log_weights))
    rule = gauss_laguerre(MAX_NODES, 0.5)
    assert np.all(np.isfinite(rule.log_weights))


def test_scan_that_misses_a_root_is_a_quadrature_error():
    # cos has no sign change on (0.1, 1.0), and the scan does not refine
    with pytest.raises(QuadratureError, match="found 0 of 1 roots"):
        quadrature._bracket_by_scan(np.cos, 0.1, 1.0, 1, 64)


def test_determinism():
    a = gauss_hermite(64)
    b = gauss_hermite(64)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    a = gauss_laguerre(48, 2.5)
    b = gauss_laguerre(48, 2.5)
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


# ---------------------------------------------------------------------------
# exactness sweeps (closed-form moment oracle via math.lgamma)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13, 21, 34, 64])
def test_hermite_moments(count):
    rule = gauss_hermite(count)
    degrees = np.arange(2 * count)
    vander = rule.nodes[None, :] ** degrees[:, None]
    got = vander @ rule.weights
    for j in degrees:
        exact = hermite_moment(int(j))
        scale = hermite_moment(int(j) + (int(j) % 2))  # magnitude scale for odd j
        assert abs(got[j] - exact) <= 1e-11 * max(scale, 1.0)


@pytest.mark.parametrize("count,alpha", [(1, 0.0), (2, 0.5), (5, 2.5), (13, 0.0), (34, 5.5), (64, 1.5)])
def test_laguerre_moments(count, alpha):
    rule = gauss_laguerre(count, alpha)
    degrees = np.arange(2 * count)
    vander = rule.nodes[None, :] ** degrees[:, None]
    got = vander @ rule.weights
    for j in degrees:
        exact = laguerre_moment(int(j), alpha)
        assert abs(got[j] - exact) <= 1e-11 * exact


@pytest.mark.parametrize("count", [1, 2, 5, 13, 34, 64])
def test_legendre_moments(count):
    a, b = -1.0, 1.5
    rule = gauss_legendre(count, a, b)
    degrees = np.arange(2 * count)
    vander = rule.nodes[None, :] ** degrees[:, None]
    got = vander @ rule.weights
    for j in degrees:
        exact = legendre_moment(int(j), a, b)
        assert abs(got[j] - exact) <= 1e-11 * max(1.0, abs(exact))


def test_hermite_64_high_moment():
    # integral xi^126 exp(-xi^2) = Gamma(63.5)
    rule = gauss_hermite(64)
    got = integrate(rule, lambda x: x**126)
    exact = math.exp(math.lgamma(63.5))
    assert got == pytest.approx(exact, rel=1e-12)


def test_laguerre_40_moment():
    rule = gauss_laguerre(40, 2.5)
    got = integrate(rule, lambda x: x**10)
    assert got == pytest.approx(math.exp(math.lgamma(13.5)), rel=1e-12)


def test_legendre_cubic_on_0_5():
    rule = gauss_legendre(16, 0.0, 5.0)
    assert integrate(rule, lambda x: x**3) == pytest.approx(156.25, rel=1e-13)


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def _assert_interlaced(small, large):
    assert large[0] < small[0]
    assert small[-1] < large[-1]
    for i in range(len(small)):
        assert large[i] < small[i] < large[i + 1]


@pytest.mark.parametrize("count", list(range(1, 64)))
def test_hermite_interlacing(count):
    _assert_interlaced(gauss_hermite(count).nodes, gauss_hermite(count + 1).nodes)


@pytest.mark.parametrize("count", list(range(1, 64, 3)))
def test_laguerre_interlacing(count):
    _assert_interlaced(gauss_laguerre(count, 1.5).nodes, gauss_laguerre(count + 1, 1.5).nodes)


@pytest.mark.parametrize("count", list(range(1, 64, 3)))
def test_legendre_interlacing(count):
    _assert_interlaced(
        gauss_legendre(count, -1, 1).nodes, gauss_legendre(count + 1, -1, 1).nodes
    )


# ---------------------------------------------------------------------------
# node residuals and library cross-checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [16, 128])
def test_hermite_node_residual(count):
    rule = gauss_hermite(count)
    h_k = hermite_function(count, rule.nodes)
    h_km1 = hermite_function(count - 1, rule.nodes)
    slope = np.abs(math.sqrt(2.0 * count) * h_km1 - rule.nodes * h_k)
    gaps = np.empty(count)
    diffs = np.diff(rule.nodes)
    gaps[0] = diffs[0]
    gaps[-1] = diffs[-1]
    if count > 2:
        gaps[1:-1] = np.minimum(diffs[:-1], diffs[1:])
    assert np.all(np.abs(h_k) <= 1e-10 * slope * gaps)


@pytest.mark.parametrize("count,alpha", [(16, 0.5), (96, 3.5)])
def test_laguerre_node_residual(count, alpha):
    rule = gauss_laguerre(count, alpha)
    lf_k = laguerre_function(count, alpha, rule.nodes)
    lf_km1 = laguerre_function(count - 1, alpha, rule.nodes)
    slope = np.abs(
        lf_k * (count / rule.nodes + 0.5 * alpha / rule.nodes - 0.5)
        - math.sqrt(count * (count + alpha)) * lf_km1 / rule.nodes
    )
    gaps = np.empty(count)
    diffs = np.diff(rule.nodes)
    gaps[0] = diffs[0]
    gaps[-1] = diffs[-1]
    if count > 2:
        gaps[1:-1] = np.minimum(diffs[:-1], diffs[1:])
    assert np.all(np.abs(lf_k) <= 1e-10 * slope * gaps)


@pytest.mark.parametrize(
    "engine, build",
    [
        ("_hermite_engine", lambda: gauss_hermite(128)),
        ("_laguerre_engine", lambda: gauss_laguerre(144, 10.5)),
        # a Newton step onto the far bracket end used to cycle to the cap
        pytest.param("_laguerre_engine", lambda: gauss_laguerre(256, 0.5), id="laguerre-256-half"),
        ("_legendre_pair", lambda: gauss_legendre(512, -1.0, 1.0)),
    ],
)
def test_polish_converges_by_newton(monkeypatch, engine, build):
    """Each recurrence sweep costs O(count^2); a Newton polish needs a few,
    where a polish that falls back to bisection after convergence runs
    about 40 until the brackets shrink to eps."""
    calls = []
    original = getattr(quadrature, engine)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(quadrature, engine, counted)
    build()
    assert len(calls) <= 15


@pytest.mark.parametrize("count", [3, 8, 16, 33, 64])
def test_hermite_vs_numpy(count):
    rule = gauss_hermite(count)
    nodes, weights = np.polynomial.hermite.hermgauss(count)
    assert np.max(np.abs(rule.nodes - nodes)) <= 1e-13 * max(1.0, np.max(np.abs(nodes)))
    assert np.max(np.abs(rule.weights - weights)) <= 1e-13 * np.max(weights)


@pytest.mark.parametrize("count", [3, 8, 16, 33, 64])
def test_legendre_vs_numpy(count):
    rule = gauss_legendre(count, -1.0, 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(count)
    assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14
    assert np.max(np.abs(rule.weights - weights)) <= 1e-13


def test_legendre_512_against_mpmath():
    """The largest rule: exactly symmetric, and sampled nodes and weights
    (the edge node included) at 40 digits."""
    rule = gauss_legendre(MAX_NODES, -1.0, 1.0)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    with mpmath.workdps(40):
        for i in (0, 1, 100, 255):
            node = mpmath.findroot(lambda x: mpmath.legendre(MAX_NODES, x), rule.nodes[i])
            slope = mpmath.diff(lambda x: mpmath.legendre(MAX_NODES, x), node)
            weight = 2 / ((1 - node * node) * slope * slope)
            assert abs(rule.nodes[i] - node) <= 1e-15
            assert abs(rule.weights[i] - weight) <= 1e-11 * weight


@pytest.mark.parametrize("count,alpha", [(3, 0.0), (8, 2.5), (16, 0.5), (40, 2.5), (64, 10.5)])
def test_laguerre_vs_scipy(count, alpha):
    rule = gauss_laguerre(count, alpha)
    nodes, weights = scipy.special.roots_genlaguerre(count, alpha)
    assert np.max(np.abs(rule.nodes - nodes) / nodes) <= 1e-12
    assert np.max(np.abs(rule.weights - weights)) <= 1e-12 * np.max(weights)


# ---------------------------------------------------------------------------
# integrate() contract
# ---------------------------------------------------------------------------


def test_integrate_total_mass():
    assert integrate(gauss_hermite(2), lambda x: 1.0) == pytest.approx(
        math.sqrt(math.pi), rel=1e-15
    )
    assert integrate(gauss_laguerre(5, 0.0), lambda x: 1.0) == pytest.approx(1.0, rel=1e-13)
    assert integrate(gauss_legendre(2, -1, 1), lambda x: x * x) == pytest.approx(
        2.0 / 3.0, rel=1e-14
    )


def test_total_mass_is_the_weight_integral():
    rules = [
        gauss_hermite(1),
        gauss_hermite(4),
        gauss_laguerre(1, 0.5),
        gauss_laguerre(6, 0.5),
        gauss_legendre(1, -1.0, 2.0),
    ]
    assert rules[0].total_mass == math.sqrt(math.pi)
    assert rules[3].total_mass == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-15)
    assert rules[4].total_mass == 3.0
    for rule in rules:
        assert math.fsum(rule.weights) == pytest.approx(rule.total_mass, rel=1e-14)


def test_integrate_rejects_nan():
    rule = gauss_legendre(8, 0.0, 1.0)
    with pytest.raises(IntegrandError):
        integrate(rule, lambda x: float("nan") if x > 0.5 else 1.0)
    with pytest.raises(IntegrandError):
        integrate(rule, lambda x: float("inf"))


# ---------------------------------------------------------------------------
# the kept Christoffel table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, alpha",
    [(count, None) for count in (1, 2, 3, 64, 201, 512)]
    + [(count, alpha) for count in (1, 2, 64, 201, 512) for alpha in (-0.5, 0.5, 10.5, 64.5)],
)
def test_node_table_is_the_fresh_table(count, alpha):
    """The rule's table rows are the fresh table at its nodes, bit for bit,
    and so are the 1D Gram's half-node columns; the view is read-only."""
    rule = gauss_hermite(count) if alpha is None else gauss_laguerre(count, alpha)
    for n in sorted({0, count // 2, count - 1}):
        view = _node_table(rule, n)
        if alpha is None:
            fresh = hermite_function_table(n, rule.nodes)
            half = rule.nodes >= 0.0
            folded = hermite_function_table(n, rule.nodes[half])
            assert view[:, half].tobytes() == folded.tobytes(), n
        else:
            fresh = laguerre_function_table(n, alpha, rule.nodes)
        assert view.shape == (n + 1, count)
        assert view.tobytes() == fresh.tobytes(), n
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


def _operator_results(params, hermite, laguerre, extras=(-1, 0, 6)):
    """Every operator that works at a rule's nodes, on a 1D and a radial
    ell = 2 rule, with Green's truncations of count + extra (at or above
    the count the operator needs more rows than the rule's table has)."""
    out = [
        gram_matrix_1d(params, hermite.count - 1, hermite),
        gram_matrix_1d(params, 10, hermite),
        radial_gram(params, 2, laguerre.count - 1, laguerre),
        project_1d(params, 15, lambda x: math.exp(-x * x) * (1.0 + x), hermite).coefficients,
        project_radial(params, 2, 12, lambda r: r**3 * math.exp(-r * r), laguerre).coefficients,
    ]
    for extra in extras:
        out.append(coefficient_deviation_1d(params, GreensQuery(2.0, hermite.count + extra, 0.1), 0.3, hermite, 10))
        query = GreensQuery(2.0, laguerre.count + extra, 0.1)
        out.append(coefficient_deviation_radial(params, 2, query, 0.3, laguerre, 10))
    return [np.asarray(x).tobytes() for x in out]


def test_operators_match_a_rule_without_its_table(unit_params):
    """A rule made by dataclasses.replace carries no table, so every operator
    builds a fresh one; the results are the same bits."""
    hermite, laguerre = gauss_hermite(24), gauss_laguerre(20, 2.5)
    bare_h, bare_l = dataclasses.replace(hermite), dataclasses.replace(laguerre)
    assert bare_h._table is None and bare_l._table is None
    assert bare_h == hermite and repr(bare_h) == repr(hermite)
    assert _operator_results(unit_params, bare_h, bare_l) == _operator_results(unit_params, hermite, laguerre)


def test_operators_slice_the_rule_table(monkeypatch, unit_params):
    """On a rule built here no operator builds a table at the rule's nodes
    again: they slice the table the weights came from."""
    hermite, laguerre = gauss_hermite(24), gauss_laguerre(20, 2.5)
    at_nodes = []

    def counted(fn, rule):
        def wrapper(*args):
            if np.isin(np.ravel(args[-1]), rule.nodes).all():
                at_nodes.append(fn.__name__)
            return fn(*args)

        return wrapper

    for module in (quadrature, oscillator1d, oscillator3d):
        for name, rule in (("hermite_function_table", hermite), ("laguerre_function_table", laguerre)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), rule))
    _operator_results(unit_params, hermite, laguerre, extras=(-1, -10))
    assert at_nodes == []
