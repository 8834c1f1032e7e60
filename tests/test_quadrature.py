"""Quadrature rules against closed-form moments, classical interlacing,
and the reference implementations in numpy/scipy (oracle side only)."""

import dataclasses
import functools
import importlib.util
import inspect
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgo import (
    GreensQuery,
    IntegrandError,
    OscillatorParams,
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
from kgo import cli, oscillator1d, oscillator3d, quadrature
from kgo.quadrature import MAX_NODES
from kgo.special import _hermite_offset, _laguerre_offset


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


@pytest.mark.parametrize("alpha", [-0.999, -1.0 + 1e-9, -1.0 + 1e-12, -1.0 + 1e-14])
def test_laguerre_one_point_next_to_alpha_minus_one(alpha):
    # L_1 = 1 + alpha - rho, whose root 1 + alpha is exact in double here and
    # so close to the origin that a Newton step past it leaves the domain
    assert gauss_laguerre(1, alpha).nodes.tolist() == [1.0 + alpha]


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


def assert_read_only(rule):
    """Every array of a rule is read-only, and a rule keeps nothing beyond
    its fields: no table of its functions at the nodes."""
    for arr in (rule.nodes, rule.weights, rule.log_weights, rule.modified_weights):
        assert not arr.flags.writeable
    assert set(vars(rule)) == {f.name for f in dataclasses.fields(rule)}


@pytest.mark.parametrize("count", [1, 2, 3, 7, 32, 128, 201])
def test_structure_hermite(count):
    rule = gauss_hermite(count)
    assert rule.count == count
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert np.all(np.isfinite(rule.log_weights))
    assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert rule.exactness_degree == 2 * count - 1
    assert_read_only(rule)


@pytest.mark.parametrize("count,alpha", [(1, 0.0), (3, 2.5), (17, 0.5), (64, 10.5), (160, 0.5)])
def test_structure_laguerre(count, alpha):
    rule = gauss_laguerre(count, alpha)
    assert np.all(rule.nodes > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(math.exp(math.lgamma(alpha + 1)), rel=1e-13)
    assert_read_only(rule)


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
    assert_read_only(rule)


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


@pytest.mark.parametrize("count", [1, 2, 3, 64, 512])
@pytest.mark.parametrize("alpha", [-0.999, -1.0 + 1e-12, 1e3, 1e4])
def test_laguerre_builds_at_extreme_alpha(count, alpha):
    """Near alpha -1 the first root is far closer to the origin than its
    bracket is wide (at 1 + alpha = 1e-12 and 512 nodes, below a scan grid
    that starts at 1e-9 of its top end); at large alpha the scan grid is
    long.  Each rule still builds, with finite positive modified weights and
    ascending nodes."""
    rule = gauss_laguerre(count, alpha)
    assert rule.count == count
    assert np.all(np.diff(rule.nodes) > 0) and rule.nodes[0] > 0
    assert np.all(np.isfinite(rule.log_weights))
    assert np.all(np.isfinite(rule.modified_weights)) and np.all(rule.modified_weights > 0)


GRID_RULES = [pytest.param(count, None, id=f"hermite-{count}") for count in (2, 3, 8, 31, 64, 145, 256, 403, 512)] + [
    pytest.param(count, alpha, id=f"laguerre-{count}-{alpha}")
    for alpha in (-0.99, -0.5, -0.1, 0.0, 0.5, 10.5, 64.5)
    for count in (2, 3, 8, 31, 64, 145, 256, 403, 512)
]


@pytest.mark.parametrize("count, alpha", GRID_RULES)
def test_scan_step_is_at_most_half_the_node_gap(count, alpha):
    """The scan grids (quadrature._hermite_grid, _laguerre_grid, where the
    Sturm bound is stated) step at most half the smallest gap between the
    rule's own nodes, in x or in s = sqrt(rho): every interval holds at most
    one root, and the Taylor start is taken at most about a quarter of a
    spacing from its end.  A rule of 1 node has no gap."""
    if alpha is None:
        grid, roots = quadrature._hermite_grid(count), gauss_hermite(count).nodes
    else:
        grid, roots = quadrature._laguerre_grid(count, alpha), np.sqrt(gauss_laguerre(count, alpha).nodes)
    assert np.max(np.diff(grid)) <= 0.5 * np.min(np.diff(roots))
    assert 0.0 < grid[0] < roots[roots > 0][0] and roots[-1] < grid[-1]


def test_scan_that_misses_a_root_is_a_quadrature_error():
    # cos has no sign change on (0.1, 1.0), and the scan does not refine; it
    # raises before it starts a root, so it needs no series
    with pytest.raises(QuadratureError, match="found 0 of 1 roots"):
        quadrature._bracket_by_scan(lambda x: (np.cos(x), -np.sin(x), 0.0 * x), np.linspace(0.1, 1.0, 64), 1, None)


def test_polish_that_does_not_converge_is_a_quadrature_error():
    # a unit step from every point never passes the stop: the loop bisects
    # towards the upper end for its 120 sweeps and must say so
    def fn_df(x):
        return np.ones_like(x), np.ones_like(x), np.zeros_like(x)

    one = np.ones(1)
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature._polish(fn_df, 0.0 * one, one, one, 0.5 * one)


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


def _clear_node_memos():
    quadrature._hermite_nodes.cache_clear()
    quadrature._laguerre_nodes.cache_clear()


def _count_engine_sweeps(monkeypatch, *engines):
    """Record the dtype of the points of each call to the named engines
    through quadrature's own names, which only the root scan and polish
    use."""
    calls = []
    for engine in engines:
        original = getattr(quadrature, engine)

        def counted(*args, original=original):
            calls.append(args[-1].dtype)
            return original(*args)

        monkeypatch.setattr(quadrature, engine, counted)
    return calls


@pytest.mark.parametrize(
    "engine, build",
    [
        ("_hermite_engine", lambda: gauss_hermite(128)),
        ("_laguerre_engine", lambda: gauss_laguerre(144, 10.5)),
        # a Newton step onto the far bracket end used to cycle to the cap
        pytest.param("_laguerre_engine", lambda: gauss_laguerre(256, 0.5), id="laguerre-256-half"),
        ("_legendre_pair", lambda: gauss_legendre(512, -1.0, 1.0)),
        # the double loop chased rounding noise here for 15 sweeps
        pytest.param("_laguerre_engine", lambda: gauss_laguerre(478, 10.5), id="laguerre-478-10.5"),
        # a cubic start here once took a fourth call
        pytest.param("_laguerre_engine", lambda: gauss_laguerre(403, -0.5), id="laguerre-403--0.5"),
    ],
)
def test_polish_converges_by_newton(monkeypatch, engine, build):
    """Each recurrence sweep costs O(count^2).  From the Taylor start a
    Hermite or Laguerre build sweeps exactly twice, the scan and one
    long-double step; a Legendre build (no scan; its weights come from the
    polish) at most 3 times from its Tricomi starts, every sweep a
    long-double step.  A polish that falls back to bisection after
    convergence runs about 40 sweeps until the brackets shrink to eps.  The
    node memos are cleared first, so the build sweeps at all."""
    calls = _count_engine_sweeps(monkeypatch, engine)
    _clear_node_memos()
    build()
    if engine == "_legendre_pair":
        assert 1 <= len(calls) <= 3
        assert calls.count(np.longdouble) == len(calls)
    else:
        assert len(calls) == 2
        assert calls.count(np.longdouble) == 1


@pytest.mark.parametrize("count", [*range(1, 10), 146, 511, 512])
def test_legendre_starts_inside_their_brackets(monkeypatch, count):
    """Every Legendre start lies strictly inside its Bruns bracket, which
    the polish's bracket update relies on: the first step's sign test must
    find the root between the start and one bracket end."""
    seen = []
    original = quadrature._symmetric_roots

    def recorded(fn_df, lo, hi, f_lo_sign, x, odd):
        seen.append((lo, hi, x))
        return original(fn_df, lo, hi, f_lo_sign, x, odd)

    monkeypatch.setattr(quadrature, "_symmetric_roots", recorded)
    gauss_legendre(count, -1.0, 1.0)
    [(lo, hi, x)] = seen
    assert x.size == count // 2
    assert np.all((lo < x) & (x < hi))


RULE_ARRAYS = ("nodes", "weights", "log_weights", "modified_weights")
MEMO_BUILDS = [
    pytest.param(lambda count=count: gauss_hermite(count), id=f"hermite-{count}") for count in (1, 2, 56, 512)
] + [
    pytest.param(lambda count=count, alpha=alpha: gauss_laguerre(count, alpha), id=f"laguerre-{count}-{alpha}")
    for count, alpha in ((56, 0.5), (56, 8.5), (512, 64.5))
]


def _full_table(rule):
    """The table of every order below the count at a Hermite or Laguerre rule's nodes."""
    if rule.family == quadrature.GAUSS_HERMITE:
        return hermite_function_table(rule.count - 1, rule.nodes)
    return laguerre_function_table(rule.count - 1, rule.alpha, rule.nodes)


@pytest.mark.parametrize("build", MEMO_BUILDS)
def test_memoized_nodes_give_the_cold_rule_bytes(build):
    """A rule on memoized nodes is the rule its cold build gives, byte for
    byte, and so is the table of all its orders at its nodes."""
    _clear_node_memos()
    cold = build()
    warm = build()
    for name in RULE_ARRAYS:
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name
    assert _full_table(warm).tobytes() == _full_table(cold).tobytes()


@pytest.mark.parametrize("build", MEMO_BUILDS)
def test_warm_build_runs_no_root_sweep(monkeypatch, build):
    build()
    calls = _count_engine_sweeps(monkeypatch, "_hermite_engine", "_laguerre_engine")
    build()
    assert calls == []


def test_memoized_nodes_stay_read_only():
    for rule in (gauss_hermite(7), gauss_hermite(7), gauss_laguerre(7, 1.5), gauss_laguerre(7, 1.5)):
        assert not rule.nodes.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes.flags.writeable = True


def test_rule_builders_stay_plain_functions():
    # a decorated builder would hide from bench/tracer.py's node check
    assert inspect.isfunction(gauss_hermite)
    assert inspect.isfunction(gauss_laguerre)
    assert quadrature._hermite_nodes.cache_info().maxsize == 128
    assert quadrature._laguerre_nodes.cache_info().maxsize == 128


@pytest.mark.parametrize(
    "build",
    [
        lambda: gauss_hermite(0),
        lambda: gauss_hermite(MAX_NODES + 1),
        lambda: gauss_hermite(2.0),
        lambda: gauss_laguerre(0, 0.5),
        lambda: gauss_laguerre(MAX_NODES + 1, 0.5),
        lambda: gauss_laguerre(4, -1.0),
        lambda: gauss_laguerre(4, math.nan),
        lambda: gauss_laguerre(4, math.inf),
    ],
)
def test_bad_arguments_raise_on_every_call(build):
    gauss_hermite(4), gauss_laguerre(4, 0.5)
    for _ in range(3):
        with pytest.raises(QuadratureError):
            build()


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


# Largest distance, in double ulp of the root, of a Hermite or Laguerre node
# from its 50-digit root where np.longdouble is wider than double.
NODE_ULP = 4.0
# Largest relative error of a Hermite or Laguerre modified weight, and of a
# Legendre weight, against 50-digit references where np.longdouble is wider
# than double.
WEIGHT_REL = 1e-15
LEGENDRE_WEIGHT_REL = 1e-14
# The same bounds, at the same sampled nodes, where np.longdouble is plain
# double: the double recurrence's rounding noise (README "Numerical notes").
PLAIN_NODE_ULP = 2000.0
PLAIN_WEIGHT_REL = 1e-12
# The Legendre node and weight bounds where np.longdouble is plain double.
PLAIN_LEGENDRE_NODE_ULP = 8.0
PLAIN_LEGENDRE_WEIGHT_REL = 1e-11
# Largest distance, in double ulp, of the smallest node of a 512-point
# Laguerre rule near alpha -1 from its root, where that root lies below 1e8
# long-double spacings of the top bracket end and the polish does not round
# its points: the rounding of the recurrence's c_k - rho there (README
# "Numerical notes"; up to 22 measured).
NEAR_ORIGIN_NODE_ULP = 32.0

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="np.longdouble is plain double on this platform"
)
CONTRACT_RULES = [pytest.param(count, None, id=f"hermite-{count}") for count in (64, 189, 512)] + [
    pytest.param(count, alpha, id=f"laguerre-{count}-{alpha}")
    for count, alpha in ((64, -0.5), (144, 0.5), (144, 10.5), (144, 64.5), (512, -0.5), (512, 0.5))
]


def _root_near(poly, node):
    """50-digit root of poly next to a double node (call under workdps(50))."""
    guess = mpmath.mpf(float(node))
    bracket = (guess * (1 - mpmath.mpf(2) ** -30), guess * (1 + mpmath.mpf(2) ** -30))
    return mpmath.findroot(poly, bracket, solver="anderson", verify=False)


@needs_long_double
@pytest.mark.parametrize("count, alpha", CONTRACT_RULES)
def test_nodes_within_a_few_ulp_of_the_roots(count, alpha):
    """The node contract: the 6 smallest positive nodes, the middle positive
    node and the largest node of each sampled rule lie within NODE_ULP of
    the roots.  The smallest Laguerre nodes are where a double recurrence's
    rounding noise puts them thousands of ulp off."""
    if alpha is None:
        nodes = gauss_hermite(count).nodes
        poly = lambda t: mpmath.hermite(count, t)  # noqa: E731
    else:
        nodes = gauss_laguerre(count, alpha).nodes
        poly = lambda t: mpmath.laguerre(count, alpha, t)  # noqa: E731
    positive = np.flatnonzero(nodes > 0)
    with mpmath.workdps(50):
        for i in {*positive[:6], positive[len(positive) // 2], count - 1}:
            root = _root_near(poly, nodes[i])
            ulp = abs(mpmath.mpf(float(nodes[i])) - root) / np.spacing(float(root))
            assert ulp <= NODE_ULP, (i, float(nodes[i]), float(ulp))


def _exact_modified_weight(count, alpha, node):
    """50-digit root next to a Hermite (alpha None) or Laguerre node, and the
    exact modified weight there over the rounding that a double table at the
    rule's nodes carries in every entry of that node's column:
    exp(2 (s_double - s)), where s is the log offset (the log of the order-0
    function) at the node and s_double its double value.  That factor
    cancels from every sum over the table.  Hermite: 2^(K+1) K! sqrt(pi)
    e^(x^2) / H_K'(x)^2 with H_K' = 2K H_{K-1}; Laguerre: Gamma(K+alpha+1)
    e^x x^-alpha / (K! x L_K'(x)^2) with L_K^(alpha)' = -L_{K-1}^(alpha+1).
    Call under workdps(50)."""
    xd = mpmath.mpf(float(node))
    if alpha is None:
        x = _root_near(lambda t: mpmath.hermite(count, t), node)
        slope = 2 * count * mpmath.hermite(count - 1, x)
        exact = 2 ** (count + 1) * mpmath.factorial(count) * mpmath.sqrt(mpmath.pi) * mpmath.exp(x * x) / slope**2
        offset, s = _hermite_offset(node), -xd * xd / 2 - mpmath.log(mpmath.pi) / 4
    else:
        x = _root_near(lambda t: mpmath.laguerre(count, alpha, t), node)
        slope = -mpmath.laguerre(count - 1, alpha + 1, x)
        exact = mpmath.gamma(count + alpha + 1) * mpmath.exp(x) / (x**alpha * mpmath.factorial(count) * x * slope**2)
        offset, s = _laguerre_offset(alpha, node), -xd / 2 + alpha * mpmath.log(xd) / 2 - mpmath.loggamma(alpha + 1) / 2
    return x, exact * mpmath.exp(-2 * (mpmath.mpf(float(offset)) - s))


@needs_long_double
@pytest.mark.parametrize("count, alpha", CONTRACT_RULES)
def test_modified_weights_at_the_roots(count, alpha):
    """At the 6 smallest positive nodes and the middle positive node, the
    modified weight is the exact one at the root, within WEIGHT_REL, over
    the double table's rounding (:func:`_exact_modified_weight`)."""
    rule = gauss_hermite(count) if alpha is None else gauss_laguerre(count, alpha)
    positive = np.flatnonzero(rule.nodes > 0)
    with mpmath.workdps(50):
        for i in {*positive[:6], positive[len(positive) // 2]}:
            node = rule.nodes[i]
            _, reference = _exact_modified_weight(count, alpha, node)
            rel = abs(rule.modified_weights[i] - reference) / reference
            assert rel <= WEIGHT_REL, (i, float(node), float(rel))


@pytest.fixture
def plain_long_double(monkeypatch):
    """Rules built as where np.longdouble is plain double (Windows, macOS on
    arm64): every long-double step of the polish is a double step."""
    monkeypatch.setattr(np, "longdouble", np.float64)
    quadrature._hermite_nodes.cache_clear()
    quadrature._laguerre_nodes.cache_clear()
    yield
    quadrature._hermite_nodes.cache_clear()
    quadrature._laguerre_nodes.cache_clear()


@pytest.mark.parametrize("count, alpha", [(64, None), (144, 0.5)])
def test_plain_double_polish_bound(plain_long_double, count, alpha):
    """Where np.longdouble is plain double the polish still ends with a
    Newton step under its stop, so the sampled nodes of the contract rules
    stay within PLAIN_NODE_ULP of their 50-digit roots and their modified
    weights within PLAIN_WEIGHT_REL (README "Numerical notes").  Stopping
    at 1e-4 of the bracket instead leaves about 1e-8 of it: millions of ulp
    on GL144 and 1.6e-11 on the GH64 weights."""
    rule = gauss_hermite(count) if alpha is None else gauss_laguerre(count, alpha)
    positive = np.flatnonzero(rule.nodes > 0)
    with mpmath.workdps(50):
        for i in {*positive[:6], positive[len(positive) // 2], count - 1}:
            node = rule.nodes[i]
            root, reference = _exact_modified_weight(count, alpha, node)
            ulp = abs(mpmath.mpf(float(node)) - root) / np.spacing(float(root))
            rel = abs(rule.modified_weights[i] - reference) / reference
            assert ulp <= PLAIN_NODE_ULP, (i, float(node), float(ulp))
            assert rel <= PLAIN_WEIGHT_REL, (i, float(node), float(rel))


@pytest.mark.parametrize("count", [64, 440, 504, 512])
def test_plain_double_legendre_bound(plain_long_double, count):
    """Where np.longdouble is plain double every Legendre step is a double
    step.  The two outermost nodes, the smallest positive node and the
    middle positive node stay within PLAIN_LEGENDRE_NODE_ULP of their
    50-digit roots and their weights within PLAIN_LEGENDRE_WEIGHT_REL
    (README "Numerical notes"; over every rule of 1-512 nodes the worst
    measured were 6.0 ulp, the smallest positive node of GL504, and
    5.0e-12, the outermost weight of GL440)."""
    rule = gauss_legendre(count, -1.0, 1.0)
    positive = np.flatnonzero(rule.nodes > 0)
    with mpmath.workdps(50):
        for i in {0, 1, positive[0], positive[len(positive) // 2]}:
            x = _root_near(lambda t: mpmath.legendre(count, t), rule.nodes[i])
            weight = 2 * (1 - x * x) / (count * mpmath.legendre(count - 1, x)) ** 2
            ulp = abs(mpmath.mpf(float(rule.nodes[i])) - x) / np.spacing(float(abs(x)))
            rel = abs(rule.weights[i] - weight) / weight
            assert ulp <= PLAIN_LEGENDRE_NODE_ULP, (i, float(rule.nodes[i]), float(ulp))
            assert rel <= PLAIN_LEGENDRE_WEIGHT_REL, (i, float(rule.nodes[i]), float(rel))


@needs_long_double
@pytest.mark.parametrize("count", [346, 415, 475, 505, 507])
def test_legendre_edge_weights_against_mpmath(count):
    """The two outermost weights of the rules where the closed form, taken
    at the double nodes, amplified the nodes' rounding about 4e4 times (up
    to 4.7e-12 relative): w = 2 (1 - x^2) / (K P_{K-1}(x))^2 at the root."""
    rule = gauss_legendre(count, -1.0, 1.0)
    with mpmath.workdps(50):
        for i in (0, 1):
            x = _root_near(lambda t: mpmath.legendre(count, t), rule.nodes[i])
            weight = 2 * (1 - x * x) / (count * mpmath.legendre(count - 1, x)) ** 2
            rel = abs(rule.weights[i] - weight) / weight
            assert rel <= LEGENDRE_WEIGHT_REL, (i, float(rel))


@functools.cache
def _node_audit():
    """tools/node_audit.py, whose series_ulp is the node audit's reference at
    the smallest Laguerre nodes."""
    path = Path(__file__).resolve().parents[1] / "tools" / "node_audit.py"
    spec = importlib.util.spec_from_file_location("node_audit", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Relative offset of the smallest root's start in the rough-start case below:
# between _STOP |x| and _STOP (hi - lo) for those roots, so a stop
# scaled to the bracket alone takes the first long-double step as the last,
# and a second long-double step is taken from an unrounded point unless
# every iterate is rounded.
ROUGH_START = 1e-7


@needs_long_double
@pytest.mark.parametrize("count", [50, 200, 512])
@pytest.mark.parametrize("alpha", [-0.99, -0.9])
def test_smallest_nodes_near_alpha_minus_one(count, alpha):
    """The 6 smallest nodes, near alpha -1, lie within NODE_ULP of the root
    of the power series in mpmath, as built, and when the polish starts the
    smallest root ROUGH_START off.  There the first bracket is far wider
    than its root: a long-double stop scaled to the bracket alone left the
    smallest 30 to 37 ulp off at alpha -0.99, and rounding only the first
    long-double iterate to the long-double spacing about 10 ulp at 512
    nodes."""
    series_ulp = _node_audit().series_ulp
    nodes = gauss_laguerre(count, alpha).nodes
    assert max(series_ulp(count, alpha, nodes[:6])) <= NODE_ULP
    lo, hi, lo_sign, start = quadrature._bracket_by_scan(
        functools.partial(quadrature._laguerre_fn_df_s, count, alpha),
        quadrature._laguerre_grid(count, alpha),
        count,
        functools.partial(quadrature._laguerre_series, count, alpha),
    )
    start = start * start
    start[0] *= 1.0 + ROUGH_START
    fn_df = functools.partial(quadrature._laguerre_fn_df, count, alpha)
    roots, _ = quadrature._polish(fn_df, lo * lo, hi * hi, lo_sign, start)
    assert max(series_ulp(count, alpha, roots[:6].astype(float))) <= NODE_ULP


@needs_long_double
@pytest.mark.parametrize("count", [2, 64, 512])
@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_laguerre_next_to_alpha_minus_one(monkeypatch, count, gap):
    """At 1 + alpha of 1e-9 and 1e-12 the first root lies in the scan's
    first interval, far below the chord point, and starts from the series
    about the origin; a rule still sweeps exactly twice.  Its 6 smallest
    nodes are within NODE_ULP of the root of the power series in mpmath, or,
    at 512 nodes, where the smallest root lies below 1e8 long-double
    spacings of the top end and the polish keeps its points unrounded,
    within NEAR_ORIGIN_NODE_ULP.  Rounding those points too cycled the
    polish to its sweep cap and left that node up to 1e12 ulp off."""
    alpha = -1.0 + gap
    calls = _count_engine_sweeps(monkeypatch, "_laguerre_engine")
    _clear_node_memos()
    nodes = gauss_laguerre(count, alpha).nodes
    assert len(calls) == 2 and calls.count(np.longdouble) == 1
    bound = NEAR_ORIGIN_NODE_ULP if count == 512 else NODE_ULP
    assert max(_node_audit().series_ulp(count, alpha, nodes[:6])) <= bound


# Largest distance of a Taylor start from its long-double root, over the
# width of its scan bracket (the node audit's start_rel), on the sample below,
# which holds the worst start of each family measured over 2-512 nodes:
# Hermite 5.96e-14 (482 nodes), Laguerre 2.99e-12 (502 nodes, alpha 4.5).
HERMITE_START_REL = 6e-14
LAGUERRE_START_REL = 3e-12


@needs_long_double
@pytest.mark.parametrize(
    "count, alpha",
    [pytest.param(count, None, id=f"hermite-{count}") for count in (2, 3, 64, 145, 482)]
    + [
        pytest.param(count, alpha, id=f"laguerre-{count}-{alpha}")
        for count, alpha in (
            (1, 4.5),
            (2, 0.5),
            (17, -0.9),
            (56, 4.5),
            (470, 64.5),
            (479, -0.9),
            (492, 10.5),
            (498, 1000.0),
            (502, 4.5),
            (506, 0.5),
            (507, -0.5),
        )
    ],
)
def test_taylor_starts_lie_next_to_their_roots(monkeypatch, count, alpha):
    """Every start the scan hands the polish is within HERMITE_START_REL or
    LAGUERRE_START_REL of its bracket from the long-double root, so the one
    long-double step from it stops: the rounding noise of the double scan
    values is the limit, far inside _STOP."""
    scans = []
    original = quadrature._bracket_by_scan

    def recorded(*args):
        scans.append(original(*args))
        return scans[-1]

    monkeypatch.setattr(quadrature, "_bracket_by_scan", recorded)
    _clear_node_memos()
    if alpha is None:
        family, bound, rule = "hermite", HERMITE_START_REL, gauss_hermite(count)
        fn_df = functools.partial(quadrature._hermite_fn_df, count)
    else:
        family, bound, rule = "laguerre", LAGUERRE_START_REL, gauss_laguerre(count, alpha)
        fn_df = functools.partial(quadrature._laguerre_fn_df, count, alpha)
    audit = _node_audit()
    root, _ = audit.reference(fn_df, rule.nodes)
    [scan] = scans
    assert scan[3].size == (count // 2 if alpha is None else count)
    assert audit.start_rel(family, root, scan) <= bound


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
# tables at a rule's nodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, alpha",
    [(count, None) for count in (1, 2, 3, 64, 201, 512)]
    + [(count, alpha) for count in (1, 2, 64, 201, 512) for alpha in (-0.5, 0.5, 10.5, 64.5)],
)
def test_node_table_is_the_fresh_table(count, alpha):
    """The n_max + 1 rows an operator builds at a rule's nodes are the first
    rows of the full table there, bit for bit, and so are the 1D Gram's
    half-node columns."""
    rule = gauss_hermite(count) if alpha is None else gauss_laguerre(count, alpha)
    full = _full_table(rule)
    for n in sorted({0, count // 2, count - 1}):
        if alpha is None:
            view = hermite_function_table(n, rule.nodes)
            half = rule.nodes >= 0.0
            folded = hermite_function_table(n, rule.nodes[half])
            assert view[:, half].tobytes() == folded.tobytes(), n
        else:
            view = laguerre_function_table(n, alpha, rule.nodes)
        assert view.shape == (n + 1, count)
        assert view.tobytes() == full[: n + 1].tobytes(), n


def _operator_results(params, hermite, laguerre):
    """Every operator that works at a rule's nodes, on a 1D and a radial
    ell = 2 rule, with Green's truncations of count + extra."""
    out = [
        gram_matrix_1d(params, hermite.count - 1, hermite),
        gram_matrix_1d(params, 10, hermite),
        radial_gram(params, 2, laguerre.count - 1, laguerre),
        project_1d(params, 15, lambda x: math.exp(-x * x) * (1.0 + x), hermite).coefficients,
        project_radial(params, 2, 12, lambda r: r**3 * math.exp(-r * r), laguerre).coefficients,
    ]
    for extra in (-1, 0, 6):
        out.append(coefficient_deviation_1d(params, GreensQuery(2.0, hermite.count + extra, 0.1), 0.3, hermite, 10))
        query = GreensQuery(2.0, laguerre.count + extra, 0.1)
        out.append(coefficient_deviation_radial(params, 2, query, 0.3, laguerre, 10))
    return [np.asarray(x).tobytes() for x in out]


def test_operators_match_a_rule_without_its_table(unit_params):
    """A copy made by dataclasses.replace is equal to the rule, and every
    operator gives the same bits on it: a rule carries nothing beyond its
    fields for the operators to use."""
    hermite, laguerre = gauss_hermite(24), gauss_laguerre(20, 2.5)
    bare_h, bare_l = dataclasses.replace(hermite), dataclasses.replace(laguerre)
    assert bare_h == hermite and repr(bare_h) == repr(hermite)
    assert _operator_results(unit_params, bare_h, bare_l) == _operator_results(unit_params, hermite, laguerre)


def test_operators_build_only_the_rows_they_read(monkeypatch, capsys, unit_params):
    """Building a rule sweeps no table at its nodes, and each operator at a
    rule's nodes builds exactly the n_max + 1 rows it reads in one table
    call (the 1D Gram at the nonnegative nodes only): the Green's
    coefficient check takes x' and the closure driver its 101-point grid
    in the same call as the nodes."""
    _clear_node_memos()
    at_nodes = []

    def counted(fn):
        def wrapper(n_max, *args):
            at_nodes.append((fn.__name__, n_max + 1, np.size(args[-1])))
            return fn(n_max, *args)

        return wrapper

    for module in (quadrature, oscillator1d, oscillator3d):
        for name in ("hermite_function_table", "laguerre_function_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    hermite, laguerre = gauss_hermite(24), gauss_laguerre(20, 2.5)
    assert at_nodes == []
    f_line, f_radial = (lambda x: math.exp(-x * x) * (1.0 + x)), (lambda r: r**3 * math.exp(-r * r))
    cases = [
        (lambda: gram_matrix_1d(unit_params, 10, hermite), ("hermite_function_table", 11, 12)),
        (lambda: radial_gram(unit_params, 2, 19, laguerre), ("laguerre_function_table", 20, 20)),
        (lambda: project_1d(unit_params, 15, f_line, hermite), ("hermite_function_table", 16, 24)),
        (lambda: project_radial(unit_params, 2, 12, f_radial, laguerre), ("laguerre_function_table", 13, 20)),
        (
            lambda: coefficient_deviation_1d(unit_params, GreensQuery(2.0, 30, 0.1), 0.3, hermite, 10),
            ("hermite_function_table", 31, 25),
        ),
        (
            lambda: coefficient_deviation_radial(unit_params, 2, GreensQuery(2.0, 15, 0.1), 0.3, laguerre, 10),
            ("laguerre_function_table", 16, 21),
        ),
        (
            lambda: cli.main(["closure", "--truncations", "4,12", "--quad-count", "24"]),
            ("hermite_function_table", 13, 24 + 101),
        ),
        (
            lambda: cli.main(
                ["closure", "--dimension", "radial", "--ell", "2", "--test-function", "radial-gaussian",
                 "--truncations", "3,9", "--quad-count", "20"]
            ),
            ("laguerre_function_table", 10, 20 + 101),
        ),
    ]
    for run, built in cases:
        at_nodes.clear()
        run()
        assert at_nodes == [built]
    assert "sup_error" in capsys.readouterr().out


def _assert_joint_table_bits(sector, rule, n_max, x, table_at):
    """``sector.nodes(rule, n_max, x)`` gives the nodes, scale and node table of
    ``sector.nodes(rule, n_max, ())``, the node table being the engine's table
    at the rule's nodes alone, and ``sector.table(n_max, x)``, bit for bit."""
    points, table, scale, at_x = sector.nodes(rule, n_max, x)
    alone_points, alone_table, alone_scale, _ = sector.nodes(rule, n_max, ())
    node_table = table_at(n_max, rule.nodes)
    pairs = [
        (points, alone_points),
        (scale, alone_scale),
        (alone_table, node_table),
        (table, node_table),
        (at_x, sector.table(n_max, x)),
    ]
    for got, want in pairs:
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# orders n_max = order * (count - 1), and points x, r = u / lambda with u in
# [-6, 6] and [0, 6]: the closure grid's span, and every Green's probe the
# bench draws
_ORDERS = st.floats(0.0, 1.0)
_MASSES = st.floats(0.25, 4.0)
_UNITS = st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=101)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(count=st.integers(1, 239), order=_ORDERS, mass=_MASSES, u=_UNITS)
@example(count=239, order=1.0, mass=1.0, u=[-6.0, 0.0, 6.0])
@example(count=1, order=1.0, mass=0.25, u=[6.0])
def test_line_nodes_with_points_keep_both_tables(count, order, mass, u):
    """One Hermite table at a rule's nodes and points |x| <= 6 / lambda gives
    the bits of the two separate tables (no column there is rescaled)."""
    n_max = round(order * (count - 1))
    params = OscillatorParams(mass, 1.0)
    _assert_joint_table_bits(
        oscillator1d._Line(params), gauss_hermite(count), n_max, np.array(u) / params.lam, hermite_function_table
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(count=st.integers(1, 144), order=_ORDERS, ell=st.integers(0, 64), mass=_MASSES, u=_UNITS)
@example(count=144, order=1.0, ell=64, mass=1.0, u=[0.0, 6.0])
@example(count=144, order=1.0, ell=0, mass=4.0, u=[0.0, 1e-3, 6.0])
@example(count=1, order=0.0, ell=64, mass=0.25, u=[0.0])
def test_radial_nodes_with_points_keep_both_tables(count, order, ell, mass, u):
    """The radial form: Laguerre tables at alpha = ell + 1/2, radii in
    [0, 6 / lambda], the origin included."""
    n_max = round(order * (count - 1))
    params = OscillatorParams(mass, 1.0)
    r = np.abs(np.array(u)) / params.lam
    _assert_joint_table_bits(
        oscillator3d._Radial(params, ell),
        gauss_laguerre(count, ell + 0.5),
        n_max,
        r,
        lambda n, rho: laguerre_function_table(n, ell + 0.5, rho),
    )
