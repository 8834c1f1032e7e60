"""Special-function evaluators against independent oracles:
term-by-term series, extended-precision (mpmath), closed forms, and the
symmetry/boundedness properties the recurrences must respect."""

import functools
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kgo import (
    MAX_ELL,
    AngularPoint,
    PolyValue,
    angular_kernel,
    angular_kernel_addition,
    hermite_function,
    hermite_function_table,
    hermite_poly,
    hermite_poly_scaled,
    laguerre_function,
    laguerre_function_table,
    laguerre_poly,
    laguerre_poly_scaled,
    legendre_p,
    log_gamma,
    quadrature,
    sph_harm,
    sph_harm_all,
    special,
)

mpmath.mp.dps = 60


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def hermite_series(n, xi):
    """H_n via its explicit series in extended precision."""
    return mpmath.hermite(n, mpmath.mpf(xi))


def hermite_function_oracle(n, xi):
    norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * mpmath.mpf(2) ** n * mpmath.factorial(n))
    return mpmath.hermite(n, mpmath.mpf(xi)) * mpmath.exp(-mpmath.mpf(xi) ** 2 / 2) / norm


def laguerre_series(n, alpha, rho):
    """L_n^(alpha) as sum_k (-1)^k C(n+alpha, n-k) rho^k / k!."""
    a = mpmath.mpf(alpha)
    r = mpmath.mpf(rho)
    total = mpmath.mpf(0)
    for k in range(n + 1):
        total += (-1) ** k * mpmath.binomial(n + a, n - k) * r**k / mpmath.factorial(k)
    return total


def laguerre_function_oracle(n, alpha, rho):
    a = mpmath.mpf(alpha)
    r = mpmath.mpf(rho)
    norm = mpmath.sqrt(mpmath.factorial(n) / mpmath.gamma(n + a + 1))
    return norm * mpmath.exp(-r / 2) * r ** (a / 2) * laguerre_series(n, alpha, rho)


# ---------------------------------------------------------------------------
# Hermite
# ---------------------------------------------------------------------------


def test_hermite_poly_low_orders():
    assert hermite_poly(0, 3.7) == 1.0
    assert hermite_poly(2, 1.0) == pytest.approx(2.0, abs=0)
    # H_3(2) = 8*8 - 12*2
    assert hermite_poly(3, 2.0) == pytest.approx(40.0, abs=0)


def test_hermite_poly_overflow_redirects():
    with pytest.raises(OverflowError, match="hermite_function"):
        hermite_poly(400, 25.0)


def test_hermite_poly_bad_degree():
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.0)


def test_hermite_function_trivial_values():
    assert hermite_function(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-15)
    assert hermite_function(1, 0.0) == 0.0


def test_hermite_function_high_order_against_mpmath():
    mine = hermite_function(200, 5.0)
    oracle = float(hermite_function_oracle(200, 5.0))
    assert mine == pytest.approx(oracle, rel=1e-10)


def test_hermite_function_far_tail_against_mpmath():
    # beyond the oscillatory region the value is ~1e-59; the rescaled
    # recurrence must not flush it to zero
    mine = hermite_function(500, 40.0)
    oracle = float(hermite_function_oracle(500, 40.0))
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_hermite_function_contract_window_is_finite():
    vals = hermite_function(500, np.linspace(-30, 30, 41))
    assert np.all(np.isfinite(vals))


def test_hermite_function_at_documented_limits_against_mpmath():
    # order 500 at |lambda x| up to 30
    for xi in (-30.0, -29.5, 0.0, 7.25, 29.5, 30.0):
        oracle = float(hermite_function_oracle(500, xi))
        assert abs(hermite_function(500, xi) - oracle) <= 1e-12 * abs(oracle)


def test_normalized_functions_vanish_at_huge_arguments():
    # the true values lie far below the double range; one recurrence step
    # from a large mantissa would overflow to inf or nan here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (1e153, -1e153, 1e160, -1e160, 1e300, -1e300):
            assert hermite_function(5, xi) == 0.0
            assert np.all(hermite_function_table(5, [xi, 2 * xi]) == 0.0)
        for rho in (1e153, 1e300):
            assert laguerre_function(5, 0.5, rho) == 0.0
            assert np.all(laguerre_function_table(5, 0.5, [rho, 2 * rho]) == 0.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: hermite_function(5, math.nan),
        lambda: hermite_function_table(5, [math.nan, 1.0]),
        lambda: laguerre_function(5, 0.5, math.nan),
        lambda: laguerre_function_table(5, 0.5, [1.0, math.nan]),
        lambda: legendre_p(3, math.nan),
    ],
    ids=["hermite_function", "hermite_function_table", "laguerre_function", "laguerre_function_table", "legendre_p"],
)
def test_nan_point_is_refused(evaluate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            evaluate()


# every quarter decade from 1e-3 to 1e28, across the floor where points die
# (|xi| near 46,341, rho near 2^31)
SCALES = [10.0**k for k in np.arange(-3.0, 28.01, 0.25)] + [9.99e27]


def test_tables_stay_finite_across_argument_scales():
    """The renormalization budget holds for a point set of any magnitude: a
    pair rescaled too late would overflow to inf or nan."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in SCALES:
            assert np.all(np.isfinite(hermite_function_table(500, [x, -x]))), x
            for alpha in (-0.9, -0.5, 0.0, 0.5, 10.5, 64.5):
                assert np.all(np.isfinite(laguerre_function_table(200, alpha, [x]))), (x, alpha)


def test_table_rows_do_not_depend_on_table_size():
    """The first n + 1 rows of a table at N > n are the table at n, bit for
    bit (the closure driver slices one table per rung)."""
    xi = np.concatenate([np.linspace(-30.0, 30.0, 257), [-1e6, 1e-3, 45.0, 1e12]])
    rho = np.concatenate([np.linspace(0.0, 900.0, 257), [1e-9, 1e6, 1e12]])
    big_h = hermite_function_table(500, xi)
    for n in (0, 1, 37, 250, 499):
        assert big_h[: n + 1].tobytes() == hermite_function_table(n, xi).tobytes(), n
    for alpha in (-0.5, 0.5, 64.5):
        big_l = laguerre_function_table(200, alpha, rho)
        for n in (0, 1, 37, 199):
            assert big_l[: n + 1].tobytes() == laguerre_function_table(n, alpha, rho).tobytes(), (n, alpha)


# |xi| just inside and just past the floor: the Hermite start offset
# -xi^2/2 - log(pi)/4 crosses _MIN_OFFSET = -2^30 near |xi| = 46,341.
XI_LIVE, XI_DEAD = 46340.0, 46342.0


def _floor_rho(alpha):
    """The rho where the Laguerre start offset
    -rho/2 + (alpha/2) log rho - log Gamma(alpha + 1)/2 crosses _MIN_OFFSET,
    rho = 2^31 + alpha log rho - log Gamma(alpha + 1), by fixed-point steps."""
    rho = 2.0**31
    for _ in range(4):
        rho = 2.0**31 + alpha * math.log(rho) - math.lgamma(alpha + 1.0)
    return rho


def _around_floor(alphas):
    """rho one below and one above the floor at each alpha."""
    return [_floor_rho(alpha) + d for alpha in alphas for d in (-1.0, 1.0)]


# Points for the batch test: the oscillatory region and its tails, where
# deep start offsets meet large growth (|xi| near 36 and beyond), every
# magnitude up to the floor and beyond it, and the origin.  The Laguerre
# points are their squares, so they reach the Laguerre tails too; the squares
# of XI_LIVE and XI_DEAD lie on each side of the Laguerre floor at every
# alpha of the test.
BATCH_POINTS = st.one_of(
    st.floats(-45.0, 45.0),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(30.0, 45.0)).map(lambda t: t[0] * t[1]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-3.0, 30.0)).map(lambda t: t[0] * 10.0 ** t[1]),
    st.sampled_from([0.0, -0.0, 1e3, 1e10, 1e27, XI_LIVE, -XI_LIVE, XI_DEAD, -XI_DEAD, 1e28, -1e28, 1e30]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["hermite", -0.5, 0.0, 0.5, 10.5, 64.5]),
    n=st.integers(0, 500),
    p=st.lists(BATCH_POINTS, min_size=1, max_size=8),
    q=st.lists(BATCH_POINTS, min_size=1, max_size=8),
)
@example(family="hermite", n=493, p=[-42.7], q=[-43.8])
@example(family="hermite", n=493, p=[-42.7], q=[1e27])
def test_table_columns_do_not_depend_on_their_batch(family, n, p, q):
    """Every column of a table at the points P + Q is the table at P alone,
    or at Q alone, bit for bit: the other points of a call set where the
    recurrence rescales, and a rescale moves only a point's exponent."""
    if family == "hermite":
        build = functools.partial(hermite_function_table, n)
    else:
        p, q = np.square(p).tolist(), np.square(q).tolist()
        build = functools.partial(laguerre_function_table, n, family)
    joint = build(p + q)
    assert joint[:, : len(p)].tobytes() == build(p).tobytes()
    assert joint[:, len(p) :].tobytes() == build(q).tobytes()


def test_tables_accept_points_of_any_shape():
    """A point set of any shape gives the table of its ravel, byte for byte."""
    xi = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
    rho = np.concatenate([[0.0], np.linspace(0.5, 20.0, 11)]).reshape(2, 3, 2)
    for points in (xi, np.ones((2, 2))):
        table = hermite_function_table(3, points)
        assert table.shape == (4, points.size)
        assert table.tobytes() == hermite_function_table(3, points.ravel()).tobytes()
    for points in (rho, np.ones((2, 2))):
        table = laguerre_function_table(3, 0.5, points)
        assert table.shape == (4, points.size)
        assert table.tobytes() == laguerre_function_table(3, 0.5, points.ravel()).tobytes()


def test_renormalize_lifts_a_pair_below_the_range():
    """Each pair is scaled by the power of two that puts its larger
    magnitude in [1/2, 1), so a pair below the range is lifted and one above
    it lowered, and its exponent moves by exactly np.frexp's exponent of that
    magnitude; np.frexp's mantissas of every normal value are unchanged, and
    a zero pair stays zero.  The same in long double, where the rescaled
    pairs keep their dtype and the exponents stay np.intc.  A partner taken
    below the normal double range rounds to even."""
    vk = [3.0 * 2.0**-1000, 0.75, 0.0, 3.0 * 2.0**1000, 2.0**1000, -5.0]
    vkm1 = [-(2.0**-990), 2.0**-1000, 0.0, -(2.0**990), 2.0**-29 + 2.0**-74, 0.0]
    for dtype in (float, np.longdouble):
        e = np.full(6, 7, dtype=np.intc)
        old_vk, old_vkm1 = np.array(vk, dtype=dtype), np.array(vkm1, dtype=dtype)
        new_vk, new_vkm1, new_e = special._renormalize(old_vk, old_vkm1, e)
        assert new_vk.dtype == new_vkm1.dtype == dtype and new_e.dtype == np.intc
        mag = np.maximum(np.abs(new_vk), np.abs(new_vkm1))
        assert np.all((mag >= 0.5) & (mag < 1.0) | (mag == 0.0))
        shift = np.frexp(np.maximum(np.abs(old_vk), np.abs(old_vkm1)))[1]
        assert (new_e - e).tolist() == shift.tolist() == [-989, 0, 0, 1002, 1001, 3]
        assert new_vk.tolist() == [3.0 * 2.0**-11, 0.75, 0.0, 0.75, 0.5, -0.625]
        assert new_vkm1[[0, 1, 2, 3, 5]].tolist() == [-0.5, 2.0**-1000, 0.0, -(2.0**-12), 0.0]
        # frexp's mantissa in [1/2, 1): the pairs keep every bit of theirs
        assert np.all(np.frexp(new_vk)[0] == np.frexp(old_vk)[0])
        assert np.all(np.frexp(new_vkm1[:4])[0] == np.frexp(old_vkm1[:4])[0])
        # 2^-1030 + 2^-1075 is a tie between two subnormals
        expected = 2.0**-1030 if dtype is float else np.ldexp(np.longdouble(2.0**-29 + 2.0**-74), -1001)
        assert new_vkm1[4] == expected == np.array(vkm1[4], dtype=dtype) / 2.0**1001


def _record_blocks(monkeypatch):
    """Wrap special._materialize; the returned list gets the row count of
    each block it is called on."""
    blocks = []
    materialize = special._materialize

    def recorded(rows, c, e):
        blocks.append(rows.shape[0])
        return materialize(rows, c, e)

    monkeypatch.setattr(special, "_materialize", recorded)
    return blocks


def test_renormalization_runs_on_a_budget(monkeypatch):
    """The engines rescale only when the growth bound runs out, not on each
    of a table's 500 steps: at most twice at 512 points within |xi| <= 30,
    and at most 25 times up to |xi| = 1e12, where each step may grow a pair
    by up to about 1e12.  Each block of rows between two rescales becomes
    values with one call, not row by row: one call per rescale and one at
    the end."""
    calls = []
    renormalize = special._renormalize

    def counted(*args):
        calls.append(1)
        return renormalize(*args)

    monkeypatch.setattr(special, "_renormalize", counted)
    blocks = _record_blocks(monkeypatch)
    for span, most in ((30.0, 2), (1e12, 25)):
        calls.clear()
        blocks.clear()
        hermite_function_table(500, np.linspace(-span, span, 512))
        assert len(calls) <= most, span
        # every block but the last ends at a rescale
        assert len(blocks) == len(calls) + 1
        assert sum(blocks) == 501


# Point sets for the chunking test: moderate ones, which rescale once over
# the table, and wide ones up to 1e12, which rescale every 25 or so steps;
# each has the origin and dead points, just past the floor and far beyond
# it, and the wide ones have points just inside the floor too.
CHUNK_ALPHAS = (-0.5, 0.5, 64.5)
MODERATE_XI = np.concatenate([np.linspace(-30.0, 30.0, 2001), [0.0, -0.0, XI_DEAD, -XI_DEAD, 3e28, -1e29, 1e300]])
WIDE_XI = np.concatenate(
    [[0.0, -0.0, XI_LIVE, -XI_DEAD, 1e29, -1e30], np.geomspace(1e-3, 1e12, 600), -np.geomspace(1e-3, 1e12, 600)]
)
MODERATE_RHO = np.concatenate([np.linspace(0.0, 1500.0, 2001), [_floor_rho(max(CHUNK_ALPHAS)) + 1.0, 3e28, 1e300]])
WIDE_RHO = np.concatenate([[0.0, 1e29], _around_floor(CHUNK_ALPHAS), np.geomspace(1e-3, 1e12, 1200)])


@pytest.mark.parametrize(
    "build, engine, offset, interior",
    [
        (
            lambda xi, rho, n=400: hermite_function_table(n, xi),
            lambda xi, rho: special._hermite_engine(0, xi),
            lambda xi, rho: special._hermite_offset(xi),
            lambda xi, rho: np.full(xi.shape, True),
        ),
        *(
            (
                lambda xi, rho, n=300, alpha=alpha: laguerre_function_table(n, alpha, rho),
                lambda xi, rho, alpha=alpha: special._laguerre_engine(0, alpha, np.where(rho == 0.0, 1.0, rho)),
                lambda xi, rho, alpha=alpha: special._laguerre_offset(alpha, rho),
                lambda xi, rho: rho != 0.0,
            )
            for alpha in CHUNK_ALPHAS
        ),
    ],
    ids=["hermite", "laguerre-neg-half", "laguerre-half", "laguerre-64.5"],
)
def test_chunked_materialize_matches_row_by_row(monkeypatch, build, engine, offset, interior):
    """A table whose rows become values a block at a time, at each rescale
    and once at the end, has the bytes of the same table with a rescale
    before every step, whose rows become values one per call: a rescale
    moves only the exponents, so when it comes changes no bit.  Row 0, alone
    the whole n_max = 0 table, is c 2^e from the split of the start offset
    (0 at dead points; the origin's limit is set apart): c in [1, 2) and
    c 2^e within 1e-12 of exp(offset) wherever that is a normal double."""
    blocks = _record_blocks(monkeypatch)
    point_sets = (MODERATE_XI, MODERATE_RHO), (WIDE_XI, WIDE_RHO)
    chunked = []
    for xi, rho in point_sets:
        blocks.clear()
        chunked.append(build(xi, rho))
        assert len(blocks) >= 2 and max(blocks) > 1, blocks
    for (xi, rho), table in zip(point_sets, chunked):
        _, _, c, e = engine(xi, rho)
        with np.errstate(over="ignore", divide="ignore"):
            start = np.exp(offset(xi, rho))
        normal = (start >= sys.float_info.min) & (start <= sys.float_info.max)
        assert np.all((c[normal] >= 1.0 - 2.0**-52) & (c[normal] < 2.0))
        assert np.allclose(np.ldexp(c, e)[normal], start[normal], rtol=1e-12, atol=0.0)
        cols = interior(xi, rho)
        assert table[0][cols].tobytes() == np.ldexp(c, e)[cols].tobytes()
        assert table[0].tobytes() == build(xi, rho, 0).tobytes()
    # a budget below zero runs out before every step
    monkeypatch.setattr(special, "_HEADROOM", -1.0)
    for (xi, rho), table in zip(point_sets, chunked):
        blocks.clear()
        assert build(xi, rho).tobytes() == table.tobytes()
        assert blocks == [1] * table.shape[0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: hermite_function_table(299, np.linspace(-1.0, 1.0, 4000)),
        lambda: laguerre_function_table(299, 0.5, np.linspace(0.0, 2.0, 4000)),
    ],
    ids=["hermite", "laguerre"],
)
def test_table_memory_stays_near_the_table(build):
    """Building a table allocates little beyond the table: its rows are
    turned into values a bounded block at a time."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.10 * table.nbytes, peak / table.nbytes


# Point sets for the budget test: the origin, mixed magnitudes, points on
# each side of the floor (for rho, at each alpha of the test) and far beyond
# it, where the engines run the recurrence at a stand-in point.
BUDGET_FAMILIES = ["hermite", "-0.5", "0", "0.5", "64.5", "1e3"]
BUDGET_ALPHAS = [float(family) for family in BUDGET_FAMILIES[1:]]
BUDGET_XI = np.array(
    [0.0, -0.0, 1e-3, -0.7, 5.0, -30.0, 1e3, -1e12, XI_LIVE, -XI_LIVE, XI_DEAD, -XI_DEAD]
    + [1e20, 1e28, 2e28, -1e29, -1e30, 1e300, np.inf, -np.inf]
)
BUDGET_RHO = np.array([0.0, 1e-3, 0.7, 5.0, 900.0, 1e6, 1e12, *_around_floor(BUDGET_ALPHAS), 1e28, 1e30, 1e300, np.inf])


def _record_recurrences(monkeypatch):
    """Wrap special._recurrence; the returned list gets, per engine run, the
    a_k arrays the loop applied (copies of the rows its block function
    wrote), and the a_max and b it was given."""
    runs = []
    recurrence = special._recurrence

    def recorded_recurrence(s, fill, b, a_max, table=None):
        run = {"a": [], "a_max": a_max.copy(), "b": b.copy()}
        runs.append(run)

        def recorded_fill(k0, k1, out):
            fill(k0, k1, out)
            run["a"].extend(row.copy() for row in out)

        return recurrence(s, recorded_fill, b, a_max, table)

    monkeypatch.setattr(special, "_recurrence", recorded_recurrence)
    return runs


def _live(family, points):
    """The mask of the points whose start offset is at least _MIN_OFFSET; the
    Laguerre engine runs the origin at its stand-in 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        if family == "hermite":
            s = special._hermite_offset(points)
        else:
            s = special._laguerre_offset(float(family), np.where(points == 0.0, 1.0, points))
    return s >= special._MIN_OFFSET


@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("family", BUDGET_FAMILIES)
def test_growth_budget_bounds_every_applied_coefficient(monkeypatch, family, n):
    """Whatever the points, each step's |a_k| at every live point is within
    the a_max[k] the growth budget spent, and the b_k that the budget and the
    steps share are their closed form within 2 ulp, sqrt(k/(k+1)) for
    Hermite and sqrt(k(k+alpha)/((k+1)(k+1+alpha))) for Laguerre, in tables
    and single evaluations."""
    runs = _record_recurrences(monkeypatch)
    steps = np.arange(n, dtype=float)
    if family == "hermite":
        points = BUDGET_XI
        hermite_function_table(n, points)
        hermite_function(n, points)
        closed = np.sqrt(steps / (steps + 1))
    else:
        points, alpha = BUDGET_RHO, float(family)
        laguerre_function_table(n, alpha, points)
        laguerre_function(n, alpha, points)
        closed = np.sqrt(steps * (steps + alpha) / ((steps + 1) * (steps + 1 + alpha)))
    live = _live(family, points)
    assert 0 < np.count_nonzero(live) < points.size
    assert len(runs) == 2
    for run in runs:
        a_max, b = run["a_max"], run["b"]
        assert len(run["a"]) == len(a_max) == len(b) == n
        assert np.all(np.abs(b - closed) <= 2 * np.spacing(closed)), np.abs(b - closed) / np.spacing(closed)
        for k, a in enumerate(run["a"]):
            assert a.shape == points.shape
            assert np.all(np.abs(a[live]) <= a_max[k]), (k, a[live], a_max[k])


@pytest.mark.parametrize("family", ["hermite", "-0.5", "0.5", "64.5"])
def test_dead_points_stay_out_of_the_growth_bound(monkeypatch, family):
    """A dead point adds nothing to the growth bound: the a_max that the
    recurrence gets for a table at [1, 1e20] is, byte for byte, the one at
    [1] alone.  Neither stand-in widens the range of 1: 1 is the Laguerre
    stand-in, and the Hermite stand-in 0 lies below it in |xi|."""
    runs = _record_recurrences(monkeypatch)
    for points in ([1.0], [1.0, 1e20]):
        if family == "hermite":
            hermite_function_table(300, points)
        else:
            laguerre_function_table(300, float(family), points)
    alone, with_dead = runs
    assert with_dead["a_max"].tobytes() == alone["a_max"].tobytes()


def _rule_bytes(build):
    quadrature._hermite_nodes.cache_clear()
    quadrature._laguerre_nodes.cache_clear()
    rule = build()
    if rule.family == quadrature.GAUSS_HERMITE:
        table = hermite_function_table(rule.count - 1, rule.nodes)
    else:
        table = laguerre_function_table(rule.count - 1, rule.alpha, rule.nodes)
    return [a.tobytes() for a in (rule.nodes, rule.weights, rule.log_weights, rule.modified_weights, table)]


def _evaluations(n, alpha):
    """Each family's point count, with a run of its table and single
    evaluations at order n on those points."""
    return [
        (
            BUDGET_XI.size,
            lambda: [hermite_function_table(n, BUDGET_XI).tobytes(), hermite_function(n, BUDGET_XI).tobytes()],
        ),
        (
            BUDGET_RHO.size,
            lambda: [
                laguerre_function_table(n, alpha, BUDGET_RHO).tobytes(),
                laguerre_function(n, alpha, BUDGET_RHO).tobytes(),
            ],
        ),
    ]


@pytest.mark.parametrize(
    "runs",
    [
        *(
            pytest.param(_evaluations(n, alpha), id=f"n{n}-alpha{alpha}")
            for n in (0, 1, 33, 300, 500)
            for alpha in (-0.5, 64.5)
        ),
        # GH145 builds its nodes at the 73 non-negative ones
        pytest.param([(73, lambda: _rule_bytes(lambda: quadrature.gauss_hermite(145)))], id="gh145"),
        pytest.param([(144, lambda: _rule_bytes(lambda: quadrature.gauss_laguerre(144, 64.5)))], id="gl144-64.5"),
    ],
)
def test_coefficient_block_size_changes_no_byte(monkeypatch, runs):
    """The steps' coefficients are formed a block of rows at a time; one row
    per block, and blocks of three rows on each run's own `points` points,
    give the default's bytes.  An order-n table or evaluation takes n steps,
    so orders 1 and 500 end on a partial three-row block and 0, 33 and 300
    do not; so do GH145's 145 steps at 73 points and GL144's 143-step table,
    while its 144-step node build does not.  Orders 300 and 500 rescale
    several times per table, at a block edge when a block is one row."""
    for points, run in runs:
        monkeypatch.undo()
        default = run()
        for cells in (1, 3 * points + 1):
            monkeypatch.setattr(special, "_MATERIALIZE_CELLS", cells)
            assert run() == default, (points, cells)


# Largest distance, in double ulp of the root, of a node after one
# long-double Newton step from the double node.
LONG_DOUBLE_STEP_ULP = 1.0


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="np.longdouble is plain double on this platform"
)
@pytest.mark.parametrize("family", ["hermite", "laguerre"])
def test_long_double_newton_step_through_the_engines(family):
    """One Newton step on long-double copies of the double GH64 and GL64
    (alpha -0.5) nodes, through the private engines, lands each sampled node
    within LONG_DOUBLE_STEP_ULP of the 60-digit root once rounded to double:
    the engines form every coefficient in the dtype of their points."""
    count = 64
    if family == "hermite":
        nodes = quadrature.gauss_hermite(count).nodes
        x = np.asarray(nodes, dtype=np.longdouble)
        v, vm1, _, _ = special._hermite_engine(count, x)
        df = np.sqrt(np.longdouble(2 * count)) * vm1 - x * v
        poly = lambda t: mpmath.hermite(count, t)  # noqa: E731
    else:
        alpha = -0.5
        nodes = quadrature.gauss_laguerre(count, alpha).nodes
        x = np.asarray(nodes, dtype=np.longdouble)
        v, vm1, _, _ = special._laguerre_engine(count, alpha, x)
        df = v * (count / x + alpha / (2 * x) - 0.5) - np.sqrt(np.longdouble(count * (count + alpha))) * vm1 / x
        poly = lambda t: mpmath.laguerre(count, alpha, t)  # noqa: E731
    assert v.dtype == vm1.dtype == np.longdouble
    stepped = x - v / df
    positive = np.flatnonzero(nodes > 0)
    for i in {*positive[:6], count // 2, count - 1}:
        guess = mpmath.mpf(float(nodes[i]))
        bracket = (guess * (1 - mpmath.mpf(2) ** -30), guess * (1 + mpmath.mpf(2) ** -30))
        root = mpmath.findroot(poly, bracket, solver="anderson", verify=False)
        ulp = abs(mpmath.mpf(float(stepped[i])) - root) / np.spacing(float(root))
        assert ulp <= LONG_DOUBLE_STEP_ULP, (i, float(nodes[i]), float(ulp))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="np.longdouble is plain double on this platform"
)
def test_long_double_points_fill_a_long_double_table():
    """A private-engine table on long-double points is within 1e-15 relative
    of 60-digit values at sampled orders to 64, where the double table is off
    by up to 3e-13; what remains is the double-rounded start offset."""
    n = 64
    for engine, points, oracle in (
        (special._hermite_engine, [0.3, 1.7, 5.0, 9.5], hermite_function_oracle),
        (lambda n, x, t: special._laguerre_engine(n, -0.5, x, t), [0.3, 1.7, 5.0, 40.0], lambda k, x: laguerre_function_oracle(k, -0.5, x)),
    ):
        table = np.empty((n + 1, len(points)), dtype=np.longdouble)
        engine(n, np.array(points, dtype=np.longdouble), table)
        for k in (1, 2, 9, 33, 63, 64):
            for j, x in enumerate(points):
                exact = oracle(k, x)
                if abs(exact) > 1e-3:
                    assert abs(mpmath.mpf(str(table[k, j])) - exact) <= 1e-15 * abs(exact), (k, x)


def test_hermite_recurrence_vs_series(rng):
    for _ in range(100):
        n = int(rng.integers(0, 51))
        xi = float(rng.uniform(-8.0, 8.0))
        mine = hermite_poly(n, xi)
        oracle = hermite_series(n, xi)
        scale = max(1.0, abs(float(oracle)))
        assert abs(mine - float(oracle)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 30), xi=st.floats(-5, 5, allow_nan=False))
def test_hermite_parity(n, xi):
    assert hermite_poly(n, -xi) == pytest.approx((-1.0) ** n * hermite_poly(n, xi), rel=1e-13, abs=1e-300)
    assert hermite_function(n, -xi) == (-1.0) ** n * hermite_function(n, xi)


def test_hermite_function_bounded_by_one():
    xi = np.linspace(-35.0, 35.0, 1401)
    for n in (0, 1, 2, 5, 17, 50, 200, 500):
        assert np.max(np.abs(hermite_function(n, xi))) <= 1.0


def test_hermite_table_matches_single_evaluations():
    """A single evaluation has the bits of its table row, also in the tails,
    where the values are subnormal or 0: both come from the same mantissa,
    factor and exponent through the same conversion."""
    xi = np.linspace(-4, 4, 9)
    table = hermite_function_table(12, xi)
    for n in (0, 3, 12):
        assert np.allclose(table[n], hermite_function(n, xi), rtol=0, atol=0)
    xi = np.linspace(-46.0, 46.0, 4601)
    table = hermite_function_table(500, xi)
    for n in (0, 1, 40, 121, 300, 500):
        assert table[n].tobytes() == hermite_function(n, xi).tobytes(), n


# Mehler's formula bound, in eps times the sum of the terms' magnitudes: at
# 2,000 pairs of ten seeds the error reached 58 (33 at the pairs below).
MEHLER_EPS = 100.0


def test_mehler_formula_sums_the_hermite_rows():
    """sum_{n<=500} t^n h_n(x) h_n(y) at t = 0.9 equals Mehler's closed form
    (pi (1 - t^2))^(-1/2) exp(-((1 + t^2)(x^2 + y^2) - 4 t x y) / (2 (1 - t^2)))
    at 200 pairs with |x|, |y| <= 25, within MEHLER_EPS eps times the sum of
    the terms' magnitudes plus the tail beyond order 500, at most
    t^501 / ((1 - t) sqrt(pi)) since |h_n| <= pi^(-1/4).  The exponent is
    written as two squares, -(1 - t)(x + y)^2 / (4 (1 + t)) -
    (1 + t)(x - y)^2 / (4 (1 - t)), so the closed form cancels nowhere."""
    t, n_max = 0.9, 500
    x, y = np.random.default_rng(2026).uniform(-25.0, 25.0, (2, 200))
    table = hermite_function_table(n_max, np.concatenate([x, y]))
    terms = t ** np.arange(n_max + 1)[:, None] * table[:, :200] * table[:, 200:]
    closed = np.exp(-(1 - t) * (x + y) ** 2 / (4 * (1 + t)) - (1 + t) * (x - y) ** 2 / (4 * (1 - t)))
    closed /= np.sqrt(np.pi * (1 - t * t))
    tail = t ** (n_max + 1) / ((1 - t) * math.sqrt(math.pi))
    bound = MEHLER_EPS * np.finfo(float).eps * np.abs(terms).sum(axis=0) + tail
    error = np.abs(terms.sum(axis=0) - closed)
    assert np.all(error <= bound), np.max(error / bound)


def test_hermite_poly_scaled_roundtrip():
    pv = hermite_poly_scaled(12, 1.3)
    assert isinstance(pv, PolyValue)
    assert pv.reconstruct() == pytest.approx(hermite_poly(12, 1.3), rel=1e-12)


def test_zero_poly_value_reconstructs_to_zero():
    """A zero mantissa is 0 whatever its offset; exp(1e4) alone would overflow."""
    assert PolyValue(0.0, 1e4).reconstruct() == 0.0


def test_hermite_poly_scaled_beyond_double_range():
    pv = hermite_poly_scaled(300, 2.0)
    log10 = (pv.log_scale + math.log(abs(pv.value))) / math.log(10.0)
    oracle = float(mpmath.log(abs(mpmath.hermite(300, 2.0)), 10))
    assert log10 == pytest.approx(oracle, abs=1e-8)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------


def test_laguerre_poly_low_orders():
    assert laguerre_poly(0, 0.5, 2.3) == 1.0
    assert laguerre_poly(1, 0.5, 1.0) == pytest.approx(0.5, abs=0)
    # L_2^(3/2)(2) = (a+1)(a+2)/2 - (a+2) rho + rho^2/2 at a=1.5, rho=2
    assert laguerre_poly(2, 1.5, 2.0) == pytest.approx(-0.625, rel=1e-15)


def test_laguerre_recurrence_vs_series(rng):
    for _ in range(100):
        n = int(rng.integers(0, 51))
        alpha = float(rng.uniform(-0.9, 10.0))
        rho = float(rng.uniform(0.0, 60.0))
        mine = laguerre_poly(n, alpha, rho)
        oracle = laguerre_series(n, alpha, rho)
        scale = max(1.0, abs(float(oracle)))
        assert abs(mine - float(oracle)) <= 1e-10 * scale


def test_laguerre_function_trivial_values():
    assert laguerre_function(0, 0.0, 0.0) == 1.0
    assert laguerre_function(1, 0.5, 0.0) == 0.0


@pytest.mark.parametrize("alpha, expected", [(-0.5, math.inf), (0.0, 1.0), (0.5, 0.0)])
def test_laguerre_function_origin_in_every_shape(alpha, expected):
    """At rho = 0 every order is inf for alpha < 0, 1 for alpha = 0 and 0
    for alpha > 0: as a scalar, inside a 1-D set next to positive points,
    in a 2-D array and in every row of a table, while the positive points
    keep their values."""
    assert laguerre_function(7, alpha, 0.0) == expected
    mixed = np.array([2.5, 0.0, 40.0, 0.0])
    values = laguerre_function(7, alpha, mixed)
    assert np.all(values[[1, 3]] == expected)
    assert values[0] == laguerre_function(7, alpha, 2.5)
    assert values[2] == laguerre_function(7, alpha, 40.0)
    grid = laguerre_function(7, alpha, mixed.reshape(2, 2))
    assert grid.shape == (2, 2)
    assert np.array_equal(grid.ravel(), values)
    table = laguerre_function_table(7, alpha, mixed)
    assert np.all(table[:, [1, 3]] == expected)
    assert np.all(np.isfinite(table[:, [0, 2]]))
    for n in range(8):
        assert table[n, 1] == laguerre_function(n, alpha, 0.0)


def test_laguerre_function_against_mpmath():
    mine = laguerre_function(30, 2.5, 40.0)
    oracle = float(laguerre_function_oracle(30, 2.5, 40.0))
    assert mine == pytest.approx(oracle, rel=1e-10)


def test_laguerre_function_far_tail_against_mpmath():
    with mpmath.workdps(260):
        oracle = float(laguerre_function_oracle(150, 2.5, 700.0))
    assert laguerre_function(150, 2.5, 700.0) == pytest.approx(oracle, rel=1e-9)


def test_laguerre_function_contract_window_is_finite():
    rho = np.array([0.0, 1.0, 100.0, 2500.0, 1.0e4])
    vals = laguerre_function(500, 10.5, rho)
    assert np.all(np.isfinite(vals))


def test_laguerre_function_table_matches_single_evaluations():
    """As for Hermite: bit for bit, also in the tails, at alpha from -0.5
    to 64.5."""
    rho = np.linspace(0.0, 30.0, 7)
    table = laguerre_function_table(9, 1.5, rho)
    for n in (0, 4, 9):
        assert np.allclose(table[n], laguerre_function(n, 1.5, rho), rtol=0, atol=0)
    rho = np.linspace(0.0, 3000.0, 6001)
    for alpha in (-0.5, 0.5, 10.5, 64.5):
        table = laguerre_function_table(200, alpha, rho)
        for n in (0, 1, 40, 121, 200):
            assert table[n].tobytes() == laguerre_function(n, alpha, rho).tobytes(), (alpha, n)


# Hille-Hardy bound, in eps times the sum of the terms' magnitudes: beyond
# the tail bound, the error at 8,000 pairs of 40 seeds reached 268 (149 at
# the pairs below).
HILLE_HARDY_EPS = 500.0


def _hille_hardy(alpha, t, x, y):
    """sum_n t^n lf_n(x) lf_n(y) in closed form, from mpmath at 40 digits:
    the exponent reaches about -6000, where a 53-bit argument would cost its
    exponential 13 digits."""
    with mpmath.workdps(40):
        x, y, t = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(t)
        kernel = t ** (-alpha / 2) / (1 - t) * mpmath.exp(-(x + y) * (1 + t) / (2 * (1 - t)))
        return float(kernel * mpmath.besseli(alpha, 2 * mpmath.sqrt(x * y * t) / (1 - t)))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 10.5, 64.5])
def test_hille_hardy_formula_sums_the_laguerre_rows(alpha):
    """sum_{n<=500} t^n lf_n(x) lf_n(y) at t = 0.9 equals the Hille-Hardy
    closed form t^(-alpha/2) / (1 - t) exp(-(x + y)(1 + t) / (2 (1 - t)))
    I_alpha(2 sqrt(x y t) / (1 - t)) at 40 pairs with 0 <= x, y <= 300,
    within HILLE_HARDY_EPS eps times the sum of the terms' magnitudes plus
    the tail beyond order 500.  By Cauchy-Schwarz the tail is at most
    (t/s)^501 sqrt(K_s(x, x) K_s(y, y)) for s = 0.99, where K_s is the
    closed form at s, a sum of terms >= 0 on the diagonal.  That bound lies
    below eps times the magnitudes at every pair but three at alpha 64.5,
    whose x y is so small that the rows still grow at order 500.  The rows
    near order x/4 carry the sum, so with x, y <= 300 it sees a row scaled
    by 1 + 1e-10 up to about order 100, and by 1 + 1e-6 at order 200 (at
    three of the five alphas).  As for Mehler's formula at t = 0.9, a term
    falls below eps from order 342 on: rows 400 and 500 show at no scale up
    to 1 + 1e-2."""
    t, s, n_max, pairs = 0.9, 0.99, 500, 40
    x, y = np.random.default_rng(2026).uniform(0.0, 300.0, (2, pairs))
    table = laguerre_function_table(n_max, alpha, np.concatenate([x, y]))
    terms = t ** np.arange(n_max + 1)[:, None] * table[:, :pairs] * table[:, pairs:]
    closed = np.array([_hille_hardy(alpha, t, a, b) for a, b in zip(x, y)])
    diagonal_x, diagonal_y = (np.array([_hille_hardy(alpha, s, p, p) for p in points]) for points in (x, y))
    tail = (t / s) ** (n_max + 1) * np.sqrt(diagonal_x * diagonal_y)
    bound = HILLE_HARDY_EPS * np.finfo(float).eps * np.abs(terms).sum(axis=0) + tail
    error = np.abs(terms.sum(axis=0) - closed)
    assert np.all(error <= bound), np.max(error / bound)


# Bounds of the two finite identities below, in eps times the sum of the
# terms' magnitudes plus w_n times the left side (the rounding of its
# argument).  Over seeds 0-99 (Hermite) and 0-139 (Laguerre) of 40 pairs the
# clean tables reached 224 and 218.  At seeds 0-9 a row scaled by 1 + 1e-10
# at order 400 or 500 scored at least 1,135 and 712, and rows 40 and 200
# more; a planted row n shows in the identity of order n, where the left
# side caps its score near 1e-10 / (eps w_n).
ROTATION_EPS = 500.0
ADDITION_EPS = 350.0


def _coefficient_triangle(column, across):
    """sqrt(t[n, k]) in double for k <= n < len(column), 0 above the
    diagonal: t[n, 0] = column[n] and t[n, k + 1] = t[n, k] across(n, k),
    built in long double from these ratios (math.comb took 20 times as long
    for the Hermite table)."""
    n = np.arange(column.size, dtype=np.longdouble)
    t = np.zeros((column.size, column.size), dtype=np.longdouble)
    t[:, 0] = column
    for k in range(column.size - 1):
        t[k + 1 :, k + 1] = t[k + 1 :, k] * across(n[k + 1 :], k)
    return np.sqrt(t).astype(float)


def _addition_error(a, fx, fy, lhs, weight, factor=1.0):
    """The largest |factor sum_k a[n, k] fx[k] fy[n - k] - lhs[n]| over the
    orders n and the pairs, in eps times factor sum_k |a[n, k] fx[k] fy[n - k]|
    + weight(n) |lhs[n]|."""
    worst = 0.0
    for n, side in enumerate(lhs):
        terms = a[n, : n + 1, None] * fx[: n + 1] * fy[n::-1]
        error = np.abs(factor * terms.sum(axis=0) - side)
        worst = max(worst, np.max(error / (factor * np.abs(terms).sum(axis=0) + weight(n) * np.abs(side))))
    return worst / np.finfo(float).eps


def _rotation_error(seed, n_max=500, pairs=40):
    x, y = np.random.default_rng(seed).uniform(-20.0, 20.0, (2, pairs))
    rx, ry = (x + y) / math.sqrt(2), (x - y) / math.sqrt(2)
    hx, hy, hrx, hry = np.split(hermite_function_table(n_max, np.concatenate([x, y, rx, ry])), 4, axis=1)
    a = _coefficient_triangle(0.5 ** np.arange(n_max + 1, dtype=np.longdouble), lambda n, k: (n - k) / (k + 1))
    width = np.abs(rx) + np.abs(ry)
    return _addition_error(a, hx, hy, hrx * hry[0], lambda n: 1 + math.sqrt(2 * n + 1) * width)


def test_rotated_oscillator_checks_every_hermite_row():
    """The 2D oscillator rotated by 45 degrees: with X = (x + y)/sqrt(2) and
    Y = (x - y)/sqrt(2), h_n(X) h_0(Y) = 2^(-n/2) sum_{k<=n} sqrt(C(n, k))
    h_k(x) h_{n-k}(y) (DLMF 18.18, for the polynomials), for each n <= 500
    on its own, at 40 pairs with |x|, |y| <= 20.  The bound is ROTATION_EPS
    eps times the terms' magnitudes plus w_n |h_n(X) h_0(Y)|, with
    w_n = 1 + sqrt(2n + 1)(|X| + |Y|) for the rounding of X and Y.  Unlike
    Mehler's sum it sees a row scaled by 1 + 1e-10 at every order up to 500;
    like every identity between rows, it passes one scale on all of them."""
    error = _rotation_error(2026)
    assert error <= ROTATION_EPS, error


def _laguerre_addition_error(alpha, seed, n_max=500, pairs=40):
    rng = np.random.default_rng(seed)
    x = rng.uniform(20.0, 300.0, pairs)
    y = x * rng.uniform(0.5, 2.0, pairs)
    gamma = 2 * alpha + 1
    fx, fy = np.split(laguerre_function_table(n_max, alpha, np.concatenate([x, y])), 2, axis=1)
    k = np.arange(n_max, dtype=np.longdouble)
    column = float(mpmath.beta(alpha + 1, alpha + 1)) * np.cumprod(np.r_[1.0, (k + alpha + 1) / (k + gamma + 1)])
    a = _coefficient_triangle(column, lambda n, k: (k + alpha + 1) * (n - k) / ((k + 1) * (n - k + alpha)))
    lhs = laguerre_function_table(n_max, gamma, x + y)
    factor = (x + y) ** (gamma / 2) * x ** (-alpha / 2) * y ** (-alpha / 2)
    return _addition_error(a, fx, fy, lhs, lambda n: 1 + n + gamma, factor)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 8.5, 64.5])
def test_addition_formula_checks_every_laguerre_row(alpha):
    """The addition formula L_n^(alpha+beta+1)(x + y) = sum_k L_k^alpha(x)
    L_{n-k}^beta(y) (DLMF 18.18), here with beta = alpha, written for the
    normalized functions: with gamma = alpha + beta + 1,
    lf_n^gamma(x + y) = P sum_k A_{n,k} lf_k^alpha(x) lf_{n-k}^beta(y), where
    P = (x + y)^(gamma/2) x^(-alpha/2) y^(-beta/2) and A_{n,k}^2 =
    n! Gamma(k+alpha+1) Gamma(n-k+beta+1) / (Gamma(n+gamma+1) k! (n-k)!).
    A_{0,0}^2 = B(alpha+1, beta+1), A_{n+1,0}^2 / A_{n,0}^2 =
    (n+beta+1) / (n+gamma+1) and A_{n,k+1}^2 / A_{n,k}^2 =
    (k+alpha+1)(n-k) / ((k+1)(n-k+beta)).  Each n <= 500 is checked on its
    own at 40 pairs with x in [20, 300] and y / x in [0.5, 2], within
    ADDITION_EPS eps times P times the terms' magnitudes plus
    (1 + n + gamma) |lf_n^gamma(x + y)|.  Below x = 20 the clean error
    reached 679 where the left side nears a zero, above what a row-500
    defect scores at alpha 64.5."""
    error = _laguerre_addition_error(alpha, 2026)
    assert error <= ADDITION_EPS, error


def test_laguerre_poly_scaled_roundtrip():
    pv = laguerre_poly_scaled(15, 0.5, 7.0)
    assert pv.reconstruct() == pytest.approx(laguerre_poly(15, 0.5, 7.0), rel=1e-11)


@pytest.mark.parametrize("n, alpha", [(5, 0.5), (300, 64.5), (500, 1000.0)])
def test_laguerre_poly_at_the_origin(n, alpha):
    """L_n^(alpha)(0) = Gamma(n+alpha+1) / (n! Gamma(alpha+1)): the scaled
    form matches it in the log, also beyond the double range (about e^951
    at n = 500, alpha = 1000), and the float form equals it in range."""
    pv = laguerre_poly_scaled(n, alpha, 0.0)
    log_true = math.lgamma(n + alpha + 1) - math.lgamma(n + 1) - math.lgamma(alpha + 1)
    log_mine = pv.log_scale + math.log(abs(pv.value))
    assert pv.value > 0.0
    assert abs(log_mine - log_true) <= 1e-12 * abs(log_true)
    if pv.log_scale == 0.0:
        assert laguerre_poly(n, alpha, 0.0) == pv.value
    else:
        with pytest.raises(OverflowError, match="laguerre_function"):
            laguerre_poly(n, alpha, 0.0)


@pytest.mark.parametrize("evaluate", [laguerre_poly, laguerre_poly_scaled])
def test_raw_laguerre_refuses_negative_rho(evaluate):
    with pytest.raises(ValueError, match=r"^rho must be >= 0, got -1\.0$"):
        evaluate(5, 0.5, -1.0)


def test_laguerre_alpha_validation():
    with pytest.raises(ValueError):
        laguerre_poly(3, -1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre_function(3, -1.5, 1.0)


@pytest.mark.parametrize(
    "evaluate",
    [lambda: laguerre_function(5, math.inf, 1.0), lambda: laguerre_function_table(5, math.inf, [1.0])],
    ids=["laguerre_function", "laguerre_function_table"],
)
def test_infinite_alpha_is_refused(evaluate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="alpha must be finite"):
            evaluate()


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------


def test_log_gamma_trivial_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
    assert log_gamma(10.0) == pytest.approx(math.log(362880.0), abs=1e-13)


def test_log_gamma_against_stdlib():
    xs = np.concatenate([np.linspace(0.5, 60, 1191), np.geomspace(60, 1.0e4, 200)])
    for x in xs:
        mine = log_gamma(float(x))
        ref = math.lgamma(float(x))
        assert abs(mine - ref) <= max(1e-13, 5e-15 * abs(ref))


def test_log_gamma_absolute_accuracy_small_range():
    # where |log Gamma| is small enough for 1e-13 absolute to be meaningful
    for x in np.linspace(0.5, 60, 2381):
        with mpmath.workdps(40):
            ref = float(mpmath.loggamma(float(x)))
        assert abs(log_gamma(float(x)) - ref) <= 1e-13


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.5, 100.0, allow_nan=False))
def test_log_gamma_recursion(x):
    assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), abs=1e-12)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.0)


# ---------------------------------------------------------------------------
# Legendre / spherical harmonics
# ---------------------------------------------------------------------------


def test_legendre_trivial_values():
    assert legendre_p(0, 0.3) == 1.0
    assert legendre_p(1, 0.3) == 0.3
    assert legendre_p(2, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_legendre_vs_mpmath(rng):
    for _ in range(100):
        ell = int(rng.integers(0, 51))
        x = float(rng.uniform(-1.0, 1.0))
        oracle = float(mpmath.legendre(ell, x))
        assert abs(legendre_p(ell, x) - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_sph_harm_trivial_values():
    anywhere = AngularPoint(1.234, 2.345)
    assert sph_harm(0, 0, anywhere) == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-14)
    north = AngularPoint(0.0, 0.0)
    assert sph_harm(1, 0, north) == pytest.approx(math.sqrt(3.0 / (4 * math.pi)), rel=1e-14)


def test_sph_harm_explicit_point():
    # Y_5^3(theta=1, phi=1/2), frozen from the explicit closed form
    expected = complex(-0.023727329276682814, -0.33458903435532655)
    mine = sph_harm(5, 3, AngularPoint(1.0, 0.5))
    assert abs(mine - expected) <= 1e-12


def test_sph_harm_vs_sympy_low_orders(rng):
    for _ in range(20):
        ell = int(rng.integers(0, 7))
        m = int(rng.integers(-ell, ell + 1))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        oracle = complex(sympy.Ynm(ell, m, theta, phi).evalf(25))
        assert abs(sph_harm(ell, m, AngularPoint(theta, phi)) - oracle) <= 1e-12


def test_sph_harm_conjugation(rng):
    for _ in range(25):
        ell = int(rng.integers(0, 9))
        m = int(rng.integers(0, ell + 1))
        pt = AngularPoint(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        lhs = sph_harm(ell, -m, pt)
        rhs = (-1.0) ** m * np.conj(sph_harm(ell, m, pt))
        assert abs(lhs - rhs) <= 1e-14


def test_sph_harm_domain():
    with pytest.raises(ValueError):
        sph_harm(2, 3, AngularPoint(1.0, 1.0))
    for m in (1.5, -1.5):
        with pytest.raises(ValueError, match=r"^\|m\| must be a non-negative integer, got 1\.5$"):
            sph_harm(2, m, AngularPoint(1.0, 1.0))


def test_sph_harm_all_consistent():
    pt = AngularPoint(0.9, 5.1)
    rows = sph_harm_all(6, pt)
    for ell in (0, 2, 6):
        for m in range(-ell, ell + 1):
            assert abs(rows[ell][ell + m] - sph_harm(ell, m, pt)) <= 1e-14


def test_sph_harm_at_the_documented_limit(rng):
    """At ell = MAX_ELL = 64: the table and the single evaluator agree bit for
    bit, every Y_ell^-m is exactly (-1)^m conj(Y_ell^m), sampled harmonics
    match mpmath, and the direct angular kernel matches the addition theorem.
    The bounds are about twice the worst over the draws of seeds 1-20 and of
    this test's seed: 1.6e-14, 1.5e-12 and 4.3e-11."""
    below_2pi = math.nextafter(2 * math.pi, 0.0)
    poles_and_seam = [(0.0, 1.3), (math.pi, 4.0), (1.1, below_2pi), (2.3, 0.7)]
    for pt in (AngularPoint(theta, phi) for theta, phi in poles_and_seam):
        for ell, row in enumerate(sph_harm_all(MAX_ELL, pt)):
            single = np.array([sph_harm(ell, m, pt) for m in range(-ell, ell + 1)])
            assert np.array_equal(row.view(np.uint64), single.view(np.uint64)), (pt, ell)
        for m in range(MAX_ELL + 1):
            assert sph_harm(MAX_ELL, -m, pt) == (-1.0) ** m * sph_harm(MAX_ELL, m, pt).conjugate(), (pt, m)

    def point():
        return AngularPoint(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))

    with mpmath.workdps(30):
        for _ in range(60):
            ell = int(rng.integers(0, MAX_ELL + 1))
            m = int(rng.integers(-ell, ell + 1))
            pt = point()
            oracle = complex(mpmath.spherharm(ell, m, pt.theta, pt.phi))
            assert abs(sph_harm(ell, m, pt) - oracle) <= 3e-14, (ell, m, pt)
    coincident = (MAX_ELL + 1) ** 2 / (4 * math.pi)
    for _ in range(40):
        a, b = point(), point()
        assert abs(angular_kernel(MAX_ELL, a, b) - angular_kernel_addition(MAX_ELL, a, b)) <= 3e-12, (a, b)
        # near the poles the direct sum loses the most: 4.7e-11 at theta = pi - 0.0016
        assert abs(angular_kernel(MAX_ELL, a, a) - coincident) <= 1e-10, a


def test_angular_point_validation():
    with pytest.raises(ValueError):
        AngularPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        AngularPoint(1.0, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# library sweep: every magnitude of the argument
# ---------------------------------------------------------------------------

MAGNITUDES = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)
ARGUMENTS = st.one_of(
    MAGNITUDES, MAGNITUDES.map(lambda x: -x), st.sampled_from([math.inf, -math.inf, math.nan])
)
EVALUATORS = {
    "hermite_poly_scaled": lambda n, alpha, x: hermite_poly_scaled(n, x),
    "laguerre_poly_scaled": laguerre_poly_scaled,
    "hermite_function": lambda n, alpha, x: hermite_function(n, x),
    "laguerre_function": laguerre_function,
}


def _well_conditioned_oracle(kind, n, alpha, x):
    """mpmath's H_n or L_n^(alpha) where the raw recurrence does not cancel:
    beyond twice the largest zero, or (Hermite) far inside the smallest
    zero spacing; None elsewhere."""
    if kind == "hermite_poly_scaled":
        edge = math.sqrt(2 * n + 1)  # every zero of H_n lies inside (-edge, edge)
        if abs(x) >= 2.0 * edge or abs(x) * edge <= 1e-3:
            return mpmath.hermite(n, x)
    elif x >= 2.0 * (4 * n + 2 * alpha + 2):  # above every zero of L_n^(alpha)
        return mpmath.laguerre(n, alpha, x)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(EVALUATORS)),
    n=st.integers(0, 500),
    alpha=st.floats(-0.99, 200.0),
    x=ARGUMENTS,
)
@example(kind="hermite_poly_scaled", n=5, alpha=0.0, x=1e8)
@example(kind="hermite_poly_scaled", n=5, alpha=0.0, x=1e10)
@example(kind="hermite_poly_scaled", n=5, alpha=0.0, x=1e30)
@example(kind="laguerre_poly_scaled", n=5, alpha=0.5, x=1e20)
@example(kind="laguerre_poly_scaled", n=5, alpha=0.5, x=math.inf)
@example(kind="laguerre_poly_scaled", n=500, alpha=200.0, x=0.0)
def test_special_functions_at_every_magnitude(kind, n, alpha, x):
    """Each result is a finite float, a PolyValue with a finite mantissa and
    log offset, or a documented ValueError (a non-finite polynomial
    argument, a negative rho); scaled values match mpmath to 1e-12 in the
    log wherever the recurrence is well conditioned."""
    assume(kind.endswith("_scaled") or not math.isnan(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = EVALUATORS[kind](n, alpha, x)
        except ValueError:
            assert not math.isfinite(x) or (x < 0 and kind.startswith("laguerre"))
            return
    if not isinstance(result, PolyValue):
        assert math.isfinite(result)
        return
    assert math.isfinite(result.value) and math.isfinite(result.log_scale)
    assert result.value != 0.0 or result.log_scale == 0.0
    if result.value == 0.0:
        log_mine = -math.inf
    else:
        log_mine = result.log_scale + math.log(abs(result.value))
        in_range = math.log(sys.float_info.min) <= log_mine <= math.log(sys.float_info.max)
        assert result.log_scale == 0.0 or not in_range
    oracle = _well_conditioned_oracle(kind, n, alpha, x)
    if oracle is not None:
        log_true = float(mpmath.log(abs(oracle)))
        assert abs(log_mine - log_true) <= 1e-12 * max(1.0, abs(log_true)), (log_mine, log_true)
