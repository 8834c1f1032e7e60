"""Node-accuracy audit of every Gauss rule kgo builds.

Covers every Hermite rule, every Laguerre rule at alpha -0.5, 0, 0.5, 10.5
and 64.5, and every Legendre rule on [-1, 1], of 1 to 512 nodes.  Each rule
is built cold (node memos cleared) while the engine calls of its scan and
polish are counted, and each node is compared with a reference: three
Newton steps on np.longdouble points from the double node, through the
value-and-slope functions the rules are polished with
(kgo.quadrature._hermite_fn_df, _laguerre_fn_df and _legendre_fn_df).  Each step's points are rounded to a multiple of the
long-double spacing at the largest node, so every Laguerre c_k - rho is
exact (the rounding that keeps the small Laguerre nodes accurate).  At
the SERIES_NODES smallest nodes of each Laguerre rule, where the long-double
recurrence's own root is up to about 1.3 double ulp off, the reference is
the root of the power series of L_n^(alpha) in mpmath instead.

Per family the record gives the node error in double ulp of the reference
(max, mean and a histogram), the largest relative weight error and the
engine calls per rule (the scan included).  For Hermite and Laguerre it also
gives the worst Taylor start that the scan hands the polish: the distance of
the start from the reference root over the width of its scan bracket, in the
scan's variable (start_rel).  The weight reference is the
family's closed form at the reference root, taken from the slope that the
last reference step evaluates: 2 (1 - x^2) / ((1 - x^2) P_K')^2 for
Legendre weights, and for Hermite and Laguerre modified weights
1 / sum_{j<K} p_j^2 in its Christoffel-Darboux form (h_K'^2 / 2 and
rho lf_K'^2) over the log-offset rounding that each rule carries on
purpose (see kgo.quadrature._christoffel_arrays).  The engines' long-double
offsets start from double constants (math.lgamma(alpha + 1)); the rule and
the reference share them, so they do not show here.  So do the slope
formulas: the weight error measures how far the rule's last step is from
convergence, and tests/test_quadrature.py checks the formulas themselves
against mpmath at sampled nodes.

Usage:

    PYTHONPATH=src python tools/node_audit.py [--out tools/node_audit.json]

Prints one summary line per family and exits 1 when any node is more than
NODE_ULP from its reference, the node contract of the README's "Numerical
notes", or when a family's largest relative weight error exceeds the
README's figure over every node, WEIGHT_REL for Hermite and Laguerre
modified weights and LEGENDRE_WEIGHT_REL for Legendre weights; exits 2 where np.longdouble is plain double, which leaves no
reference.  The record holds no timings, so a rerun on the same platform
writes the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter

import mpmath
import numpy as np

from kgo import quadrature, special

NODE_ULP = 4.0
WEIGHT_REL = 2e-15
LEGENDRE_WEIGHT_REL = 1e-14
COUNTS = range(1, quadrature.MAX_NODES + 1)
ALPHAS = (-0.5, 0.0, 0.5, 10.5, 64.5)
ENGINES = ("_hermite_engine", "_laguerre_engine", "_legendre_pair")
# upper edges of the node-ulp histogram bins; the last bin is open
ULP_BINS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
REFERENCE_STEPS = 3
# The long-double recurrence's own rounding puts its root up to about 1.3
# double ulp off at the smallest nodes of large Laguerre rules at alpha
# -0.5 to 0.5, which would read as node error.  At the SERIES_NODES smallest
# nodes of every Laguerre rule the reference is the root of the power series
# in mpmath instead (series_ulp).
SERIES_NODES = 6
SERIES_DIGITS = 40
SERIES_STEPS = 3


def reference(fn_df, nodes):
    """Long-double roots next to the double nodes, and log |df| there."""
    x = nodes.astype(np.longdouble)
    quantum = np.spacing(np.max(np.abs(x), initial=np.longdouble(1.0)))
    for _ in range(REFERENCE_STEPS):
        x = np.round(x / quantum) * quantum
        f, df, s = fn_df(x)
        x = x - f / df
    return x, np.log(np.abs(df)) + s


def series_ulp(count, alpha, nodes):
    """Distance in double ulp of each Laguerre node from its root, found by
    SERIES_STEPS Newton steps in mpmath on the power series
    L_n^(alpha)(x) / L_n^(alpha)(0) = sum_j t_j, t_{j+1} / t_j
    = -(n - j) x / ((j + 1) (alpha + j + 1)), from the node.  The terms are
    at most e^(2 sqrt(n x)), so the precision is SERIES_DIGITS beyond the
    digits that their cancellation costs."""
    out = []
    for node in nodes:
        digits = SERIES_DIGITS + int(2.0 * math.sqrt(count * float(node)) / math.log(10.0)) + 1
        with mpmath.workdps(digits):
            tiny, a, x = mpmath.mpf(10) ** -digits, mpmath.mpf(alpha), mpmath.mpf(float(node))
            for _ in range(SERIES_STEPS):
                t = total = mpmath.mpf(1)
                slope = mpmath.mpf(0)  # x times the derivative of the sum
                for j in range(count):
                    t *= -(count - j) * x / ((j + 1) * (a + j + 1))
                    total += t
                    slope += (j + 1) * t
                    if abs(t) < tiny and (count - j) * x < (j + 1) * (a + j + 1):
                        break
                x -= x * total / slope
            out.append(float(abs(mpmath.mpf(float(node)) - x)) / np.spacing(float(x)))
    return out


def start_rel(family, root, scan):
    """Largest distance of a Hermite or Laguerre Taylor start from its
    long-double root, over the width of its scan bracket, in the scan's
    variable: x for Hermite, whose scan brackets the positive roots only,
    and s = sqrt(rho) for Laguerre.  scan is what _bracket_by_scan returned:
    the bracket ends, the signs at the lower ends and the starts."""
    lo, hi, _, start = scan
    root = root[root > 0] if family == "hermite" else np.sqrt(root)
    return float(np.max(np.abs(start - root) / (hi - lo), initial=0.0))


def counted_build(build):
    """Build a rule cold; return it with the dtypes of its engine calls and
    what each of its scans returned."""
    calls, scans = [], []
    originals = {name: getattr(quadrature, name) for name in (*ENGINES, "_bracket_by_scan")}

    def counting(original):
        def engine(*args):
            calls.append(args[-1].dtype == np.longdouble)
            return original(*args)

        return engine

    def scan(*args):
        scans.append(originals["_bracket_by_scan"](*args))
        return scans[-1]

    quadrature._hermite_nodes.cache_clear()
    quadrature._laguerre_nodes.cache_clear()
    try:
        for name in ENGINES:
            setattr(quadrature, name, counting(originals[name]))
        quadrature._bracket_by_scan = scan
        rule = build()
    finally:
        for name, original in originals.items():
            setattr(quadrature, name, original)
    return rule, calls, scans


def audit_rule(family, count, alpha):
    """Node ulp errors, the largest weight error, the engine calls and the
    worst start (None for Legendre, which has no scan) of one rule."""
    if family == "hermite":
        rule, calls, scans = counted_build(lambda: quadrature.gauss_hermite(count))
        root, log_d = reference(functools.partial(quadrature._hermite_fn_df, count), rule.nodes)
        offset = special._hermite_offset
        log_christoffel = 2.0 * log_d - np.log(np.longdouble(2.0))
    elif family == "laguerre":
        rule, calls, scans = counted_build(lambda: quadrature.gauss_laguerre(count, alpha))
        root, log_d = reference(functools.partial(quadrature._laguerre_fn_df, count, alpha), rule.nodes)
        offset = lambda rho: special._laguerre_offset(alpha, rho)  # noqa: E731
        log_christoffel = 2.0 * log_d - np.log(root)
    else:
        rule, calls, scans = counted_build(lambda: quadrature.gauss_legendre(count, -1.0, 1.0))
        root, log_d = reference(functools.partial(quadrature._legendre_fn_df, count), rule.nodes)
    ulp = np.abs(rule.nodes - root) / np.spacing(np.abs(root.astype(float)))
    if family == "laguerre":
        ulp[:SERIES_NODES] = series_ulp(count, alpha, rule.nodes[:SERIES_NODES])
    if family == "legendre":
        got, want = rule.weights, 2.0 * (1.0 - root) * (1.0 + root) / np.exp(2.0 * log_d)
    else:
        rounding = offset(rule.nodes) - offset(rule.nodes.astype(np.longdouble))
        got, want = rule.modified_weights, np.exp(-(log_christoffel + 2.0 * rounding))
    weight_rel = float(np.max(np.abs(got - want) / want))
    start = max((start_rel(family, root, scan) for scan in scans), default=None)
    return ulp.astype(float), weight_rel, calls, start


def summarize(rules):
    """The record of one family from (ulp, weight_rel, calls, start_rel) per rule."""
    ulp = np.concatenate([r[0] for r in rules])
    edges = (0.0, *ULP_BINS, math.inf)
    histogram = {
        (f"[{lo:g}, {hi:g})" if hi < math.inf else f">= {lo:g}"): int(np.sum((ulp >= lo) & (ulp < hi)))
        for lo, hi in zip(edges[:-1], edges[1:])
    }
    calls = [len(r[2]) for r in rules]
    long_double = [sum(r[2]) for r in rules]
    starts = [r[3] for r in rules if r[3] is not None]
    record = {
        "rules": len(rules),
        "nodes": int(ulp.size),
        "node_ulp_max": round(float(ulp.max()), 4),
        "node_ulp_mean": round(float(ulp.mean()), 6),
        "node_ulp_histogram": histogram,
        "nodes_beyond_contract": int(np.sum(ulp > NODE_ULP)),
        "weight_rel_max": float(f"{max(r[1] for r in rules):.3e}"),
        "engine_calls_mean": round(sum(calls) / len(calls), 4),
        "engine_calls_max": max(calls),
        "engine_calls_histogram": {str(k): v for k, v in sorted(Counter(calls).items())},
        "long_double_calls": {str(k): v for k, v in sorted(Counter(long_double).items())},
    }
    if starts:
        record["start_rel_max"] = float(f"{max(starts):.3e}")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON record here")
    args = parser.parse_args(argv)
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        print("np.longdouble is plain double here: no reference for the audit", file=sys.stderr)
        return 2
    families = [("hermite", None)] + [("laguerre", alpha) for alpha in ALPHAS] + [("legendre", None)]
    record = {
        "node_ulp_contract": NODE_ULP,
        "weight_rel_contract": {"modified": WEIGHT_REL, "legendre": LEGENDRE_WEIGHT_REL},
        "reference": (
            f"{REFERENCE_STEPS} long-double Newton steps from each double node; at the {SERIES_NODES} smallest "
            f"nodes of each Laguerre rule the root of the power series in mpmath"
        ),
        "counts": [COUNTS.start, COUNTS.stop - 1],
        "families": {},
    }
    for family, alpha in families:
        name = family if alpha is None else f"{family} alpha={alpha:g}"
        summary = summarize([audit_rule(family, count, alpha) for count in COUNTS])
        record["families"][name] = summary
        print(
            f"{name}: node ulp max {summary['node_ulp_max']} mean {summary['node_ulp_mean']}, "
            f"weight rel max {summary['weight_rel_max']}, engine calls mean {summary['engine_calls_mean']} "
            f"max {summary['engine_calls_max']}, long-double {summary['long_double_calls']}"
            + (f", start rel max {summary['start_rel_max']}" if "start_rel_max" in summary else "")
        )
    if args.out:
        with open(args.out, "w") as out:
            json.dump(record, out, indent=2)
            out.write("\n")
    beyond = {name: s["nodes_beyond_contract"] for name, s in record["families"].items() if s["nodes_beyond_contract"]}
    if beyond:
        print(f"nodes beyond {NODE_ULP} ulp: {beyond}", file=sys.stderr)
    heavy = {
        name: s["weight_rel_max"]
        for name, s in record["families"].items()
        if s["weight_rel_max"] > (LEGENDRE_WEIGHT_REL if name == "legendre" else WEIGHT_REL)
    }
    if heavy:
        print(f"weights beyond the contract: {heavy}", file=sys.stderr)
    return 1 if beyond or heavy else 0


if __name__ == "__main__":
    sys.exit(main())
