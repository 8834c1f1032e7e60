"""Command-line driver: verification experiments with CSV/JSON reports.

Commands
--------
spectrum        energy table under both conventions plus the
                non-relativistic limit
orthonormality  Gram-matrix deviation from the identity (1D or radial)
closure         projection/reconstruction sup-errors over a truncation
                ladder for a catalogued test function
degeneracy      shell enumeration against the (N+1)(N+2)/2 formula
greens          truncated Green's function value plus the
                coefficient-identity residual

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numeric contract violation (pole proximity, quadrature misuse,
overflowing energies, a non-finite value in the report, which is then
not written).
Output is deterministic: identical invocations produce identical bytes
(no timestamps).  CSV is RFC-4180-style with a mandatory header row and
17-significant-digit floats; JSON is a single object with
"schema_version": "1".
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import IntegrandError, PoleProximityError, QuadratureError
from .greens import (
    GreensQuery,
    coefficient_deviation_1d,
    coefficient_deviation_radial,
    greens_1d,
    greens_3d_partial_wave,
)
from .oscillator1d import (
    Branch,
    OscillatorParams,
    SpectrumConvention,
    _coefficients,
    _Line,
    eigenfunction_1d,
    energy_1d,
    gram_matrix_1d,
)
from .oscillator3d import (
    MAX_ELL,
    _Radial,
    degeneracy,
    energy_3d,
    radial_eigenfunction,
    radial_gram,
    shell_modes,
)
from .quadrature import gauss_hermite, gauss_laguerre

__all__ = ["main", "build_parser", "TEST_FUNCTIONS_1D", "TEST_FUNCTIONS_RADIAL"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAM_GATE = 1e-9
MONOTONE_SLACK = 1e-12
COEFF_GATE = 1e-9


# ---------------------------------------------------------------------------
# test-function catalogue (fixed; no user expressions)
# ---------------------------------------------------------------------------

# 1D entries map id -> (description, factory(params) -> f(x)); every f takes
# a scalar or an ndarray, so closure samples a whole point set in one call.
TEST_FUNCTIONS_1D = {
    "gaussian": ("exp(-x^2)", lambda p: lambda x: np.exp(-x * x)),
    "shifted-gaussian": ("exp(-(x-1)^2)", lambda p: lambda x: np.exp(-((x - 1.0) ** 2))),
    "poly-gaussian": (
        "(1 + x + x^3) exp(-lambda^2 x^2/2), in the span of psi_0..psi_3",
        lambda p: lambda x: (1.0 + x + x**3) * np.exp(-0.5 * p.lam**2 * x * x),
    ),
    "mode-3": ("psi_3 itself", lambda p: lambda x: eigenfunction_1d(p, 3, x)),
}

# radial entries get the ell sector as well.
TEST_FUNCTIONS_RADIAL = {
    "radial-gaussian": (
        "r^(ell+1) exp(-r^2)",
        lambda p, ell: lambda r: r ** (ell + 1) * np.exp(-r * r),
    ),
    "radial-poly-gaussian": (
        "r^(ell+1) (1 + r^2) exp(-lambda^2 r^2/2), span of R_0..R_1",
        lambda p, ell: lambda r: r ** (ell + 1) * (1.0 + r * r) * np.exp(-0.5 * p.lam**2 * r * r),
    ),
    "rmode-2": ("R_{2,ell} itself", lambda p, ell: lambda r: radial_eigenfunction(p, 2, ell, r)),
}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_escape(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


class _NonFiniteError(ArithmeticError):
    pass


def _emit(args, command: str, header: list[str], rows: list[tuple], fields: dict) -> int:
    """Write one report and return its exit code.

    CSV is ``header`` plus ``rows``; JSON is ``fields`` under the common
    ``schema_version``/``command``/``config`` keys.  ``fields["passed"]``
    (absent means passed) selects exit 0 or 1.  A non-finite float cell
    raises before anything is written.
    """
    for row in rows:
        for name, cell in zip(header, row):
            if isinstance(cell, float) and not math.isfinite(cell):
                raise _NonFiniteError(f"{name} is not finite")
    if args.format == "csv":
        lines = [header] + [[_csv_escape(_fmt(cell)) for cell in row] for row in rows]
        text = "".join(",".join(line) + "\n" for line in lines)
    else:
        payload = {
            "schema_version": "1",
            "command": command,
            "config": {"mass": args.mass, "frequency": args.frequency, "convention": args.convention},
            **fields,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output to {args.out!r}: {exc}") from exc
    return EXIT_OK if fields.get("passed", True) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _params(args) -> OscillatorParams:
    return OscillatorParams(args.mass, args.frequency, SpectrumConvention(args.convention))


def cmd_spectrum(args) -> int:
    """Energy table: both conventions, both branches, non-relativistic
    limit and the as-printed-minus-limit column."""
    dimension = args.dimension
    ode = OscillatorParams(args.mass, args.frequency, SpectrumConvention.ODE_DERIVED)
    printed = OscillatorParams(args.mass, args.frequency, SpectrumConvention.AS_PRINTED)
    energy, zero_point = (energy_1d, 0.5) if dimension == "1d" else (energy_3d, 1.5)
    rows = []
    for n in range(args.n_max + 1):
        for branch in (Branch.POSITIVE, Branch.NEGATIVE):
            e_pr = energy(printed, n, branch)
            e_nr = branch.sign * (args.mass + args.frequency * (n + zero_point))
            rows.append((n, branch.value, energy(ode, n, branch), e_pr, e_nr, e_pr - e_nr))
    header = ["n", "branch", "energy_ode_derived", "energy_as_printed", "energy_nonrel", "printed_minus_nonrel"]
    fields = {"dimension": dimension, "rows": [dict(zip(header, row)) for row in rows]}
    return _emit(args, "spectrum", header, rows, fields)


def cmd_orthonormality(args) -> int:
    """Gram-matrix deviation report; fails (exit 1) above the 1e-9 gate."""
    params, dimension, ell, n_max = _params(args), args.dimension, args.ell, args.n_max
    count = args.quad_count if args.quad_count is not None else n_max + 1
    if dimension == "1d":
        rule = gauss_hermite(count)
        gram = gram_matrix_1d(params, n_max, rule)
    else:
        rule = gauss_laguerre(count, ell + 0.5)
        gram = radial_gram(params, ell, n_max, rule)
    diag_dev = float(np.max(np.abs(np.diag(gram) - 1.0)))
    off_dev = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    passed = max(diag_dev, off_dev) <= GRAM_GATE
    header = ["dimension", "ell", "n_max", "quad_count", "max_diag_deviation", "max_offdiag_deviation", "passed"]
    row = (dimension, ell, n_max, rule.count, diag_dev, off_dev, passed)
    return _emit(args, "orthonormality", header, [row], dict(zip(header, row)))


def cmd_closure(args) -> int:
    """Reconstruction sup-errors per truncation; fails (exit 1) if the
    error column is not non-increasing (within slack)."""
    try:
        truncations = [int(tok) for tok in args.truncations.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad --truncations value {args.truncations!r}") from None
    if not truncations or any(t < 0 for t in truncations):
        raise ValueError("truncations must be non-negative integers")
    params, dimension, ell, fn_id = _params(args), args.dimension, args.ell, args.test_function
    lam = params.lam
    count = args.quad_count if args.quad_count is not None else max(truncations) + 64
    catalogue = TEST_FUNCTIONS_1D if dimension == "1d" else TEST_FUNCTIONS_RADIAL
    if fn_id not in catalogue:
        raise ValueError(f"unknown {dimension} test function {fn_id!r}; known ids: {sorted(catalogue)}")
    if dimension == "1d":
        sector, f, rule = _Line(params), catalogue[fn_id][1](params), gauss_hermite(count)
        lo, label = -6.0 / lam, "1d"
    else:
        sector, f, rule = _Radial(params, ell), catalogue[fn_id][1](params, ell), gauss_laguerre(count, ell + 0.5)
        lo, label = 0.05 / lam, f"radial-ell{ell}"
    if lam == math.inf:
        # the grid collapses to 0, where lam * 0 is nan
        raise OverflowError("lambda = sqrt(mass * frequency) exceeds the double range")
    grid = np.linspace(lo, 6.0 / lam, 101)
    # One node table and one grid table at the top truncation, checked once;
    # each rung projects and reconstructs with their first n + 1 rows (a
    # table's rows do not depend on its size), in the shapes that
    # project_*/reconstruct_* use, so every rung rounds as they would.
    top = max(truncations)
    sector.require(rule, top + 1)
    nodes, table, scale = sector.nodes(rule, top)
    grid_table = sector.table(top, grid)
    weights = rule.modified_weights / scale
    # A tiny mass stretches grid and nodes until samples or their products
    # overflow; _coefficients and _emit refuse what is not finite (exit 3).
    with np.errstate(over="ignore", invalid="ignore"):
        reference = f(grid)
        samples = f(nodes)
        errors = []
        for n in truncations:
            coefficients = _coefficients(table[: n + 1], weights, samples, nodes, sector.name)
            errors.append(float(np.max(np.abs(coefficients @ grid_table[: n + 1] - reference))))
    passed = all(later <= earlier + MONOTONE_SLACK for earlier, later in zip(errors, errors[1:]))
    header = ["dimension", "test_function", "truncation", "sup_error"]
    rows = [(label, fn_id, n, e) for n, e in zip(truncations, errors)]
    fields = {
        "dimension": label,
        "test_function": fn_id,
        "grid_spec": f"uniform[{lo:.6g},{6.0 / lam:.6g}]n=101",
        "truncations": truncations,
        "errors": errors,
        "passed": passed,
    }
    return _emit(args, "closure", header, rows, fields)


def cmd_degeneracy(args) -> int:
    """Shell table: modes, brute-force (2 ell + 1) sum, closed formula."""
    rows = []
    for N in range(args.n_max + 1):
        modes = shell_modes(N)
        brute = sum(2 * ell + 1 for _, ell in modes)
        formula = degeneracy(N)
        mode_str = " ".join(f"({n_r},{ell})" for n_r, ell in modes)
        rows.append((N, mode_str, brute, formula, brute == formula))
    header = ["N", "shell_modes", "sum_2ellp1", "formula", "match"]
    fields = {"rows": [dict(zip(header, row)) for row in rows], "passed": all(row[-1] for row in rows)}
    return _emit(args, "degeneracy", header, rows, fields)


def cmd_greens(args) -> int:
    """Green's function value plus the coefficient-identity residual;
    fails (exit 1) above the 1e-9 gate, exit 3 on pole proximity."""
    x1, x2 = args.x1, args.x2
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("--x1 and --x2 must be finite")
    params, dimension, ell, energy_sq, n_max = _params(args), args.dimension, args.ell, args.energy_sq, args.n_max
    query = GreensQuery(probe_energy_sq=energy_sq, truncation=n_max, pole_guard=args.pole_guard)
    count = args.quad_count if args.quad_count is not None else n_max + 16
    k_max = min(10, n_max)
    if dimension == "1d":
        value = greens_1d(params, query, x1, x2)
        deviation = coefficient_deviation_1d(params, query, x2, gauss_hermite(count), k_max)
    else:
        value = greens_3d_partial_wave(params, ell, query, x1, x2)
        deviation = coefficient_deviation_radial(
            params, ell, query, x2, gauss_laguerre(count, ell + 0.5), k_max
        )
    passed = deviation <= COEFF_GATE
    header = ["dimension", "ell", "energy_sq", "x1", "x2", "truncation", "value", "max_coefficient_deviation", "passed"]
    row = (dimension, ell, energy_sq, x1, x2, n_max, value, deviation, passed)
    return _emit(args, "greens", header, [row], dict(zip(header, row)))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgo",
        description="Klein-Gordon oscillator eigenbasis verification experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mass", type=float, default=1.0, help="particle mass (natural units)")
    common.add_argument("--frequency", type=float, default=1.0, help="oscillator frequency")
    common.add_argument(
        "--convention",
        choices=[c.value for c in SpectrumConvention],
        default=SpectrumConvention.ODE_DERIVED.value,
        help="spectrum convention (default: ode-derived)",
    )
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    # the rule-based commands work in one sector: 1D, or radial at one ell
    sector = argparse.ArgumentParser(add_help=False)
    sector.add_argument("--dimension", choices=["1d", "radial"], default="1d")
    sector.add_argument("--ell", type=int, default=None)
    sector.add_argument("--quad-count", type=int, default=None, help="override the automatic rule size")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common], help="energy table")
    sp.add_argument("--dimension", choices=["1d", "3d"], default="1d")
    sp.add_argument("--n-max", type=int, default=10)
    sp.set_defaults(run=cmd_spectrum)

    orth = sub.add_parser("orthonormality", parents=[common, sector], help="Gram-matrix check")
    orth.add_argument("--n-max", type=int, default=50)
    orth.set_defaults(run=cmd_orthonormality)

    clo = sub.add_parser("closure", parents=[common, sector], help="weak-closure reconstruction ladder")
    clo.add_argument("--truncations", default="10,20,40", help="comma-separated truncation orders")
    clo.add_argument("--test-function", default="gaussian", help="catalogue id (see README)")
    clo.set_defaults(run=cmd_closure)

    deg = sub.add_parser("degeneracy", parents=[common], help="shell degeneracy table")
    deg.add_argument("--n-max", type=int, default=10)
    deg.set_defaults(run=cmd_degeneracy)

    gre = sub.add_parser("greens", parents=[common, sector], help="spectral Green's function")
    gre.add_argument("--energy-sq", type=float, required=True, help="probe energy squared")
    gre.add_argument("--x1", type=float, required=True, help="first position (radius for radial)")
    gre.add_argument("--x2", type=float, required=True, help="second position (radius for radial)")
    gre.add_argument("--n-max", type=int, default=25)
    gre.add_argument("--pole-guard", type=float, default=1e-6)
    gre.set_defaults(run=cmd_greens)
    return parser


def _run(args) -> int:
    if not (0 < args.mass < math.inf and 0 < args.frequency < math.inf):
        raise ValueError("mass and frequency must be positive and finite")
    if getattr(args, "n_max", 0) < 0:
        raise ValueError("--n-max must be >= 0")

    ell = getattr(args, "ell", None)
    if (ell is None) == (getattr(args, "dimension", None) == "radial"):
        raise ValueError("--ell is required with --dimension radial and accepted only there")
    if ell is not None and not 0 <= ell <= MAX_ELL:
        raise ValueError(f"--ell must lie in [0, {MAX_ELL}]")
    return args.run(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except PoleProximityError as exc:
        print(f"kgo: pole proximity: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (QuadratureError, IntegrandError, OverflowError, _NonFiniteError) as exc:
        print(f"kgo: numeric contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"kgo: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
