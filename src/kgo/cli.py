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
import contextlib
import csv
import functools
import io
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


def _emit(args, header: list[str], rows: list[tuple], fields: dict) -> int:
    """Write one report and return its exit code.

    CSV is ``header`` plus ``rows``; JSON is ``fields`` under the common
    ``schema_version``/``command``/``config`` keys.  ``fields["passed"]``
    (absent means passed) selects exit 0 or 1.  A non-finite float cell
    raises before anything is written.
    """
    for row in rows:
        for name, cell in zip(header, row):
            if isinstance(cell, float) and not math.isfinite(cell):
                raise OverflowError(f"{name} is not finite")
    if args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header] + [[_fmt(cell) for cell in row] for row in rows])
        text = buffer.getvalue()
    else:
        payload = {
            "schema_version": "1",
            "command": args.command,
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
    return OscillatorParams(args.mass, args.frequency, args.convention)


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
    return _emit(args, header, rows, fields)


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
    return _emit(args, header, [row], dict(zip(header, row)))


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
    # One table at the nodes and the grid, at the top truncation, checked
    # once; each rung projects and reconstructs with the first n + 1 rows of
    # its node and grid blocks (a table's rows do not depend on its size),
    # in the shapes that project_*/reconstruct_* use, so every rung rounds
    # as they would.
    top = max(truncations)
    sector.require(rule, top + 1)
    nodes, table, scale, grid_table = sector.nodes(rule, top, grid)
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
    return _emit(args, header, rows, fields)


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
    return _emit(args, header, rows, fields)


def cmd_greens(args) -> int:
    """Green's function value plus the coefficient-identity residual;
    fails (exit 1) above the 1e-9 gate, exit 3 on pole proximity."""
    x1, x2 = args.x1, args.x2
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("--x1 and --x2 must be finite")
    params, dimension, ell, energy_sq, n_max = _params(args), args.dimension, args.ell, args.energy_sq, args.n_max
    query = GreensQuery(probe_energy_sq=energy_sq, truncation=n_max, pole_guard=args.pole_guard)
    count = args.quad_count if args.quad_count is not None else n_max + 16
    # the library clamps k_max to the truncation
    if dimension == "1d":
        value = greens_1d(params, query, x1, x2)
        deviation = coefficient_deviation_1d(params, query, x2, gauss_hermite(count), 10)
    else:
        value = greens_3d_partial_wave(params, ell, query, x1, x2)
        deviation = coefficient_deviation_radial(params, ell, query, x2, gauss_laguerre(count, ell + 0.5), 10)
    passed = deviation <= COEFF_GATE
    header = ["dimension", "ell", "energy_sq", "x1", "x2", "truncation", "value", "max_coefficient_deviation", "passed"]
    row = (dimension, ell, energy_sq, x1, x2, n_max, value, deviation, passed)
    return _emit(args, header, [row], dict(zip(header, row)))


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _common_options(parser):
    parser.add_argument("--mass", type=float, default=1.0, help="particle mass (natural units)")
    parser.add_argument("--frequency", type=float, default=1.0, help="oscillator frequency")
    parser.add_argument(
        "--convention",
        choices=[c.value for c in SpectrumConvention],
        default=SpectrumConvention.ODE_DERIVED.value,
        help="spectrum convention (default: ode-derived)",
    )
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _sector_options(parser):
    """The options of the rule-based commands, which work in one sector: 1D,
    or radial at one ell."""
    parser.add_argument("--dimension", choices=["1d", "radial"], default="1d")
    parser.add_argument("--ell", type=int, default=None)
    parser.add_argument("--quad-count", type=int, default=None, help="override the automatic rule size")


def _spectrum_options(parser):
    parser.add_argument("--dimension", choices=["1d", "3d"], default="1d")
    parser.add_argument("--n-max", type=int, default=10)


def _orthonormality_options(parser):
    _sector_options(parser)
    parser.add_argument("--n-max", type=int, default=50)


def _closure_options(parser):
    _sector_options(parser)
    parser.add_argument("--truncations", default="10,20,40", help="comma-separated truncation orders")
    parser.add_argument("--test-function", default="gaussian", help="catalogue id (see README)")


def _degeneracy_options(parser):
    parser.add_argument("--n-max", type=int, default=10)


def _greens_options(parser):
    _sector_options(parser)
    parser.add_argument("--energy-sq", type=float, required=True, help="probe energy squared")
    parser.add_argument("--x1", type=float, required=True, help="first position (radius for radial)")
    parser.add_argument("--x2", type=float, required=True, help="second position (radius for radial)")
    parser.add_argument("--n-max", type=int, default=25)
    parser.add_argument("--pole-guard", type=float, default=1e-6)


# name -> (help line, options, handler), in the order of the help listing
_COMMANDS = {
    "spectrum": ("energy table", _spectrum_options, cmd_spectrum),
    "orthonormality": ("Gram-matrix check", _orthonormality_options, cmd_orthonormality),
    "closure": ("weak-closure reconstruction ladder", _closure_options, cmd_closure),
    "degeneracy": ("shell degeneracy table", _degeneracy_options, cmd_degeneracy),
    "greens": ("spectral Green's function", _greens_options, cmd_greens),
}


def _fill(parser, name):
    _, options, run = _COMMANDS[name]
    _common_options(parser)
    options(parser)
    parser.set_defaults(command=name, run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new full parser: ``kgo`` with every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="kgo",
        description="Klein-Gordon oscillator eigenbasis verification experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=summary), name)
    return parser


class _CommandParser(argparse.ArgumentParser):
    """One command's parser alone.  It prints no error: it raises, and
    main() hands the argv to the full parser, which prints and exits as it
    always has (its top level, say, finds ``--=x`` ambiguous first)."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _command_parser(name):
    """The parser of one command alone, shared by every in-process call: it
    has the options, prog and help of that command's subparser."""
    return _fill(_CommandParser(prog=f"kgo {name}"), name)


def _parse(argv):
    """The namespace of an argv that names a command, from that command's
    parser alone; help, --version, no or an unknown command, an argument
    left over and every error go to a new full parser."""
    if argv and argv[0] in _COMMANDS:
        with contextlib.suppress(argparse.ArgumentError):
            return _command_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


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
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _run(args)
    except PoleProximityError as exc:
        print(f"kgo: pole proximity: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (QuadratureError, IntegrandError, OverflowError) as exc:
        print(f"kgo: numeric contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"kgo: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
