"""CLI driver: table contents, report formats (CSV header/precision,
JSON schema), exit-code contract, and byte-level determinism."""

import contextlib
import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgo import (
    GreensQuery,
    OscillatorParams,
    cli,
    coefficient_deviation_1d,
    coefficient_deviation_radial,
    gauss_hermite,
    gauss_laguerre,
    quadrature,
)
from kgo.cli import TEST_FUNCTIONS_1D, TEST_FUNCTIONS_RADIAL, build_parser, main

CLOSURE_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "command",
        "config",
        "dimension",
        "test_function",
        "grid_spec",
        "truncations",
        "errors",
        "passed",
    ],
    "properties": {
        "schema_version": {"const": "1"},
        "command": {"const": "closure"},
        "config": {
            "type": "object",
            "required": ["mass", "frequency", "convention"],
            "properties": {
                "mass": {"type": "number"},
                "frequency": {"type": "number"},
                "convention": {"enum": ["ode-derived", "as-printed"]},
            },
        },
        "dimension": {"type": "string"},
        "test_function": {"type": "string"},
        "grid_spec": {"type": "string"},
        "truncations": {"type": "array", "items": {"type": "integer"}},
        "errors": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "passed": {"type": "boolean"},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["mass", "frequency", "convention"],
    "properties": {
        "mass": {"type": "number"},
        "frequency": {"type": "number"},
        "convention": {"enum": ["ode-derived", "as-printed"]},
    },
    "additionalProperties": False,
}


def _strict_object(properties):
    return {
        "type": "object",
        "required": sorted(properties),
        "properties": properties,
        "additionalProperties": False,
    }


def _report_schema(command, **fields):
    return _strict_object(
        {"schema_version": {"const": "1"}, "command": {"const": command}, "config": CONFIG_SCHEMA, **fields}
    )


NUMBER = {"type": "number"}
INTEGER = {"type": "integer"}
BOOLEAN = {"type": "boolean"}
OPTIONAL_ELL = {"type": ["integer", "null"], "minimum": 0}

SPECTRUM_SCHEMA = _report_schema(
    "spectrum",
    dimension={"enum": ["1d", "3d"]},
    rows={
        "type": "array",
        "items": _strict_object(
            {
                "n": {"type": "integer", "minimum": 0},
                "branch": {"enum": ["positive", "negative"]},
                "energy_ode_derived": NUMBER,
                "energy_as_printed": NUMBER,
                "energy_nonrel": NUMBER,
                "printed_minus_nonrel": NUMBER,
            }
        ),
    },
)

ORTHONORMALITY_SCHEMA = _report_schema(
    "orthonormality",
    dimension={"enum": ["1d", "radial"]},
    ell=OPTIONAL_ELL,
    n_max=INTEGER,
    quad_count=INTEGER,
    max_diag_deviation={"type": "number", "minimum": 0},
    max_offdiag_deviation={"type": "number", "minimum": 0},
    passed=BOOLEAN,
)

DEGENERACY_SCHEMA = _report_schema(
    "degeneracy",
    rows={
        "type": "array",
        "items": _strict_object(
            {
                "N": INTEGER,
                "shell_modes": {"type": "string"},
                "sum_2ellp1": INTEGER,
                "formula": INTEGER,
                "match": BOOLEAN,
            }
        ),
    },
    passed=BOOLEAN,
)

GREENS_SCHEMA = _report_schema(
    "greens",
    dimension={"enum": ["1d", "radial"]},
    ell=OPTIONAL_ELL,
    energy_sq=NUMBER,
    x1=NUMBER,
    x2=NUMBER,
    truncation=INTEGER,
    value=NUMBER,
    max_coefficient_deviation={"type": "number", "minimum": 0},
    passed=BOOLEAN,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_row_count_and_values(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n-max", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "n"
    assert len(rows) == 2 * 5  # both branches
    first = rows[0]
    assert float(first[2]) == 1.0  # ode-derived
    assert float(first[3]) == pytest.approx(math.sqrt(2.0), rel=1e-15)  # as-printed
    assert float(first[4]) == 1.5  # non-relativistic limit


def test_spectrum_heavy_mass_taylor_column(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--mass", "1e6", "--n-max", "5")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        n = int(row[0])
        bound = (2 * n + 1) ** 2 / (8.0e6)
        assert abs(float(row[5])) <= bound * 1.01


def test_spectrum_3d_dimension(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--dimension", "3d", "--n-max", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == 1.0
    # as-printed 3D ground state: sqrt(1 + 3) = 2
    assert float(rows[0][3]) == 2.0


def test_spectrum_csv_floats_are_full_precision(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--n-max", "2")
    _, rows = parse_csv(out)
    printed = [float(r[3]) for r in rows if r[1] == "positive"]
    assert printed[2] == math.sqrt(1 + 5.0)  # round-trips exactly


# ---------------------------------------------------------------------------
# orthonormality
# ---------------------------------------------------------------------------


def test_orthonormality_1d_passes(capsys):
    code, out, _ = run_cli(capsys, "orthonormality", "--n-max", "50")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["max_diag_deviation"]) <= 1e-10
    assert float(row["max_offdiag_deviation"]) <= 1e-10
    assert row["passed"] == "true"
    assert out.splitlines()[1].startswith("1d,,50,51,")  # no ell: an empty cell


def test_orthonormality_radial_passes(capsys):
    code, out, _ = run_cli(
        capsys, "orthonormality", "--dimension", "radial", "--ell", "4", "--n-max", "40"
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["max_diag_deviation"]) <= 1e-10
    assert float(row["max_offdiag_deviation"]) <= 1e-10


def test_orthonormality_undersized_quadrature_is_numeric_error(capsys):
    code, _, err = run_cli(capsys, "orthonormality", "--n-max", "50", "--quad-count", "20")
    assert code == 3
    assert "nodes" in err


def test_orthonormality_radial_requires_ell(capsys):
    code, _, err = run_cli(capsys, "orthonormality", "--dimension", "radial")
    assert code == 2
    assert "--ell" in err


@pytest.mark.parametrize("ell", ["65", "-1"])
def test_ell_outside_its_range_is_usage_error(capsys, ell):
    code, out, err = run_cli(capsys, "orthonormality", "--dimension", "radial", "--ell", ell)
    assert (code, out, err) == (2, "", "kgo: error: --ell must lie in [0, 64]\n")


def test_closure_at_infinite_lambda_is_numeric_error(capsys):
    code, out, err = run_cli(capsys, "closure", "--mass", "1e300", "--frequency", "1e300")
    assert (code, out) == (3, "")
    assert err == "kgo: numeric contract violation: lambda = sqrt(mass * frequency) exceeds the double range\n"


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_closure_gaussian_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "closure", "--test-function", "gaussian", "--truncations", "10,20,40"
    )
    assert code == 0
    _, rows = parse_csv(out)
    errors = [float(r[3]) for r in rows]
    assert errors[0] > errors[1] > errors[2]


def test_closure_in_span_function_is_exact(capsys):
    code, out, _ = run_cli(
        capsys, "closure", "--test-function", "poly-gaussian", "--truncations", "5,10"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[3]) <= 1e-10 for r in rows)


def test_closure_radial(capsys):
    code, out, _ = run_cli(
        capsys,
        "closure",
        "--dimension",
        "radial",
        "--ell",
        "1",
        "--test-function",
        "radial-gaussian",
        "--truncations",
        "10,20,40",
    )
    assert code == 0
    _, rows = parse_csv(out)
    errors = [float(r[3]) for r in rows]
    assert errors[0] > errors[1] > errors[2]


def test_closure_json_validates_against_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "closure",
        "--test-function",
        "gaussian",
        "--truncations",
        "10,20",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CLOSURE_SCHEMA)
    assert payload["passed"] is True


def test_closure_unknown_function_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "closure", "--test-function", "no-such-id")
    assert code == 2
    assert "unknown" in err


def test_closure_bad_truncations_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "closure", "--truncations", "10,abc")
    assert code == 2


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------


def test_degeneracy_table(capsys):
    code, out, _ = run_cli(capsys, "degeneracy", "--n-max", "6")
    assert code == 0
    header, rows = parse_csv(out)
    table = {int(r[0]): r for r in rows}
    assert int(table[0][3]) == 1
    assert int(table[2][3]) == 6
    assert int(table[5][2]) == 21 == int(table[5][3])
    assert table[6][1] == "(0,6) (1,4) (2,2) (3,0)"
    assert all(r[4] == "true" for r in rows)
    # a cell holding the delimiter is quoted
    assert run_cli(capsys, "degeneracy", "--n-max", "2") == (
        0,
        'N,shell_modes,sum_2ellp1,formula,match\n0,"(0,0)",1,1,true\n1,"(0,1)",3,3,true\n2,"(0,2) (1,0)",6,6,true\n',
        "",
    )


# ---------------------------------------------------------------------------
# greens
# ---------------------------------------------------------------------------


def test_greens_1d(capsys):
    code, out, _ = run_cli(
        capsys, "greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3", "--n-max", "25"
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["max_coefficient_deviation"]) <= 1e-9
    assert row["passed"] == "true"


def test_greens_radial(capsys):
    code, out, _ = run_cli(
        capsys,
        "greens",
        "--dimension",
        "radial",
        "--ell",
        "2",
        "--energy-sq",
        "9.7",
        "--x1",
        "0.7",
        "--x2",
        "1.1",
        "--n-max",
        "20",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert float(dict(zip(header, rows[0]))["max_coefficient_deviation"]) <= 1e-9


@pytest.mark.parametrize("sector", [[], ["--dimension", "radial", "--ell", "2"]], ids=["1d", "radial"])
def test_greens_energy_beyond_the_double_range_is_numeric_error(capsys, sector):
    """m w = 1e400 overflows E_n^2 in both sectors: exit 3, not a report."""
    argv = ["greens", "--mass", "1e200", "--frequency", "1e200", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"]
    code, out, err = run_cli(capsys, *argv, *sector)
    assert (code, out) == (3, "")
    assert err == "kgo: numeric contract violation: E_n^2 exceeds the double range\n"


def test_greens_pole_is_dedicated_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "greens",
        "--energy-sq",
        "7.0000001",
        "--x1",
        "0.0",
        "--x2",
        "0.1",
        "--n-max",
        "25",
        "--pole-guard",
        "0.01",
    )
    assert code == 3
    assert "n=3" in err


@pytest.mark.parametrize("quad_count", ["600", "5"], ids=["unbuildable", "undersized"])
@pytest.mark.parametrize(
    "sector, where", [([], "n=3"), (["--dimension", "radial", "--ell", "1"], "(n_r=1, ell=1)")], ids=["1d", "radial"]
)
def test_greens_pole_wins_over_a_bad_rule(capsys, quad_count, sector, where):
    """A probe inside the pole guard is reported before the coefficient
    check's rule is built or sized: the Green's value refuses it first."""
    code, out, err = run_cli(
        capsys, "greens", *sector, "--energy-sq", "7.0000001", "--x1", "0.2", "--x2", "0.3",
        "--pole-guard", "0.01", "--quad-count", quad_count,
    )
    assert (code, out) == (3, "")
    assert err.startswith("kgo: pole proximity: ") and where in err and err.count("\n") == 1


@pytest.mark.parametrize("n_max", [0, 3, 9])
@pytest.mark.parametrize("sector", [[], ["--dimension", "radial", "--ell", "2"]], ids=["1d", "radial"])
def test_greens_below_order_ten_checks_every_coefficient(capsys, n_max, sector):
    """The coefficient check reads k <= min(10, n_max): below --n-max 10 the
    report prints the deviation at k_max = n_max, and the library, asked for
    k_max = 10, clamps it to the truncation."""
    code, out, _ = run_cli(
        capsys, "greens", *sector, "--energy-sq", "9.7", "--x1", "0.7", "--x2", "1.1", "--n-max", str(n_max)
    )
    header, rows = parse_csv(out)
    printed = float(dict(zip(header, rows[0]))["max_coefficient_deviation"])
    params = OscillatorParams(1.0, 1.0)
    query = GreensQuery(probe_energy_sq=9.7, truncation=n_max, pole_guard=1e-6)
    if sector:
        rule = gauss_laguerre(n_max + 16, 2.5)
        deviations = [coefficient_deviation_radial(params, 2, query, 1.1, rule, k) for k in (n_max, 10)]
    else:
        rule = gauss_hermite(n_max + 16)
        deviations = [coefficient_deviation_1d(params, query, 1.1, rule, k) for k in (n_max, 10)]
    assert code == 0
    assert [printed, printed] == deviations


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(
            [
                "closure",
                "--test-function",
                "gaussian",
                "--truncations",
                "10,20",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv, schema",
    [
        (["spectrum", "--n-max", "3"], SPECTRUM_SCHEMA),
        (["spectrum", "--dimension", "3d", "--n-max", "2", "--convention", "as-printed"], SPECTRUM_SCHEMA),
        (["orthonormality", "--n-max", "20"], ORTHONORMALITY_SCHEMA),
        (["orthonormality", "--dimension", "radial", "--ell", "3", "--n-max", "20"], ORTHONORMALITY_SCHEMA),
        (["degeneracy", "--n-max", "4"], DEGENERACY_SCHEMA),
        (["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"], GREENS_SCHEMA),
        (
            ["greens", "--dimension", "radial", "--ell", "2", "--energy-sq", "9.7", "--x1", "0.7", "--x2", "1.1"],
            GREENS_SCHEMA,
        ),
    ],
)
def test_json_report_validates_against_schema(capsys, argv, schema):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["command"] == argv[0]


def test_json_rows_match_csv_rows(capsys):
    """JSON rows carry the CSV cells under the CSV header; an absent ell
    is an empty CSV cell and a JSON null."""
    for argv in (["spectrum", "--n-max", "2"], ["degeneracy", "--n-max", "3"], ["orthonormality", "--n-max", "5"]):
        _, csv_out, _ = run_cli(capsys, *argv)
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        header, rows = parse_csv(csv_out)
        payload = json.loads(json_out)
        objects = payload.get("rows", [payload])
        assert len(objects) == len(rows)
        for obj, row in zip(objects, rows):
            for key, cell in zip(header, row):
                value = obj[key]
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert cell == str(value)


def test_out_file_and_io_error(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "degeneracy", "--n-max", "2", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("N,")
    code, _, err = run_cli(
        capsys, "degeneracy", "--n-max", "2", "--out", str(tmp_path / "missing" / "x.csv")
    )
    assert code == 2
    assert "x.csv" in err


ONE_PER_COMMAND = [
    ["spectrum", "--n-max", "3"],
    ["orthonormality", "--n-max", "20"],
    ["closure", "--truncations", "10,20"],
    ["degeneracy", "--n-max", "4"],
    ["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    target = tmp_path / "report"
    assert run_cli(capsys, *argv, "--format", fmt, "--out", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=lambda argv: argv[0])
def test_json_config_echoes_the_flags(capsys, argv):
    flags = ["--mass", "2.5", "--frequency", "0.5", "--convention", "as-printed", "--format", "json"]
    _, out, _ = run_cli(capsys, *argv, *flags)
    assert json.loads(out)["config"] == {"mass": 2.5, "frequency": 0.5, "convention": "as-printed"}


def _readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S) for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("kgo ")]


def test_readme_cli_examples_run_and_repeat(capsys):
    examples = _readme_cli_examples()
    assert {argv[0] for argv in examples} == {"spectrum", "orthonormality", "closure", "degeneracy", "greens"}
    for argv in examples:
        first = run_cli(capsys, *argv)
        assert first[0] == 0, argv
        assert run_cli(capsys, *argv) == first, argv


def _clear_process_caches():
    cli._command_parser.cache_clear()
    quadrature._hermite_nodes.cache_clear()
    quadrature._laguerre_nodes.cache_clear()


SHARED_STATE_JOBS = [
    ["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3", "--n-max", "20"],
    ["greens", "--dimension", "radial", "--ell", "2", "--energy-sq", "9.7", "--x1", "0.7", "--x2", "1.1"],
    ["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3", "--n-max", "20"],
    ["closure", "--test-function", "poly-gaussian", "--truncations", "5,10"],
    ["orthonormality", "--n-max", "20", "--quad-count", "36"],
    ["orthonormality", "--dimension", "radial", "--ell", "2", "--n-max", "20", "--quad-count", "41"],
    ["greens", "--dimension", "sphere", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"],
    ["orthonormality", "--n-max", "5", "--quad-count", "600"],
]


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


GREENS = ["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"]
PARSER_ARGVS = [
    *([command, "-h"] for command in ("spectrum", "orthonormality", "closure", "degeneracy", "greens")),
    ["--version"],
    [],
    ["no-such-command"],
    # left over or rejected: the full parser reports them
    [*GREENS, "--bogus"],
    [*GREENS, "extra"],
    ["greens", "--energy-sq", "abc", "--x1", "0.2", "--x2", "0.3"],
    ["spectrum", "--dimension", "2d"],
    ["greens", "--energy-sq", "7.3", "--x1", "0.2"],
    [*GREENS, "--", "0.5"],
    ["greens", "--energy", "7.3", "--x1", "0.2", "--x2", "0.3"],
    ["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2=0.3"],
    ["greens", "--energy-sq", "7.3", "--x1", "-0.2", "--x2", "0.3"],
    ["--mass", "2", *GREENS],
    # ambiguous at the full parser's top level (--help or --version) first
    [*GREENS, "--=x"],
    *ONE_PER_COMMAND,
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-argument")
def test_command_parsers_agree_with_the_full_parser(monkeypatch, argv):
    """main parses an argv that names a command with that command's parser
    alone; through the full parser it prints the same stdout and stderr and
    exits with the same code, argparse's own exits included."""
    monkeypatch.setenv("COLUMNS", "80")
    alone = _run_in_process(argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert _run_in_process(argv) == alone


@pytest.mark.parametrize("argv", [*ONE_PER_COMMAND, ["greens", "-h"]], ids=lambda argv: " ".join(argv))
def test_a_parsed_command_builds_no_full_parser(monkeypatch, argv):
    def full_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", full_parser)
    assert _run_in_process(argv)[0] == 0


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_shared_parser_and_node_memo_keep_every_report(order):
    """Jobs run back to back in one process, sharing the parser and the
    rule nodes, report what each reports from cleared caches."""
    expected = {}
    for argv in SHARED_STATE_JOBS:
        _clear_process_caches()
        expected[tuple(argv)] = _run_in_process(argv)
    assert sorted({code for code, _, _ in expected.values()}) == [0, 2, 3]
    _clear_process_caches()
    for argv in SHARED_STATE_JOBS[::order]:
        assert _run_in_process(argv) == expected[tuple(argv)], argv


def test_negative_mass_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--mass", "-1.0")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--mass", "inf"],
        ["spectrum", "--frequency", "nan"],
        ["greens", "--energy-sq", "nan", "--x1", "0.1", "--x2", "0.2"],
        ["greens", "--energy-sq", "2.5", "--x1", "inf", "--x2", "0.2"],
        ["greens", "--energy-sq", "2.5", "--x1", "0.1", "--x2", "nan"],
        ["orthonormality", "--n-max", "-1"],
        ["greens", "--energy-sq", "2.5", "--x1", "0.1", "--x2", "0.2", "--n-max", "-1"],
        ["closure", "--dimension", "1d", "--ell", "5"],
        ["orthonormality", "--ell", "2"],
        ["closure", "--mass=1e-24", "--frequency=1e-300"],
    ],
)
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "np.float64(" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["closure", "--mass=1e-24", "--frequency=1e-300"], 2),
        (["orthonormality", "--dimension", "radial", "--ell", "200", "--n-max", "5"], 2),
        (["greens", "--mass", "1e200", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"], 3),
        (["closure", "--mass", "1e-200", "--test-function", "poly-gaussian", "--truncations", "3,8,30,12"], 3),
        (
            ["closure", "--dimension", "radial", "--ell", "64", "--mass", "1e-20",
             "--test-function", "radial-gaussian", "--truncations", "0,5,40"],
            3,
        ),
        (["closure", "--mass", "1e300", "--frequency", "1e300"], 3),
        (["greens", "--mass", "1e300", "--frequency", "1e300", "--energy-sq", "2", "--x1", "0", "--x2", "0.5"], 3),
        (
            ["greens", "--mass", "1e300", "--frequency", "1e300", "--energy-sq", "2", "--x1", "0", "--x2", "0.5",
             "--dimension", "radial", "--ell", "0"],
            3,
        ),
        (["greens", "--mass", "1e154", "--frequency", "5e153", "--energy-sq", "2", "--x1", "0", "--x2", "0.5"], 3),
        (["greens", "--dimension", "radial", "--ell", "1", "--energy-sq", "9.3", "--x1", "-0.2", "--x2", "0.3"], 2),
        (["greens", "--dimension", "radial", "--ell", "1", "--energy-sq", "9.3", "--x1", "0.2", "--x2", "-0.3"], 2),
        (["orthonormality", "--dimension", "radial", "--ell", "65"], 2),
        (["orthonormality", "--dimension", "radial", "--ell", "-1"], 2),
    ],
)
def test_rejected_input_writes_one_stderr_line(argv, code):
    """Input is refused before any numpy warning or traceback reaches stderr.
    capsys does not see warnings, so the CLI runs as a subprocess."""
    proc = subprocess.run([sys.executable, "-m", "kgo.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kgo: "), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["greens", "--dimension", "radial", "--ell", "1", "--energy-sq", "7.3", "--x1", "1e200", "--x2", "0.3"],
        ["greens", "--mass", "1e100", "--energy-sq", "7.3", "--x1", "1e300", "--x2", "0.3"],
    ],
)
def test_huge_finite_argument_reports_zero(argv):
    """lambda x or lambda^2 r^2 overflows the double range; the eigenfunctions
    are 0 there, so the Green's value is 0 and no numpy warning leaks."""
    proc = subprocess.run([sys.executable, "-m", "kgo.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    row = dict(zip(*csv.reader(io.StringIO(proc.stdout))))
    assert float(row["value"]) == 0.0


def test_negative_zero_radius_is_the_origin():
    """A negative radius is refused (see above), as Point3 refuses it, but
    -0.0 is the origin: it reports the value at 0."""
    argv = ["greens", "--dimension", "radial", "--ell", "1", "--energy-sq", "9.3", "--x2", "0.3", "--format", "json"]
    reports = [_run_in_process([*argv, "--x1", x1]) for x1 in ("-0.0", "0")]
    assert [code for code, _, _ in reports] == [0, 0]
    assert json.loads(reports[0][1])["value"] == json.loads(reports[1][1])["value"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_report_is_numeric_error(capsys, tmp_path, fmt):
    """Energies that overflow are refused before any byte is written."""
    argv = ["spectrum", "--mass", "1e200", "--n-max", "2", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "kgo: numeric contract violation: energy_ode_derived is not finite\n"
    target = tmp_path / "report"
    code, _, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 3
    assert not target.exists()


# ---------------------------------------------------------------------------
# argv fuzz
# ---------------------------------------------------------------------------


MAGNITUDES = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.integers(-300, 300).map(lambda exponent: f"1e{exponent}"),
    st.floats(-1e300, 1e300, allow_nan=False).map(repr),
    st.sampled_from(["0", "1e-300", "1e300", "inf", "-inf", "nan", "1e400", "abc"]),
)
N_MAX = st.integers(-2, 60).map(str)
QUAD_COUNT = st.integers(0, 128).map(str)
TRUNCATIONS = st.one_of(
    st.lists(st.integers(0, 60), min_size=1, max_size=4).map(lambda ts: ",".join(map(str, ts))),
    st.sampled_from(["", "10,abc", "-1"]),
)
TEST_FUNCTION_IDS = sorted(TEST_FUNCTIONS_1D) + sorted(TEST_FUNCTIONS_RADIAL) + ["no-such-id"]
RADIAL_OR_1D = st.sampled_from(["1d", "radial"])

COMMON_OPTIONS = {
    "--mass": MAGNITUDES,
    "--frequency": MAGNITUDES,
    "--convention": st.sampled_from(["ode-derived", "as-printed"]),
}
COMMAND_OPTIONS = {
    "spectrum": {"--dimension": st.sampled_from(["1d", "3d"]), "--n-max": N_MAX},
    "orthonormality": {"--dimension": RADIAL_OR_1D, "--n-max": N_MAX, "--quad-count": QUAD_COUNT},
    "closure": {
        "--dimension": RADIAL_OR_1D,
        "--truncations": TRUNCATIONS,
        "--test-function": st.sampled_from(TEST_FUNCTION_IDS),
        "--quad-count": QUAD_COUNT,
    },
    "degeneracy": {"--n-max": N_MAX},
    "greens": {
        "--dimension": RADIAL_OR_1D,
        "--energy-sq": MAGNITUDES,
        "--x1": MAGNITUDES,
        "--x2": MAGNITUDES,
        "--n-max": N_MAX,
        "--pole-guard": MAGNITUDES,
        "--quad-count": QUAD_COUNT,
    },
}
REQUIRED_OPTIONS = {"--energy-sq", "--x1", "--x2"}


@st.composite
def cli_argv(draw):
    """Mostly well-formed argv: every option may be left out, values range
    from ordinary to extreme, and --ell goes with --dimension radial in nine
    draws of ten."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    for option, values in {**COMMON_OPTIONS, **COMMAND_OPTIONS[command]}.items():
        if option in REQUIRED_OPTIONS or draw(st.booleans()):
            argv.append(f"{option}={draw(values)}")
    radial = "--dimension=radial" in argv
    if command not in ("spectrum", "degeneracy") and radial != (draw(st.integers(0, 9)) == 0):
        argv.append(f"--ell={draw(st.integers(-1, 70))}")
    return argv


def _reject_constant(name):
    raise ValueError(f"JSON report contains {name}")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=cli_argv(), fmt=st.sampled_from(["csv", "json"]))
@example(argv=["spectrum", "--mass=1e200", "--n-max=2"], fmt="csv")
@example(argv=["closure", "--mass=1e-24", "--frequency=1e-300"], fmt="csv")
def test_argv_fuzz_exit_codes_and_finite_output(argv, fmt):
    """Any argv exits 0-3, and a run that exits 0 wrote only finite numbers."""
    code, out, _ = _run_in_process(argv + ["--format", fmt])
    assert code in (0, 1, 2, 3)
    if code != 0:
        return
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
        return
    for row in parse_csv(out)[1]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), (argv, row)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgo.cli", "degeneracy", "--n-max", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("N,")
