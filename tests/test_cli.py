"""CLI driver: table contents, report formats (CSV header/precision,
JSON schema), exit-code contract, and byte-level determinism."""

import csv
import io
import json
import math
import subprocess
import sys

import jsonschema
import pytest

from kgo.cli import main

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
)
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "np.float64(" not in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgo.cli", "degeneracy", "--n-max", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("N,")
