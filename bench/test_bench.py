"""Tests of the benchmark's own generator, checker and span arithmetic.

Run with ``python3 -m pytest bench`` from the root of the repository.
"""

import copy

import pytest

import workloads
from check import COEFF_GATE, GRAM_GATE, accuracy_digits, check_job
from tracer import self_times

GREENS_ARGV = ["greens", "--dimension", "1d", "--energy-sq", "4.0", "--x1", "0.5", "--x2", "-1.25",
               "--n-max", "40"]
GREENS_OK = {
    "exit": 0,
    "stdout": "dimension,ell,energy_sq,x1,x2,truncation,value,max_coefficient_deviation,passed\n"
              "1d,,4,0.5,-1.25,40,0.10115558810060027,2.0816681711721685e-16,true\n",
    "rules": ["gauss-hermite:56:None"],
}
ORTH_ARGV = ["orthonormality", "--dimension", "radial", "--n-max", "200", "--ell", "64"]
ORTH_OK = {
    "exit": 0,
    "stdout": "dimension,ell,n_max,quad_count,max_diag_deviation,max_offdiag_deviation,passed\n"
              "radial,64,200,201,1.4210854715202004e-14,1.2178913995478563e-14,true\n",
    "rules": [],
}
DEFECT_ARGV = ["closure", "--dimension", "radial", "--ell", "7", "--test-function",
               "radial-poly-gaussian", "--truncations", "10,20,40,80"]
DEFECT_RESULT = {
    "exit": 1,
    "stdout": "dimension,test_function,truncation,sup_error\n"
              "radial-ell7,radial-poly-gaussian,10,1.2505552149377763e-12\n"
              "radial-ell7,radial-poly-gaussian,20,1.7053025658242404e-12\n"
              "radial-ell7,radial-poly-gaussian,40,3.5242919693700969e-12\n"
              "radial-ell7,radial-poly-gaussian,80,4.7748471843078732e-12\n",
    "rules": [],
}
NODES_OK = {"gauss-hermite:56:None": 1e-15}


def _with_row(result, row):
    broken = copy.deepcopy(result)
    header = broken["stdout"].splitlines()[0]
    broken["stdout"] = f"{header}\n{row}\n"
    return broken


def test_good_rows_pass():
    assert not check_job(GREENS_ARGV, GREENS_OK, NODES_OK).failed
    assert not check_job(ORTH_ARGV, ORTH_OK, {}).failed


@pytest.mark.parametrize("row", [
    "1d,,4,0.5,-1.25,40,0.10115558810060027,3.0e-9,false",  # deviation above the gate
    "1d,,4,0.5,-1.25,40,nan,2.0816681711721685e-16,true",  # non-finite value
    "1d,,4,0.5,-1.25,40,0.10115558810060027,2.0e-16,false",  # verdict contradicts the deviation
    "1d,,4.5,0.5,-1.25,40,0.10115558810060027,2.0e-16,true",  # row is not for this argv
    "1d,,4,0.5,-1.25,40,0.101",  # too few fields
])
def test_injected_wrong_greens_row_counts_as_failure(row):
    check = check_job(GREENS_ARGV, _with_row(GREENS_OK, row), NODES_OK)
    assert check.failed and not check.known_defect


def test_injected_wrong_gram_row_counts_as_failure():
    row = "radial,64,200,201,1.4e-14,2.0e-9,true"
    check = check_job(ORTH_ARGV, _with_row(ORTH_OK, row), {})
    assert check.failed and not check.known_defect


def test_nonzero_exit_and_bad_nodes_count_as_failures():
    crashed = dict(GREENS_OK, exit=3, stdout="")
    assert check_job(GREENS_ARGV, crashed, NODES_OK).failed
    assert check_job(GREENS_ARGV, GREENS_OK, {"gauss-hermite:56:None": 1e-9}).failed


def test_documented_closure_defect_fails_but_is_known():
    check = check_job(DEFECT_ARGV, DEFECT_RESULT, {})
    assert check.failed and check.known_defect
    wrong = _with_row(DEFECT_RESULT, "radial-ell7,radial-poly-gaussian,10,1.0")
    wrong_check = check_job(DEFECT_ARGV, wrong, {})
    assert wrong_check.failed and not wrong_check.known_defect


def test_accuracy_digits_takes_the_worst_quantity():
    quantities = [("a", 1e-14, GRAM_GATE), ("b", 1e-12, COEFF_GATE), ("c", 0.0, 1e-10)]
    assert accuracy_digits(quantities) == pytest.approx(3.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded_and_within_limits(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert workloads.argv_hash(first) != workloads.argv_hash(workloads.generate(name, 8))
    for seed in range(50):
        for argv in workloads.generate(name, seed):
            workloads.validate(argv)


@pytest.mark.parametrize("seed", range(50))
def test_generator_keeps_the_documented_defect_jobs(seed):
    jobs = workloads.generate("closure-sweep", seed)
    radial_poly = [workloads.options(a) for a in jobs if "radial-poly-gaussian" in a]
    assert len(radial_poly) == 4
    assert all(int(opts["--ell"]) >= workloads.DEFECT_MIN_ELL for opts in radial_poly)
    radial_ells = [workloads.options(a)["--ell"] for a in jobs if "radial" in a]
    assert len(radial_ells) == len(set(radial_ells))


def test_validate_rejects_probe_near_a_pole():
    near = list(GREENS_ARGV)
    near[near.index("--energy-sq") + 1] = "5.1"  # E_2^2 = 5
    with pytest.raises(ValueError):
        workloads.validate(near)


def test_self_times_subtract_direct_children():
    spans = [
        ["cli", "main", 0.0, 10.0, -1, 0],
        ["greens", "greens_1d", 1.0, 6.0, 0, 0],
        ["oscillator1d", "energy_1d", 2.0, 3.0, 1, 0],
        ["special", "hermite_function_table", 3.0, 5.0, 1, 0],
        ["quadrature", "gauss_hermite", 7.0, 9.0, 0, 0],
    ]
    per_layer, per_fn, roots = self_times(spans)
    assert per_layer == {"cli": 3.0, "greens": 2.0, "oscillator1d": 1.0, "special": 2.0,
                         "quadrature": 2.0}
    assert roots == 10.0 == sum(per_layer.values())
