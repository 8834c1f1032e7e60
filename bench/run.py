"""Benchmark of the kgo CLI: one seeded workload per call.

    python3 bench/run.py --workload gram-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload's job list is generated from
the seed (workloads.py) and run by worker.py, one pass of the whole list per
fresh interpreter, one interpreter at a time, until ``--seconds`` is used
up.  Every job's output is checked (check.py).  With ``--trace 0`` the
passes are untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
are reported (tracer.py).  ``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit.  A record of the run, with the platform, the
argv list and its hash, the failed jobs and, when traced, the spans, is
written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from check import accuracy_digits, check_job, node_deviation
from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
MIN_PASSES = 3
MIN_PASSES_TRACED = 4  # two untraced, two traced
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kgo" / "cli.py").is_file():
        print(f"run.py: no kgo sources under {SRC}; run from the root of a kgo checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


def run_workload(name, seed, seconds, traced_run, spec):
    jobs = workloads.generate(name, seed)
    digest = workloads.argv_hash(jobs)
    deadline = time.monotonic() + DEADLINE_S
    _spawn([], False, deadline)  # compiles the bytecode; not measured
    passes = _measure(jobs, seconds, traced_run, deadline)

    node_devs = {}
    checks = []
    for traced, report in passes:
        for key, nodes in report["rules"].items():
            if key not in node_devs:
                node_devs[key] = node_deviation(key, nodes)
        for job_id, (argv, result) in enumerate(zip(jobs, report["jobs"])):
            result["rules"] = report["job_rules"].get(str(job_id), [])
            checks.append((job_id, check_job(argv, result, node_devs)))
    # A job is one operation however many passes repeat it, so ``attempted``
    # and ``failed`` do not depend on how many passes fit in ``--seconds``.
    attempted = len(jobs)
    failed = [(job_id, c) for job_id, c in checks if c.failed]
    failed_ids = {job_id for job_id, _ in failed}
    correct = all(c.known_defect for _, c in failed)

    untraced = [report for traced, report in passes if not traced]
    if traced_run:
        traced_reports = [report for traced, report in passes if traced]
        metrics = _per_layer(traced_reports, untraced, node_devs)
        section = spec["per_layer"]
    else:
        metrics = {
            "setup_s": _median(untraced, "import_s"),
            "wall_rel": statistics.median(r["wall_s"] / r["ref_s"] for r in untraced),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
            "accuracy_digits": accuracy_digits(q for _, c in checks for q in c.quantities),
        }
        section = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    failed_frac = len(failed_ids) / attempted
    print(f"workload {name} seed {seed} argv_sha256 {digest} jobs {len(jobs)} passes {len(passes)}")
    for metric in section:
        print(f"  {metric['name']} {metrics[metric['name']]:.6g} {metric['unit']}")
    print(f"  wall_s {_median(untraced, 'wall_s'):.6g} s (median untraced pass; not bounded)")
    known = len({job_id for job_id, c in failed if c.known_defect})
    print(f"  failed_frac {failed_frac:.6g} ratio ({len(failed_ids)}/{attempted} jobs,"
          f" {known} the documented closure defect)")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced_run,
        "argv_sha256": digest,
        "jobs": jobs,
        "platform": _platform(passes[0][1]),
        "passes": [{"traced": t, **{k: r[k] for k in ("import_s", "wall_s", "ref_s", "job_s", "peak_rss_mb")}}
                   for t, r in passes],
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ids),
        "failed_frac": failed_frac,
        "failed_jobs": _failed_jobs(failed, jobs),
        "node_deviation": node_devs,
        "metrics": metrics,
    }
    if traced_run:
        record["spans"] = traced_reports[-1]["spans"]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{int(traced_run)}.json"
    out.write_text(json.dumps(record) + "\n")
    print(f"  record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ids),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def _measure(jobs, seconds, traced_run, deadline):
    """Run passes until the next one would overrun ``seconds``; traced ones alternate."""
    passes = []
    minimum = MIN_PASSES_TRACED if traced_run else MIN_PASSES
    start = time.monotonic()
    while True:
        traced = traced_run and len(passes) % 2 == 1
        report = _spawn(jobs, traced, deadline)
        if not report["kgo_file"].startswith(str(SRC)):
            raise BenchError(f"kgo was imported from {report['kgo_file']}, not from {SRC}")
        passes.append((traced, report))
        elapsed = time.monotonic() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _spawn(jobs, traced, deadline):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC))
    request = json.dumps({"jobs": jobs, "trace": traced})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the minimum number of passes")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=request,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass overran the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _median(reports, key):
    return statistics.median(r[key] for r in reports)


def _per_layer(traced, untraced, node_devs):
    per_pass = [layer_metrics(r, max((node_devs[k] for k in r["rules"]), default=0.0))
                for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = _median(traced, "wall_s") / _median(untraced, "wall_s") - 1.0
    return metrics


def _failed_jobs(failed, jobs):
    seen = {}
    for job_id, c in failed:
        seen.setdefault(job_id, {"job": job_id, "argv": jobs[job_id], "reasons": c.reasons,
                                 "known_defect": c.known_defect})
    return list(seen.values())


def _platform(report):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": report["blas_threads"],
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
    }


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_hash():
    """SHA-256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
