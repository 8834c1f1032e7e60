"""One pass of a benchmark job list, in a fresh single-threaded interpreter.

Reads ``{"jobs": [[argv...], ...], "trace": bool}`` as JSON on stdin, runs
every job through ``kgo.cli.main`` back to back (a closed loop with one
caller), and writes one JSON report on stdout.  Importing ``kgo.cli`` is the
first thing this process does, so its duration is the set-up cost that every
cold ``kgo`` call pays.  run.py starts this script with PYTHONPATH set to the
checkout's ``src`` and the BLAS thread count pinned to 1.
"""

import time

_start = time.perf_counter()
import kgo.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kgo.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is one failed job; the pass goes on
            code = None
            error = traceback.format_exc()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "error": error}


def reference():
    """Time a fixed computation that does not use kgo, right after the job list.

    The host's speed drifts by up to 1.8x over tens of seconds, for wall and
    CPU time alike.  The reference sees the same machine as the pass it
    follows, so wall_s / ref_s measures kgo in units of the machine's current
    speed.  Like kgo's work it is interpreter-bound: three-term recurrences on
    2- and 64-point arrays, and math.fsum over short arrays.
    """
    start = time.perf_counter()
    for _ in range(120):
        for points in (2, 2, 2, 64):
            x = np.linspace(0.1, 3.0, points)
            vk, vkm1 = np.ones_like(x), np.zeros_like(x)
            for k in range(40):
                vk, vkm1 = x * math.sqrt(2.0 / (k + 1)) * vk - math.sqrt(k / (k + 1.0)) * vkm1, vk
                if np.any(np.maximum(np.abs(vk), np.abs(vkm1)) > 1e280):
                    vk = vk / 1e280
            math.fsum(vk * vk)
        w = np.linspace(0.0, 1.0, 200)
        for i in range(40):
            math.fsum(w * (w + i))
    return time.perf_counter() - start


def main():
    request = json.load(sys.stdin)
    tracer = Tracer(record_spans=request["trace"])
    tracer.install()
    jobs = []
    job_s = 0.0
    start = time.perf_counter()
    for job_id, argv in enumerate(request["jobs"]):
        tracer.job = job_id
        t0 = time.perf_counter()
        jobs.append(run_job(argv))
        job_s += time.perf_counter() - t0
    wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = reference()
    report = {
        "kgo_file": kgo.__file__,
        "import_s": IMPORT_S,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "job_s": job_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "jobs": jobs,
        "job_rules": tracer.job_rules,
        "rules": tracer.rules,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "maxima": tracer.maxima,
    }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
