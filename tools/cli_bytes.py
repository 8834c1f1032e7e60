"""Byte digest of the CLI output of every benchmark job.

Runs every job that ``bench/workloads.generate`` makes for a range of seeds,
in-process through ``kgo.cli.main``, once with ``--format csv`` and once with
``--format json``, and prints one line per workload: the job count, the
histogram of exit codes and one SHA-256 over every run's stdout, stderr and
exit code, in job order.  Two trees that print the same lines gave the same
bytes on those jobs.

Usage, from the root of a checkout:

    PYTHONPATH=src python tools/cli_bytes.py [--seeds 1-200]

To compare a change with its parent, run it in a copy of the parent made
with ``git archive`` and in the change, and compare the printed lines.  The
Gram and closure sums go through BLAS, so a digest holds for one machine and
BLAS build, not across them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from kgo import cli  # noqa: E402

FORMATS = ("csv", "json")


def run(argv):
    """(exit code, stdout, stderr) of one in-process ``kgo`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(name, seeds):
    """(jobs, exit-code histogram of their runs, SHA-256) of workload
    ``name`` over ``seeds``."""
    sha, codes, jobs = hashlib.sha256(), Counter(), 0
    for seed in seeds:
        for argv in workloads.generate(name, seed):
            jobs += 1
            for fmt in FORMATS:
                code, out, err = run([*argv, "--format", fmt])
                codes[code] += 1
                for part in (str(code), out, err):
                    data = part.encode()
                    sha.update(len(data).to_bytes(8, "little") + data)
    return jobs, dict(sorted(codes.items())), sha.hexdigest()


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-200"), help="FIRST-LAST (default 1-200)")
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        jobs, codes, sha = digest(name, args.seeds)
        print(f"{name}: {jobs} jobs, exit codes of their {len(FORMATS) * jobs} runs {codes}, sha256 {sha}")


if __name__ == "__main__":
    main()
