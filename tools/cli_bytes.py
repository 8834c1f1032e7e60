"""Byte digest of the CLI output of every benchmark job.

Runs every job that ``bench/workloads.generate`` makes for a range of seeds,
in-process through ``kgo.cli.main``, once with ``--format csv`` and once with
``--format json``, and prints one line per workload: the job count, the
histogram of exit codes and one SHA-256 over every run's stdout, stderr and
exit code, in job order.  A further line digests, the same way, a fixed
list of argvs on both sides of the line between ``kgo``'s option table and
argparse: help, ``--version`` and rejected arguments, which argparse answers,
with the help wrapped at 80 columns, and plain argvs next to that line, which
the option table reads.  The last line digests the
``kgo`` command lines of the README's ``sh`` blocks, then ``greens`` at
``--n-max`` 0, 3 and 9 (where the coefficient check reads every row) in
both dimensions and both formats.  Two trees that print the same lines gave
the same bytes on those runs.

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
import os
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from kgo import cli  # noqa: E402

README = Path(__file__).resolve().parents[1] / "README.md"
FORMATS = ("csv", "json")

GREENS = ["greens", "--energy-sq", "7.3", "--x1", "0.2", "--x2", "0.3"]
PARSER_ARGVS = [
    [],
    ["-h"],
    ["--version"],
    ["no-such-command"],
    ["--mass", "2", *GREENS],
    *([command, "-h"] for command in ("spectrum", "orthonormality", "closure", "degeneracy", "greens")),
    [*GREENS, "--bogus"],
    [*GREENS, "extra"],
    [*GREENS, "--", "0.5"],
    [*GREENS, "--version"],
    [*GREENS, "--=x"],
    ["greens", "--energy-sq", "abc", "--x1", "0.2", "--x2", "0.3"],
    ["greens", "--energy-sq", "7.3", "--x1", "0.2"],
    ["greens", "--energy", "7.3", "--x1", "0.2", "--x2=abc"],
    ["spectrum", "--dimension", "2d"],
    ["spectrum", "--n-max"],
    ["spectrum", "--n-max", "1.5"],
    ["orthonormality", "--dimension", "radial", "--ell", "x"],
    ["closure", "--bogus", "-h"],
    ["degeneracy", "--n-max", "2", "--format", "xml"],
    # read by the option table as argparse reads them
    ["greens", "--energy-sq", "7.3", "--x1", "-.5", "--x2", "0.3"],
    [*GREENS, "--n-max", "3", "--n-max", "4"],
    [*GREENS, "--n-max", " 4"],
    # answered by argparse
    ["greens", "--energy-sq", "7.3", "--x1", "-5.", "--x2", "0.3"],
    ["greens", "--energy-sq", "7.3", "--x1", "-1e-05", "--x2", "0.3"],
    [*GREENS, "--n-max", ""],
    [*GREENS, "--format", "CSV"],
]
SMALL_GREENS = [
    [*GREENS, *sector, "--n-max", n_max, "--format", fmt]
    for sector in ([], ["--dimension", "radial", "--ell", "2"])
    for n_max in ("0", "3", "9")
    for fmt in FORMATS
]


def readme_examples():
    """The argvs of the README's ``kgo`` command lines, read as
    ``tests/test_cli.py`` reads them."""
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S) for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("kgo ")]


def run(argv):
    """(exit code, stdout, stderr) of one in-process ``kgo`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(argvs):
    """(runs, exit-code histogram, SHA-256) of the in-process runs of
    ``argvs``, in order."""
    sha, codes = hashlib.sha256(), Counter()
    for argv in argvs:
        code, out, err = run(argv)
        codes[code] += 1
        for part in (str(code), out, err):
            data = part.encode()
            sha.update(len(data).to_bytes(8, "little") + data)
    return sum(codes.values()), dict(sorted(codes.items())), sha.hexdigest()


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-200"), help="FIRST-LAST (default 1-200)")
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        jobs = [argv for seed in args.seeds for argv in workloads.generate(name, seed)]
        runs, codes, sha = digest([*argv, "--format", fmt] for argv in jobs for fmt in FORMATS)
        print(f"{name}: {len(jobs)} jobs, exit codes of their {runs} runs {codes}, sha256 {sha}")
    os.environ["COLUMNS"] = "80"
    runs, codes, sha = digest(PARSER_ARGVS)
    print(f"argparse: {runs} argvs, exit codes {codes}, sha256 {sha}")
    runs, codes, sha = digest([*readme_examples(), *SMALL_GREENS])
    print(f"readme and small greens: {runs} argvs, exit codes {codes}, sha256 {sha}")


if __name__ == "__main__":
    main()
