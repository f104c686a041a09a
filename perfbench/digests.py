"""Compare the CSV digests of two commits on every workload.

Run from the root of a git clone:

    python3 perfbench/digests.py <commit-a> <commit-b>

Each commit is extracted with ``git archive`` into ``.bench_digests/``,
this perfbench directory is copied over it so both sides run the same
benchmark code, and one short untraced run per workload, with seed 1,
records the sha256 and row count of every CSV of the first round (plus a
digest of the records of amplification-audit's library calls).  The
script prints one line per output and exits with 1 if any output differs.  Nothing is stored
between invocations: the digests are made anew from each commit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def digests_of(commit):
    dest = os.path.join(".bench_digests", commit)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    found = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=dest, check=True, capture_output=True, text=True).stdout
        lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        found[workload] = next(line["digests"] for line in lines if "digests" in line)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit_a")
    parser.add_argument("commit_b")
    args = parser.parse_args()
    a, b = digests_of(args.commit_a), digests_of(args.commit_b)
    differ = 0
    for workload in WORKLOADS:
        for label in sorted(set(a[workload]) | set(b[workload])):
            left, right = a[workload].get(label), b[workload].get(label)
            same = left == right
            differ += not same
            detail = "" if same else f"  {left} != {right}"
            print(f"{'same  ' if same else 'DIFFER'} {workload:20s} {label}{detail}")
    print(f"{differ} of the outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
