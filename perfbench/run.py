"""Benchmark for thqaoa: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload threshold-sweep --seed 1 --seconds 22 --trace 0

Workloads: threshold-sweep, angle-search, maxcut-rounds, amplification-audit
(see perfbench/README.md).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics ``setup_s``,
``wall_s`` and ``peak_rss_mb``; with ``--trace 1`` it carries the
per-layer metrics.  The line before it lists the sha256 and row count of
every CSV the workload's first round wrote, with the backend and the
Python, numpy and scipy versions.  The full record is also written to
``.bench_out/result-<workload>-seed<seed>-trace<trace>.json``.

The workload runs in a fresh process (``worker.py``) with one thread of
numerical work and saves every output under
``.bench_out/<workload>-seed<seed>/``.  When that process has ended, this
one rebuilds the same rounds and checks every saved output with
``checks.py``, so the checks add nothing to the measured process.  The
outputs are removed when every check passed and kept otherwise.
Set-up time is the median over that process and four more fresh
interpreters that only import ``thqaoa.cli``, two started before the
workload and two after it.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
#: Grace beyond --seconds for the last round and start-up.
TIMEOUT_GRACE_S = 120.0


def worker_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(extra, env, timeout):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--launched", repr(time.monotonic())]
    with subprocess.Popen(cmd + extra, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_outputs(workload, seed, run_dir, result):
    """Check every output the worker saved; returns the number that fail.

    Each executed round is rebuilt from the seed and its round index, and
    each operation's check runs on the saved output.  An operation that
    already failed in the worker is not checked again.  Identical bytes
    from identical arguments get the same verdict.
    """
    failed_in_worker = {(p, i) for p, i, _ in result["failed_ops"]}
    verdicts = set()
    ctx = {}
    failed = 0
    for position, round_index in enumerate(result["executed"]):
        pass_dir = os.path.join(run_dir, f"pass{position:04d}")
        records = None
        call_index = -1
        for index, op in enumerate(workloads.round_ops(workload, seed, round_index, ctx)):
            call_index += op.argv is None
            if (position, index) in failed_in_worker:
                continue
            try:
                if op.argv is not None:
                    with open(os.path.join(pass_dir, f"{op.label}.csv"), "rb") as handle:
                        data = handle.read()
                    key = (tuple(op.argv), hashlib.sha256(data).hexdigest())
                    if key in verdicts:
                        continue
                    output = list(csv.DictReader(data.decode().splitlines()))
                else:
                    if records is None:
                        with np.load(os.path.join(pass_dir, "arrays.npz")) as saved:
                            records = np.split(saved["data"], saved["ends"][:-1])
                    key, output = None, records[call_index]
                name, leading = op.check
                getattr(checks, name)(*leading, output)
                if key is not None:
                    verdicts.add(key)
            except Exception as exc:  # one output's failure must not stop the checks
                failed += 1
                print(f"FAILED {workload} round {round_index} {op.label}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "thqaoa", "cli.py")):
        print(f"error: no thqaoa sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    run_dir = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    env = worker_env(src)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out-dir", run_dir]

    def probe_setup(count):
        if args.trace:
            return []
        return [run_worker(common + ["--setup-only"], env, 60.0)["setup_s"] for _ in range(count)]

    try:
        setups = probe_setup(SETUP_PROBES_BEFORE)
        result = run_worker(common, env, args.seconds + TIMEOUT_GRACE_S)
        setups += probe_setup(SETUP_PROBES_AFTER)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t0 = time.monotonic()
    failed = len(result["failed_ops"]) + check_outputs(args.workload, args.seed, run_dir, result)
    result["check_s"] = time.monotonic() - t0
    if failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failed": failed, **result}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"digests": result["digests"], "environment": result["environment"],
                      "rounds": result["rounds"]}))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
