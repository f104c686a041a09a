"""One workload in one process: set-up time and closed-loop rounds.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH
and one thread of numerical work.  ``--launched`` is the monotonic clock
reading just before the interpreter was started, so set-up time covers
interpreter start-up and ``import thqaoa.cli``.  With ``--setup-only``
the process stops there.

Otherwise it runs rounds of the workload one operation after another and
prints one JSON object.  It checks nothing and never imports the checks,
so its peak memory is the program's: each round's outputs go under
``--out-dir`` (CSVs, and one ``arrays.npz`` of the library calls'
records), and ``run.py`` checks them after this process has ended.
Untraced (``--trace 0``) it runs rounds until ``--seconds`` have passed;
round 0 warms up and ``wall_s`` is the mean of the times of the
rounds after it: the time of all their operations over their number.
Traced (``--trace 1``) it runs untraced rounds for half the time, then
installs the tracer and runs the same rounds again; per-layer metrics are means per traced round and ``trace.overhead_s`` is
the median of the paired differences in round time.
"""

import time

import thqaoa.cli  # first: set-up ends when the CLI is imported

READY = time.monotonic()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import thqaoa  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


class Runner:
    def __init__(self, args):
        self.args = args
        self.ctx = {"thqaoa": thqaoa}
        self.attempted = 0
        self.failed_ops = []
        self.executed = []
        self.cli_rows = 0
        self.score_sum = 0.0
        self.digests = {}
        self._records = None

    def _fail(self, index, op, exc):
        self.failed_ops.append([len(self.executed), index, f"{type(exc).__name__}: {exc}"])
        print(f"FAILED {self.args.workload} {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def _run_cli(self, op, round_dir):
        path = os.path.join(round_dir, f"{op.label}.csv")
        t0 = time.perf_counter()
        code = thqaoa.cli.run(op.argv + ["--out", path])
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"exit code {code} for {' '.join(op.argv)}")
        with open(path, "rb") as handle:
            data = handle.read()
        rows = list(csv.DictReader(data.decode().splitlines()))
        self.cli_rows += len(rows)
        if op.label.startswith("gmqaoa"):
            self.score_sum += sum(float(row["c"]) for row in rows)
        if not self.executed:
            self.digests[op.label] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows)}
        return elapsed

    def _run_call(self, op, records):
        t0 = time.perf_counter()
        result = op.call()
        elapsed = time.perf_counter() - t0
        records[-1] = np.asarray(op.record(result), dtype=np.float64)
        if not self.executed:
            if self._records is None:
                self._records = hashlib.sha256()
            self._records.update(records[-1].tobytes())
            entry = self.digests.setdefault("audit-records", {"rows": 0})
            entry["rows"] += 1
            entry["sha256"] = self._records.hexdigest()
        return elapsed

    def run_round(self, round_index, tracer=None):
        """Run one round; returns the time of its operations in seconds."""
        if tracer is not None:
            tracer.new_round()
        round_dir = os.path.join(self.args.out_dir, f"pass{len(self.executed):04d}")
        os.makedirs(round_dir, exist_ok=True)
        records = []
        total = 0.0
        ops = workloads.round_ops(self.args.workload, self.args.seed, round_index, self.ctx)
        for index, op in enumerate(ops):
            self.attempted += 1
            try:
                if op.argv is not None:
                    total += self._run_cli(op, round_dir)
                else:
                    records.append(np.empty(0))
                    total += self._run_call(op, records)
            except Exception as exc:  # one operation's failure must not stop the run
                self._fail(index, op, exc)
        if records:
            np.savez(os.path.join(round_dir, "arrays.npz"), data=np.concatenate(records),
                     ends=np.cumsum([len(a) for a in records]))
        self.executed.append(round_index)
        return total


def untraced(runner, seconds):
    start = time.perf_counter()
    times = []
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.run_round(len(times)))
    return times


def main():
    args = parse_args()
    setup_s = READY - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    runner = Runner(args)
    if not args.trace:
        times = untraced(runner, args.seconds)
        timed = times[1:] or times
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.fmean(timed), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        start = time.perf_counter()
        times = untraced(runner, args.seconds / 2.0)
        if len(times) < 2:
            times.append(runner.run_round(1))
        runner.cli_rows = 0
        runner.score_sum = 0.0
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            for index in range(1, len(times)):
                if traced and time.perf_counter() - start >= args.seconds:
                    break
                traced.append(runner.run_round(index, tracer))
        finally:
            tracer.uninstall()
        overhead = statistics.median(t - u for t, u in zip(traced, times[1:]))
        metrics = tracer.metrics(len(traced), runner.cli_rows, runner.score_sum, overhead)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed_ops": runner.failed_ops,
        "executed": runner.executed,
        "rounds": len(runner.executed),
        "round_s": times,
        "metrics": metrics,
        "digests": runner.digests,
        "environment": {
            "backend": thqaoa.BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
