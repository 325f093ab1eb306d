"""Child process of the benchmark (started by run.py; not run by hand).

``--mode setup``  time-to-ready probe: import numpy and holonomy_sim, parse
                  the workload's arguments and config, print ``ready`` and the
                  monotonic clock, exit.
``--mode measure`` run the workload command in a closed loop for --seconds
                  after one untimed first repetition, check every repetition,
                  and print one JSON result line.  With --trace 1 the first
                  half of the time is untraced and the second half traced.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from time import monotonic, perf_counter

import calibration
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = "holonomy_sim"
MIN_SAMPLES = 3
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def import_program():
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (part of set-up: the program needs it)
    import holonomy_sim
    from holonomy_sim import cli
    if os.path.dirname(os.path.abspath(holonomy_sim.__file__)) != os.path.join(SRC, PACKAGE):
        raise ImportError(f"holonomy_sim imported from {holonomy_sim.__file__}, not {SRC}")
    return cli


def setup_probe(workload, args):
    cli = import_program()
    argv = workload.argv(args.seed, args.size, args.tmp, os.path.join(args.tmp, "probe"))
    ns = cli.build_parser().parse_args(argv)
    if getattr(ns, "config", None):
        import holonomy_sim
        with open(ns.config, "r", encoding="utf-8") as fh:
            holonomy_sim.config_from_dict(json.load(fh))
    if getattr(ns, "control", None):
        json.loads(ns.control)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
    # its own reading taken just before it spawned this process.
    print("ready", repr(monotonic()), flush=True)


def environment(seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "HOLONOMY_SIM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root):
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs and checks repetitions of one workload command."""

    def __init__(self, workload, args, main):
        self.workload, self.args, self.main = workload, args, main
        self.reference = workloads.load_reference(args.reference_dir, workload.name,
                                                  args.size, args.seed)
        self.first = None          # output bytes of the first repetition
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.output_bytes = 0
        self.reps = 0

    def run(self):
        """One repetition; returns its wall time."""
        out_dir = os.path.join(self.args.tmp, f"out-{self.reps}")
        self.reps += 1
        os.makedirs(out_dir)
        argv = self.workload.argv(self.args.seed, self.args.size, self.args.tmp, out_dir)
        error = None
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                rc = self.main(argv)
            except (Exception, SystemExit) as exc:  # the program's failure, counted
                rc, error = None, f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start
        self._check(out_dir, rc, error)
        shutil.rmtree(out_dir)
        return wall

    def _check(self, out_dir, rc, error):
        n = self.workload.ops(self.args.size)
        if error is not None or rc != 0:
            reasons = [error or f"exit code {rc}"] * n
        else:
            files = {}
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[name] = fh.read()
            self.output_bytes = sum(len(b) for b in files.values())
            for name in workloads.TIMED_OUTPUTS:
                files.pop(name, None)
            if self.first is None:
                self.first = files
            try:
                reasons = self.workload.check(out_dir, self.args.size, self.reference)
            except CHECK_ERRORS as exc:
                reasons = [f"unreadable output: {type(exc).__name__}: {exc}"] * n
            if files != self.first:
                reasons = ["output differs from the first repetition"] * n
        self.attempted += n
        bad = [r for r in reasons if r is not None]
        self.failed += len(bad)
        if bad and self.first_failure is None:
            self.first_failure = bad[0]

    def loop(self, seconds, after=None):
        """Repeat for ``seconds``; returns command times and the kernel times
        measured before the first command and after each one."""
        walls, kernels = [], [calibration.kernel_time()]
        deadline = perf_counter() + seconds
        while len(walls) < MIN_SAMPLES or perf_counter() < deadline:
            walls.append(self.run())
            if after is not None:
                after()
            kernels.append(calibration.kernel_time())
        return walls, kernels


def measure(workload, args):
    cli = import_program()
    runner = Runner(workload, args, cli.main)
    runner.run()                       # first repetition: warm-up, byte baseline
    result = {"env": environment(args.seed),
              "reference": runner.reference is not None}
    if not args.trace:
        walls, kernels = runner.loop(args.seconds)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        import tracing
        walls, kernels = runner.loop(args.seconds / 2.0)
        tracer = tracing.Tracer()
        runner.main = tracer.wrap("cli.main", cli.main)
        totals, lab = defaultdict(float), []
        tracer.install()
        try:
            traced, traced_kernels = runner.loop(
                args.seconds / 2.0, lambda: tracing.fold(tracer.take(), totals, lab))
        finally:
            tracer.uninstall()
        overhead = (statistics.median(calibration.normalized(traced, traced_kernels))
                    - statistics.median(calibration.normalized(walls, kernels)))
        result["layers"] = tracing.per_layer_metrics(
            totals, lab, len(traced), workload.threads, runner.output_bytes, overhead)
        result["traced_walls"] = traced
        result["span_totals"] = {k: v / len(traced) for k, v in sorted(totals.items())}
    result.update(walls=walls, kernels=kernels, attempted=runner.attempted,
                  failed=runner.failed, first_failure=runner.first_failure)
    print(json.dumps(result), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=workloads.SIZES, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference-dir", default=None)
    args = p.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        setup_probe(workload, args)
    else:
        measure(workload, args)


if __name__ == "__main__":
    main()
