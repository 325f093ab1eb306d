"""Benchmark of holonomy-sim: three workloads from the source paper.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mean-control --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py):
  mean-control      sweep --experiment mean-control on a thinned config,
                    8 points x 4 realizations, --threads 2
  cphase-gate       gate --kind cphase --a 1.2024 --T 1 with a positive
                    square train (J=400, dt=0.001): one 20,000-step 16-dim run
  kick-equivalence  sweep --experiment kick-equivalence, T=10, 9,999 kicks
  all               each of the above in turn, one result line each

With --trace 0 the run reports the end-to-end metrics:
  wall_s       median wall time of one command, run in-process after set-up
               and one untimed repetition, over a closed loop of --seconds
  setup_s      median over SETUP_PROBES fresh interpreters of the time from
               spawn to ready (numpy and holonomy_sim imported, arguments
               and config parsed)
  peak_rss_mb  peak resident set of the one process that ran the loop
  pass_frac    passed / attempted operations, 1 - fail_frac (a metric that
               is 0 on a correct run cannot carry a relative bound)
Both times are host-normalized by the kernel in calibration.py; the raw
medians are printed next to them.
With --trace 1 it reports the per-layer metrics of tracing.py instead; the
end-to-end numbers never come from a traced process.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --seed feeds master_seed (sweeps) or the control seed (gate); the
stored references in reference/ cover DEFAULT_SEED, other seeds are checked
on invariants and byte-identical repeats alone.  Outputs go to a temporary
directory inside the checkout that is removed at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import monotonic

import calibration
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 150


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker_argv(mode, args, tmp):
    return [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--tmp", tmp,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--reference-dir", args.reference_dir]


def setup_times(args, tmp):
    """Seconds from spawning a fresh interpreter to its 'ready' line, per
    probe, and the calibration kernel times around the probes."""
    times, kernels = [], [calibration.kernel_time()]
    for _ in range(SETUP_PROBES):
        times.append(_setup_time(args, tmp))
        kernels.append(calibration.kernel_time())
    return times, kernels


def _setup_time(args, tmp):
    start = monotonic()
    proc = subprocess.run(_worker_argv("setup", args, tmp), stdout=subprocess.PIPE,
                          env=_child_env(), text=True, timeout=CHILD_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(words[1]) - start


def measure(args, tmp):
    proc = subprocess.run(_worker_argv("measure", args, tmp), stdout=subprocess.PIPE,
                          env=_child_env(), text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_timing(name, scaled, raw, kernels, what):
    q1, _, q3 = statistics.quantiles(scaled, n=4)
    print(f"  {name:<12} {statistics.median(scaled):.4f} s    median of {len(scaled)} "
          f"{what}, host-normalized (q1 {q1:.4f}, q3 {q3:.4f}, max {max(scaled):.4f}); "
          f"raw median {statistics.median(raw):.4f} s, kernel median "
          f"{statistics.median(kernels) * 1e3:.2f} ms")


def run_workload(args):
    """Run one workload; print the report and the JSON result line."""
    workload = workloads.WORKLOADS[args.workload]
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        workloads.write_inputs(workload, args.seed, args.size, tmp)
        setups = None if args.trace else setup_times(args, tmp)
        res = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    walls = res["walls"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  threads {workload.threads}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        lab_calls = res["layers"]["propagation.propagate_lab.calls"][0] * len(res["traced_walls"])
        for name, m in metrics.items():
            note = ""
            if name.endswith("p90_s") and lab_calls < 100:
                note = f"  (only {lab_calls:.0f} calls: indicative)"
            elif name == "qcore.stack_bytes":
                note = "  (computed: matrices x d^2 x 16 B)"
            elif name == "trace.overhead_s":
                note = "  (host-normalized traced minus untraced median)"
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}{note}")
        print(f"  traced {len(res['traced_walls'])} commands, untraced {len(walls)}; "
              "per-command span totals:")
        for name, value in res["span_totals"].items():
            print(f"    {name:<52} {value:.6g}")
    else:
        wall = calibration.normalized(walls, res["kernels"])
        setup = calibration.normalized(*setups)
        pass_frac = (res["attempted"] - res["failed"]) / res["attempted"]
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kib"] / 1024.0, "unit": "MiB"},
            "pass_frac": {"value": pass_frac, "unit": "ratio"},
        }
        _print_timing("wall_s", wall, walls, res["kernels"], "commands")
        _print_timing("setup_s", setup, setups[0], setups[1], "fresh interpreters")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MiB  "
              "one process running only this workload")
        print(f"  pass_frac    {pass_frac:.6g} ratio  fail_frac "
              f"{res['failed'] / res['attempted']:.6g} = {res['failed']} of "
              f"{res['attempted']} operations")
    ref = "stored reference" if res["reference"] else "invariants only (no reference for this seed)"
    print(f"  correctness: {ref} + byte-identical repeats; "
          f"first failure: {res['first_failure']}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny: small inputs for the benchmark's self-tests")
    p.add_argument("--reference-dir", default=os.path.join(BENCH, "reference"))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "holonomy_sim", "cli.py")):
        print(f"error: no holonomy_sim sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        args.workload = name
        try:
            ok = run_workload(args)["correct"] and ok
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
