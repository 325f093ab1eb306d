"""Command-line front end: single-gate runs, experiment sweeps, selftest.

Exit codes
  gate:     2 invalid arguments (including --steps < 1) or control (including
            an overflowing amplitude or step exponent), or a run above
            control.MAX_STEPS, 3 tolerance violation (unitarity defect)
  sweep:    2 invalid config (a run above MAX_STEPS included) or thread
            count (< 1 or not an integer), 4 unwritable output
  selftest: 1 on any invariant failure

Parallelism for sweeps comes from --threads, falling back to the
HOLONOMY_SIM_THREADS environment variable and then to the CPU count;
outputs are byte-identical regardless of the setting.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from ._version import __version__
from .control import (RNG_DESCRIPTION, ControlKind, PulseTrain,
                      generate_segments, integral_C, resonance_condition)
from .experiments import (ExperimentConfig, compare_positive_vs_zero_energy,
                          config_from_dict, config_to_dict, control_from_dict,
                          sweep, train_schedule, write_csv, write_json_bundle)
from .hamiltonians import (DfsBasis, GateKind, GateSpec, Schedule, dark_states,
                           gate_generators, gate_hamiltonian, physical_hamiltonian,
                           project_dfs, total_z)
from .holonomy import (PhaseUndefinedError, bessel_j0, berry_closed_form, berry_numeric,
                       evaluate_holonomy, gate_matrix)
from .propagation import StepPolicy, propagate_adiabatic, propagate_lab
from .qcore import hermiticity_defect, matexp_hermitian_stack, unitarity_defect

UNITARITY_EXIT_TOL = 1e-8

# sweep experiment -> the config sweep_variable it consumes
SWEEP_EXPERIMENTS = {"runtime": "T", "mean-control": "mean_control", "dt-zero-energy": "dt"}


def _resolve_threads(value) -> int:
    name = "--threads"
    if value is None:
        env = os.environ.get("HOLONOMY_SIM_THREADS")
        if not env:
            return os.cpu_count() or 1
        name = "HOLONOMY_SIM_THREADS"
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _complex_matrix_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _loads(text: str):
    """json.loads that rejects NaN and +-Infinity literals."""
    return json.loads(text, parse_constant=_reject_constant)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_gate(args) -> int:
    try:
        spec = GateSpec(kind=GateKind(args.kind), schedule=Schedule(args.a, args.T))
        gamma_ideal = berry_closed_form(args.a)
        policy = StepPolicy()
        if args.steps is not None:
            if args.steps < 1:
                raise ValueError(f"--steps must be >= 1, got {args.steps}")
            policy = StepPolicy(max_step=args.T / args.steps)
    except (ValueError, OverflowError) as exc:  # T / steps overflows for a huge --steps
        print(f"error: invalid arguments: {exc}", file=sys.stderr)
        return 2
    try:
        # --control is inline JSON or a path to a JSON file
        train = PulseTrain(ControlKind.NO_CONTROL)
        if args.control:
            text = args.control if args.control.strip().startswith("{") else _read(args.control)
            train = control_from_dict(_loads(text))
        segments, kicks = train_schedule(train, args.T)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: invalid control: {exc}", file=sys.stderr)
        return 2

    try:
        result = propagate_lab(spec, segments, kicks=kicks, policy=policy)
    except ValueError as exc:
        print(f"error: gate run failed: {exc}", file=sys.stderr)
        return 2
    # a U that is not unitary (or not finite) has no gate to report
    if not result.unitarity_defect <= UNITARITY_EXIT_TOL:
        print(f"error: unitarity defect {result.unitarity_defect:.3e} exceeds "
              f"{UNITARITY_EXIT_TOL:.1e}", file=sys.stderr)
        return 3
    try:
        hol = evaluate_holonomy(result.U, dark_states(spec, 0.0)[-1], gamma_ideal)
    except PhaseUndefinedError as exc:
        print(f"error: measured phase is undefined: {exc}", file=sys.stderr)
        return 2
    payload = {
        "kind": args.kind,
        "a": args.a,
        "T": args.T,
        "steps": result.steps_taken,
        "unitarity_defect": result.unitarity_defect,
        "gamma_measured": hol.gamma_measured,
        "gamma_ideal": hol.gamma_ideal,
        "overlap": hol.overlap_abs,
        "f": hol.f,
        "gate_matrix": _complex_matrix_json(gate_matrix(spec.kind, hol.gamma_measured)),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _write_svg(rows, path, xlabel: str) -> None:
    """Minimal line chart: axes, one polyline, markers on resonant rows."""
    width, height, margin = 640, 420, 60
    xs = [r.x for r in rows]
    ys = [r.f_mean for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(1.0, max(ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - margin // 4}" text-anchor="middle">'
        f'{xlabel}</text>',
        f'<text x="{margin}" y="{margin - 10}" text-anchor="middle">f</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="11">{x_lo:.6g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="11" '
        f'text-anchor="end">{x_hi:.6g}</text>',
        f'<text x="{margin - 6}" y="{sy(y_lo):.2f}" font-size="11" '
        f'text-anchor="end">{y_lo:.2g}</text>',
        f'<text x="{margin - 6}" y="{sy(y_hi):.2f}" font-size="11" '
        f'text-anchor="end">{y_hi:.2g}</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{points}"/>',
    ]
    for r in rows:
        if r.resonant:
            cx, cy = sx(r.x), sy(r.f_mean)
            parts.append(f'<polygon fill="crimson" points="{cx:.2f},{cy - 6:.2f} '
                         f'{cx - 5:.2f},{cy + 4:.2f} {cx + 5:.2f},{cy + 4:.2f}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_sweep(args) -> int:
    try:
        data = _loads(_read(args.config))
        cfg = config_from_dict(data)
        if args.seed is not None:
            data["master_seed"] = args.seed
            cfg = config_from_dict(data)
        expected = SWEEP_EXPERIMENTS.get(args.experiment)
        if expected is not None and cfg.sweep_variable != expected:
            raise ValueError(f"experiment {args.experiment} expects sweep_variable "
                             f"{expected!r}, got {cfg.sweep_variable!r}")
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        threads = _resolve_threads(args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        probe = os.path.join(args.out_dir, ".writable")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"error: cannot write to {args.out_dir}: {exc}", file=sys.stderr)
        return 4

    outputs = []
    try:
        if args.experiment == "kick-equivalence":
            report = compare_positive_vs_zero_energy(cfg)
            total_steps = report.steps
            report_path = os.path.join(args.out_dir, "report.json")
            with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump({
                    "kick_count": report.kick_count,
                    "max_unitary_diff": report.max_unitary_diff,
                    "net_area_positive": report.net_area_positive,
                    "net_area_alternating": report.net_area_alternating,
                    "f_positive": report.f_positive,
                    "f_alternating": report.f_alternating,
                }, fh, indent=2, sort_keys=True)
                fh.write("\n")
            outputs.append("report.json")
        else:
            result = sweep(cfg, n_threads=threads)
            total_steps = result.total_steps
            write_csv(result.rows, os.path.join(args.out_dir, "results.csv"))
            write_json_bundle(result, cfg, os.path.join(args.out_dir, "bundle.json"))
            outputs.extend(["results.csv", "bundle.json"])
            if args.plot:
                _write_svg(result.rows, os.path.join(args.out_dir, "plot.svg"),
                           cfg.sweep_variable.replace("_", " "))
                outputs.append("plot.svg")
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4

    manifest = {
        "revision": __version__,
        "experiment": args.experiment,
        "config": config_to_dict(cfg),
        "rng": RNG_DESCRIPTION,
        "threads": threads,
        "wall_time_s": time.monotonic() - start,
        "total_steps": total_steps,
        "outputs": outputs,
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {', '.join(outputs + ['manifest.json'])} to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# selftest invariant groups


def _check_matexp_unitarity(rng):
    m = rng.standard_normal((1000, 4, 4)) + 1j * rng.standard_normal((1000, 4, 4))
    hs = 0.5 * (m + m.conj().transpose(0, 2, 1))
    us = matexp_hermitian_stack(hs, rng.uniform(-5, 5, size=1000))
    worst = max(unitarity_defect(u) for u in us)
    return worst <= 1e-10, f"max |U^dag U - I| = {worst:.2e} (tol 1e-10)"


def _check_hermiticity_and_gap(rng):
    worst_h, worst_gap, worst_cubic = 0.0, 0.0, 0.0
    s = Schedule(0.7605, 1.0)
    for t in rng.uniform(0, 1.0, size=100):
        for kind in (GateKind.PHASE, GateKind.XGATE):
            h = gate_hamiltonian(GateSpec(kind, s), t)
            worst_h = max(worst_h, hermiticity_defect(h))
            ev = np.linalg.eigvalsh(h)
            worst_gap = max(worst_gap, float(np.max(np.abs(ev - [-1, 0, 0, 1]))))
    # the lab engine's closed-form step exponential rests on H^3 = s^2 H
    ts = rng.uniform(0, 1.0, size=100)
    for spec in (GateSpec(GateKind.PHASE, s), GateSpec(GateKind.XGATE, s),
                 GateSpec(GateKind.CPHASE, s),
                 GateSpec(GateKind.PHYSICAL_FOUR, s, j12=1.0, j13=0.7)):
        _, scale, hs = gate_generators(spec, ts)
        worst_cubic = max(worst_cubic, float(np.max(np.abs(hs @ hs @ hs - scale ** 2 * hs))))
    ok = worst_h <= 1e-13 and worst_gap <= 1e-10 and worst_cubic <= 1e-12
    return ok, (f"hermiticity {worst_h:.2e} (1e-13), spectrum dev {worst_gap:.2e} (1e-10), "
                f"H^3 - s^2 H {worst_cubic:.2e} (1e-12)")


def _check_dark_states(rng):
    worst = 0.0
    for kind in (GateKind.PHASE, GateKind.XGATE, GateKind.CPHASE):
        spec = GateSpec(kind, Schedule(0.7605, 1.0))
        for t in rng.uniform(0, 1.0, size=100):
            h = gate_hamiltonian(spec, t)
            for d in dark_states(spec, t):
                worst = max(worst, float(np.linalg.norm(h @ d)))
    return worst <= 1e-12, f"max ||H |dark>|| = {worst:.2e} (tol 1e-12)"


def _check_dfs_projection(rng):
    z = total_z()
    worst_comm, worst_proj, worst_leak = 0.0, 0.0, 0.0
    for j12 in (0.3, 1.0, 2.7):
        for j13 in (0.3, 1.0, 2.7):
            spec = GateSpec(GateKind.PHYSICAL_FOUR, Schedule(0.0, 1.0), j12=j12, j13=j13)
            for ph in np.linspace(0.0, 2 * math.pi, 20):
                h = physical_hamiltonian(spec, ph)
                worst_comm = max(worst_comm, float(np.max(np.abs(h @ z - z @ h))))
                block, leak = project_dfs(h, DfsBasis())
                th = math.atan2(j13, j12)
                scale = math.hypot(j12, j13)
                ref = np.zeros((4, 4), dtype=complex)
                ref[1, 2] = ref[2, 1] = math.sin(th)
                ref[3, 2] = math.cos(th) * np.exp(-1j * ph)
                ref[2, 3] = math.cos(th) * np.exp(1j * ph)
                worst_proj = max(worst_proj, float(np.max(np.abs(block - scale * ref))))
                worst_leak = max(worst_leak, leak)
    ok = worst_comm <= 1e-13 and worst_proj <= 1e-11 and worst_leak <= 1e-13
    return ok, (f"[H,Z] {worst_comm:.2e} (1e-13), projection dev {worst_proj:.2e} "
                f"(1e-11), leakage {worst_leak:.2e} (1e-13)")


def _check_bessel_berry(rng):
    anchors = (abs(bessel_j0(2 * 1.2024)) <= 1e-4
               and abs(bessel_j0(2 * 0.7605) - 0.5) <= 2e-4
               and bessel_j0(0.0) == 1.0)
    worst = 0.0
    for a in np.linspace(0.0, 3.0, 50):
        worst = max(worst, abs(berry_numeric(Schedule(a, 1.0), 10_000)
                               - berry_closed_form(a)))
    ok = anchors and worst <= 1e-8
    return ok, f"J0 anchors {'ok' if anchors else 'FAIL'}, numeric-closed dev {worst:.2e} (1e-8)"


def _check_frame_equivalence(rng):
    s = Schedule(0.7605, 10.0)
    spec = GateSpec(GateKind.PHASE, s)
    segments = generate_segments(PulseTrain(ControlKind.NO_CONTROL), s.T)
    lab = propagate_lab(spec, segments)
    adiab = propagate_adiabatic(s, segments)
    dark = dark_states(spec, 0.0)[-1]
    amp_lab = abs(complex(np.vdot(dark, lab.U @ dark)))
    amp_ad = abs(adiab.U[1, 1])
    diff = abs(amp_lab - amp_ad)
    return diff <= 1e-4, f"| |<D|U|D>|_lab - |._adiab | = {diff:.2e} (tol 1e-4)"


def _check_kick_equivalence(rng):
    cfg = ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(0.7605, 1.0)),
        control=PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.1),
        sweep_variable="dt", grid=(0.1,), master_seed=7)
    report = compare_positive_vs_zero_energy(cfg)
    ok = (report.max_unitary_diff <= 1e-10
          and abs(report.net_area_positive - report.kick_count * math.pi) <= 1e-9)
    return ok, (f"unitary diff {report.max_unitary_diff:.2e} (1e-10), areas "
                f"({report.net_area_positive:.4f}, {report.net_area_alternating:.4f})")


def _check_resonance_predicate(rng):
    ok = (resonance_condition(2 * math.pi / 0.01, 0.01) == (True, 1)
          and resonance_condition(math.pi / 0.01, 0.01)[0] is False
          and resonance_condition((4 * math.pi + 1e-9) / 0.01, 0.01) == (True, 2))
    # integral bookkeeping: C(t) = t without control
    segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 2.0)
    ok = ok and abs(integral_C(segs, 1.3) - 1.3) < 1e-12
    return ok, "resonance predicate and C(t) bookkeeping"


SELFTEST_GROUPS = (
    ("matexp-unitarity", _check_matexp_unitarity),
    ("hermiticity-and-gap", _check_hermiticity_and_gap),
    ("dark-state-annihilation", _check_dark_states),
    ("dfs-projection", _check_dfs_projection),
    ("bessel-and-berry", _check_bessel_berry),
    ("frame-equivalence", _check_frame_equivalence),
    ("kick-equivalence", _check_kick_equivalence),
    ("resonance-predicate", _check_resonance_predicate),
)


def cmd_selftest(args) -> int:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
    failures = 0
    width = max(len(name) for name, _ in SELFTEST_GROUPS)
    for name, check in SELFTEST_GROUPS:
        ok, detail = check(rng)
        failures += 0 if ok else 1
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    print(f"{failures} of {len(SELFTEST_GROUPS)} groups failed"
          if failures else f"all {len(SELFTEST_GROUPS)} groups passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="holonomy-sim",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gate = sub.add_parser("gate", help="run one gate propagation")
    gate.add_argument("--kind", required=True, choices=["phase", "xgate", "cphase"])
    gate.add_argument("--a", type=float, required=True, help="drive amplitude")
    gate.add_argument("--T", type=float, required=True, help="cycle period")
    gate.add_argument("--control", help="control train as JSON (inline or file path)")
    gate.add_argument("--steps", type=int, help="propagation steps over the cycle")
    gate.add_argument("--out", help="write the JSON result here instead of stdout")
    gate.set_defaults(func=cmd_gate)

    sweep = sub.add_parser("sweep", help="run a parameter sweep experiment")
    sweep.add_argument("--experiment", required=True,
                       choices=[*SWEEP_EXPERIMENTS, "kick-equivalence"])
    sweep.add_argument("--config", required=True, help="JSON config file")
    sweep.add_argument("--seed", type=int, help="override master_seed")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--plot", action="store_true", help="also write an SVG chart")
    sweep.add_argument("--threads", type=int,
                       help="worker threads (default: HOLONOMY_SIM_THREADS or CPU count)")
    sweep.set_defaults(func=cmd_sweep)

    selftest = sub.add_parser("selftest", help="run the invariant suite")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
