"""Command-line front end: single-gate runs, experiment sweeps, selftest.

Exit codes: 2 invalid input, 3 tolerance violation, 4 unwritable output
(selftest: 1 on any invariant failure); docs/FORMATS.md "Exit codes and
errors" lists every case.

A sweep config's sweep_variable names the field each grid value sets (T,
dt, p, J, or mean_control, which sets J = 2x); a delta-kick config runs the
kick comparison, its one grid value the kick spacing.  docs/FORMATS.md
lists the axes each control kind takes and the keys each leaves unread.
--experiment is optional and, when given, must name the run the config
makes.  The run comes before any write: an exit 2 leaves no --out-dir, and
exit 4 is reported after the run.

Sweeps run serially.  --threads N is still accepted (N >= 1) and ignored.
The argument parser is built once per process and shared by every main()
call, so repeated in-process commands do not rebuild it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from functools import cache, partial

import numpy as np

from ._version import __version__
from .control import (KICK_KINDS, RNG_DESCRIPTION, ControlKind, PulseTrain, Segments,
                      generate_segments, integral_C, net_area, resonance_condition)
from .experiments import (ExperimentConfig, compare_positive_vs_zero_energy,
                          config_from_dict, config_to_dict, control_from_dict,
                          json_text, sweep, write_csv, write_json, write_json_bundle,
                          write_text)
from .hamiltonians import (GateKind, GateSpec, Schedule, dark_states, exchange_hamiltonian,
                           gate_generators, gate_hamiltonian, project_dfs, total_z)
from .holonomy import (PhaseUndefinedError, bessel_j0, berry_closed_form, berry_numeric,
                       evaluate_holonomy, gate_matrix)
from .propagation import StepPolicy, propagate_adiabatic, propagate_lab
from .qcore import (_closed_form, _matrices, hermiticity_defect, matexp_hermitian_stack,
                    matexp_lambda_stack, unitarity_defect)

UNITARITY_EXIT_TOL = 1e-8


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
        segments = generate_segments(train, args.T)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: invalid control: {exc}", file=sys.stderr)
        return 2

    try:
        result = propagate_lab(spec, segments, policy)
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
    if not args.out:
        sys.stdout.write(json_text(payload))
        return 0
    try:
        write_json(payload, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
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
    write_text("\n".join(parts) + "\n", path)


def cmd_sweep(args) -> int:
    try:
        cfg = config_from_dict(_loads(_read(args.config)))
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        kick = cfg.control.kind in KICK_KINDS
        named = "kick-equivalence" if kick else {
            "T": "runtime", "mean_control": "mean-control", "dt": "dt-zero-energy"}.get(
            cfg.sweep_variable, f"{cfg.sweep_variable} sweep")
        if args.experiment not in (None, named):
            raise ValueError(f"experiment {args.experiment} got a {named} config "
                             f"(sweep_variable {cfg.sweep_variable!r}, "
                             f"{cfg.control.kind.value} train)")
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.plot and kick:
            raise ValueError("--plot charts a sweep; kick-equivalence writes no plot.svg")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # run first, then write: a config that fails while running leaves no --out-dir
    start = time.monotonic()
    try:
        if kick:
            report = compare_positive_vs_zero_energy(cfg)
            total_steps = report.steps
            writers = {"report.json": partial(
                write_json, {k: v for k, v in vars(report).items() if k != "steps"})}
        else:
            result = sweep(cfg)
            total_steps = result.total_steps
            writers = {"results.csv": partial(write_csv, result.rows),
                       "bundle.json": partial(write_json_bundle, result, cfg)}
            if args.plot:
                writers["plot.svg"] = partial(_write_svg, result.rows,
                                              xlabel=cfg.sweep_variable.replace("_", " "))
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, write in writers.items():
            write(os.path.join(args.out_dir, name))
        write_json({
            "revision": __version__,
            "config": config_to_dict(cfg),
            "rng": RNG_DESCRIPTION,
            "wall_time_s": time.monotonic() - start,
            "total_steps": total_steps,
            "outputs": list(writers),
        }, os.path.join(args.out_dir, "manifest.json"))
    except OSError as exc:
        print(f"error: cannot write to {args.out_dir}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {', '.join([*writers, 'manifest.json'])} to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# selftest invariant groups


def _check_matexp_unitarity(rng):
    m = rng.standard_normal((1000, 4, 4)) + 1j * rng.standard_normal((1000, 4, 4))
    hs = 0.5 * (m + m.conj().transpose(0, 2, 1))
    us = matexp_hermitian_stack(hs, rng.uniform(-5, 5, size=1000))
    worst = float(np.max(unitarity_defect(us)))
    # the lab frame's closed form on the couplings of every gate kind, for
    # exponents from 1e-12 to 1e6 and pi pulses of either sign, written into
    # NaN-filled planes as into the lab frame's reused workspace: unitary to
    # rounding (np.max keeps the NaN of an entry left unwritten, which fails
    # the bound), real diagonals with imaginary part +0, p10 = p01 to the bit,
    # and every pi pulse one factor for either sign, with p11 = -1
    taus = np.geomspace(1e-12, 1e6, 200)[:, None] * np.ones(100)
    pulses = np.array([[math.pi], [-math.pi]]) * np.ones(100)
    defects, structure = [], True
    for kind in GateKind:
        _, x, y = gate_generators(GateSpec(kind, Schedule(0.7605, 1.0)),
                                  rng.uniform(0, 1.0, size=100))
        for exponents, kicks in ((taus, None), (pulses, (..., slice(None)))):
            p = np.full((3, 3) + exponents.shape, complex(np.nan, np.nan))
            _closed_form(x, y.real, y.imag, 0.5 * exponents, p,
                         np.full(2 * exponents.size + 200, np.nan), kicks)
            defects.append(np.max(unitarity_defect(_matrices(p))))
            # the float64 words of the contiguous planes, real then imaginary
            bits = p.view(np.uint64).reshape(p.shape + (2,))
            structure = (structure and not bits[[0, 1, 2], [0, 1, 2], ..., 1].any()
                         and np.array_equal(bits[1, 0], bits[0, 1]))
        # p holds the pi pulses now, +pi in row 0 and -pi in row 1
        structure = (structure and (p[1, 1] == -1.0).all()
                     and np.array_equal(bits[:, :, 0], bits[:, :, 1]))
    worst_lambda = float(np.max(defects))
    ok = worst <= 1e-10 and worst_lambda <= 1e-14 and structure
    return ok, (f"max |U^dag U - I| eigh {worst:.2e} (1e-10), lambda closed form "
                f"{worst_lambda:.2e} (1e-14), its structure "
                f"{'exact' if structure else 'FAIL'}")


def _check_hermiticity_and_gap(rng):
    # np.max over every value, never max(worst, value), which drops a NaN
    s = Schedule(0.7605, 1.0)
    hs = np.array([gate_hamiltonian(GateSpec(kind, s), t)
                   for t in rng.uniform(0, 1.0, size=100)
                   for kind in (GateKind.PHASE, GateKind.XGATE)])
    worst_h = hermiticity_defect(hs)
    worst_gap = float(np.max(np.abs(np.linalg.eigvalsh(hs) - [-1, 0, 0, 1])))
    # the lab engine's closed-form step exponential rests on H^3 = s^2 H with
    # s^2 = x^2 + |y|^2 = 1 for the lambda couplings; the exchange model has
    # s = hypot(J12, J13)
    ts = rng.uniform(0, 1.0, size=100)
    couplings = [gate_generators(GateSpec(kind, s), ts)[1:] for kind in GateKind]
    worst_norm = max(float(np.max(np.abs(x ** 2 + np.abs(y) ** 2 - 1.0))) for x, y in couplings)
    hs = exchange_hamiltonian(1.0, 0.7, s.phi(ts))
    worst_cubic = float(np.max(np.abs(hs @ hs @ hs - (1.0 + 0.7 ** 2) * hs)))
    ok = (worst_h <= 1e-13 and worst_gap <= 1e-10 and worst_norm <= 1e-12
          and worst_cubic <= 1e-12)
    return ok, (f"hermiticity {worst_h:.2e} (1e-13), spectrum dev {worst_gap:.2e} (1e-10), "
                f"x^2 + |y|^2 - 1 {worst_norm:.2e} (1e-12), exchange H^3 - s^2 H "
                f"{worst_cubic:.2e} (1e-12)")


def _check_dark_states(rng):
    norms = []
    for kind in (GateKind.PHASE, GateKind.XGATE, GateKind.CPHASE):
        spec = GateSpec(kind, Schedule(0.7605, 1.0))
        for t in rng.uniform(0, 1.0, size=100):
            h = gate_hamiltonian(spec, t)
            norms += [np.linalg.norm(h @ d) for d in dark_states(spec, t)]
    worst = float(np.max(norms))
    return worst <= 1e-12, f"max ||H |dark>|| = {worst:.2e} (tol 1e-12)"


def _check_dfs_projection(rng):
    z = total_z()
    comm, proj, leaks = [], [], []
    for j12 in (0.3, 1.0, 2.7):
        for j13 in (0.3, 1.0, 2.7):
            for ph in np.linspace(0.0, 2 * math.pi, 20):
                h = exchange_hamiltonian(j12, j13, ph)
                comm.append(np.max(np.abs(h @ z - z @ h)))
                block, leak = project_dfs(h)
                th = math.atan2(j13, j12)
                scale = math.hypot(j12, j13)
                ref = np.zeros((4, 4), dtype=complex)
                ref[1, 2] = ref[2, 1] = math.sin(th)
                ref[3, 2] = math.cos(th) * np.exp(-1j * ph)
                ref[2, 3] = math.cos(th) * np.exp(1j * ph)
                proj.append(np.max(np.abs(block - scale * ref)))
                leaks.append(leak)
    worst_comm, worst_proj, worst_leak = (float(np.max(v)) for v in (comm, proj, leaks))
    ok = worst_comm <= 1e-13 and worst_proj <= 1e-11 and worst_leak <= 1e-13
    return ok, (f"[H,Z] {worst_comm:.2e} (1e-13), projection dev {worst_proj:.2e} "
                f"(1e-11), leakage {worst_leak:.2e} (1e-13)")


def _check_bessel_berry(rng):
    anchors = (abs(bessel_j0(2 * 1.2024)) <= 1e-4
               and abs(bessel_j0(2 * 0.7605) - 0.5) <= 2e-4
               and bessel_j0(0.0) == 1.0)
    worst = float(np.max([abs(berry_numeric(Schedule(a, 1.0), 10_000) - berry_closed_form(a))
                          for a in np.linspace(0.0, 3.0, 50)]))
    ok = anchors and worst <= 1e-8
    return ok, f"J0 anchors {'ok' if anchors else 'FAIL'}, numeric-closed dev {worst:.2e} (1e-8)"


def _check_frame_equivalence(rng):
    s = Schedule(0.7605, 10.0)
    spec = GateSpec(GateKind.PHASE, s)
    segments = generate_segments(PulseTrain(ControlKind.NO_CONTROL), s.T)
    lab = propagate_lab(spec, segments)
    adiab = propagate_adiabatic(s, segments)
    dark = dark_states(spec, 0.0)[-1]
    # the complex amplitudes, not their moduli: the holonomy is in the phase
    diff = abs(complex(np.vdot(dark, lab.U @ dark)) - adiab.U[1, 1])
    return diff <= 1e-5, f"|<D|U|D>_lab - <.>_adiab| = {diff:.2e} (tol 1e-5)"


def _check_kick_equivalence(rng):
    # the engine applies every kick as the one pi pulse I - 2H^2, whatever its
    # sign, so the two trains agree by construction; eigh at +pi and at -pi is
    # the independent check that this factor is both exponentials
    worst = []
    for kind in GateKind:
        spec = GateSpec(kind, Schedule(0.7605, 1.0))
        ts = rng.uniform(0, 1.0, size=100)
        levels, x, y = gate_generators(spec, ts)
        pulses = matexp_lambda_stack(x, y, np.full(len(ts), math.pi),
                                     pi_pulses=np.arange(len(ts)))
        kicks = np.tile(np.eye(spec.dim, dtype=complex), (len(ts), 1, 1))
        rows, cols = np.ix_(levels, levels)
        kicks[:, rows, cols] = pulses
        hs = np.array([gate_hamiltonian(spec, t) for t in ts])
        for sign in (1.0, -1.0):
            exact = matexp_hermitian_stack(hs, np.full(len(ts), sign * math.pi))
            worst.append(np.max(np.abs(exact - kicks)))
    worst = float(np.max(worst))
    # the engine's kicks among its steps: its U on a jittered alternating train
    # against a sequential product of eigh exponentials, each step's at its
    # midpoint of the step bounds with the kick instants merged in, and each
    # kick's exp(-i sign pi H) right before the step that starts at its instant
    # (a gap of 2.7e-14 over the three kinds; kicks of I give 1.96)
    train = generate_segments(
        PulseTrain(ControlKind.DELTA_KICK_ALTERNATING, dt=0.1, p=1.0, seed=3), 1.0)
    bounds = np.union1d(np.linspace(0.0, 1.0, 257), train.kick_times)
    instants = np.concatenate((0.5 * (bounds[1:] + bounds[:-1]), train.kick_times))
    taus = np.concatenate((np.diff(bounds), math.pi * np.asarray(train.kick_signs, float)))
    at = np.searchsorted(bounds, train.kick_times)
    gaps = []
    for kind in GateKind:
        spec = GateSpec(kind, Schedule(0.7605, 1.0))
        exps = matexp_hermitian_stack(np.array([gate_hamiltonian(spec, t) for t in instants]),
                                      taus)
        u = np.eye(spec.dim, dtype=complex)
        for factor in np.insert(exps[:len(bounds) - 1], at, exps[len(bounds) - 1:], axis=0):
            u = factor @ u
        lab = propagate_lab(spec, train, StepPolicy(max_step=1.0 / 256)).U
        gaps.append(np.max(np.abs(lab - u)))
    gap = float(np.max(gaps))
    cfg = ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(0.7605, 1.0)),
        control=PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.1),
        sweep_variable="dt", grid=(0.1,), master_seed=7)
    report = compare_positive_vs_zero_energy(cfg)
    ok = (worst <= 1e-13 and gap <= 1e-12 and report.max_unitary_diff <= 1e-10
          and abs(report.net_area_positive - report.kick_count * math.pi) <= 1e-9)
    return ok, (f"I - 2H^2 vs eigh at +-pi {worst:.2e} (1e-13), engine vs sequential "
                f"eigh {gap:.2e} (1e-12), unitary diff "
                f"{report.max_unitary_diff:.2e} (1e-10), areas "
                f"({report.net_area_positive:.4f}, {report.net_area_alternating:.4f})")


def _check_resonance_predicate(rng):
    ok = (resonance_condition(2 * math.pi / 0.01, 0.01) == (True, 1)
          and resonance_condition(math.pi / 0.01, 0.01)[0] is False
          and resonance_condition((4 * math.pi + 1e-9) / 0.01, 0.01) == (True, 2))
    # integral bookkeeping: C(t) = t without control; with a positive square
    # train C(t) = t + the net area of the segments up to t, at a t inside an
    # on-segment and at T
    segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 2.0)
    ok = ok and abs(integral_C(segs, 1.3) - 1.3) < 1e-12
    segs = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, 40.0, 0.1, 0.5, 3), 2.0)
    k = 2 * int(rng.integers(10))
    t = segs.edges[k] + rng.uniform(0.1, 0.9) * 0.1
    upto = Segments(np.append(segs.edges[:k + 1], t), segs.values[:k + 1])
    ok = (ok and math.isclose(integral_C(segs, t), t + net_area(upto), rel_tol=1e-12)
          and math.isclose(integral_C(segs, 2.0), 2.0 + net_area(segs), rel_tol=1e-12))
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The holonomy-sim parser, built once per process and shared by every
    main() call: parsing leaves it unchanged, and its defaults (None, 1,
    False) are immutable, which a new argument must keep."""
    parser = argparse.ArgumentParser(prog="holonomy-sim",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gate = sub.add_parser("gate", help="run one gate propagation")
    gate.add_argument("--kind", required=True, choices=[k.value for k in GateKind])
    gate.add_argument("--a", type=float, required=True, help="drive amplitude")
    gate.add_argument("--T", type=float, required=True, help="cycle period")
    gate.add_argument("--control", help="control train as JSON (inline or file path)")
    gate.add_argument("--steps", type=int, help="propagation steps over the cycle")
    gate.add_argument("--out", help="write the JSON result here instead of stdout")
    gate.set_defaults(func=cmd_gate)

    sweep = sub.add_parser("sweep", help="run a parameter sweep experiment")
    sweep.add_argument("--experiment", help="optional; must name the run the config makes",
                       choices=["runtime", "mean-control", "dt-zero-energy",
                                "kick-equivalence"])
    sweep.add_argument("--config", required=True, help="JSON config file")
    sweep.add_argument("--seed", type=int, help="override master_seed")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--plot", action="store_true", help="also write an SVG chart")
    sweep.add_argument("--threads", type=int, default=1,
                       help="ignored; sweeps run serially")
    sweep.set_defaults(func=cmd_sweep)

    selftest = sub.add_parser("selftest", help="run the invariant suite")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
