"""Acceptance suite: one test per criterion, pinned tolerances, desk scale.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
failure output) and then asserts, so a red run still reports which
criterion broke and by how much.
"""
import math

import numpy as np

from holonomy_sim.control import ControlKind, PulseTrain, generate_segments
from holonomy_sim.experiments import (ExperimentConfig,
                                      compare_positive_vs_zero_energy, sweep,
                                      write_csv)
from holonomy_sim.hamiltonians import (GateKind, GateSpec, Schedule, dark_states,
                                       exchange_hamiltonian, gate_hamiltonian, project_dfs,
                                       total_z)
from holonomy_sim.holonomy import berry_closed_form, berry_numeric
from holonomy_sim.propagation import propagate_adiabatic, propagate_lab

PI = math.pi
A_REF = 0.7605
J_FIG2 = 20 * PI


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def dark_overlap(spec, result):
    d = dark_states(spec, 0.0)[-1]
    return complex(np.vdot(d, result.U @ d))


def test_criterion_1_closed_form_berry_phase():
    err_pi = abs(berry_closed_form(1.2024) - PI)
    err_half = abs(berry_closed_form(0.7605) - PI / 2)
    worst_numeric = max(
        abs(berry_numeric(Schedule(float(a), 1.0), 10_000) - berry_closed_form(float(a)))
        for a in np.linspace(0.0, 3.0, 50))
    ok = err_pi <= 1e-3 and err_half <= 1e-3 and worst_numeric <= 1e-8
    report("1 closed-form Berry phase", ok,
           f"|g(1.2024)-pi|={err_pi:.2e} (1e-3), |g(0.7605)-pi/2|={err_half:.2e} "
           f"(1e-3), numeric-closed dev={worst_numeric:.2e} (1e-8)")
    assert ok


def test_criterion_2_adiabatic_limit_without_control():
    grid = tuple(float(x) for x in np.logspace(0.0, 2.0, 40))
    cfg = ExperimentConfig(gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                           control=PulseTrain(ControlKind.NO_CONTROL),
                           sweep_variable="T", grid=grid, realizations=1,
                           master_seed=2024)
    rows = sweep(cfg).rows
    f_start, f_end = rows[0].f_mean, rows[-1].f_mean
    ok = f_end >= 0.99 and (f_end - f_start) > 0.3
    report("2 adiabatic limit", ok,
           f"f(T=100)={f_end:.4f} (>=0.99), f(100)-f(1)={f_end - f_start:.4f} (>0.3)")
    assert ok


def test_criterion_3_control_induced_speedup():
    cfg = ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
        control=PulseTrain(ControlKind.POSITIVE_SQUARE, J=0.0, dt=0.005, p=0.5),
        sweep_variable="mean_control", grid=(0.0, 25.0, 50.0, 100.0, 150.0, 200.0),
        realizations=10, master_seed=2024)
    rows = sweep(cfg).rows
    fs = [r.f_mean for r in rows]
    slope = float(np.polyfit([r.x for r in rows], fs, 1)[0])
    ok = max(fs) >= 0.95 and slope > 0.0
    report("3 control-induced speedup", ok,
           f"max f={max(fs):.4f} (>=0.95), trend slope={slope:.2e} (>0), "
           f"f-curve={[f'{f:.3f}' for f in fs]}")
    assert ok


def test_criterion_4_zero_energy_resonances():
    grid = tuple(m * PI / J_FIG2 for m in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0))

    def cfg(p, realizations):
        return ExperimentConfig(
            gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0)),
            control=PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=J_FIG2,
                               dt=0.1, p=p),
            sweep_variable="dt", grid=grid, realizations=realizations,
            master_seed=2024)

    rows0 = sweep(cfg(0.0, 1)).rows
    f0 = {round(r.x * J_FIG2 / PI, 6): r.f_mean for r in rows0}
    res_flags = [r.resonant for r in rows0]
    ordering = f0[2.0] > f0[3.0] and f0[4.0] > f0[5.0] and f0[4.0] > f0[3.0]

    rows5 = sweep(cfg(0.5, 10)).rows
    var0 = float(np.var([r.f_mean for r in rows0]))
    var5 = float(np.var([r.f_mean for r in rows5]))
    ok = ordering and var5 < var0 and res_flags == [True, False, False, False,
                                                    True, False, False]
    report("4 zero-energy resonances", ok,
           f"f(2pi)={f0[2.0]:.4f} > f(3pi)={f0[3.0]:.4f}, f(4pi)={f0[4.0]:.4f} > "
           f"f(5pi)={f0[5.0]:.4f}; var p=0.5 {var5:.2e} < var p=0 {var0:.2e}")
    assert ok


def test_criterion_5_exact_kick_equivalence():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    cfg = ExperimentConfig(gate=spec,
                           control=PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.2),
                           sweep_variable="dt", grid=(0.2,), master_seed=2024)
    rep = compare_positive_vs_zero_energy(cfg)
    even_ok = (rep.kick_count % 2 == 0
               and rep.max_unitary_diff <= 1e-10
               and abs(rep.net_area_positive - rep.kick_count * PI) <= 1e-9
               and abs(rep.net_area_alternating) <= 1e-12)
    report("5 exact kick equivalence", even_ok,
           f"{rep.kick_count} kicks, max|U+ - U'|={rep.max_unitary_diff:.2e} (1e-10), "
           f"areas=({rep.net_area_positive:.4f}, {rep.net_area_alternating:.1e})")
    assert even_ok


def test_criterion_6_invariant_suites():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024)))

    # unitarity on representative runs, including a strong-control one
    defects = []
    spec_phase = GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0))
    defects.append(propagate_lab(
        spec_phase, generate_segments(PulseTrain(ControlKind.NO_CONTROL), 10.0))
        .unitarity_defect)
    strong = PulseTrain(ControlKind.POSITIVE_SQUARE, J=400.0, dt=0.005, p=0.5, seed=1)
    spec_t1 = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    defects.append(propagate_lab(spec_t1, generate_segments(strong, 1.0))
                   .unitarity_defect)
    spec_cp = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))
    defects.append(propagate_lab(
        spec_cp, generate_segments(PulseTrain(ControlKind.NO_CONTROL), 1.0))
        .unitarity_defect)
    unitarity_ok = max(defects) <= 1e-9

    # dark-state annihilation, 100 random times per kind
    worst_dark = 0.0
    for kind in (GateKind.PHASE, GateKind.XGATE, GateKind.CPHASE):
        spec = GateSpec(kind, Schedule(A_REF, 1.0))
        for t in rng.uniform(0.0, 1.0, size=100):
            h = gate_hamiltonian(spec, t)
            for d in dark_states(spec, t):
                worst_dark = max(worst_dark, float(np.linalg.norm(h @ d)))
    dark_ok = worst_dark <= 1e-12

    # constant spectrum of the 4-dim generators
    worst_gap = 0.0
    s = Schedule(A_REF, 1.0)
    for t in np.linspace(0.0, 1.0, 100):
        for kind in (GateKind.PHASE, GateKind.XGATE):
            ev = np.linalg.eigvalsh(gate_hamiltonian(GateSpec(kind, s), t))
            worst_gap = max(worst_gap, float(np.max(np.abs(ev - [-1, 0, 0, 1]))))
    gap_ok = worst_gap <= 1e-10

    # symmetry and projection of the four-qubit exchange model
    z = total_z()
    worst_comm, worst_proj = 0.0, 0.0
    for j12 in (0.3, 1.0, 2.7):
        for j13 in (0.3, 1.0, 2.7):
            for ph in np.linspace(0.0, 2 * PI, 20):
                h = exchange_hamiltonian(j12, j13, ph)
                worst_comm = max(worst_comm, float(np.max(np.abs(h @ z - z @ h))))
                block, leak = project_dfs(h)
                th = math.atan2(j13, j12)
                ref = np.zeros((4, 4), dtype=complex)
                ref[1, 2] = ref[2, 1] = math.sin(th)
                ref[3, 2] = math.cos(th) * np.exp(-1j * ph)
                ref[2, 3] = math.cos(th) * np.exp(1j * ph)
                dev = np.max(np.abs(block - math.hypot(j12, j13) * ref))
                worst_proj = max(worst_proj, float(dev), leak)
    symmetry_ok = worst_comm <= 1e-13 and worst_proj <= 1e-11

    ok = unitarity_ok and dark_ok and gap_ok and symmetry_ok
    report("6 invariant suites", ok,
           f"unitarity={max(defects):.2e} (1e-9), dark={worst_dark:.2e} (1e-12), "
           f"gap={worst_gap:.2e} (1e-10), [H,Z]={worst_comm:.2e} (1e-13), "
           f"projection={worst_proj:.2e} (1e-11)")
    assert ok


def test_criterion_7_frame_equivalence():
    s10 = Schedule(A_REF, 10.0)
    spec10 = GateSpec(GateKind.PHASE, s10)
    segs10 = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 10.0)
    diff_free = abs(abs(dark_overlap(spec10, propagate_lab(spec10, segs10)))
                    - abs(propagate_adiabatic(s10, segs10).U[1, 1]))

    s1 = Schedule(A_REF, 1.0)
    spec1 = GateSpec(GateKind.PHASE, s1)
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=200.0, dt=0.005, p=0.0)
    segs1 = generate_segments(train, 1.0)
    diff_ctrl = abs(abs(dark_overlap(spec1, propagate_lab(spec1, segs1)))
                    - abs(propagate_adiabatic(s1, segs1).U[1, 1]))
    ok = diff_free <= 1e-4 and diff_ctrl <= 1e-4
    report("7 frame equivalence", ok,
           f"no control T=10: {diff_free:.2e} (1e-4); "
           f"J=200 square T=1: {diff_ctrl:.2e} (1e-4)")
    assert ok


def test_criterion_8_reproducibility(tmp_path):
    cfg = ExperimentConfig(gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                           control=PulseTrain(ControlKind.NO_CONTROL),
                           sweep_variable="T", grid=(1.0, 2.0, 4.0),
                           realizations=2, master_seed=777)
    blobs = []
    for label in ("a", "b"):
        path = tmp_path / f"{label}.csv"
        write_csv(sweep(cfg).rows, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    report("8 reproducibility", ok, f"csv bytes identical across reruns: {ok}")
    assert ok
