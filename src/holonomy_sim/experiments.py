"""Parameter sweeps over runtime, control strength, and pulse length.

Each sweep propagates the configured gate over a grid, averages the
quality factor over noise realizations, and returns an ordered table of
rows plus per-realization records.  Seeding is positional: realization k
of grid point j derives its generator from SeedSequence([master_seed, j,
k]), so results are independent of execution order and thread count, and
a (config, master_seed) pair reproduces output files byte for byte.  One
pool job runs one grid point, whose realizations share their segment
edges and so propagate as one batch.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .control import (KICK_KINDS, RNG_DESCRIPTION, ControlKind, KickSchedule,
                      PulseTrain, generate_segments, make_kicks, mean_control,
                      net_area, resonance_condition)
from .hamiltonians import GateKind, GateSpec, Schedule, dark_states
from .holonomy import berry_closed_form, evaluate_holonomy, wrap_angle
from .propagation import StepPolicy, propagate_lab_batch


@dataclass(frozen=True)
class ExperimentConfig:
    gate: GateSpec
    control: PulseTrain
    sweep_variable: str
    grid: tuple
    realizations: int = 1
    master_seed: int = 0
    policy: StepPolicy = StepPolicy()

    def __post_init__(self):
        if self.gate.kind is GateKind.PHYSICAL_FOUR:
            raise ValueError("physical_four has no logical dark state to score, so it "
                             "cannot be swept or kick-compared")
        if self.sweep_variable not in _SWEEPS:
            raise ValueError(f"sweep_variable must be one of {tuple(_SWEEPS)}, "
                             f"got {self.sweep_variable!r}")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly ascending")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")


@dataclass(frozen=True)
class SweepRow:
    x: float
    f_mean: float
    f_min: float
    f_max: float
    gamma_measured_mean: float
    gamma_ideal: float
    overlap_mean: float
    resonant: bool | None
    nearest_n: int | None
    seed_base: int


@dataclass(frozen=True)
class RealizationRecord:
    grid_index: int
    realization_index: int
    x: float
    seed: int
    gamma_measured: float
    overlap_abs: float
    f: float
    steps: int
    unitarity_defect: float
    mean_control_measured: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    records: tuple
    total_steps: int


@dataclass(frozen=True)
class KickEquivalenceReport:
    kick_count: int
    max_unitary_diff: float
    net_area_positive: float
    net_area_alternating: float
    f_positive: float
    f_alternating: float
    steps: int


def realization_seed(master_seed: int, grid_index: int, realization_index: int) -> int:
    """64-bit seed for realization (j, k); stable across platforms."""
    ss = np.random.SeedSequence([master_seed, grid_index, realization_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_jobs(jobs, worker, n_threads: int):
    if n_threads <= 1:
        return [worker(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(worker, jobs))


def _assemble_rows(cfg: ExperimentConfig, records, gamma_ideal: float):
    """Collapse per-realization records into one row per grid point.

    dt-sweep rows are annotated with whether J*dt sits on a 2*pi*n resonance.
    """
    rows = []
    for j, x in enumerate(cfg.grid):
        here = [r for r in records if r.grid_index == j]
        fs = [r.f for r in here]
        # average phases relative to the ideal one so wrap-around cannot skew
        rel = [wrap_angle(r.gamma_measured - gamma_ideal) for r in here]
        gamma_mean = wrap_angle(gamma_ideal + sum(rel) / len(rel))
        resonant, nearest = (resonance_condition(cfg.control.J, x)
                             if cfg.sweep_variable == "dt" else (None, None))
        rows.append(SweepRow(
            x=x,
            f_mean=sum(fs) / len(fs),
            f_min=min(fs),
            f_max=max(fs),
            gamma_measured_mean=gamma_mean,
            gamma_ideal=gamma_ideal,
            overlap_mean=sum(r.overlap_abs for r in here) / len(here),
            resonant=resonant,
            nearest_n=nearest,
            seed_base=realization_seed(cfg.master_seed, j, 0),
        ))
    return tuple(rows)


def train_schedule(train: PulseTrain, T: float):
    """(segments, kicks) of a train over [0, T].

    Delta-kick kinds put their events in a kick schedule (interval = dt,
    jitter = p/2, seeded by train.seed) over a zero base segment; the other
    kinds have no kicks.
    """
    segments = generate_segments(train, T)
    kicks = None
    if train.kind in KICK_KINDS:
        kicks = make_kicks(train.kind, T, train.dt, seed=train.seed, jitter=train.p / 2.0)
    return segments, kicks


def _point_records(cfg, gamma_ideal, spec, train, j, x):
    """The records of grid point j: its realizations propagated as one batch."""
    seeds = [realization_seed(cfg.master_seed, j, k) for k in range(cfg.realizations)]
    tilings = [generate_segments(replace(train, seed=seed), spec.schedule.T) for seed in seeds]
    results = propagate_lab_batch(spec, [(segments, None) for segments in tilings], cfg.policy)
    dark = dark_states(spec, 0.0)[-1]
    records = []
    for k, (seed, segments, result) in enumerate(zip(seeds, tilings, results)):
        hol = evaluate_holonomy(result.U, dark, gamma_ideal)
        measured = None
        if train.kind is not ControlKind.NO_CONTROL:
            measured = mean_control(segments)
        records.append(RealizationRecord(
            grid_index=j, realization_index=k, x=x, seed=seed,
            gamma_measured=hol.gamma_measured, overlap_abs=hol.overlap_abs, f=hol.f,
            steps=result.steps_taken, unitarity_defect=result.unitarity_defect,
            mean_control_measured=measured))
    return records


def _mean_control_point(cfg: ExperimentConfig, target: float):
    # at duty 50% the per-segment random factor averages to 1, so J = 2 * target
    T = cfg.gate.schedule.T
    ratio = T / cfg.control.dt
    if abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise ValueError(f"dt {cfg.control.dt} does not divide T {T}")
    return cfg.gate, replace(cfg.control, J=2.0 * target)


# sweep_variable -> (required control kind, grid value x -> (spec, train))
_SWEEPS = {
    "T": (ControlKind.NO_CONTROL,
          lambda cfg, T: (replace(cfg.gate, schedule=Schedule(cfg.gate.schedule.a, T)),
                          cfg.control)),
    "mean_control": (ControlKind.POSITIVE_SQUARE, _mean_control_point),
    "dt": (ControlKind.ZERO_ENERGY_ALTERNATING,
           lambda cfg, dt: (cfg.gate, replace(cfg.control, dt=dt))),
}


def sweep(cfg: ExperimentConfig, n_threads: int = 1) -> SweepResult:
    """Quality factor versus cfg.sweep_variable over cfg.grid.

    T sweeps the runtime without control; mean_control sweeps the target
    average of a positive-square train, whose realized time average is
    recorded per realization; dt sweeps the half-period of a zero-energy
    alternating train.  Grid points are the pool jobs; records come out in
    (grid index, realization index) order.
    """
    kind, point = _SWEEPS[cfg.sweep_variable]
    if cfg.control.kind is not kind:
        raise ValueError(f"sweep_variable {cfg.sweep_variable!r} requires a "
                         f"{kind.value} train, got {cfg.control.kind.value}")
    points = [point(cfg, x) for x in cfg.grid]
    # every grid point shares the amplitude a, hence the ideal phase
    gamma_ideal = berry_closed_form(cfg.gate.schedule.a)

    def worker(j):
        return _point_records(cfg, gamma_ideal, *points[j], j, cfg.grid[j])

    records = tuple(r for point in _run_jobs(range(len(cfg.grid)), worker, n_threads)
                    for r in point)
    return SweepResult(_assemble_rows(cfg, records, gamma_ideal), records,
                       sum(r.steps for r in records))


def compare_positive_vs_zero_energy(cfg: ExperimentConfig) -> KickEquivalenceReport:
    """Propagate identical kick times with all-positive vs alternating signs.

    The two final unitaries agree exactly (each exp(-i*pi*H) equals
    exp(+i*pi*H) on an integer spectrum) while the net control areas are
    m*pi versus 0 or pi -- control at zero net energy cost.  The kick times
    are seeded by master_seed.
    """
    if cfg.control.kind not in KICK_KINDS:
        raise ValueError("kick comparison requires a delta-kick train")
    segments, positive = train_schedule(
        replace(cfg.control, kind=ControlKind.DELTA_KICK_POSITIVE, seed=cfg.master_seed),
        cfg.gate.schedule.T)
    alternating = KickSchedule(positive.times,
                               tuple((-1) ** i for i in range(len(positive.times))),
                               positive.area)
    res_pos, res_alt = propagate_lab_batch(
        cfg.gate, [(segments, positive), (segments, alternating)], cfg.policy)
    dark = dark_states(cfg.gate, 0.0)[-1]
    gamma_ideal = berry_closed_form(cfg.gate.schedule.a)
    return KickEquivalenceReport(
        kick_count=len(positive.times),
        max_unitary_diff=float(np.max(np.abs(res_pos.U - res_alt.U))),
        net_area_positive=net_area(segments, positive),
        net_area_alternating=net_area(segments, alternating),
        f_positive=evaluate_holonomy(res_pos.U, dark, gamma_ideal).f,
        f_alternating=evaluate_holonomy(res_alt.U, dark, gamma_ideal).f,
        steps=res_pos.steps_taken + res_alt.steps_taken,
    )


CSV_HEADER = ("x,f_mean,f_min,f_max,gamma_measured_mean,gamma_ideal,"
              "overlap_mean,resonant,nearest_n,seed_base")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def write_csv(rows, path) -> None:
    """Deterministic CSV: grid order, 12 significant digits, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (
            r.x, r.f_mean, r.f_min, r.f_max, r.gamma_measured_mean,
            r.gamma_ideal, r.overlap_mean, r.resonant, r.nearest_n, r.seed_base)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    gate = {"kind": cfg.gate.kind.value, "a": cfg.gate.schedule.a,
            "T": cfg.gate.schedule.T}
    if cfg.gate.kind is GateKind.PHYSICAL_FOUR:
        gate["j12"] = cfg.gate.j12
        gate["j13"] = cfg.gate.j13
    return {
        "gate": gate,
        "control": {"kind": cfg.control.kind.value, "J": cfg.control.J,
                    "dt": cfg.control.dt, "p": cfg.control.p,
                    "seed": cfg.control.seed},
        "sweep_variable": cfg.sweep_variable,
        "grid": list(cfg.grid),
        "realizations": cfg.realizations,
        "master_seed": cfg.master_seed,
        "policy": {"substeps_per_segment": cfg.policy.substeps_per_segment,
                   "max_step": cfg.policy.max_step},
    }


_REQUIRED = object()


def _take(mapping, allowed: dict, where: str) -> dict:
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    out = dict(allowed)
    out.update(mapping)
    missing = [k for k, v in out.items() if v is _REQUIRED]
    if missing:
        raise ValueError(f"missing required {where} keys: {missing}")
    return out


def _reject_non_number(value, name: str) -> None:
    # float("0.7") and int(True) would pass; the format asks for JSON numbers
    if isinstance(value, (str, bool)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _real(value, name: str) -> float:
    """float(value); rejects strings, booleans, NaN, infinities and huge integers."""
    _reject_non_number(value, name)
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _integer(value, name: str) -> int:
    """int(value); rejects strings, booleans and fractional numbers (no truncation)."""
    _reject_non_number(value, name)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def control_from_dict(data: dict) -> PulseTrain:
    """Strict parser for a control train; unknown keys error, kind is required."""
    c = _take(data, {"kind": _REQUIRED, "J": 0.0, "dt": 0.0, "p": 0.0, "seed": 0},
              "control")
    return PulseTrain(kind=ControlKind(c["kind"]), J=_real(c["J"], "control.J"),
                      dt=_real(c["dt"], "control.dt"), p=_real(c["p"], "control.p"),
                      seed=_integer(c["seed"], "control.seed"))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict parser for the declarative config format; unknown keys error."""
    top = _take(data, {"gate": _REQUIRED, "control": _REQUIRED,
                       "sweep_variable": _REQUIRED, "grid": _REQUIRED,
                       "realizations": 1, "master_seed": 0, "policy": {}},
                "config")
    g = _take(top["gate"], {"kind": _REQUIRED, "a": _REQUIRED, "T": _REQUIRED,
                            "j12": 0.0, "j13": 0.0}, "gate")
    gate = GateSpec(kind=GateKind(g["kind"]),
                    schedule=Schedule(_real(g["a"], "gate.a"), _real(g["T"], "gate.T")),
                    j12=_real(g["j12"], "gate.j12"), j13=_real(g["j13"], "gate.j13"))
    control = control_from_dict(top["control"])
    if not isinstance(top["grid"], (list, tuple)):
        raise ValueError(f"grid must be a JSON array, got {top['grid']!r}")
    p = _take(top["policy"], {"substeps_per_segment": 20, "max_step": None}, "policy")
    policy = StepPolicy(
        substeps_per_segment=_integer(p["substeps_per_segment"],
                                      "policy.substeps_per_segment"),
        max_step=None if p["max_step"] is None else _real(p["max_step"], "policy.max_step"))
    return ExperimentConfig(gate=gate, control=control,
                            sweep_variable=str(top["sweep_variable"]),
                            grid=tuple(_real(x, "grid value") for x in top["grid"]),
                            realizations=_integer(top["realizations"], "realizations"),
                            master_seed=_integer(top["master_seed"], "master_seed"),
                            policy=policy)


def write_json_bundle(result: SweepResult, cfg: ExperimentConfig, path) -> None:
    """Machine-readable mirror of the sweep: rows, realizations, config echo."""
    bundle = {
        "revision": __version__,
        "rng": RNG_DESCRIPTION,
        "config": config_to_dict(cfg),
        "rows": [{
            "x": r.x, "f_mean": r.f_mean, "f_min": r.f_min, "f_max": r.f_max,
            "gamma_measured_mean": r.gamma_measured_mean,
            "gamma_ideal": r.gamma_ideal, "overlap_mean": r.overlap_mean,
            "resonant": r.resonant, "nearest_n": r.nearest_n,
            "seed_base": r.seed_base,
        } for r in result.rows],
        "realizations": [{
            "grid_index": r.grid_index, "realization_index": r.realization_index,
            "x": r.x, "seed": r.seed, "gamma_measured": r.gamma_measured,
            "overlap_abs": r.overlap_abs, "f": r.f, "steps": r.steps,
            "unitarity_defect": r.unitarity_defect,
            "mean_control_measured": r.mean_control_measured,
        } for r in result.records],
        "total_steps": result.total_steps,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
