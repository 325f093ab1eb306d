"""Parameter sweeps: each grid value sets one field of the gate or the train.

A config's sweep_variable names the field that a grid value x replaces: T
on the gate; dt, p or J on the control train; or mean_control, which sets
J = 2x.  A train kind takes the axes whose field it reads (_axes), and one
point rule (_point) builds every sweep.  A sweep averages the quality
factor of each grid point over noise realizations and returns an ordered
table of rows plus per-realization records.  Realization k of grid point
j is seeded from SeedSequence([master_seed, j, k]), so results are
independent of batching, and a (config, master_seed) pair reproduces
output files byte for byte.

A sweep runs its jobs one after another, in order.  A job is a list of
realizations taken in (grid index, realization index) order from a run of
grid points with one gate and one train layout: their trains differ at
most in J, p or the seed, which move no segment edge.  So a job is one
array program: control.generate_segments lays out the edges once and
draws each realization's values, from its own seed, into one value
matrix; propagation.propagate_lab_batch propagates that matrix as one
batch, in which realizations with equal segment values (those at J = 0)
share one propagation, and realizations with one value on a segment (the
off segments of a positive square train, at any J) share that segment's
exponentials and its node; and the mean control of every row is read off
the matrix.  A run of n realizations is split into ceil(n / MAX_BATCH)
jobs of nearly equal size: a mean_control, p or J sweep is one run, while
a T or dt sweep, whose grid value moves the step grid, has one run per
grid point.  The kick comparison is one job, a row of signs per kind.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import groupby

import numpy as np

from ._version import __version__
from .control import (KICK_KINDS, MAX_STEPS, RNG_DESCRIPTION, ControlKind, PulseTrain,
                      _layout, generate_segments, mean_control, net_area,
                      resonance_condition)
from .hamiltonians import GateKind, GateSpec, Schedule, dark_states
from .holonomy import berry_closed_form, evaluate_holonomy, wrap_angle
from .propagation import StepPolicy, propagate_lab_batch

# Most realizations per sweep job (see the module docstring).
MAX_BATCH = 32


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
        kind, variable = self.control.kind, self.sweep_variable
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly ascending")
        if variable not in _axes(kind):
            kinds = ", ".join(k.value for k in ControlKind if variable in _axes(k)) or "no"
            raise ValueError(f"sweep_variable {variable!r} applies to {kinds} trains; a "
                             f"{kind.value} train takes {' or '.join(map(repr, _axes(kind)))}")
        if kind in KICK_KINDS and len(self.grid) != 1:
            raise ValueError(f"kick-equivalence takes one grid value, the kick spacing, "
                             f"got {len(self.grid)}")
        if kind is not ControlKind.NO_CONTROL:  # generate_segments' rule, at every valid T
            for x in self.grid:
                T = x if variable == "T" else self.gate.schedule.T
                dt = x if variable == "dt" else self.control.dt
                if dt >= T > 0:
                    raise ValueError(f"dt {dt} must be smaller than T {T}")
        if variable == "mean_control":
            T, dt = self.gate.schedule.T, self.control.dt
            ratio = T / dt
            off = ratio % 1.0  # nan when T / dt overflows
            if not min(off, 1.0 - off) <= 1e-9 * ratio:
                raise ValueError(f"dt {dt} does not divide T {T}")
        if variable == "dt" and kind not in KICK_KINDS and not self.control.J > 0:
            raise ValueError("a dt sweep needs control.J > 0: its rows test J dt = 2 pi n")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if len(self.grid) * self.realizations > MAX_STEPS:  # each takes at least one step
            raise ValueError(f"{len(self.grid)} grid values x {self.realizations} realizations "
                             f"need more steps than the cap MAX_STEPS = {MAX_STEPS}")


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


def _assemble_rows(cfg: ExperimentConfig, records, gamma_ideal: float):
    """Collapse the records, in (j, k) order, into one row per grid point.

    dt-sweep rows are annotated with whether J*dt sits on a 2*pi*n resonance.
    """
    rows = []
    for _, group in groupby(records, key=lambda r: r.grid_index):
        here = list(group)
        x = here[0].x
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
            seed_base=here[0].seed,
        ))
    return tuple(rows)


def _jobs(cfg: ExperimentConfig, points) -> list:
    """The sweep's jobs: lists of (j, k) realizations, in (j, k) order.

    A run is a stretch of grid points with one gate and one train layout
    (control._layout, which moves the segment edges); a run of n
    realizations becomes ceil(n / MAX_BATCH) jobs of nearly equal size.
    """
    jobs = []
    for _, run in groupby(range(len(points)),
                          key=lambda j: (points[j][0], _layout(points[j][1]))):
        run = [(j, k) for j in run for k in range(cfg.realizations)]
        n = -(-len(run) // MAX_BATCH)
        jobs += [run[i * len(run) // n:(i + 1) * len(run) // n] for i in range(n)]
    return jobs


def _job_records(cfg, gamma_ideal, points, job):
    """The records of one job, whose trains share their layout: one value
    matrix, one batch."""
    spec = points[job[0][0]][0]
    seeds = [realization_seed(cfg.master_seed, j, k) for j, k in job]
    segments = generate_segments([replace(points[j][1], seed=seed)
                                  for (j, _), seed in zip(job, seeds)], spec.schedule.T)
    results = propagate_lab_batch(spec, segments, cfg.policy)
    measured = [None] * len(job)
    if cfg.control.kind is not ControlKind.NO_CONTROL:
        measured = mean_control(segments)
    dark = dark_states(spec, 0.0)[-1]
    records = []
    for (j, k), seed, result, mean in zip(job, seeds, results, measured):
        hol = evaluate_holonomy(result.U, dark, gamma_ideal)
        records.append(RealizationRecord(
            grid_index=j, realization_index=k, x=cfg.grid[j], seed=seed,
            gamma_measured=hol.gamma_measured, overlap_abs=hol.overlap_abs, f=hol.f,
            steps=result.steps_taken, unitarity_defect=result.unitarity_defect,
            mean_control_measured=mean))
    return records


def _axes(kind: ControlKind) -> tuple:
    """The sweep_variables a train of this kind takes: the fields it reads.
    A kick train's one dt value is the spacing of the kick comparison."""
    if kind in KICK_KINDS:
        return ("dt",)
    if kind is ControlKind.NO_CONTROL:
        return ("T",)
    return ("T", "dt", "p", "J") + (("mean_control",) if kind is ControlKind.POSITIVE_SQUARE
                                    else ())


def _point(cfg: ExperimentConfig, x: float):
    """The (spec, train) of grid value x: x replaces the field that
    cfg.sweep_variable names.  A mean_control x sets J = 2x: at duty 50% the
    per-segment random factor averages to 1, and ExperimentConfig has checked
    that dt divides T."""
    variable = cfg.sweep_variable
    if variable == "T":
        return replace(cfg.gate, schedule=Schedule(cfg.gate.schedule.a, x)), cfg.control
    if variable == "mean_control":
        variable, x = "J", 2.0 * x
    return cfg.gate, replace(cfg.control, **{variable: x})


def sweep(cfg: ExperimentConfig) -> SweepResult:
    """Quality factor versus cfg.sweep_variable over cfg.grid, one grid value
    per point (_point).  Jobs of up to MAX_BATCH realizations that share one
    step grid run in order (see the module docstring); records come out in
    (grid index, realization index) order.
    """
    if cfg.control.kind in KICK_KINDS:
        raise ValueError("a kick-equivalence config is not a sweep; run "
                         "compare_positive_vs_zero_energy")
    points = [_point(cfg, x) for x in cfg.grid]
    # every grid point shares the amplitude a, hence the ideal phase
    gamma_ideal = berry_closed_form(cfg.gate.schedule.a)
    records = tuple(r for job in _jobs(cfg, points)
                    for r in _job_records(cfg, gamma_ideal, points, job))
    return SweepResult(_assemble_rows(cfg, records, gamma_ideal), records,
                       sum(r.steps for r in records))


def compare_positive_vs_zero_energy(cfg: ExperimentConfig) -> KickEquivalenceReport:
    """Propagate identical kick times with all-positive vs alternating signs.

    The kick spacing is the config's one grid value, as in a dt sweep.  The
    two final unitaries are equal to the bit while the net control areas are
    m*pi versus 0 or pi -- control at zero net energy cost.  Each kick is
    the exact factor I - 2H^2, which is exp(-i*pi*H) and exp(+i*pi*H) alike
    on the integer spectrum, so the two trains are one row of one batch and
    max_unitary_diff is 0 by construction; the selftest checks the factor
    against eigh at both signs.  The kick times are seeded by master_seed
    and laid out once: the two trains are one job, a row of signs each.
    """
    if cfg.control.kind not in KICK_KINDS:
        raise ValueError(f"kick comparison requires a delta-kick train, got a "
                         f"{cfg.control.kind.value} train")
    spec, train = _point(cfg, cfg.grid[0])
    segments = generate_segments([replace(train, kind=kind, seed=cfg.master_seed)
                                  for kind in KICK_KINDS], spec.schedule.T)
    res_pos, res_alt = propagate_lab_batch(spec, segments, cfg.policy)
    area_pos, area_alt = net_area(segments)
    dark = dark_states(spec, 0.0)[-1]
    gamma_ideal = berry_closed_form(spec.schedule.a)
    return KickEquivalenceReport(
        kick_count=len(segments.kick_times),
        max_unitary_diff=float(np.max(np.abs(res_pos.U - res_alt.U))),
        net_area_positive=area_pos,
        net_area_alternating=area_alt,
        f_positive=evaluate_holonomy(res_pos.U, dark, gamma_ideal).f,
        f_alternating=evaluate_holonomy(res_alt.U, dark, gamma_ideal).f,
        steps=res_pos.steps_taken + res_alt.steps_taken,
    )


# each output schema is the field list of its dataclass
CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def json_text(data) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing LF."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_text(text: str, path) -> None:
    """text to path in UTF-8, its newlines written as LF on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(data, path) -> None:
    """json_text(data) to path with LF endings."""
    write_text(json_text(data), path)


def write_csv(rows, path) -> None:
    """Deterministic CSV: grid order, 12 significant digits, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in vars(r).values()))
    write_text("\n".join(lines) + "\n", path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config as config_from_dict reads it: the fields of its dataclasses,
    the gate's schedule flattened into the gate and each kind as its value."""
    return {**vars(cfg),
            "gate": {"kind": cfg.gate.kind.value, **vars(cfg.gate.schedule)},
            "control": {**vars(cfg.control), "kind": cfg.control.kind.value},
            "grid": list(cfg.grid),
            "policy": dict(vars(cfg.policy))}


_REQUIRED = object()


def _keys(cls) -> dict:
    """The config keys of dataclass cls, each mapped to its field's default
    or, for a field without one, to _REQUIRED."""
    return {f.name: _REQUIRED if f.default is MISSING else f.default for f in fields(cls)}


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
    c = _take(data, _keys(PulseTrain), "control")
    return PulseTrain(kind=ControlKind(c["kind"]), J=_real(c["J"], "control.J"),
                      dt=_real(c["dt"], "control.dt"), p=_real(c["p"], "control.p"),
                      seed=_integer(c["seed"], "control.seed"))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Strict parser for the declarative config format; unknown keys error."""
    # the file holds the policy as an object, so an omitted one is empty
    top = _take(data, {**_keys(ExperimentConfig), "policy": {}}, "config")
    # the kind is read before the keys are checked, so a gate with no model
    # here is named by its kind, whatever keys it carries
    g = top["gate"]
    kind = GateKind(g["kind"]) if isinstance(g, dict) and "kind" in g else None
    g = _take(g, {"kind": _REQUIRED, **_keys(Schedule)}, "gate")
    gate = GateSpec(kind, Schedule(_real(g["a"], "gate.a"), _real(g["T"], "gate.T")))
    control = control_from_dict(top["control"])
    if not isinstance(top["grid"], (list, tuple)):
        raise ValueError(f"grid must be a JSON array, got {top['grid']!r}")
    p = _take(top["policy"], _keys(StepPolicy), "policy")
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
        "rows": [vars(r) for r in result.rows],
        "realizations": [vars(r) for r in result.records],
        "total_steps": result.total_steps,
    }
    write_json(bundle, path)
