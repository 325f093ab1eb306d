"""Benchmark workloads: inputs made from a seed, and checks on the outputs.

Each workload is one ``holonomy-sim`` command, run in-process through
``holonomy_sim.cli.main``.  An *operation* is the unit that passes or fails:

  mean-control      one realization of the sweep (one seeded pulse train)
  cphase-gate       one gate call
  kick-equivalence  one positive/alternating pair of kick propagations

The checks use only the standard library, so they stay an independent
oracle of what the program wrote.  This module imports nothing from
``holonomy_sim``.
"""
from __future__ import annotations

import json
import math
import os

DEFAULT_SEED = 0
SIZES = ("full", "tiny")

# Gates every operation must pass.
REFERENCE_TOL = 1e-6    # f and wrapped gamma against the stored reference
INVARIANT_TOL = 1e-12   # f recomputed from (gamma, overlap), docs/FORMATS.md
UNITARITY_TOL = 1e-9    # unitarity defect of the final propagator
KICK_DIFF_TOL = 1e-10   # max-entry |U_positive - U_alternating|
AREA_REL_TOL = 1e-12    # net kick area against kick_count * pi, relative

# Outputs that carry wall-clock time and so are left out of byte comparisons.
TIMED_OUTPUTS = ("manifest.json",)

# A thinned copy of configs/mean_control.json: every fifth grid point of the
# shipped 40, so a command takes seconds rather than minutes.
_MEAN_CONTROL_GRID = {
    "full": [0.0, 25.641025641026, 51.282051282051, 76.923076923077,
             102.564102564103, 128.205128205128, 153.846153846154,
             179.48717948718],
    "tiny": [25.641025641026, 102.564102564103],
}
_MEAN_CONTROL_REALIZATIONS = {"full": 4, "tiny": 2}


def _mean_control_config(seed: int, size: str) -> dict:
    return {
        "gate": {"kind": "phase", "a": 0.7605, "T": 1.0},
        "control": {"kind": "positive_square", "J": 0.0, "dt": 0.005, "p": 0.5,
                    "seed": 0},
        "sweep_variable": "mean_control",
        "grid": _MEAN_CONTROL_GRID[size],
        "realizations": _MEAN_CONTROL_REALIZATIONS[size],
        "master_seed": seed,
        "policy": {"substeps_per_segment": 20, "max_step": None},
    }


def _kick_config(seed: int, size: str) -> dict:
    T, dt = (10.0, 0.001) if size == "full" else (1.0, 0.01)
    return {
        "gate": {"kind": "phase", "a": 0.7605, "T": T},
        "control": {"kind": "delta_kick_positive", "J": 0.0, "dt": dt,
                    "p": 0.5, "seed": 0},
        "sweep_variable": "dt",
        "grid": [dt],
        "realizations": 1,
        "master_seed": seed,
        "policy": {"substeps_per_segment": 20, "max_step": None},
    }


def _cphase_control(seed: int, size: str) -> str:
    dt = 0.001 if size == "full" else 0.01
    return json.dumps({"kind": "positive_square", "J": 400, "dt": dt, "p": 0.5,
                       "seed": seed})


class Workload:
    """One benchmark workload: its command line and its output checks."""

    name = ""
    threads = 1        # --threads given to the command (1 where it has no pool)

    def config(self, seed: int, size: str) -> dict | None:
        """The sweep config file the command reads, or None."""
        return None

    def argv(self, seed: int, size: str, tmp: str, out_dir: str) -> list:
        raise NotImplementedError

    def ops(self, size: str) -> int:
        return 1

    def check(self, out_dir: str, size: str, reference: dict | None) -> list:
        """One failure reason (or None) per operation, from the outputs."""
        raise NotImplementedError

    def reference(self, out_dir: str) -> dict:
        """What the reference file stores for this workload."""
        raise NotImplementedError


class MeanControl(Workload):
    name = "mean-control"
    threads = min(2, os.cpu_count() or 1)

    def config(self, seed, size):
        return _mean_control_config(seed, size)

    def argv(self, seed, size, tmp, out_dir):
        return ["sweep", "--experiment", "mean-control",
                "--config", os.path.join(tmp, "config.json"),
                "--out-dir", out_dir, "--threads", str(self.threads)]

    def ops(self, size):
        return len(_MEAN_CONTROL_GRID[size]) * _MEAN_CONTROL_REALIZATIONS[size]

    def check(self, out_dir, size, reference):
        bundle = _load(out_dir, "bundle.json")
        n_points = len(_MEAN_CONTROL_GRID[size])
        n_real = _MEAN_CONTROL_REALIZATIONS[size]
        records = {(r["grid_index"], r["realization_index"]): r
                   for r in bundle["realizations"]}
        refs = {}
        if reference is not None:
            refs = {(r["grid_index"], r["realization_index"]): r
                    for r in reference["realizations"]}
        reasons = []
        for j in range(n_points):
            row = bundle["rows"][j]
            here = [records.get((j, k)) for k in range(n_real)]
            row_reason = None
            if all(here):
                fs = [r["f"] for r in here]
                stats = (sum(fs) / len(fs), min(fs), max(fs))
                got = (row["f_mean"], row["f_min"], row["f_max"])
                if any(abs(a - b) > INVARIANT_TOL for a, b in zip(stats, got)):
                    row_reason = f"row {j}: f statistics do not match its records"
            for k, rec in enumerate(here):
                if rec is None:
                    reasons.append(f"realization ({j}, {k}) missing")
                    continue
                reasons.append(row_reason or _check_holonomy(
                    f"realization ({j}, {k})", rec["f"], rec["gamma_measured"],
                    rec["overlap_abs"], row["gamma_ideal"],
                    rec.get("unitarity_defect"), refs.get((j, k)),
                    reference is not None))
        return reasons

    def reference(self, out_dir):
        bundle = _load(out_dir, "bundle.json")
        return {"realizations": [
            {key: r[key] for key in ("grid_index", "realization_index", "f",
                                     "gamma_measured")}
            for r in bundle["realizations"]]}


class CphaseGate(Workload):
    name = "cphase-gate"

    def argv(self, seed, size, tmp, out_dir):
        return ["gate", "--kind", "cphase", "--a", "1.2024", "--T", "1",
                "--control", _cphase_control(seed, size),
                "--out", os.path.join(out_dir, "gate.json")]

    def check(self, out_dir, size, reference):
        gate = _load(out_dir, "gate.json")
        return [_check_holonomy("gate", gate["f"], gate["gamma_measured"],
                                gate["overlap"], gate["gamma_ideal"],
                                gate["unitarity_defect"], reference,
                                reference is not None)]

    def reference(self, out_dir):
        return _load(out_dir, "gate.json")


class KickEquivalence(Workload):
    name = "kick-equivalence"

    def config(self, seed, size):
        return _kick_config(seed, size)

    def argv(self, seed, size, tmp, out_dir):
        return ["sweep", "--experiment", "kick-equivalence",
                "--config", os.path.join(tmp, "config.json"),
                "--out-dir", out_dir, "--threads", str(self.threads)]

    def check(self, out_dir, size, reference):
        rep = _load(out_dir, "report.json")
        n = rep["kick_count"]
        area_tol = AREA_REL_TOL * max(1, n) * math.pi
        if not rep["max_unitary_diff"] <= KICK_DIFF_TOL:
            return [f"max_unitary_diff {rep['max_unitary_diff']:.3e} > {KICK_DIFF_TOL}"]
        if not abs(rep["net_area_positive"] - n * math.pi) <= area_tol:
            return [f"net_area_positive {rep['net_area_positive']!r} != {n} * pi"]
        if not abs(rep["net_area_alternating"] - (n % 2) * math.pi) <= area_tol:
            return [f"net_area_alternating {rep['net_area_alternating']!r} "
                    f"!= {n % 2} * pi"]
        if reference is not None:
            if n != reference["kick_count"]:
                return [f"kick_count {n} != reference {reference['kick_count']}"]
            for key in ("f_positive", "f_alternating"):
                if not abs(rep[key] - reference[key]) <= REFERENCE_TOL:
                    return [f"{key} {rep[key]!r} != reference {reference[key]!r}"]
        return [None]

    def reference(self, out_dir):
        return _load(out_dir, "report.json")


WORKLOADS = {w.name: w for w in (MeanControl(), CphaseGate(), KickEquivalence())}


def wrap_angle(x: float) -> float:
    """Map an angle to (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    return w + 2.0 * math.pi if w <= -math.pi else w


def _check_holonomy(what, f, gamma, overlap, gamma_ideal, defect, ref, use_ref):
    values = (f, gamma, overlap, gamma_ideal)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return f"{what}: non-finite or missing value in {values}"
    expected = (1.0 - abs(wrap_angle(gamma - gamma_ideal)) / math.pi) * overlap
    if abs(f - expected) > INVARIANT_TOL:
        return f"{what}: f {f!r} != (1 - |dgamma|/pi) * overlap = {expected!r}"
    if defect is not None and not defect <= UNITARITY_TOL:
        return f"{what}: unitarity defect {defect!r} > {UNITARITY_TOL}"
    if use_ref:
        if ref is None:
            return f"{what}: absent from the reference"
        if abs(f - ref["f"]) > REFERENCE_TOL:
            return f"{what}: f {f!r} != reference {ref['f']!r}"
        if abs(wrap_angle(gamma - ref["gamma_measured"])) > REFERENCE_TOL:
            return f"{what}: gamma {gamma!r} != reference {ref['gamma_measured']!r}"
    return None


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_path(ref_dir: str, workload: str, size: str) -> str:
    return os.path.join(ref_dir, f"{workload}.{size}.json")


def load_reference(ref_dir: str, workload: str, size: str, seed: int):
    """The stored reference outputs for this seed, or None if there are none."""
    path = reference_path(ref_dir, workload, size)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored["outputs"] if stored["seed"] == seed else None


def write_inputs(workload: Workload, seed: int, size: str, tmp: str) -> None:
    """Write the generated input files the command will read."""
    cfg = workload.config(seed, size)
    if cfg is not None:
        with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
