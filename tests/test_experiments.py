import cmath
import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from holonomy_sim import experiments
from holonomy_sim.control import (KICK_KINDS, ControlKind, PulseTrain, generate_segments,
                                  mean_control, net_area)
from holonomy_sim.experiments import (MAX_BATCH, ExperimentConfig, RealizationRecord,
                                      _jobs, compare_positive_vs_zero_energy,
                                      config_from_dict, config_to_dict,
                                      realization_seed, sweep, write_csv,
                                      write_json_bundle)
from holonomy_sim.hamiltonians import GateKind, GateSpec, Schedule, dark_states
from holonomy_sim.holonomy import berry_closed_form, evaluate_holonomy, quality_factor
from holonomy_sim.propagation import StepPolicy, propagate_lab, propagate_lab_batch

A_REF = 0.7605
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def runtime_config(grid=(1.0, 4.0, 16.0), realizations=1, master_seed=11):
    return ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
        control=PulseTrain(ControlKind.NO_CONTROL),
        sweep_variable="T", grid=grid, realizations=realizations,
        master_seed=master_seed)


def mean_control_config(grid=(0.0, 25.0, 100.0), realizations=3, master_seed=5):
    return ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
        control=PulseTrain(ControlKind.POSITIVE_SQUARE, J=0.0, dt=0.005, p=0.5),
        sweep_variable="mean_control", grid=grid, realizations=realizations,
        master_seed=master_seed)


def dt_config(grid, p=0.0, realizations=1, master_seed=13, J=20 * math.pi):
    return ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0)),
        control=PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=J, dt=0.1, p=p),
        sweep_variable="dt", grid=grid, realizations=realizations,
        master_seed=master_seed)


def T_zero_energy_config():
    """A T sweep under a zero-energy alternating train: one job per T."""
    return replace(dt_config((1.0, 1.5, 2.0), p=0.5, realizations=2), sweep_variable="T")


def p_square_config():
    """A p sweep of a positive square train: one layout, so one job."""
    return replace(mean_control_config(grid=(0.0, 0.5, 1.0), realizations=2),
                   sweep_variable="p",
                   control=PulseTrain(ControlKind.POSITIVE_SQUARE, J=100.0, dt=0.05, p=0.5))


class TestConfigValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            runtime_config(grid=(2.0, 1.0))

    def test_grid_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            runtime_config(grid=())

    def test_realizations_positive(self):
        with pytest.raises(ValueError, match="realizations"):
            runtime_config(realizations=0)

    def test_sweep_variable_checked(self):
        with pytest.raises(ValueError, match="sweep_variable"):
            ExperimentConfig(gate=GateSpec(GateKind.PHASE, Schedule(1.0, 1.0)),
                             control=PulseTrain(ControlKind.NO_CONTROL),
                             sweep_variable="bogus", grid=(1.0,))

    # only the logical gates have a model here; the exchange couplings do not
    # rescue the four-qubit kind, it is named before its keys are read
    def test_physical_four_rejected(self):
        data = config_to_dict(runtime_config())
        data["gate"] = {"kind": "physical_four", "a": A_REF, "T": 1.0, "j12": 1.0, "j13": 0.5}
        with pytest.raises(ValueError, match="physical_four"):
            config_from_dict(data)

    # the control kind is checked when the config is built, not when it runs:
    # every kind but a kick train reads the gate's T
    def test_T_sweep_takes_a_controlled_train_but_not_kicks(self):
        assert replace(mean_control_config(), sweep_variable="T").sweep_variable == "T"
        with pytest.raises(ValueError, match="sweep_variable 'T' applies to no_control, "
                                             "positive_square, zero_energy_alternating trains; "
                                             "a delta_kick_positive train takes 'dt'$"):
            replace(kick_config(0.1), sweep_variable="T")

    def test_mean_control_requires_positive_square(self):
        with pytest.raises(ValueError, match="positive_square"):
            replace(runtime_config(), sweep_variable="mean_control")

    def test_mean_control_requires_commensurate_dt(self):
        with pytest.raises(ValueError, match="dt 0.003 does not divide T 1.0"):
            ExperimentConfig(
                gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                control=PulseTrain(ControlKind.POSITIVE_SQUARE, J=0.0, dt=0.003, p=0.5),
                sweep_variable="mean_control", grid=(1.0,))

    # checked when the config is parsed, not per grid point; 5e-324 overflows T / dt
    @pytest.mark.parametrize("dt", [0.3, 5e-324])
    def test_mean_control_dt_must_divide_T_when_parsed(self, dt):
        data = config_to_dict(mean_control_config())
        data["control"]["dt"] = dt
        with pytest.raises(ValueError, match=f"dt {dt} does not divide T 1.0"):
            config_from_dict(data)

    # J = 0 has no resonance J dt = 2 pi n to annotate: rejected when parsed,
    # not after every grid point has run
    @pytest.mark.parametrize("kind", ["zero_energy_alternating", "positive_square"])
    def test_dt_sweep_needs_positive_J_when_parsed(self, kind):
        data = config_to_dict(dt_config((0.1, 0.2)))
        data["control"].update(kind=kind, J=0.0)
        with pytest.raises(ValueError, match=r"a dt sweep needs control.J > 0"):
            config_from_dict(data)

    def test_dt_sweep_requires_a_train_with_a_dt(self):
        with pytest.raises(ValueError, match="sweep_variable 'dt' applies to positive_square, "
                                             "zero_energy_alternating, delta_kick_positive, "
                                             "delta_kick_alternating trains; a no_control "
                                             "train takes 'T'$"):
            replace(runtime_config(), sweep_variable="dt")

    # (sweep_variable, grid value, T of the point's gate, fields of its train)
    @pytest.mark.parametrize("variable, x, T, fields", [
        ("T", 2.5, 2.5, {}), ("dt", 0.25, 1.0, {"dt": 0.25}), ("p", 0.25, 1.0, {"p": 0.25}),
        ("J", 0.25, 1.0, {"J": 0.25}), ("mean_control", 0.25, 1.0, {"J": 0.5})])
    def test_grid_value_sets_the_field_its_sweep_variable_names(self, variable, x, T, fields):
        cfg = replace(mean_control_config(), sweep_variable=variable, grid=(x,),
                      control=PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=0.005, p=0.5))
        spec, train = experiments._point(cfg, x)
        assert (spec, train) == (GateSpec(GateKind.PHASE, Schedule(A_REF, T)),
                                 replace(cfg.control, **fields))

    def test_kick_equivalence_takes_one_grid_value(self):
        kick = PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.1)
        with pytest.raises(ValueError, match="one grid value, the kick spacing, got 2"):
            replace(dt_config((0.1, 0.2)), control=kick)


def test_realization_seed_depends_on_all_indices():
    seeds = {realization_seed(1, j, k) for j in range(5) for k in range(5)}
    assert len(seeds) == 25
    assert realization_seed(1, 2, 3) == realization_seed(1, 2, 3)
    assert realization_seed(1, 2, 3) != realization_seed(2, 2, 3)


class TestSweepRuntime:
    def test_rows_follow_grid_and_bounds(self):
        result = sweep(runtime_config())
        assert [r.x for r in result.rows] == [1.0, 4.0, 16.0]
        for row in result.rows:
            assert 0.0 <= row.f_min <= row.f_mean <= row.f_max <= 1.0
            assert row.resonant is None and row.nearest_n is None
        assert result.total_steps == sum(r.steps for r in result.records)

    def test_f_improves_with_runtime(self):
        result = sweep(runtime_config())
        fs = [r.f_mean for r in result.rows]
        assert fs[-1] > fs[0]

    def test_single_realization_row_recomputes_exactly(self):
        result = sweep(runtime_config())
        for row in result.rows:
            recomputed = quality_factor(row.gamma_ideal, row.gamma_measured_mean,
                                        row.overlap_mean)
            assert abs(recomputed - row.f_mean) <= 1e-12

    def test_discretization_control_by_step_halving(self):
        for T in (1.0, 10.0):
            base = runtime_config(grid=(T,))
            halved = ExperimentConfig(
                gate=base.gate, control=base.control, sweep_variable="T",
                grid=base.grid, realizations=1, master_seed=base.master_seed,
                policy=StepPolicy(max_step=T / 8192))
            coarse = sweep(base).rows[0].f_mean
            fine = sweep(halved).rows[0].f_mean
            assert abs(coarse - fine) <= 1e-3


class TestSweepMeanControl:
    def test_zero_target_reduces_to_uncontrolled_run(self):
        # step grids differ (per-segment vs whole-span tiling), so agreement
        # is physical rather than bitwise
        mc = sweep(mean_control_config(grid=(0.0, 50.0), realizations=2))
        rt = sweep(runtime_config(grid=(1.0,)))
        assert mc.rows[0].f_mean == pytest.approx(rt.rows[0].f_mean, abs=1e-9)
        assert mc.rows[0].f_min == pytest.approx(mc.rows[0].f_max, abs=1e-15)

    def test_measured_mean_tracks_target(self):
        result = sweep(mean_control_config(grid=(50.0,), realizations=6))
        measured = [r.mean_control_measured for r in result.records]
        assert all(m is not None for m in measured)
        assert np.mean(measured) == pytest.approx(50.0, rel=0.05)

    def test_control_restores_quality(self):
        result = sweep(mean_control_config(grid=(0.0, 100.0), realizations=3))
        assert result.rows[1].f_mean > result.rows[0].f_mean + 0.3

    def test_f_mean_stable_across_master_seeds(self):
        r1 = sweep(mean_control_config(grid=(50.0,), realizations=10,
                                       master_seed=101))
        r2 = sweep(mean_control_config(grid=(50.0,), realizations=10,
                                       master_seed=202))
        f1 = [r.f for r in r1.records]
        f2 = [r.f for r in r2.records]
        se = math.sqrt(np.var(f1, ddof=1) / len(f1) + np.var(f2, ddof=1) / len(f2))
        assert abs(np.mean(f1) - np.mean(f2)) < 5 * se


def sweep_points(cfg):
    return [experiments._point(cfg, x) for x in cfg.grid]


class TestSweepJobs:
    def test_mean_control_jobs_cut_through_grid_points(self):
        cfg = mean_control_config(grid=(0.0, 10.0, 20.0, 30.0, 40.0), realizations=12)
        jobs = _jobs(cfg, sweep_points(cfg))
        assert [len(job) for job in jobs] == [30, 30]
        assert [rk for job in jobs for rk in job] == [(j, k) for j in range(5)
                                                      for k in range(12)]

    def test_grid_values_that_move_the_step_grid_start_new_jobs(self):
        cfg = dt_config((0.05, 0.1), realizations=MAX_BATCH + 3)
        assert [len(job) for job in _jobs(cfg, sweep_points(cfg))] == [17, 18, 17, 18]
        cfg = runtime_config(grid=(1.0, 2.0))
        assert _jobs(cfg, sweep_points(cfg)) == [[(0, 0)], [(1, 0)]]

    def test_T_sweep_runs_a_job_per_point_and_p_sweep_one_job(self):
        cfg = T_zero_energy_config()
        assert _jobs(cfg, sweep_points(cfg)) == [[(j, 0), (j, 1)] for j in range(3)]
        cfg = p_square_config()
        assert _jobs(cfg, sweep_points(cfg)) == [[(j, k) for j in range(3) for k in range(2)]]

    def test_shipped_mean_control_sweep_splits_into_equal_jobs(self):
        cfg = config_from_dict(json.loads((CONFIG_DIR / "mean_control.json").read_text()))
        sizes = [len(job) for job in _jobs(cfg, sweep_points(cfg))]
        assert len(sizes) == 13 and sum(sizes) == 400
        assert set(sizes) == {30, 31}

    def test_sweep_runs_each_job_once_in_order(self, monkeypatch):
        cfg = mean_control_config(grid=(0.0, 10.0, 20.0, 30.0, 40.0), realizations=12)
        seen, real_job_records = [], experiments._job_records

        def job_records(cfg, gamma_ideal, points, job):
            seen.append(job)
            return real_job_records(cfg, gamma_ideal, points, job)

        monkeypatch.setattr(experiments, "_job_records", job_records)
        result = sweep(cfg)
        assert seen == _jobs(cfg, sweep_points(cfg))
        assert [(r.grid_index, r.realization_index) for r in result.records] == [
            rk for job in seen for rk in job]

    @pytest.mark.parametrize("cfg", [
        # the J = 0 realizations of the first point merge into one row
        replace(mean_control_config(grid=(0.0, 10.0, 20.0, 30.0, 40.0), realizations=12),
                control=PulseTrain(ControlKind.POSITIVE_SQUARE, J=0.0, dt=0.05, p=0.5)),
        dt_config((0.05, 0.1), p=0.5, realizations=MAX_BATCH + 3),
        T_zero_energy_config(),
        p_square_config(),
    ], ids=["mean-control", "dt-zero-energy", "T-zero-energy", "p-positive-square"])
    def test_batched_records_equal_each_train_run_alone(self, cfg):
        result = sweep(cfg)
        dark = dark_states(cfg.gate, 0.0)[-1]
        gamma_ideal = berry_closed_form(A_REF)
        assert len(result.records) == len(cfg.grid) * cfg.realizations
        for record in result.records:
            j, k = record.grid_index, record.realization_index
            seed = realization_seed(cfg.master_seed, j, k)
            spec, train = sweep_points(cfg)[j]
            segments = generate_segments(replace(train, seed=seed), spec.schedule.T)
            alone = propagate_lab(spec, segments, cfg.policy)
            hol = evaluate_holonomy(alone.U, dark, gamma_ideal)
            assert record == RealizationRecord(
                grid_index=j, realization_index=k, x=cfg.grid[j], seed=seed,
                gamma_measured=hol.gamma_measured, overlap_abs=hol.overlap_abs, f=hol.f,
                steps=alone.steps_taken, unitarity_defect=alone.unitarity_defect,
                mean_control_measured=mean_control(segments))
            assert [bits(getattr(record, name)) for name in BIT_FIELDS] == [
                bits(value) for value in (hol.f, hol.gamma_measured, hol.overlap_abs,
                                          alone.unitarity_defect, mean_control(segments))]

    def test_a_job_lays_out_its_trains_once_and_calls_the_engine_once(self, monkeypatch):
        layouts, batches = [], []
        real_generate, real_batch = experiments.generate_segments, experiments.propagate_lab_batch

        def generate(trains, T):
            layouts.append(len(trains))
            return real_generate(trains, T)

        def batch(spec, segments, policy):
            batches.append(segments.values.shape)
            return real_batch(spec, segments, policy)

        monkeypatch.setattr(experiments, "generate_segments", generate)
        monkeypatch.setattr(experiments, "propagate_lab_batch", batch)
        for cfg in (mean_control_config(grid=(0.0, 10.0, 20.0, 30.0, 40.0), realizations=12),
                    dt_config((0.05, 0.1), realizations=MAX_BATCH + 3)):
            layouts.clear()
            batches.clear()
            sweep(cfg)
            sizes = [len(job) for job in _jobs(cfg, sweep_points(cfg))]
            assert layouts == sizes
            assert [rows for rows, _ in batches] == sizes
        layouts.clear()
        batches.clear()
        compare_positive_vs_zero_energy(kick_config(0.1))
        assert layouts == [2] and [rows for rows, _ in batches] == [2]


BIT_FIELDS = ("f", "gamma_measured", "overlap_abs", "unitarity_defect", "mean_control_measured")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def kick_config(dt, master_seed=3):
    return ExperimentConfig(
        gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
        control=PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=dt, p=0.6),
        sweep_variable="dt", grid=(dt,), master_seed=master_seed)


def oracle_amplitude(spec, segments):
    """<lo|U|lo> of one train from an oracle that shares no propagation code.

    DOP853 on the 3-level state (lo, anc, hi), restarted at every segment
    edge and kick instant, with the couplings written from Schedule.theta
    and Schedule.phi; kick i is scipy's expm(-i * sign_i * pi * H(t_i)).
    The state is |lo> at t = 0, the dark state there."""
    s = spec.schedule

    def h(t):
        x = math.sin(s.theta(t))
        y = math.cos(s.theta(t)) * cmath.exp(-1j * s.phi(t))
        return np.array([[0.0, x, 0.0], [x, 0.0, y.conjugate()], [0.0, y, 0.0]])

    def rhs(t, psi, c):
        return -1j * (1.0 + c) * (h(t) @ psi)

    kicks = dict(zip(segments.kick_times.tolist(), segments.kick_signs.tolist()))
    stops = sorted(set(segments.edges.tolist()) | set(kicks))
    values = segments.values[np.searchsorted(segments.edges, stops[:-1], side="right") - 1]
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    for t0, t1, c in zip(stops[:-1], stops[1:], values.tolist()):
        if t0 in kicks:
            psi = expm(-1j * kicks[t0] * math.pi * h(t0)) @ psi
        psi = solve_ivp(rhs, (t0, t1), psi, method="DOP853", rtol=1e-12, atol=1e-13,
                        args=(c,)).y[:, -1]
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
    return psi[0]


class TestSweepDtZeroEnergy:
    def test_resonance_annotation(self):
        J = 20 * math.pi
        grid = (2 * math.pi / J, 3 * math.pi / J)
        result = sweep(dt_config(grid))
        assert result.rows[0].resonant is True and result.rows[0].nearest_n == 1
        assert result.rows[1].resonant is False

    @pytest.mark.xfail(strict=True, reason="the midpoint steps of the shipped policy miss "
                       "converged f by 1.2e-3 at dt = 0.0411: ROADMAP item 2 (fourth-order "
                       "commutator-free steps) mends it")
    def test_shipped_point_27_is_converged_to_1e6(self):
        cfg = config_from_dict(json.loads((CONFIG_DIR / "dt_zero_energy.json").read_text()))
        spec, train = sweep_points(cfg)[27]
        assert train.dt == 0.041136206709
        segments = generate_segments(replace(train, seed=realization_seed(cfg.master_seed, 27, 0)),
                                     spec.schedule.T)
        dark = dark_states(spec, 0.0)[-1]
        gamma_ideal = berry_closed_form(spec.schedule.a)
        shipped, converged = (
            evaluate_holonomy(propagate_lab(spec, segments, policy).U, dark, gamma_ideal).f
            for policy in (cfg.policy, replace(cfg.policy, substeps_per_segment=320)))
        assert abs(shipped - converged) <= 1e-6

    @staticmethod
    def oracle_gap(point, dt, substeps):
        """|f - oracle f| of realization 0 at a shipped grid point, the engine
        at substeps per segment."""
        cfg = config_from_dict(json.loads((CONFIG_DIR / "dt_zero_energy.json").read_text()))
        spec, train = sweep_points(cfg)[point]
        assert train.dt == dt
        segments = generate_segments(
            replace(train, seed=realization_seed(cfg.master_seed, point, 0)), spec.schedule.T)
        amplitude = oracle_amplitude(spec, segments)
        gamma_ideal = berry_closed_form(spec.schedule.a)
        oracle = quality_factor(gamma_ideal, cmath.phase(amplitude), abs(amplitude))
        engine = propagate_lab(spec, segments, replace(cfg.policy, substeps_per_segment=substeps))
        return abs(evaluate_holonomy(engine.U, dark_states(spec, 0.0)[-1], gamma_ideal).f - oracle)

    # The midpoint error falls as 1/substeps^2: at this point 1280 substeps
    # sit 2.9e-7 from the oracle and 5120 sit 1.8e-8.
    def test_midpoint_engine_meets_an_ode_oracle_at_shipped_point_27(self):
        assert self.oracle_gap(27, 0.041136206709, 5120) <= 1e-7

    # The shipped 20 substeps sit 3.3e-5 from the oracle here, 1280 sit
    # 9.6e-8 and 5120 sit 6.0e-9.
    def test_midpoint_engine_meets_an_ode_oracle_at_shipped_point_45(self):
        assert self.oracle_gap(45, 0.167646207462, 5120) <= 1e-7

    def test_noise_realizations_have_spread(self):
        J = 20 * math.pi
        result = sweep(dt_config((3 * math.pi / J,), p=0.5, realizations=5))
        row = result.rows[0]
        assert row.f_max > row.f_min


# SweepRow by SweepRow: the "fields" list, then each shipped config's rows
# in grid order, as written by its sweep with the engine of this file's
# last change.  The dt and mean-control goldens move with ROADMAP item 2
# (fourth-order steps converge both sweeps), which is a declared output change.
SHIPPED_ROWS = Path(__file__).resolve().parent / "shipped_sweeps.json"


@pytest.mark.parametrize("name", ["runtime", "mean_control", "dt_zero_energy"])
def test_shipped_sweep_rows_match_their_golden_file(name):
    golden = json.loads(SHIPPED_ROWS.read_text())
    rows = sweep(config_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))).rows
    assert len(rows) == len(golden[name])
    for row, expected in zip(rows, golden[name]):
        for field, want in zip(golden["fields"], expected, strict=True):
            got = getattr(row, field)
            if field in ("resonant", "nearest_n", "seed_base"):
                assert (got, type(got)) == (want, type(want)), (row.x, field)
            else:
                assert abs(got - want) <= 1e-12, (row.x, field, got, want)


class TestKickComparison:
    def test_even_kick_count(self):
        cfg = ExperimentConfig(
            gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
            control=PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.2),
            sweep_variable="dt", grid=(0.2,), master_seed=3)
        report = compare_positive_vs_zero_energy(cfg)
        assert report.kick_count == 4
        assert report.max_unitary_diff <= 1e-10
        assert report.net_area_positive == pytest.approx(4 * math.pi)
        assert report.net_area_alternating == pytest.approx(0.0, abs=1e-12)
        assert report.f_positive == pytest.approx(report.f_alternating, abs=1e-12)

    def test_odd_kick_count(self):
        cfg = ExperimentConfig(
            gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
            control=PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.1),
            sweep_variable="dt", grid=(0.1,), master_seed=3)
        report = compare_positive_vs_zero_energy(cfg)
        assert report.kick_count == 9
        assert report.max_unitary_diff <= 1e-10
        assert report.net_area_positive == pytest.approx(9 * math.pi)
        assert report.net_area_alternating == pytest.approx(math.pi)

    # the selftest's kick train, jittered: the engine's one factor I - 2H^2
    # against the oracle's expm at each kick's own sign, for both sign
    # patterns.  The kicks move the amplitude by 1.4; 20,000 steps sit
    # 1.4e-10 from the oracle, the default 4096 3.4e-9
    @pytest.mark.parametrize("kind", KICK_KINDS, ids=lambda kind: kind.value)
    def test_kicked_engine_meets_an_ode_oracle_with_expm_kicks(self, kind):
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(PulseTrain(kind, dt=0.1, p=0.5, seed=7), 1.0)
        assert len(segments.kick_times) == 9 and len(set(segments.kick_signs.tolist())) == (
            2 if kind is ControlKind.DELTA_KICK_ALTERNATING else 1)
        amplitude = oracle_amplitude(spec, segments)
        engine = propagate_lab(spec, segments, StepPolicy(max_step=1.0 / 20_000))
        dark = dark_states(spec, 0.0)[-1]
        assert abs(np.vdot(dark, engine.U @ dark) - amplitude) <= 1e-7
        gamma_ideal = berry_closed_form(A_REF)
        oracle = quality_factor(gamma_ideal, cmath.phase(amplitude), abs(amplitude))
        assert abs(evaluate_holonomy(engine.U, dark, gamma_ideal).f - oracle) <= 1e-7

    def test_requires_delta_kind(self):
        with pytest.raises(ValueError, match="delta"):
            compare_positive_vs_zero_energy(runtime_config())

    def test_the_pair_equals_each_kick_train_run_alone(self):
        cfg = kick_config(0.03)
        report = compare_positive_vs_zero_energy(cfg)
        dark = dark_states(cfg.gate, 0.0)[-1]
        gamma_ideal = berry_closed_form(A_REF)
        alone = [generate_segments(replace(cfg.control, kind=kind, seed=cfg.master_seed), 1.0)
                 for kind in KICK_KINDS]
        runs = [propagate_lab(cfg.gate, segments, cfg.policy) for segments in alone]
        assert report.kick_count == len(alone[0].kick_times) == 33
        assert [bits(report.f_positive), bits(report.f_alternating)] == [
            bits(evaluate_holonomy(run.U, dark, gamma_ideal).f) for run in runs]
        assert [bits(report.net_area_positive), bits(report.net_area_alternating)] == [
            bits(net_area(segments)) for segments in alone]
        assert report.max_unitary_diff == float(np.max(np.abs(runs[0].U - runs[1].U))) == 0.0
        assert report.steps == sum(run.steps_taken for run in runs)
        # every field a record would carry, for each row of the pair's job
        pair = generate_segments([replace(cfg.control, kind=kind, seed=cfg.master_seed)
                                  for kind in KICK_KINDS], 1.0)
        for result, mean, segments, run in zip(propagate_lab_batch(cfg.gate, pair, cfg.policy),
                                               mean_control(pair), alone, runs):
            hol, ref = (evaluate_holonomy(u, dark, gamma_ideal) for u in (result.U, run.U))
            assert [bits(hol.f), bits(hol.gamma_measured), bits(hol.overlap_abs),
                    bits(result.unitarity_defect), bits(mean)] == [
                bits(ref.f), bits(ref.gamma_measured), bits(ref.overlap_abs),
                bits(run.unitarity_defect), bits(mean_control(segments))]

    def test_grid_value_is_the_kick_spacing(self):
        cfg = ExperimentConfig(
            gate=GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
            control=PulseTrain(ControlKind.DELTA_KICK_ALTERNATING, dt=0.1),
            sweep_variable="dt", grid=(0.2,), master_seed=3)
        assert compare_positive_vs_zero_energy(cfg).kick_count == 4
        with pytest.raises(ValueError, match="not a sweep"):
            sweep(cfg)


class TestCsv:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_bytes() == (b"x,f_mean,f_min,f_max,gamma_measured_mean,"
                                     b"gamma_ideal,overlap_mean,resonant,nearest_n,"
                                     b"seed_base\n")

    def test_deterministic_bytes_across_reruns(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            result = sweep(runtime_config())
            p = tmp_path / name
            write_csv(result.rows, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_f_columns_within_unit_interval(self, tmp_path):
        result = sweep(runtime_config())
        path = tmp_path / "r.csv"
        write_csv(result.rows, path)
        lines = path.read_text().strip().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            for col in (1, 2, 3):
                assert 0.0 <= float(cells[col]) <= 1.0

    def test_booleans_and_blanks(self, tmp_path):
        J = 20 * math.pi
        result = sweep(dt_config((2 * math.pi / J, 2.5 * math.pi / J)))
        path = tmp_path / "dt.csv"
        write_csv(result.rows, path)
        rows = path.read_text().strip().splitlines()[1:]
        assert rows[0].split(",")[7] == "true"
        assert rows[1].split(",")[7] == "false"
        rt_path = tmp_path / "rt.csv"
        write_csv(sweep(runtime_config(grid=(1.0,))).rows, rt_path)
        assert rt_path.read_text().strip().splitlines()[1].split(",")[7] == ""


class TestJsonBundle:
    def test_realizations_recompute_f_exactly(self, tmp_path):
        cfg = mean_control_config(grid=(25.0,), realizations=4)
        result = sweep(cfg)
        path = tmp_path / "bundle.json"
        write_json_bundle(result, cfg, path)
        bundle = json.loads(path.read_text())
        assert bundle["revision"]
        assert bundle["config"]["control"]["kind"] == "positive_square"
        for rec in bundle["realizations"]:
            gamma_ideal = bundle["rows"][rec["grid_index"]]["gamma_ideal"]
            recomputed = quality_factor(gamma_ideal, rec["gamma_measured"],
                                        rec["overlap_abs"])
            assert abs(recomputed - rec["f"]) <= 1e-12

    def test_realizations_carry_unitarity_defect(self, tmp_path):
        cfg = mean_control_config(grid=(25.0,), realizations=2)
        result = sweep(cfg)
        path = tmp_path / "bundle.json"
        write_json_bundle(result, cfg, path)
        records = json.loads(path.read_text())["realizations"]
        assert [r["unitarity_defect"] for r in records] == [
            r.unitarity_defect for r in result.records]
        assert all(0.0 <= r["unitarity_defect"] <= 1e-9 for r in records)

    def test_row_means_match_realization_means(self, tmp_path):
        cfg = mean_control_config(grid=(25.0,), realizations=4)
        result = sweep(cfg)
        row = result.rows[0]
        fs = [r.f for r in result.records]
        assert row.f_mean == pytest.approx(sum(fs) / len(fs), abs=1e-15)
        assert row.f_min == min(fs) and row.f_max == max(fs)

    def test_bundle_bytes_deterministic(self, tmp_path):
        cfg = runtime_config()
        blobs = []
        for name in ("x.json", "y.json"):
            result = sweep(cfg)
            p = tmp_path / name
            write_json_bundle(result, cfg, p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigRoundTrip:
    def test_to_dict_from_dict(self):
        cfg = dt_config((0.1, 0.2), p=0.5, realizations=10)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        data = config_to_dict(runtime_config())
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict(data)
        data.pop("extra")
        data["gate"]["typo"] = 2
        with pytest.raises(ValueError, match="unknown gate keys"):
            config_from_dict(data)

    def test_missing_keys_rejected(self):
        data = config_to_dict(runtime_config())
        del data["grid"]
        with pytest.raises(ValueError, match="missing required"):
            config_from_dict(data)

    def test_policy_parsed(self):
        data = config_to_dict(runtime_config())
        data["policy"] = {"substeps_per_segment": 25, "max_step": 0.01}
        cfg = config_from_dict(data)
        assert cfg.policy == StepPolicy(substeps_per_segment=25, max_step=0.01)

    def test_required_keys_alone_take_every_default(self):
        data = {"gate": {"kind": "phase", "a": A_REF, "T": 1.0},
                "control": {"kind": "no_control"}, "sweep_variable": "T", "grid": [1.0, 4.0]}
        assert config_from_dict(data) == ExperimentConfig(
            GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
            PulseTrain(ControlKind.NO_CONTROL), "T", (1.0, 4.0))

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_echoes_every_key_and_parses_back(self, path):
        data = json.loads(path.read_text())
        cfg = config_from_dict(data)
        echo = config_to_dict(cfg)
        for key, value in data.items():
            # an object may omit keys that take their defaults; the echo fills them in
            assert echo[key] == ({**echo[key], **value} if isinstance(value, dict) else value), key
        assert config_from_dict(echo) == cfg


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["phase", "physical_four", "positive_square", "T", "dt"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                 inner, max_size=3),
    max_leaves=6)


@st.composite
def config_dicts(draw):
    """A valid config dict with keys dropped, replaced by JSON values, or added."""
    def mutate(mapping):
        out = {}
        for key, value in mapping.items():
            action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "replace"]))
            if action == "replace":
                out[key] = draw(JSON_VALUES)
            elif action == "keep":
                out[key] = mutate(value) if isinstance(value, dict) else value
        if draw(st.integers(0, 9)) == 0:
            out[draw(st.text(max_size=4))] = draw(JSON_VALUES)
        return out
    return mutate(config_to_dict(dt_config((0.1, 0.2), p=0.5)))


@settings(max_examples=300, deadline=None)
@given(config_dicts())
def test_any_json_config_parses_or_raises_value_or_type_error(data):
    try:
        cfg = config_from_dict(data)
    except (ValueError, TypeError):
        return
    assert isinstance(cfg, ExperimentConfig)
    assert config_from_dict(config_to_dict(cfg)) == cfg
