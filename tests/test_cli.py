import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import holonomy_sim.cli as cli
from holonomy_sim.hamiltonians import (GateKind, GateSpec, Schedule, dark_states,
                                       gate_hamiltonian)
from holonomy_sim.propagation import PropagationResult
from holonomy_sim.qcore import unitarity_defect

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def run_cli(argv):
    return cli.main(argv)


def small_runtime_config(tmp_path, grid=(1.0, 3.0, 9.0)):
    cfg = {
        "gate": {"kind": "phase", "a": 0.7605, "T": 1.0},
        "control": {"kind": "no_control"},
        "sweep_variable": "T",
        "grid": list(grid),
        "realizations": 1,
        "master_seed": 42,
        "policy": {"substeps_per_segment": 20, "max_step": None},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGateCommand:
    def test_zero_amplitude_is_exact_identity_on_dark_state(self, tmp_path):
        out = tmp_path / "gate.json"
        code = run_cli(["gate", "--kind", "phase", "--a", "0", "--T", "10",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["gamma_measured"]) <= 1e-12
        assert payload["f"] == pytest.approx(1.0, abs=1e-12)

    def test_first_root_amplitude_gives_pi_phase(self, tmp_path):
        out = tmp_path / "gate.json"
        code = run_cli(["gate", "--kind", "phase", "--a", "1.2024", "--T", "100",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(abs(payload["gamma_measured"]) - math.pi) <= 0.05
        assert payload["unitarity_defect"] <= 1e-9

    def test_cphase_gate_diagonal(self, tmp_path):
        out = tmp_path / "gate.json"
        code = run_cli(["gate", "--kind", "cphase", "--a", "1.2024", "--T", "100",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        g = np.array([[complex(re, im) for re, im in row]
                      for row in payload["gate_matrix"]])
        np.testing.assert_allclose(np.abs(np.diag(g)), np.ones(4), atol=1e-9)
        assert abs(abs(np.angle(g[3, 3])) - math.pi) <= 0.05

    def test_stdout_and_out_file_carry_the_same_json_text(self, tmp_path, capsys):
        argv = ["gate", "--kind", "phase", "--a", "0.7605", "--T", "1", "--control",
                '{"kind": "delta_kick_alternating", "dt": 0.05, "p": 0.8, "seed": 3}']
        assert run_cli(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "gate.json"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode("utf-8")
        assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"

    def test_invalid_kind_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gate", "--kind", "hadamard", "--a", "1", "--T", "1"])
        assert exc.value.code == 2

    def test_bad_control_json_exits_2(self, tmp_path, capsys):
        code = run_cli(["gate", "--kind", "phase", "--a", "1", "--T", "1",
                        "--control", '{"kind": "nope"}'])
        assert code == 2

    def test_inline_control_accepted(self, tmp_path):
        out = tmp_path / "g.json"
        code = run_cli(["gate", "--kind", "phase", "--a", "0.7605", "--T", "1",
                        "--control",
                        '{"kind": "positive_square", "J": 100, "dt": 0.005, '
                        '"p": 0, "seed": 1}',
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["f"] > 0.9  # control restores adiabaticity at T=1

    @pytest.mark.parametrize("flag, value", [("--T", "-1"), ("--steps", "-5"),
                                             ("--steps", "0"), ("--a", "30"),
                                             ("--T", "nan"), ("--a", "inf"),
                                             ("--steps", "1" + "0" * 400)])
    def test_bad_number_exits_2_without_traceback(self, flag, value, capsys):
        argv = {"--kind": "phase", "--a": "0.7605", "--T": "1", flag: value}
        code = run_cli(["gate", *(x for kv in argv.items() for x in kv)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid arguments")

    def test_control_missing_kind_is_named(self, capsys):
        code = run_cli(["gate", "--kind", "phase", "--a", "1", "--T", "1",
                        "--control", '{"J": 1}'])
        assert code == 2
        assert "missing required control keys: ['kind']" in capsys.readouterr().err

    def test_overflowing_control_exits_2_without_traceback(self, capsys):
        # J is finite, but J times the random amplitude factor (up to 2) is not
        code = run_cli(["gate", "--kind", "phase", "--a", "0.7", "--T", "1", "--control",
                        '{"kind": "positive_square", "J": 1.7e308, "dt": 0.1, "p": 2}'])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid control")
        assert "not finite" in err[0]

    @pytest.mark.parametrize("extra, prefix", [
        (["--control", '{"kind": "positive_square", "J": 1, "dt": 1e-9}'],
         "error: invalid control"),
        (["--control", '{"kind": "delta_kick_positive", "dt": 1e-9}'],
         "error: invalid control"),
        (["--steps", "100000000"], "error: gate run failed"),
    ], ids=["segments", "kicks", "steps"])
    def test_oversized_run_exits_2_at_once(self, extra, prefix, capsys):
        start = time.perf_counter()
        code = run_cli(["gate", "--kind", "phase", "--a", "0.7", "--T", "1", *extra])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(prefix) and "MAX_STEPS" in err[0]

    def test_period_whose_step_underflows_exits_2_with_one_line(self, capsys):
        # T / DEFAULT_STEPS_PER_PERIOD rounds to 0: the step count is infinite
        code = run_cli(["gate", "--kind", "phase", "--a", "0.7605", "--T", "1e-320"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: gate run failed")
        assert "MAX_STEPS" in err[0]

    @pytest.mark.parametrize("target", ["dir", "file-as-dir"])
    def test_unwritable_out_exits_4(self, target, tmp_path, capsys):
        (tmp_path / "a-file").write_text("")
        out = tmp_path if target == "dir" else tmp_path / "a-file" / "gate.json"
        code = run_cli(["gate", "--kind", "phase", "--a", "0.7", "--T", "1",
                        "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output")

    def test_nan_unitarity_defect_exits_3(self, tmp_path, monkeypatch):
        broken = PropagationResult(U=np.eye(4, dtype=complex), steps_taken=1,
                                   unitarity_defect=math.nan)
        monkeypatch.setattr(cli, "propagate_lab", lambda *a, **k: broken)
        code = run_cli(["gate", "--kind", "phase", "--a", "0", "--T", "1",
                        "--out", str(tmp_path / "g.json")])
        assert code == 3

    def test_undefined_phase_exits_2_without_traceback(self, tmp_path, monkeypatch, capsys):
        # a unitary U that swaps the dark state with an orthogonal state
        spec = GateSpec(GateKind.PHASE, Schedule(0.0, 1.0))
        d = dark_states(spec, 0.0)[-1]
        e = np.eye(4)[0] - np.vdot(d, np.eye(4)[0]) * d
        e /= np.linalg.norm(e)
        swap = np.eye(4) - np.outer(d - e, (d - e).conj())
        moved = PropagationResult(U=swap, steps_taken=1, unitarity_defect=unitarity_defect(swap))
        monkeypatch.setattr(cli, "propagate_lab", lambda *a, **k: moved)
        code = run_cli(["gate", "--kind", "phase", "--a", "0", "--T", "1",
                        "--out", str(tmp_path / "g.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: measured phase is undefined")

    def test_unitarity_violation_exits_3(self, tmp_path, monkeypatch):
        broken = PropagationResult(U=np.eye(4, dtype=complex) * 1.5,
                                   steps_taken=1, unitarity_defect=1.0)
        monkeypatch.setattr(cli, "propagate_lab", lambda *a, **k: broken)
        code = run_cli(["gate", "--kind", "phase", "--a", "0", "--T", "1",
                        "--out", str(tmp_path / "g.json")])
        assert code == 3


class TestSweepCommand:
    def test_runtime_sweep_writes_outputs(self, tmp_path):
        cfg = small_runtime_config(tmp_path)
        out = tmp_path / "out"
        code = run_cli(["sweep", "--experiment", "runtime", "--config", str(cfg),
                        "--out-dir", str(out), "--threads", "1"])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "bundle.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["results.csv", "bundle.json"]
        assert manifest["total_steps"] > 0
        assert "PCG64" in manifest["rng"]

    def test_same_seed_gives_identical_csv_bytes(self, tmp_path):
        cfg = small_runtime_config(tmp_path)
        blobs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert run_cli(["sweep", "--experiment", "runtime", "--config",
                            str(cfg), "--seed", "7", "--out-dir", str(out)]) == 0
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_ignored_thread_flag_and_omitted_experiment_keep_output_bytes(self, tmp_path):
        cfg = small_runtime_config(tmp_path)
        outs = []
        for name, flags in (("plain", ["--experiment", "runtime"]),
                            ("t2", ["--experiment", "runtime", "--threads", "2"]),
                            ("unnamed", [])):
            out = tmp_path / name
            assert run_cli(["sweep", "--config", str(cfg), "--out-dir", str(out),
                            "--plot"] + flags) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert "threads" not in manifest and "experiment" not in manifest
            outs.append(out)
        for name in ("results.csv", "bundle.json", "plot.svg"):
            assert [(out / name).read_bytes() for out in outs[1:]] == [
                (outs[0] / name).read_bytes()] * 2

    def test_cli_import_loads_no_thread_pool(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, holonomy_sim.cli; "
                "print('concurrent.futures' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_plot_polyline_matches_grid_size(self, tmp_path):
        cfg = small_runtime_config(tmp_path, grid=(1.0, 2.0, 4.0, 8.0, 16.0))
        out = tmp_path / "out"
        code = run_cli(["sweep", "--experiment", "runtime", "--config", str(cfg),
                        "--out-dir", str(out), "--plot"])
        assert code == 0
        svg = (out / "plot.svg").read_text()
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 5

    def test_kick_equivalence_report(self, tmp_path):
        cfg = {
            "gate": {"kind": "phase", "a": 0.7605, "T": 1.0},
            "control": {"kind": "delta_kick_positive", "dt": 0.2},
            "sweep_variable": "dt",
            "grid": [0.2],
            "master_seed": 9,
        }
        path = tmp_path / "kick.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli(["sweep", "--experiment", "kick-equivalence",
                        "--config", str(path), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_unitary_diff"] <= 1e-10
        assert report["net_area_positive"] == pytest.approx(4 * math.pi)
        assert report["net_area_alternating"] == pytest.approx(0.0, abs=1e-12)

    def test_plot_with_kick_equivalence_exits_2_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "kick.json"
        path.write_text(_good_config("kick-equivalence"))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", "kick-equivalence", "--config", str(path),
                        "--out-dir", str(out), "--plot"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: --plot charts a sweep; kick-equivalence writes no plot.svg"]
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        cfg["surprise"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(tmp_path / "o")]) == 2

    def test_mismatched_control_kind_exits_2(self, tmp_path):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        cfg["control"] = {"kind": "delta_kick_positive", "dt": 0.1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(out)]) == 2
        assert not out.exists()

    # (experiment, change to its small valid config); each is found while the
    # experiment runs or when the config is built, and must leave no --out-dir
    FAILING_RUNS = {
        "positive-square-dt-above-a-T": ("runtime", lambda c: c.update(control={
            "kind": "positive_square", "J": 1.0, "dt": 0.75})),
        "negative-T": ("runtime", lambda c: c.update(grid=[-1.0, 1.0])),
        "T-underflows-the-step": ("runtime", lambda c: c.update(grid=[1e-320, 1.0])),
        "zero-dt": ("dt-zero-energy", lambda c: c.update(grid=[0.0, 0.25])),
        "dt-above-T": ("dt-zero-energy", lambda c: (c.update(grid=[20.0]),
                                                    c["gate"].update(T=10.0))),
        "dt-not-dividing-T": ("mean-control", lambda c: c["control"].update(dt=0.003)),
        "T-over-dt-overflows": ("mean-control", lambda c: c["control"].update(dt=5e-324)),
        "dt-above-MAX_STEPS": ("mean-control", lambda c: c["control"].update(dt=1e-7)),
    }

    @pytest.mark.parametrize("case", FAILING_RUNS)
    def test_failing_run_exits_2_and_writes_nothing(self, tmp_path, capsys, case):
        experiment, change = self.FAILING_RUNS[case]
        cfg = json.loads(_good_config(experiment))
        change(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", experiment, "--config", str(path),
                        "--out-dir", str(out), "--threads", "2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid config"), err
        assert not out.exists()

    def test_dt_sweep_without_J_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        cfg = json.loads(_good_config("dt-zero-energy"))
        cfg["control"]["J"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", "dt-zero-energy", "--config", str(path),
                        "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: invalid config: a dt sweep needs control.J > 0: its rows test "
            "J dt = 2 pi n"]
        assert not out.exists()

    @pytest.mark.parametrize("grid, kick_count", [([0.2], 4), ([0.3, 0.5], None)])
    def test_kick_equivalence_grid_value_is_the_kick_spacing(self, tmp_path, capsys,
                                                             grid, kick_count):
        cfg = json.loads(_good_config("kick-equivalence"))
        cfg["control"]["dt"] = 0.1
        cfg["grid"] = grid
        path = tmp_path / "kick.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        code = run_cli(["sweep", "--experiment", "kick-equivalence", "--config", str(path),
                        "--out-dir", str(out)])
        if kick_count is None:
            assert code == 2 and not out.exists()
            assert capsys.readouterr().err.strip().splitlines() == [
                "error: invalid config: kick-equivalence takes one grid value, "
                "the kick spacing, got 2"]
        else:
            assert code == 0
            assert json.loads((out / "report.json").read_text())["kick_count"] == kick_count

    def test_experiment_is_optional_and_names_the_four_runs(self):
        parser = cli.build_parser()
        sweep = parser._subparsers._group_actions[0].choices["sweep"]
        action = next(a for a in sweep._actions if a.dest == "experiment")
        assert not action.required and action.default is None
        assert action.choices == ["runtime", "mean-control", "dt-zero-energy",
                                  "kick-equivalence"]

    def test_gate_kind_choices_are_the_gate_kinds(self):
        parser = cli.build_parser()
        gate = parser._subparsers._group_actions[0].choices["gate"]
        action = next(a for a in gate._actions if a.dest == "kind")
        kinds = [kind.value for kind in GateKind]
        assert action.choices == kinds == ["phase", "xgate", "cphase"]

    # each run of a shipped config in the README and in CI names it with an
    # --experiment the CLI accepts: the stubbed run is reached, not a mismatch
    def test_readme_and_ci_run_every_shipped_config_with_an_agreeing_experiment(
            self, tmp_path, capsys, monkeypatch):
        def ran(cfg):
            raise ValueError("ran")

        monkeypatch.setattr(cli, "sweep", ran)
        monkeypatch.setattr(cli, "compare_positive_vs_zero_energy", ran)
        shipped = {p.stem for p in CONFIG_DIR.glob("*.json")}
        readme = (ROOT / "README.md").read_text()
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        for text, pattern in (
                (readme, r"sweep\s+(?:--experiment\s+(\S+)\s+)?--config\s+configs/(\w+)\.json"),
                (ci, r"^\s*check (\S+) (\S+) ")):
            runs = re.findall(pattern, text, re.M)
            assert sorted(config for _, config in runs) == sorted(shipped)
            assert any(experiment for experiment, _ in runs)
            for experiment, config in runs:
                flag = ["--experiment", experiment] if experiment else []
                assert run_cli(["sweep", *flag, "--config", str(CONFIG_DIR / f"{config}.json"),
                                "--out-dir", str(tmp_path / "o")]) == 2
                assert capsys.readouterr().err.splitlines() == ["error: invalid config: ran"]

    def test_unwritable_out_dir_exits_4(self, tmp_path):
        cfg = small_runtime_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = blocker / "sub"
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(cfg),
                        "--out-dir", str(out)]) == 4

    def test_experiment_must_match_sweep_variable(self, tmp_path, capsys):
        cfg = small_runtime_config(tmp_path)
        assert run_cli(["sweep", "--experiment", "dt-zero-energy", "--config",
                        str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: invalid config: experiment dt-zero-energy got a runtime config "
            "(sweep_variable 'T', no_control train)"]

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_non_positive_thread_count_exits_2(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        argv = ["sweep", "--experiment", "runtime", "--config",
                str(small_runtime_config(tmp_path, grid=(1.0,))), "--out-dir", str(out)]
        assert run_cli(argv + ["--threads", flag]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: --threads must be >= 1, got {flag}"]
        assert not out.exists()

    @pytest.mark.parametrize("where, field", [("config", "master_seed"),
                                              ("argv", "master_seed"),
                                              ("control", "control seed")])
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys, where, field):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        argv = ["--seed", "-1"] if where == "argv" else []
        if where == "config":
            cfg["master_seed"] = -1
        elif where == "control":
            cfg["control"]["seed"] = -1
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(out)] + argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: invalid config: {field} must be >= 0, got -1"]
        assert not out.exists()

    def test_physical_four_sweep_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        for couplings in ({}, {"j12": 1.0, "j13": 0.5}):
            cfg["gate"] = {"kind": "physical_four", "a": 0.0, "T": 1.0, **couplings}
            path = tmp_path / "p4.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / "o"
            assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                            "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: invalid config")
            assert "physical_four" in err[0]
            assert not out.exists()

    def test_sweep_runs_on_one_thread_by_default(self, tmp_path, monkeypatch):
        def start(thread):
            raise AssertionError(f"sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", start)
        out = tmp_path / "out"
        assert run_cli(["sweep", "--experiment", "runtime", "--config",
                        str(small_runtime_config(tmp_path)), "--out-dir", str(out)]) == 0
        assert "threads" not in json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("couplings", [{"j12": 1.0}, {"j12": 1.0, "j13": 0.5}])
    def test_gate_couplings_are_unknown_keys(self, tmp_path, capsys, couplings):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        cfg["gate"].update(couplings)
        path = tmp_path / "j.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: invalid config: unknown gate keys: {sorted(couplings)}"]
        assert not out.exists()

    def test_output_schemas_are_pinned(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["sweep", "--experiment", "runtime", "--config",
                        str(small_runtime_config(tmp_path, grid=(1.0,))),
                        "--out-dir", str(out), "--threads", "1"]) == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == ("x,f_mean,f_min,f_max,gamma_measured_mean,gamma_ideal,"
                          "overlap_mean,resonant,nearest_n,seed_base")
        bundle = json.loads((out / "bundle.json").read_text())
        assert list(bundle) == ["config", "realizations", "revision", "rng", "rows",
                                "total_steps"]
        assert list(bundle["rows"][0]) == sorted(header.split(","))
        assert list(bundle["realizations"][0]) == [
            "f", "gamma_measured", "grid_index", "mean_control_measured", "overlap_abs",
            "realization_index", "seed", "steps", "unitarity_defect", "x"]
        kick = {"gate": {"kind": "phase", "a": 0.7605, "T": 1.0},
                "control": {"kind": "delta_kick_positive", "dt": 0.5},
                "sweep_variable": "dt", "grid": [0.5]}
        path = tmp_path / "kick.json"
        path.write_text(json.dumps(kick))
        assert run_cli(["sweep", "--experiment", "kick-equivalence", "--config", str(path),
                        "--out-dir", str(tmp_path / "kick")]) == 0
        report = json.loads((tmp_path / "kick" / "report.json").read_text())
        assert list(report) == ["f_alternating", "f_positive", "kick_count",
                                "max_unitary_diff", "net_area_alternating",
                                "net_area_positive"]

    def test_shipped_runtime_config_reaches_adiabatic_plateau(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["sweep", "--experiment", "runtime",
                        "--config", str(CONFIG_DIR / "runtime.json"),
                        "--out-dir", str(out), "--threads", "2"])
        assert code == 0
        lines = (out / "results.csv").read_text().strip().splitlines()[1:]
        xs = [float(l.split(",")[0]) for l in lines]
        fs = [float(l.split(",")[1]) for l in lines]
        assert len(lines) == 40
        assert xs == sorted(xs) and xs[-1] == pytest.approx(100.0)
        assert fs[-1] >= 0.99
        # broad upward trend from the nonadiabatic end to the plateau
        assert np.mean(fs[-5:]) > np.mean(fs[:5]) + 0.3


# (input, key, raw JSON value, text the one-line error must contain)
BAD_JSON_VALUES = [
    ("config", "grid", "[1.0, NaN]", "NaN"),
    ("config", "gate", '{"kind": "phase", "a": 0.7605, "T": Infinity}', "Infinity"),
    ("config", "grid", "[1.0, 1e999]", "grid value must be finite"),
    ("config", "grid", "[1.0, 1" + "0" * 400 + "]", "grid value must be finite"),
    ("config", "realizations", "2.7", "realizations must be an integer"),
    ("config", "master_seed", "1.5", "master_seed must be an integer"),
    ("config", "realizations", "100000000000",
     "3 grid values x 100000000000 realizations need more steps than the cap MAX_STEPS"),
    ("config", "control", '{"kind": "no_control", "seed": 0.5}',
     "control.seed must be an integer"),
    ("config", "policy", '{"substeps_per_segment": 20.5}',
     "policy.substeps_per_segment must be an integer"),
    ("config", "gate", "5", "gate must be a JSON object"),
    ("config", "grid", "[1.0, null]", "NoneType"),
    ("config", "grid", '"123"', "grid must be a JSON array"),
    ("config", "gate", '{"kind": "phase", "a": "0.7605", "T": 1.0}',
     "gate.a must be a number"),
    ("config", "grid", '[1.0, "3"]', "grid value must be a number"),
    ("config", "realizations", '"3"', "realizations must be a number"),
    ("config", "realizations", "true", "realizations must be a number"),
    ("config", "policy", '{"max_step": false}', "policy.max_step must be a number"),
    ("control", "J", "NaN", "NaN"),
    ("control", "dt", "-Infinity", "-Infinity"),
    ("control", "seed", "1.5", "control.seed must be an integer"),
    ("control", "J", '"100"', "control.J must be a number"),
    ("control", "seed", "true", "control.seed must be a number"),
    ("control", "seed", "-1", "control seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("where, key, raw, message", BAD_JSON_VALUES)
def test_bad_json_values_exit_2(tmp_path, capsys, where, key, raw, message):
    if where == "config":
        base = json.loads(small_runtime_config(tmp_path).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, key: "@"}).replace('"@"', raw))
        argv = ["sweep", "--experiment", "runtime", "--config", str(path),
                "--out-dir", str(tmp_path / "o")]
    else:
        control = {"kind": "positive_square", "J": 100, "dt": 0.01, key: "@"}
        argv = ["gate", "--kind", "phase", "--a", "1", "--T", "1",
                "--control", json.dumps(control).replace('"@"', raw)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid")
    assert message in err[0]


SQUARE_AXES = "'T' or 'dt' or 'p' or 'J'"
KICK = {"kind": "delta_kick_positive", "dt": 0.25}
# (sweep_variable, control, the axes its kind takes): pairs the axis rule
# rejects when the config is parsed
AXIS_REJECTIONS = {
    "mean_control-zero-energy": ("mean_control", {"kind": "zero_energy_alternating",
                                                  "J": 25.1, "dt": 0.25}, SQUARE_AXES),
    "dt-no-control": ("dt", {"kind": "no_control"}, "'T'"),
    "p-no-control": ("p", {"kind": "no_control"}, "'T'"),
    "J-no-control": ("J", {"kind": "no_control"}, "'T'"),
    "T-kicks": ("T", KICK, "'dt'"),
    "p-kicks": ("p", {**KICK, "kind": "delta_kick_alternating"}, "'dt'"),
    "J-kicks": ("J", KICK, "'dt'"),
    "mean_control-kicks": ("mean_control", KICK, "'dt'"),
    "unknown-axis": ("x", {"kind": "positive_square", "J": 1.0, "dt": 0.25},
                     SQUARE_AXES + " or 'mean_control'"),
}


@pytest.mark.parametrize("case", AXIS_REJECTIONS)
def test_an_axis_the_kind_does_not_read_exits_2_naming_its_axes(tmp_path, capsys, case):
    variable, control, axes = AXIS_REJECTIONS[case]
    cfg = {**json.loads(_good_config(None)), "sweep_variable": variable, "control": control,
           "grid": [0.5]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: invalid config: sweep_variable {variable!r} applies to ")
    assert err[0].endswith(f"; a {control['kind']} train takes {axes}")
    assert not out.exists()


# (sweep_variable, control, gate T, grid, the error): each axis checks the
# dt and T of every grid point when the config is parsed, with the message
# generate_segments gives when it lays out a train
DT_NOT_BELOW_T = {
    "T": ("T", {"kind": "positive_square", "J": 1.0, "dt": 0.75}, 1.0, [0.5, 1.0],
          "dt 0.75 must be smaller than T 0.5"),
    "dt": ("dt", {"kind": "zero_energy_alternating", "J": 25.1, "dt": 0.25}, 10.0,
           [0.25, 10.0], "dt 10.0 must be smaller than T 10.0"),
    "p": ("p", {"kind": "positive_square", "J": 1.0, "dt": 1.0}, 1.0, [0.5],
          "dt 1.0 must be smaller than T 1.0"),
    "J": ("J", {"kind": "zero_energy_alternating", "dt": 2.0}, 1.0, [1.0, 2.0],
          "dt 2.0 must be smaller than T 1.0"),
    "mean_control": ("mean_control", {"kind": "positive_square", "dt": 1.0}, 1.0, [0.0, 40.0],
                     "dt 1.0 must be smaller than T 1.0"),
    "kick-spacing": ("dt", {"kind": "delta_kick_alternating", "dt": 0.25}, 1.0, [1.5],
                     "dt 1.5 must be smaller than T 1.0"),
}


@pytest.mark.parametrize("case", DT_NOT_BELOW_T)
def test_a_grid_point_with_dt_not_below_T_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                                case):
    variable, control, T, grid, message = DT_NOT_BELOW_T[case]
    cfg = {**json.loads(_good_config(None)), "sweep_variable": variable, "control": control,
           "grid": grid}
    cfg["gate"]["T"] = T
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for run in ("sweep", "compare_positive_vs_zero_energy"):
        monkeypatch.setattr(cli, run, lambda *args, **kwargs: pytest.fail("the config ran"))
    out = tmp_path / "o"
    assert run_cli(["sweep", "--config", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: invalid config: {message}"]
    assert not out.exists()


def test_shared_parser_carries_no_state_between_commands(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    config = CONFIG_DIR / "runtime.json"

    def gate(out):
        assert run_cli(["gate", "--kind", "cphase", "--a", "0.7605", "--T", "1",
                        "--steps", "64", "--out", str(out)]) == 0
        return out.read_bytes()

    def sweep(name, *extra):
        out = tmp_path / name
        assert run_cli(["sweep", "--config", str(config), "--out-dir", str(out), *extra]) == 0
        return json.loads((out / "manifest.json").read_text())["config"]["master_seed"]

    first = gate(tmp_path / "gate-1.json")
    assert sweep("seeded", "--seed", "5") == 5
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--bogus", "--config", str(config),
                 "--out-dir", str(tmp_path / "bogus")])
    assert exc.value.code == 2 and not (tmp_path / "bogus").exists()
    assert sweep("unseeded") == json.loads(config.read_text())["master_seed"]
    assert gate(tmp_path / "gate-2.json") == first


def _nan_late_dark_states(real):
    def dark_states(spec, t):
        states = real(spec, t)
        return states[:-1] + [np.full_like(states[-1], np.nan)] if t >= 0.5 else states
    return dark_states


def _conjugated(real):
    def propagate(*args, **kwargs):
        result = real(*args, **kwargs)
        return replace(result, U=result.U.conj())
    return propagate


# one name of holonomy_sim.cli broken at a time, and the group that must catch it
SELFTEST_MUTANTS = [
    ("dark_states", _nan_late_dark_states, "dark-state-annihilation"),
    ("propagate_lab", _conjugated, "frame-equivalence"),
    ("propagate_adiabatic", _conjugated, "frame-equivalence"),
    ("integral_C", lambda real: lambda segments, t: t, "resonance-predicate"),
    ("berry_closed_form", lambda real: lambda a: real(a) + 1e-3, "bessel-and-berry"),
]


class TestSelftest:
    def test_selftest_passes_and_lists_groups(self, capsys):
        assert run_cli(["selftest"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "PASS" in l]
        assert len(lines) >= 6

    @pytest.mark.parametrize("name, mutant, group", SELFTEST_MUTANTS,
                             ids=[name for name, _, _ in SELFTEST_MUTANTS])
    def test_a_mutant_fails_its_group(self, monkeypatch, capsys, name, mutant, group):
        monkeypatch.setattr(cli, name, mutant(getattr(cli, name)))
        assert run_cli(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [group, "FAIL"] in [line.split()[:2] for line in lines], lines

    def test_sign_mutation_breaks_dark_state_invariant(self):
        """A flipped coupling sign must be caught by the dark-state check.

        Mirrors the documented mutation test: break one sign in the
        phase-gate generator and the selftest's annihilation invariant
        fails loudly.
        """
        s = Schedule(0.7605, 1.0)
        t = 0.37
        h = gate_hamiltonian(GateSpec(GateKind.PHASE, s), t)
        broken = h.copy()
        broken[1, 2] *= -1.0
        broken[2, 1] *= -1.0
        d1 = np.zeros(4, dtype=complex)
        d1[1] = math.cos(s.theta(t))
        d1[3] = -np.exp(-1j * s.phi(t)) * math.sin(s.theta(t))
        assert np.linalg.norm(h @ d1) <= 1e-14          # healthy generator
        assert np.linalg.norm(broken @ d1) > 1e-2       # mutated one fails


# Argv property test: every command line built from the CLI's own flags and
# values ends in a documented exit code.  Each flag has a pool of ordinary
# fragments and one of odd ones (missing, malformed, non-finite, negative,
# huge); an example breaks one flag, none, or any number of them, so single
# faults deep in a run (an unwritable --out after a valid gate) are drawn as
# often as argparse errors.  Ordinary runs stay small (T <= 2, dt >= 0.25, two
# grid points) and odd sizes are rejected before anything is allocated, so a
# command takes milliseconds.
ODD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-300", "1e-320", "abc", ""]
ODD_COUNTS = ["0", "-3", "1e3", "x", "99999999999", "1" + "0" * 400]
ODD_JSON = ["{", '{"kind":', "[]", "null", "{}", "{'kind': 'no_control'}",
            '{"kind": "no_control"} x', '{"kind": "positive_square", "J": NaN}']
JSON_NUMBERS = st.sampled_from([0, 1, 0.5, 2, 20, 40, -1, 2.5, 1e308, 1e-300, 2 ** 70,
                                math.nan, math.inf, "1", True, None])
# control objects with any subset of their fields
CONTROLS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["no_control", "positive_square", "zero_energy_alternating",
                             "delta_kick_positive", "delta_kick_alternating", "nope"]),
    "J": JSON_NUMBERS, "dt": st.sampled_from([0.25, 0.5, 0, -1, 1e-300, 1e308, math.nan]),
    "p": JSON_NUMBERS, "seed": JSON_NUMBERS})
ODD_CONFIGS = st.fixed_dictionaries({
    "gate": st.fixed_dictionaries({
        "kind": st.sampled_from(["phase", "xgate", "cphase", "physical_four"]),
        "a": st.sampled_from([0.7605, 0, -1, 30, math.nan]),
        "T": st.sampled_from([0.5, 1.0, 2.0, 0, -1, 1e308, 1e-320, math.inf])}),
    "control": CONTROLS | JSON_NUMBERS,
    "sweep_variable": st.sampled_from(["T", "mean_control", "dt", "x"]),
    "grid": st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 40.0, 0, -1, 1e-300, 1e-320,
                                      1e308]), max_size=3),
    "realizations": st.sampled_from([1, 2, 0, -1, 1.5, "1"]),
    "master_seed": JSON_NUMBERS,
    "policy": st.fixed_dictionaries({
        "substeps_per_segment": st.sampled_from([20, 25, 5, 20.5, 10 ** 9]),
        "max_step": st.sampled_from([None, 0.05, 1e-12, 0, -1])}),
}, optional={"extra": JSON_NUMBERS}).map(json.dumps) | st.sampled_from(ODD_JSON)
GOOD_CONTROLS = ['{"kind": "no_control"}',
                 '{"kind": "positive_square", "J": 40, "dt": 0.25, "p": 0.5, "seed": 1}',
                 '{"kind": "zero_energy_alternating", "J": 25.1, "dt": 0.25, "p": 0.5}',
                 '{"kind": "delta_kick_alternating", "dt": 0.25, "p": 0.5, "seed": 2}']


def _good_config(experiment):
    """A small valid config for an experiment."""
    variable, control, grid = {
        "runtime": ("T", {"kind": "no_control"}, [0.5, 1.0]),
        "mean-control": ("mean_control", {"kind": "positive_square", "J": 0.0, "dt": 0.25,
                                          "p": 0.5, "seed": 0}, [0.0, 40.0]),
        "dt-zero-energy": ("dt", {"kind": "zero_energy_alternating", "J": 25.1, "dt": 0.25,
                                  "p": 0.5, "seed": 0}, [0.25, 0.5]),
        "kick-equivalence": ("dt", {"kind": "delta_kick_positive", "J": 0.0, "dt": 0.25,
                                    "p": 0.5, "seed": 0}, [0.25]),
    }.get(experiment, ("T", {"kind": "no_control"}, [1.0]))
    return json.dumps({"gate": {"kind": "phase", "a": 0.7605, "T": 1.0}, "control": control,
                       "sweep_variable": variable, "grid": grid, "realizations": 2,
                       "master_seed": 3,
                       "policy": {"substeps_per_segment": 20, "max_step": None}})


def _values(flag, values):
    return [[flag, v] for v in values]


@st.composite
def cli_argvs(draw, workdir):
    command = draw(st.sampled_from(["gate", "sweep", "gate", "sweep", "--version",
                                    "bogus", None]))
    if command not in ("gate", "sweep"):
        return [] if command is None else [command]
    config = workdir / "config.json"
    experiment = draw(st.sampled_from(["runtime", "mean-control", "dt-zero-energy",
                                       "kick-equivalence"]))
    # flag -> (ordinary fragments, odd fragments); [] leaves the flag out
    if command == "gate":
        flags = {
            "--kind": (_values("--kind", ["phase", "xgate", "cphase"]),
                       [[], ["--kind"], ["--kind", "physical_four"]]),
            "--a": (_values("--a", ["0", "0.5", "0.7605", "2"]),
                    [[]] + _values("--a", ODD_NUMBERS + ["30"])),
            "--T": (_values("--T", ["0.5", "1", "2"]), [[]] + _values("--T", ODD_NUMBERS)),
            "--control": ([[]] + _values("--control", GOOD_CONTROLS),
                          [["--control"], ["--control", str(workdir / "missing.json")]]
                          + _values("--control", ODD_JSON)),
            "--steps": ([[]] + _values("--steps", ["1", "64", "4096"]),
                        _values("--steps", ODD_COUNTS)),
            "--out": ([[], ["--out", str(workdir / "gate.json")]],
                      [["--out", str(workdir / "a-file" / "gate.json")],
                       ["--out", str(workdir)]]),
        }
    else:
        flags = {
            "--experiment": ([["--experiment", experiment], []],
                             [["--experiment", "nope"]]),
            "--config": ([["--config", str(config)]],
                         [[], ["--config", str(workdir / "missing.json")],
                          ["--config", str(config), "odd"]]),
            "--seed": ([[]] + _values("--seed", ["0", "7"]), _values("--seed", ODD_COUNTS)),
            "--plot": ([[], ["--plot"]], [["--plot", "yes"]]),
            "--out-dir": ([["--out-dir", str(workdir / "out")]],
                          [[], ["--out-dir", str(workdir / "a-file")],
                           ["--out-dir", str(workdir / "a-file" / "sub")]]),
            "--threads": ([[]] + _values("--threads", ["1", "2"]),
                          _values("--threads", ["0", "-1", "1.5", "x"])),
        }
    broken = draw(st.sampled_from([None, "any", *flags]))
    argv = [command]
    for flag, (ordinary, odd) in flags.items():
        pool = odd if flag == broken else ordinary + odd if broken == "any" else ordinary
        fragment = draw(st.sampled_from(pool))
        if fragment[-1:] == ["odd"]:  # a config file with odd content
            config.write_text(draw(ODD_CONFIGS))
            fragment = fragment[:-1]
        argv += fragment
    if command == "sweep" and not config.exists():
        config.write_text(_good_config(experiment))
    return argv


_EXAMPLES = itertools.count()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_ends_in_a_documented_exit_code(data, tmp_path, capsys):
    workdir = tmp_path / f"example-{next(_EXAMPLES)}"
    workdir.mkdir()
    (workdir / "a-file").write_text("a regular file where a directory is expected\n")
    argv = data.draw(cli_argvs(workdir), label="argv")
    try:
        code = run_cli(argv)
    except SystemExit as exc:  # argparse: usage errors and --version
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
