import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import holonomy_sim.cli as cli
from holonomy_sim.hamiltonians import (GateKind, GateSpec, Schedule, dark_states,
                                       gate_hamiltonian)
from holonomy_sim.propagation import PropagationResult
from holonomy_sim.qcore import unitarity_defect

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_thread_count_does_not_change_csv_bytes(self, tmp_path):
        cfg = small_runtime_config(tmp_path)
        blobs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            assert run_cli(["sweep", "--experiment", "runtime", "--config",
                            str(cfg), "--out-dir", str(out),
                            "--threads", threads]) == 0
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

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

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        cfg["surprise"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(tmp_path / "o")]) == 2

    def test_mismatched_control_kind_exits_2(self, tmp_path):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        cfg["control"] = {"kind": "positive_square", "J": 1.0, "dt": 0.1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(tmp_path / "o")]) == 2

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
        assert "expects sweep_variable 'dt'" in capsys.readouterr().err

    def test_bad_thread_env_var_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HOLONOMY_SIM_THREADS", "abc")
        cfg = small_runtime_config(tmp_path, grid=(1.0,))
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(cfg),
                        "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: HOLONOMY_SIM_THREADS must be an integer, got 'abc'"]

    @pytest.mark.parametrize("flag, env, message", [
        ("0", None, "--threads must be >= 1, got 0"),
        ("-3", None, "--threads must be >= 1, got -3"),
        (None, "0", "HOLONOMY_SIM_THREADS must be >= 1, got 0"),
    ])
    def test_non_positive_thread_count_exits_2(self, tmp_path, monkeypatch, capsys,
                                               flag, env, message):
        monkeypatch.delenv("HOLONOMY_SIM_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("HOLONOMY_SIM_THREADS", env)
        out = tmp_path / "o"
        argv = ["sweep", "--experiment", "runtime", "--config",
                str(small_runtime_config(tmp_path, grid=(1.0,))), "--out-dir", str(out)]
        assert run_cli(argv + (["--threads", flag] if flag else [])) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_physical_four_sweep_exits_2_before_any_output(self, tmp_path, capsys):
        cfg = json.loads(small_runtime_config(tmp_path).read_text())
        cfg["gate"] = {"kind": "physical_four", "a": 0.0, "T": 1.0, "j12": 1.0, "j13": 0.5}
        path = tmp_path / "p4.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["sweep", "--experiment", "runtime", "--config", str(path),
                        "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid config")
        assert "physical_four" in err[0]
        assert not out.exists()

    def test_env_var_thread_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOLONOMY_SIM_THREADS", "2")
        assert cli._resolve_threads(None) == 2
        monkeypatch.delenv("HOLONOMY_SIM_THREADS")
        assert cli._resolve_threads(3) == 3

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


class TestSelftest:
    def test_selftest_passes_and_lists_groups(self, capsys):
        assert run_cli(["selftest"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "PASS" in l]
        assert len(lines) >= 6

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
