"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run([sys.executable, os.path.join(bench, "run.py"), "--size", "tiny",
                           "--seconds", "0.5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def results(proc):
    """The JSON result line of each workload the run printed."""
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_the_workloads_and_layer_metrics(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric_with_its_unit(spec, trace, key):
    proc = run("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    printed = results(proc)
    assert len(printed) == len(spec["workloads"])
    expected = {m["name"]: m["unit"] for m in spec[key]}
    for res in printed:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if trace:
        for name in expected:
            assert name in proc.stdout


def test_perturbed_reference_fails_operations(tmp_path):
    ref_dir = tmp_path / "reference"
    shutil.copytree(os.path.join(BENCH, "reference"), ref_dir)
    path = workloads.reference_path(str(ref_dir), "mean-control", "tiny")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    stored["outputs"]["realizations"][0]["f"] += 1e-3
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    proc = run("--workload", "mean-control", "--reference-dir", str(ref_dir))
    (res,) = results(proc)
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["pass_frac"]["value"] < 1.0
    assert "reference" in proc.stdout


def test_seed_without_reference_passes_on_invariants():
    seed = workloads.DEFAULT_SEED + 7
    proc = run("--workload", "kick-equivalence", "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr
    (res,) = results(proc)
    assert res["correct"] and res["failed"] == 0
    assert "invariants only" in proc.stdout
    assert f'"seed": {seed}' in proc.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "cphase-gate", cwd=tmp_path, bench=str(tmp_path / "bench"))
    assert proc.returncode != 0
    assert results(proc) == []
