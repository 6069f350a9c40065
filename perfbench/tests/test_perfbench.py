"""Tests of the benchmark itself: determinism, trace accounting, names, failures.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import offo.solver  # noqa: E402
from offo import bench, problems, scaling, solver  # noqa: E402
from perfbench import run, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL_DESK = workloads.Workload(
    "small-desk",
    lambda seed: workloads.desk_setup(seed, [("beale", 2), ("tridia", 10), ("arglinb", 10)]),
    workloads.desk_units,
)


def _pass(units):
    recorder = tracing.SolveRecorder()
    patcher = tracing.Patcher()
    recorder.install(patcher)
    try:
        return run.run_pass(units, recorder)
    finally:
        patcher.restore()


@pytest.mark.parametrize("wl", [SMALL_DESK, workloads.WORKLOADS["certify"]], ids=lambda w: w.name)
def test_same_seed_gives_identical_counts(wl, tmp_path):
    def once():
        passes = run.timed_passes(tracing, wl, wl.setup(3), str(tmp_path), seconds=0)
        m = run.end_to_end(passes, (1.0, 1.0))
        return m["grad_evals"], m["obj_evals"], m["solved_pct"]

    first = once()
    assert first == once()
    assert first[0][0] > 0


def test_self_times_sum_to_at_most_traced_wall(tmp_path):
    original = offo.solver.astr1_run
    tracer, p, traced_s = run.traced_pass(tracing, SMALL_DESK, 0, str(tmp_path))
    assert offo.solver.astr1_run is original and bench.astr1_run is original
    self_ns = sum(ns for _, ns in tracer.layer_times().values())
    assert 0 < self_ns <= traced_s * 1e9
    layer = tracing.layer_metrics(tracer, p.solves, traced_s, p.wall_s)
    shares = [v for k, (v, _) in layer.items() if k.endswith(".self_pct")]
    assert 0 < sum(shares) <= 100.0
    assert layer["problems.noise.calls"][0] > 0
    assert layer["sharpness.evaluate.calls"][0] == 0


def test_metric_names_match_the_contract(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(declared) == len(set(declared))
    tracer, p, traced_s = run.traced_pass(tracing, SMALL_DESK, 1, str(tmp_path))
    produced = {**run.end_to_end([p], (1.0, 1.0)), **tracing.layer_metrics(tracer, p.solves, traced_s, traced_s)}
    for name in declared + list(produced):
        assert NAME.fullmatch(name), name
    assert set(declared) <= set(produced)


def test_raising_solve_counts_in_failed_pct():
    spec = bench.METHODS["adagH"]
    cfg = solver.Astr1Config(scaling=scaling.rule_from_name(spec.scaling), model=spec.model, max_iter=3)
    inputs = workloads.LargeInputs(
        problems=[problems.make_problem("helix"), problems.make_problem("tridia", 10)],
        configs={"adagH": cfg},
    )
    p = _pass(workloads.large_units(inputs, ""))
    helix, tridia = p.outcomes
    assert helix["failed"] and "CapabilityError" in helix["why"]
    assert not tridia["failed"]
    assert run.end_to_end([p], (1.0, 1.0))["failed_pct"][0] == pytest.approx(50.0)


def test_failed_output_check_counts_in_failed_pct(monkeypatch):
    monkeypatch.setattr(tracing, "SBOUND_TOL", -1.0)
    inputs = workloads.large_setup(0)
    inputs.problems = [problems.make_problem("tridia", 10)]
    inputs.configs = {"adagrad": inputs.configs["adagrad"]}
    (outcome,) = _pass(workloads.large_units(inputs, "")).outcomes
    assert outcome["failed"] and "step_outside_region" in outcome["why"]


def test_missing_layer_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.setitem(tracing.LAYERS, "solver.gone", ("offo.solver:no_such_function",))
    tracer, p, traced_s = run.traced_pass(tracing, SMALL_DESK, 0, str(tmp_path))
    assert tracer.absent == ["solver.gone"]
    layer = tracing.layer_metrics(tracer, p.solves, traced_s, traced_s)
    assert layer["solver.gone.calls"] == (0, "count")


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
