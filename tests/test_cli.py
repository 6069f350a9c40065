import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from offo import bench
from offo.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_run_writes_trace(tmp_path):
    out = tmp_path / "trace.csv"
    res = invoke("run", "--problem", "tridia", "--n", "6", "--method", "adagrad",
                 "--eps", "1e-4", "--max-iter", "5000", "--trace", str(out))
    assert res.exit_code == 0, res.output
    assert "status=converged" in res.output
    assert out.read_text().startswith("k,normg,f,delta_min,delta_max,gamma,status")


def test_run_noisy_with_seed():
    res = invoke("run", "--problem", "tridia", "--n", "6", "--method", "adagrad",
                 "--eps", "1e-3", "--max-iter", "3000", "--noise", "0.05", "--seed", "2")
    assert res.exit_code == 0, res.output
    assert "status=converged" in res.output


def test_run_sdba():
    res = invoke("run", "--problem", "tridia", "--n", "6", "--method", "sdba",
                 "--eps", "1e-4", "--max-iter", "5000")
    assert res.exit_code == 0, res.output
    # the printed counts are the benchmark record's
    record = bench.run_one("sdba", "tridia", 6, 0.0, 0, 1e-4, 5000)
    counts = dict(re.findall(r"\b([fg]_evals)=(\d+)", res.output))
    assert counts == {"g_evals": str(record.g_evals), "f_evals": str(record.f_evals)}, res.output


def test_run_reports_capability_gap():
    res = invoke("run", "--problem", "helix", "--method", "adagH")
    assert res.exit_code == 1
    assert "status=unsupported (problem 'helix' has no analytic Hessian)" in res.output


@pytest.mark.parametrize("args, message", [
    (("run", "--problem", "rosenbr", "--geometry", "ball"), "--geometry"),
    (("run", "--problem", "nosuch"), "unknown problem 'nosuch'"),
    (("run", "--problem", "woods", "--n", "5"), "problem 'woods' requires n a positive multiple of 4"),
    (("run", "--problem", "rosenbr", "--noise", "1.5"), "noise level must lie in [0, 1)"),
    (("run", "--problem", "rosenbr", "--noise", "0.1", "--seed", "-1"),
     "seed must be a non-negative integer"),
    (("run", "--problem", "rosenbr", "--method", "sdba", "--instrument-f"), "sdba"),
    (("problem", "nosuch"), "unknown problem 'nosuch'"),
    (("run", "--problem", "rosenbr", "--method", "nosuch"), "unknown method 'nosuch'; known:"),
    (("bench", "--problems", "nosuch"), "unknown problem 'nosuch'"),
    (("bench", "--problems", "cube,nosuch"), "unknown problem 'nosuch'"),
    (("bench", "--problems", "cube:x"), "'x'"),
    (("bench", "--methods", "nosuch"), "unknown method 'nosuch'; known:"),
    (("bench", "--noise", "1.5"), "noise level must lie in [0, 1)"),
    (("bench", "--noise", "abc"), "'abc'"),
    (("bench", "--seeds", "0", "--noise", "0.1"), "noisy runs need at least one seed"),
    (("bench", "--problems", ","), "--problems lists nothing"),
    (("bench", "--methods", ","), "--methods lists nothing"),
    (("bench", "--noise", ","), "--noise lists nothing"),
    (("run", "--problem", "rosenbr", "--method", "sdba", "--eps", "-1", "--max-iter", "50"),
     "eps must be positive"),
    (("run", "--problem", "rosenbr", "--method", "sdba", "--max-iter", "0"),
     "max_iter must be positive"),
    (("run", "--problem", "rosenbr", "--method", "adagrad", "--max-iter", "0"),
     "max_iter must be positive"),
    (("bench", "--methods", "sdba", "--eps", "-1"), "eps must be positive"),
    (("bench", "--methods", "sdba", "--max-iter", "0"), "max_iter must be positive"),
    (("sharpness", "--iters", "0"), "K must be positive"),
    (("sharpness", "--mu", "1.5"), "mu must lie in (0, 1)"),
    (("sharpness", "--kind", "thm41", "--omega", "0.1"), "omega"),
    (("bench", "--methods", "sdba", "--jobs", "0"), "jobs must be at least 1"),
    (("bench", "--methods", "sdba", "--jobs", "-2"), "jobs must be at least 1"),
])
def test_bad_input_is_a_usage_error(args, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if args[0] == "bench":
        args += ("--out", "out")
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    error = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(error) == 1 and message in error[0], res.output


def test_error_during_a_run_is_not_a_usage_error(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("raised by the run")

    monkeypatch.setattr(bench, "solve", fail)
    with pytest.raises(ValueError, match="raised by the run"):
        invoke("run", "--problem", "rosenbr")


def test_bench_checks_every_input_before_the_first_run(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "run_one", fail)
    res = invoke("bench", "--methods", "adagrad", "--problems", "cube,nosuch",
                 "--out", str(tmp_path / "out"))
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "out").exists()


def test_verify_lambert(tmp_path):
    report = tmp_path / "report.json"
    res = invoke("verify", "--suite", "lambert", "--report", str(report))
    assert res.exit_code == 0, res.output
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert data["tail_bound_ok"] is True


def test_verify_series():
    res = invoke("verify", "--suite", "series")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["passed"] is True


def test_sharpness_csv_and_replay(tmp_path):
    out = tmp_path / "seq.csv"
    res = invoke("sharpness", "--kind", "thm31", "--mu", "0.5", "--eta", "0.01",
                 "--iters", "50", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert "matched=True" in res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,x,f,g"
    assert len(lines) == 52


def test_sharpness_thm41():
    res = invoke("sharpness", "--kind", "thm41", "--iters", "50", "--no-replay")
    assert res.exit_code == 0, res.output
    assert "admissibility margins" in res.output


def test_bench_small_matrix(tmp_path):
    res = invoke("bench", "--methods", "adagrad,maxg", "--problems", "cube,beale",
                 "--noise", "0", "--seeds", "1", "--eps", "1e-3",
                 "--max-iter", "2000", "--out", str(tmp_path))
    assert res.exit_code == 0, res.output
    assert (tmp_path / "records.csv").exists()
    assert (tmp_path / "aggregate.json").exists()


def test_problem_dump():
    res = invoke("problem", "rosenbr", "--n", "2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data == {"name": "rosenbr", "n": 2, "x0": [-1.2, 1.0], "f_low": 0.0}


def test_readme_python_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
