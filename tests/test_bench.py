import dataclasses
import json

import numpy as np
import pytest

import offo
from offo import bench, hessian
from offo.bench import (
    METHODS,
    RunRecord,
    emit,
    perf_profile,
    run_matrix,
    run_one,
    success_rate,
)
from offo.scaling import RULES, rule_from_name
from offo.solver import astr1_run


def rec(method, problem, iters, status="converged", seed=0, noise=0.0):
    return RunRecord(
        method=method, problem=problem, n=2, noise=noise, seed=seed, eps=1e-6,
        status=status, iterations=iters, final_normg=1e-7 if status == "converged" else 1.0,
        f_evals=0, g_evals=iters, h_evals=0,
    )


def test_method_registry_covers_all_table_variants():
    expected = {
        "adagnorm", "adagrad", "adamnorm", "adam", "maxgnorm", "maxg",
        "adagbb", "adagbfgs3", "adagH", "adagrads", "adams", "maxgs",
        "adagbbs", "adagbfgs3s", "adagHs", "sdba",
    }
    assert expected == set(METHODS)


def test_methods_use_the_ball_exactly_for_aggregated_rules():
    for spec in METHODS.values():
        if not spec.is_sdba:
            assert (spec.geometry == "ball") == rule_from_name(spec.scaling).aggregated


def test_every_name_is_a_key_of_one_table_and_every_export_resolves():
    assert list(hessian.MODELS) == ["none", "bb", "lbfgs3", "exact"]
    for spec in METHODS.values():
        assert spec.model in hessian.MODELS, spec
        # sdba alone has no scaling rule
        assert spec.is_sdba or spec.scaling in RULES, spec
    for name in offo.__all__:
        getattr(offo, name)


def test_matrix_cardinality():
    records = run_matrix(
        ["adagrad", "maxg"], [("cube", 2), ("beale", 2), ("tridia", 4)],
        [0.0], [0], eps=1e-3, max_iter=500,
    )
    assert len(records) == 6


def test_matrix_determinism_and_parallel_equivalence():
    args = (["adagrad", "sdba"], [("cube", 2), ("tridia", 4)], [0.0, 0.1], [0, 1])
    kw = dict(eps=1e-3, max_iter=300)
    a = run_matrix(*args, **kw)
    b = run_matrix(*args, **kw)
    assert a == b
    c = run_matrix(*args, **kw, jobs=2)
    assert a == c


def test_noise_free_run_is_computed_once_and_copied_per_seed(monkeypatch):
    calls = []

    def counted(problem, cfg):
        calls.append(problem.name)
        return astr1_run(problem, cfg)

    monkeypatch.setattr(bench, "astr1_run", counted)
    problems = [("cube", 2), ("tridia", 4)]
    kw = dict(eps=1e-3, max_iter=300)
    records = run_matrix(["adagrad"], problems, [0.0], range(5), **kw)
    assert sorted(calls) == ["cube", "tridia"]
    calls.clear()
    expected = [run_one("adagrad", name, n, 0.0, seed, **kw)
                for name, n in problems for seed in range(5)]
    assert len(calls) == 10
    assert records == expected
    assert run_matrix(["adagrad"], problems, [0.0], range(5), **kw, jobs=2) == expected


def test_noisy_runs_differ_by_seed_but_replay_identically():
    r1 = run_one("adagrad", "cube", 2, 0.2, 7, 1e-3, max_iter=300)
    r2 = run_one("adagrad", "cube", 2, 0.2, 7, 1e-3, max_iter=300)
    r3 = run_one("adagrad", "cube", 2, 0.2, 8, 1e-3, max_iter=300)
    assert r1 == r2
    assert r1.final_normg != r3.final_normg


def test_run_record_status_consistency():
    records = run_matrix(["adagrad"], [("tridia", 6)], [0.0], [0], eps=1e-4, max_iter=2000)
    r = records[0]
    assert r.converged == (r.final_normg <= r.eps)
    assert r.iterations <= 2000


def test_offo_records_make_no_objective_calls():
    records = run_matrix(
        ["adagrad", "adagbb", "maxg", "adamnorm"], [("tridia", 6), ("cube", 2)],
        [0.0], [0], eps=1e-3, max_iter=500,
    )
    for r in records:
        assert r.f_evals == 0, r.method


def test_profile_hand_example():
    # method a twice as fast as b on the single problem, both succeed
    records = [rec("a", "p1", 100), rec("b", "p1", 200)]
    rep = perf_profile(records)
    assert rep.pi["a"] == pytest.approx(1.0, abs=1e-9)
    assert rep.pi["b"] == pytest.approx(0.96, abs=1e-9)
    assert rep.rho["a"] == 100.0 and rep.rho["b"] == 100.0


def test_profile_all_solved_by_single_method():
    records = [rec("a", f"p{i}", 10 + i) for i in range(4)]
    rep = perf_profile(records)
    assert rep.pi["a"] == pytest.approx(1.0)
    assert rep.rho["a"] == 100.0


def test_profile_method_failing_everywhere():
    records = [rec("a", "p1", 10), rec("b", "p1", 10, status="max_iter")]
    rep = perf_profile(records)
    assert rep.pi["b"] == 0.0
    assert rep.rho["b"] == 0.0


def test_profile_monotone_and_pi_below_rho():
    rng = np.random.default_rng(0)
    records = []
    for m in ("a", "b", "c"):
        for i in range(8):
            ok = rng.random() > 0.3
            records.append(
                rec(m, f"p{i}", int(rng.integers(5, 500)),
                    status="converged" if ok else "max_iter")
            )
    rep = perf_profile(records)
    for m in rep.methods:
        ts, vals = rep.curves[m]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert rep.pi[m] <= rep.rho[m] / 100.0 + 1e-12
        if vals:
            assert vals[-1] <= rep.rho[m] / 100.0 + 1e-12


def test_profile_unsolved_rows_count_in_denominator():
    records = [
        rec("a", "p1", 10), rec("b", "p1", 20),
        rec("a", "p2", 10, status="max_iter"), rec("b", "p2", 10, status="max_iter"),
    ]
    rep = perf_profile(records)
    assert rep.rho["a"] == 50.0
    assert rep.pi["a"] == pytest.approx(0.5, abs=1e-9)
    assert rep.pi["a"] <= rep.rho["a"] / 100.0


def test_profile_requires_single_noise_level():
    with pytest.raises(ValueError):
        perf_profile([rec("a", "p1", 10), rec("a", "p1", 10, noise=0.1, seed=1)])
    with pytest.raises(ValueError):
        perf_profile([])


def test_noise_zero_rho_agrees_single_vs_averaged():
    single = run_matrix(["adagrad", "sdba"], [("cube", 2), ("beale", 2)],
                        [0.0], [0], eps=1e-3, max_iter=1000)
    averaged = run_matrix(["adagrad", "sdba"], [("cube", 2), ("beale", 2)],
                          [0.0], list(range(10)), eps=1e-3, max_iter=1000)
    for m in ("adagrad", "sdba"):
        assert success_rate(single, m) == success_rate(averaged, m)


def test_emit_files_and_json_roundtrip(tmp_path):
    records = [rec("a", "p1", 100), rec("b", "p1", 200),
               rec("a", "p2", 50), rec("b", "p2", 60, status="max_iter")]
    rep = perf_profile(records)
    paths = emit(rep, records, tmp_path, fmt="json")
    agg = (tmp_path / "aggregate.csv").read_text().strip().splitlines()
    assert agg[0] == "method,pi,rho"
    pis = [float(line.split(",")[1]) for line in agg[1:]]
    assert pis == sorted(pis, reverse=True)
    rec_header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert rec_header.startswith("method,problem,n,noise,seed,eps,status,iterations")
    with open(tmp_path / "aggregate.json") as fh:
        loaded = json.load(fh)
    # JSON holds each curve's (ts, rhos) pair as a list
    assert loaded == {**dataclasses.asdict(rep),
                      "curves": {m: list(c) for m, c in rep.curves.items()}}
    assert (tmp_path / "profile.csv").exists()
    assert all(str(p).startswith(str(tmp_path)) for p in paths)


def test_records_csv_rows(tmp_path):
    records = [
        rec("a", "p1", 100, noise=0.15),
        RunRecord(method="adagH", problem="helix", n=3, noise=0.15, seed=1, eps=1e-3,
                  status="unsupported", iterations=0, final_normg=np.nan,
                  f_evals=0, g_evals=0, h_evals=0),
        RunRecord(method="sdba", problem="p1", n=2, noise=0.15, seed=0, eps=1e-3,
                  status="max_iter", iterations=12, final_normg=0.123456789,
                  f_evals=5, g_evals=7, h_evals=0),
    ]
    emit(perf_profile(records), records, tmp_path)
    assert (tmp_path / "records.csv").read_text().splitlines() == [
        "method,problem,n,noise,seed,eps,status,iterations,final_normg,f_evals,g_evals,h_evals",
        "a,p1,2,0.15,0,1e-06,converged,100,1e-07,0,100,0",
        "adagH,helix,3,0.15,1,0.001,unsupported,0,nan,0,0,0",
        "sdba,p1,2,0.15,0,0.001,max_iter,12,0.123457,5,7,0",
    ]


@pytest.mark.parametrize("bad", [
    dict(methods=["nosuch", "adagrad"]),
    dict(methods=["adagrad", "sdba", "nosuch"]),
    dict(problems=[("nosuch", 3), ("rosenbr", 10)]),
    dict(problems=[("rosenbr", 10), ("nosuch", 3)]),
    dict(problems=[("rosenbr", 10), ("woods", 10)]),
    dict(problems=[("rosenbr", 10.5), ("cube", 2)]),
    dict(noise=[1.5, 0.0]),
    dict(noise=[0.0, 0.1, 1.5]),
    dict(seeds=[-1, 0]),
    dict(seeds=[0, 1, -1]),
    dict(noise=[0.0, 0.1], seeds=[]),
    dict(jobs=0),
])
def test_run_matrix_checks_the_whole_matrix_before_its_first_run(bad, monkeypatch):
    runs = []

    def counted(*args):
        runs.append(args)
        return run_one(*args)

    monkeypatch.setattr(bench, "run_one", counted)
    matrix = dict(methods=["adagrad", "sdba"], problems=[("rosenbr", 10), ("cube", 2)],
                  noise=[0.0, 0.1], seeds=[0, 1])
    matrix.update(bad)
    with pytest.raises((ValueError, KeyError)):
        run_matrix(matrix["methods"], matrix["problems"], matrix["noise"], matrix["seeds"],
                   eps=1e-3, max_iter=50, jobs=matrix.get("jobs", 1))
    assert runs == []


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        run_matrix(["notamethod"], [("cube", 2)], [0.0], [0])


def test_capability_gap_gives_unsupported_record_not_exception():
    r = run_one("adagH", "helix", None, 0.0, 0, 1e-3)
    assert r.status == "unsupported" and not r.converged
    assert (r.problem, r.n, r.iterations, r.g_evals) == ("helix", 3, 0, 0)
    records = run_matrix(["adagH", "adagrad"], [("helix", None), ("tridia", 10)], [0.0], [],
                         eps=1e-3, max_iter=50)
    status = {(r.method, r.problem): r.status for r in records}
    assert status[("adagH", "helix")] == "unsupported"
    assert status[("adagH", "tridia")] != "unsupported"
    assert status[("adagrad", "helix")] != "unsupported"
