"""Acceptance suite: one test per criterion, one printed line per criterion."""
import time
from dataclasses import replace

import numpy as np
import pytest

from offo.bench import perf_profile, run_matrix, run_one
from offo.problems import make_problem, default_suite
from offo.scaling import as4_floor, rule_from_name
from offo.sharpness import admissibility_margins, build_sequence, hermite_build, replay
from offo.solver import Astr1Config, astr1_run
from offo.theory import (
    check_decrease,
    check_envelope,
    envelope_constant,
    lambert_tail_bound,
    lambert_w_m1,
    params_for_run,
    series_bound,
)

GCP_PROBLEMS = [
    ("rosenbr", 10), ("broyden3d", 10), ("broydenbd", 10), ("arwhead", 10),
    ("tridia", 10), ("woods", 12), ("powellsg", 12), ("engval1", 10),
    ("beale", 2), ("cube", 2), ("vardim", 10), ("hilbert", 10),
]

SCALING_VARIANTS = [
    "adagrad", "adagnorm", "adam", "adamnorm", "maxg", "maxgnorm",
    "adagrads", "adams", "maxgs",
]
MODEL_VARIANTS = [("adagbb", "bb"), ("adagbfgs3", "lbfgs3"), ("adagH", "exact")]

EXACT_L = [("tridia", 10), ("hilbert", 10), ("arglina", 10), ("arglinb", 10)]


def _variant_rules():
    out = [(name, rule_from_name(name), "none") for name in SCALING_VARIANTS]
    out += [(name, rule_from_name("adagrad"), model) for name, model in MODEL_VARIANTS]
    return out


@pytest.fixture(scope="module")
def gcp_matrix_traces():
    traces = []
    for prob_name, n in GCP_PROBLEMS:
        problem = make_problem(prob_name, n)
        for variant, rule, model in _variant_rules():
            for geometry in ("box", "ball"):
                run_rule = rule if geometry == "box" else replace(rule, aggregated=True)
                cfg = Astr1Config(scaling=run_rule, model=model, geometry=geometry,
                                  eps=1e-3, max_iter=250)
                trace = astr1_run(problem, cfg)
                traces.append((prob_name, variant, geometry, trace))
    return traces


def test_criterion_01_gcp_contract(gcp_matrix_traces):
    t0 = time.time()
    iter_total = 0
    for prob_name, variant, geometry, tr in gcp_matrix_traces:
        assert tr.status in ("converged", "max_iter", "overflow"), (prob_name, variant)
        iter_total += tr.steps
        if tr.steps == 0:
            continue
        tag = (prob_name, variant, geometry)
        assert np.max(tr.sbound_resid) <= 1e-14, tag
        assert np.all(tr.gcp_resid <= 1e-12 * (1.0 + np.abs(tr.q_cauchy))), tag
        assert np.all(tr.q_cauchy <= 1e-15), tag
    runs = len(gcp_matrix_traces)
    print(f"\nCRITERION 1 PASS: trust-region containment and model-decrease "
          f"contract over {runs} runs / {iter_total} iterations "
          f"({time.time() - t0:.1f}s check time)")


def test_every_step_lies_inside_its_trust_region_exactly(gcp_matrix_traces):
    # criterion 1 allows 1e-14; the step itself, box or ball, is inside exactly
    for prob_name, variant, geometry, tr in gcp_matrix_traces:
        assert np.all(tr.sbound_resid <= 0.0), (prob_name, variant, geometry)


def test_criterion_02_zero_objective_calls(gcp_matrix_traces):
    for prob_name, variant, geometry, tr in gcp_matrix_traces:
        assert tr.f_evals == 0, (prob_name, variant, geometry)
    print(f"\nCRITERION 2 PASS: zero objective evaluations in all "
          f"{len(gcp_matrix_traces)} objective-free runs")


def test_criterion_03_decrease_inequality():
    t0 = time.time()
    worst = 0.0
    cases = 0
    for prob_name, n in EXACT_L[:3]:
        problem = make_problem(prob_name, n)
        for rule_name in ("adagrad", "adam", "maxg"):
            rule = rule_from_name(rule_name)
            cfg = Astr1Config(scaling=rule, eps=1e-6, max_iter=3000,
                              instrument_f=True, record_vectors=True)
            trace = astr1_run(problem, cfg)
            p = params_for_run(problem, rule, trace)
            viol = check_decrease(trace, p, as4_floor(rule, problem.n))
            worst = max(worst, viol)
            cases += 1
            assert viol <= 1e-8, (prob_name, rule_name, viol)
    print(f"\nCRITERION 3 PASS: decrease inequality on {cases} instrumented "
          f"runs, max violation {worst:.2e} ({time.time() - t0:.1f}s)")


def test_criterion_04_complexity_envelope():
    t0 = time.time()
    worst = 0.0
    for prob_name, n in EXACT_L[:3]:
        problem = make_problem(prob_name, n)
        rule = rule_from_name("adagrad")  # mu=1/2, theta=vartheta=1, sigma=1/100
        cfg = Astr1Config(scaling=rule, eps=1e-6, max_iter=20_000)
        trace = astr1_run(problem, cfg)
        p = params_for_run(problem, rule, trace)
        kappa = envelope_constant(p, rule.mu)
        rep = check_envelope(trace, kappa)
        worst = max(worst, rep.max_ratio)
        assert rep.passed, (prob_name, rep.max_ratio)
    print(f"\nCRITERION 4 PASS: accumulated squared gradient norms within the "
          f"Lambert-branch constant, max ratio {worst:.2e} ({time.time() - t0:.1f}s)")


def test_criterion_05_series_bound_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    worst = -np.inf
    for _ in range(1000):
        a = rng.uniform(0.0, 4.0, rng.integers(1, 25))
        xi = float(rng.uniform(0.02, 5.0))
        for alpha in (0.3, 0.7, 1.0, 1.3, 2.0):
            sb = series_bound(a, xi, alpha)
            worst = max(worst, sb.lhs - sb.rhs)
            assert sb.lhs <= sb.rhs + 1e-12
    a = rng.uniform(0.0, 4.0, 30)
    mid = series_bound(a, 1.0, 1.0).rhs
    for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
        assert abs(series_bound(a, 1.0, alpha).rhs - mid) <= 1e-4 * mid
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    print(f"\nCRITERION 5 PASS: series bound holds on 5000 fuzz cases "
          f"(max lhs-rhs {worst:.2e}), continuous at the log case ({elapsed:.2f}s)")


def test_criterion_06_lambert_w():
    t0 = time.time()
    xs = -np.exp(np.linspace(np.log(np.exp(-1) - 1e-9), np.log(1e-12), 1000))
    worst = 0.0
    for x in xs:
        w = lambert_w_m1(float(x))
        worst = max(worst, abs(w * np.exp(w) - x) / abs(x))
    assert worst <= 1e-12
    assert abs(lambert_w_m1(-np.exp(-1.0)) + 1.0) <= 1e-8
    for x in np.exp(np.linspace(np.log(1e-3), np.log(1e3), 100)):
        lhs, rhs = lambert_tail_bound(float(x))
        assert lhs <= rhs
    elapsed = time.time() - t0
    assert elapsed <= 1.0
    print(f"\nCRITERION 6 PASS: lower Lambert branch residual {worst:.2e} on a "
          f"1000-point grid; branch point and tail bound verified ({elapsed:.2f}s)")


def test_criterion_07_sharpness_sqsum_replay():
    t0 = time.time()
    K = 10_000
    seq = build_sequence("thm31", K, mu=0.5, eta=0.01, sigma=0.01)
    rep = replay(seq, hermite_build(seq))
    assert rep.matched
    assert rep.max_iterate_dev <= 1e-8
    ks = np.arange(1, K + 1, dtype=float)
    decay = rep.trace.normg[1 : K + 1] * ks**0.51
    dev = float(np.max(np.abs(decay - 1.0)))
    assert dev <= 1e-8
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    print(f"\nCRITERION 7 PASS: accumulated-squares worst case replayed for "
          f"K={K}; max iterate dev {rep.max_iterate_dev:.2e}, "
          f"decay dev {dev:.2e} ({elapsed:.1f}s)")


def test_criterion_08_sharpness_growth_replay():
    t0 = time.time()
    K = 10_000
    nu, omega = 1.0 / 9.0, 4.0 / 9.0 + 0.01
    seq = build_sequence("thm41", K, nu=nu, omega=omega)
    m1, m2 = admissibility_margins(seq)
    assert m1 >= 0.0 and m2 >= 0.0
    rep = replay(seq, hermite_build(seq))
    assert rep.matched
    ks = np.arange(0, K + 1, dtype=float)
    decay = rep.trace.normg[: K + 1] * (ks + 1.0) ** omega
    dev = float(np.max(np.abs(decay - 1.0)))
    assert dev <= 1e-8
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    print(f"\nCRITERION 8 PASS: growth-scheduled worst case replayed for K={K}; "
          f"decay dev {dev:.2e}, admissibility margins ({m1:.2e}, {m2:.2e}) "
          f"({elapsed:.1f}s)")


def test_criterion_09_noise_robustness_trend():
    t0 = time.time()
    suite = default_suite()
    methods = ["adagrad", "sdba"]
    clean = run_matrix(methods, suite, [0.0], [0], eps=1e-3, max_iter=20_000, jobs=2)
    noisy = run_matrix(methods, suite, [0.15], list(range(10)), eps=1e-3,
                       max_iter=20_000, jobs=2)
    rho = {
        (m, lv): perf_profile(recs).rho[m]
        for m in methods
        for lv, recs in ((0.0, clean), (0.15, noisy))
    }
    sdba_drop = rho[("sdba", 0.0)] - rho[("sdba", 0.15)]
    adagrad_drop = rho[("adagrad", 0.0)] - rho[("adagrad", 0.15)]
    assert sdba_drop >= 25.0, rho
    assert adagrad_drop <= 10.0, rho
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    print(f"\nCRITERION 9 PASS: at 15% noise sdba reliability fell "
          f"{rho[('sdba', 0.0)]:.1f}% -> {rho[('sdba', 0.15)]:.1f}% while adagrad "
          f"held {rho[('adagrad', 0.0)]:.1f}% -> {rho[('adagrad', 0.15)]:.1f}% "
          f"({elapsed:.0f}s)")


def test_criterion_10_profile_machinery():
    t0 = time.time()
    from test_bench import rec

    rep = perf_profile([rec("a", "p1", 100), rec("b", "p1", 200)])
    assert rep.pi["a"] == pytest.approx(1.0, abs=1e-9)
    assert rep.pi["b"] == pytest.approx(0.96, abs=1e-9)
    # a small real report: monotone curves and pi <= rho / 100
    records = run_matrix(["adagrad", "maxg", "adam", "sdba"],
                         [("cube", 2), ("beale", 2), ("tridia", 6), ("vardim", 6)],
                         [0.0], [0], eps=1e-3, max_iter=2000)
    real = perf_profile(records)
    for m in real.methods:
        _, vals = real.curves[m]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert real.pi[m] <= real.rho[m] / 100.0 + 1e-12
    elapsed = time.time() - t0
    print(f"\nCRITERION 10 PASS: profile area 0.96/1.00 on the two-method "
          f"example; monotone curves with pi <= rho/100 on a real report "
          f"({elapsed:.1f}s)")


def test_criterion_11_dimension_scaling_smoke():
    t0 = time.time()
    methods = ["adagnorm", "adagrad", "adagrads", "maxgnorm", "maxg", "maxgs"]
    iters = {}
    for n in (10, 100, 1000):
        for m in methods:
            r = run_one(m, "broyden3d", n, 0.0, 0, 1e-3, max_iter=50_000)
            assert r.status in ("converged", "max_iter", "overflow"), (m, n, r.status)
            iters[(m, n)] = r.iterations
    grow = [iters[("adagnorm", n)] for n in (10, 100, 1000)]
    assert grow[0] < grow[1] < grow[2]
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    print(f"\nCRITERION 11 PASS: broyden3d scaling, adagnorm iterations "
          f"{grow[0]} -> {grow[1]} -> {grow[2]} for n=10,100,1000; all 18 runs "
          f"have recorded statuses ({elapsed:.0f}s)")
